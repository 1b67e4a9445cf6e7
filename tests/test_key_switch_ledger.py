"""The ledger records every key switch's shape where it is charged.

``OpLedger.key_switches`` counts :class:`KeySwitch` shapes, and export
prices an artifact's digit grouping on that Counter from one plain
simulator run.  Pinned here:

- each charging site records exactly what the reference tally
  (``tests/reference/key_switch_tally.py``) lists for the same ops;
- the exact and the functional backend record the same Counter for one
  compiled program;
- ``merge`` folds the Counter and ``reset`` clears it, so a serving
  lane's cumulative ledger after k requests holds k times one request's.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from reference.key_switch_tally import KeySwitchTally
from repro.backend import SimBackend, ToyBackend
from repro.backend.ledger import KeySwitch, OpLedger
from repro.ckks.params import toy_parameters
from repro.core.program import LinearInstr
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap
from repro.serve.runtime import InferenceServer

PARAMS = dict(ring_degree=512, max_level=6, boot_levels=1, scale_bits=24)


def _every_key_switching_op(backend):
    """Play each key-switching op once or more, at several levels —
    zero and full-turn rotations included, which switch nothing."""
    slots = backend.slot_count
    values = np.linspace(-0.5, 0.5, slots)
    top = backend.encode_encrypt(values)
    ct = backend.level_down(top, 4)
    backend.mul(top, top)
    backend.mul(ct, ct)
    for steps in (3, 0, slots, -1):
        backend.rotate(ct, steps)
    backend.conjugate(top)
    backend.rotate_hoisted(ct, [0, 1, 2, -1, 2])
    backend.rotate_hoisted(ct, [0, slots])
    rng = np.random.default_rng(0)
    pt_scale = Fraction(backend.params.data_primes[ct.level])
    terms = {
        (bo, bi, off): rng.uniform(-1, 1, slots)
        for bo in range(2)
        for bi in range(2)
        for off in ([0, 1, 4, ("conj", 0)] if bo == 0 else [0, 4])
    }
    backend.matvec_fused([ct, ct], terms, 2, pt_scale)
    backend.matvec_fused([ct], {(0, 0, 0): values}, 1, pt_scale)
    backend.rotate_sum_hoisted(ct, [1, 2, 3])
    backend.rotate_sum_hoisted(ct, [0])


@pytest.fixture(scope="module")
def mlp():
    """SecureMlp(16, 8, 2) at N = 512: Gazelle folds in hoisted groups,
    ``linear_5``'s 7-deep ladder in two of them."""
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=16, hidden=8, classes=2), (1, 4, 4))
    onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 4, 4))])
    params = toy_parameters(**PARAMS)
    return onet, params, onet.compile(params, optimize=True)


class TestRecordingSites:
    def test_each_op_records_what_the_tally_lists(self):
        tally = KeySwitchTally(toy_parameters(**PARAMS))
        _every_key_switching_op(tally)
        assert Counter(tally.switches) == tally.ledger.key_switches
        assert sum(tally.ledger.key_switches.values()) == len(tally.switches) == 8

    def test_exact_and_functional_backends_record_alike(self):
        params = toy_parameters(**PARAMS)
        backends = ToyBackend(params, seed=1), SimBackend(params, seed=1)
        for backend in backends:
            _every_key_switching_op(backend)
        toy, sim = (backend.ledger.key_switches for backend in backends)
        assert toy == sim
        assert toy[KeySwitch(6)] == 1 and toy[KeySwitch(4, gathers=1)] == 2

    def test_one_compiled_program(self, mlp):
        _, params, compiled = mlp
        program = compiled.program
        image = np.random.default_rng(3).normal(0, 0.5, (1, 4, 4))
        toy, sim = ToyBackend(params, seed=2), SimBackend(params, seed=2)
        for backend in (toy, sim):
            program.run(backend, image)
        assert toy.ledger.key_switches == sim.ledger.key_switches
        shapes = toy.ledger.key_switches
        assert toy.ledger.counts["hmult"] == sum(
            count for ks, count in shapes.items() if ks == KeySwitch(ks.level)
        )
        # Each fold group: one hoisted key switch over its 2^g - 1 subset
        # sums, one level below its layer (after the rescale).
        folds = Counter()
        for instr in program.instructions:
            if isinstance(instr, LinearInstr):
                for g in instr.packed.fold_groups:
                    k = (1 << g) - 1
                    level = instr.exec_level - 1
                    folds[KeySwitch(level, products=k, gathers=k, table_rows=k)] += 1
        linear_5 = [i for i in program.instructions if i.name == "linear_5"][0]
        assert linear_5.packed.fold_groups == (4, 3)
        assert all(shapes[ks] == count for ks, count in folds.items())


class TestLedgerFolds:
    def test_merge_folds_and_reset_clears(self):
        a, b = OpLedger(), OpLedger()
        a.key_switches[KeySwitch(3)] += 2
        b.key_switches[KeySwitch(3)] += 1
        b.key_switches[KeySwitch(2, gathers=1)] += 4
        a.merge(b)
        assert a.key_switches == Counter({KeySwitch(3): 3, KeySwitch(2, gathers=1): 4})
        assert b.key_switches == Counter({KeySwitch(3): 1, KeySwitch(2, gathers=1): 4})
        a.reset()
        assert not a.key_switches

    def test_a_lane_accumulates_k_requests(self, mlp, tmp_path):
        onet, params, _ = mlp
        path = str(tmp_path / "mlp.npz")
        onet.export(path, params)
        artifact = ArtifactMap(path).load()
        server = InferenceServer(
            artifact, ToyBackend(artifact.manifest.to_params(), seed=4), batching=False
        )
        rng = np.random.default_rng(4)
        server.serve_now(rng.normal(0, 0.5, (1, 4, 4)))
        one = Counter(server.ledger.key_switches)
        assert one
        for k in range(2, 5):
            server.serve_now(rng.normal(0, 0.5, (1, 4, 4)))
            want = Counter({ks: k * count for ks, count in one.items()})
            assert server.ledger.key_switches == want
            assert server.backend.ledger.key_switches == want
