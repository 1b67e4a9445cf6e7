"""The ledger records every key switch's shape where it is charged.

``OpLedger.key_switches`` counts :class:`KeySwitch` shapes, and export
prices an artifact's digit grouping on that Counter from one plain
simulator run.  Pinned here:

- each charging site records exactly what the reference tally
  (``tests/reference/key_switch_tally.py``) lists for the same ops;
- the exact and the functional backend record the same Counter for one
  compiled program, and book the same counts and seconds for one that
  holds every instruction kind — the booking is ``FheBackend``'s, and
  both refuse mismatched operands with the same message;
- ``reset`` clears the Counter, and a serving lane's one ledger (its
  backend's too) after k requests holds k times one request's.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import repro.orion.nn as on
from reference.key_switch_tally import KeySwitchTally
from repro.backend import SimBackend, ToyBackend
from repro.backend.ledger import KeySwitch, OpLedger
from repro.ckks.params import toy_parameters
from repro.core.packing.matvec import held_tables
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
    tables = held_tables({}, backend, terms, ct.level, pt_scale, None)
    backend.matvec_fused([ct, ct], terms, 2, pt_scale, tables, None)
    terms = {(0, 0, 0): values}
    tables = held_tables({}, backend, terms, ct.level, pt_scale, None)
    backend.matvec_fused([ct], terms, 1, pt_scale, tables, None)
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
        # (4, 3) block-level; a lone client folds below the block only.
        assert linear_5.packed.fold_groups == (3,)
        assert all(shapes[ks] == count for ks, count in folds.items())


class EveryKind(on.Module):
    """One of every instruction kind the compiler emits: linear layers, a
    ReLU (poly + multjoin), fused sibling convs (slice), their residual
    add (addjoin), a Square and a SiLU (poly with its scale pin)."""

    def __init__(self):
        super().__init__()
        self.conv1 = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.act = on.ReLU(degrees=(3, 3))
        self.conv_a = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.conv_b = on.Conv2d(2, 2, 3, padding=1, bias=False)
        self.add = on.Add()
        self.sq = on.Square()
        self.flat = on.Flatten()
        self.fc = on.Linear(32, 16)
        self.silu = on.SiLU(degree=7)
        self.out = on.Linear(16, 4)

    def forward(self, x):
        x = self.act(self.conv1(x))
        x = self.sq(self.add(self.conv_a(x), self.conv_b(x)))
        return self.out(self.silu(self.fc(self.flat(x))))


class TestOneBook:
    def test_every_instruction_kind_books_alike(self):
        init.seed_init(0)
        rng = np.random.default_rng(0)
        onet = OrionNetwork(EveryKind(), (2, 4, 4))
        onet.fit([rng.normal(0, 0.5, (8, 2, 4, 4))])
        # The 32-slot ring the input fills: with room to batch clients,
        # the compiler would keep the siblings apart (no slice).
        params = toy_parameters(ring_degree=64, max_level=8, boot_levels=1, scale_bits=24)
        program = onet.compile(params, optimize=True).program
        assert {instr.kind for instr in program.instructions} == {
            "linear", "poly", "multjoin", "slice", "addjoin", "square"
        }
        image = rng.normal(0, 0.5, (2, 4, 4))
        toy, sim = ToyBackend(params, seed=3), SimBackend(params, seed=3)
        for backend in (toy, sim):
            program.run(backend, image)
        assert toy.ledger.bootstraps > 0
        assert toy.ledger.counts == sim.ledger.counts
        assert toy.ledger.seconds == sim.ledger.seconds
        assert toy.ledger.key_switches == sim.ledger.key_switches

    @pytest.mark.parametrize("op", ["add", "sub", "add_plain", "mul_plain", "mul"])
    def test_level_mismatch_reads_alike(self, op):
        assert len(set(self._refusals(op, level=3, scale=1))) == 1

    @pytest.mark.parametrize("op", ["add", "sub", "add_plain"])
    def test_scale_mismatch_reads_alike(self, op):
        assert len(set(self._refusals(op, level=4, scale=2))) == 1

    @staticmethod
    def _refusals(op, level, scale):
        """The message each backend refuses ``op`` with, on a level-4
        ciphertext and an operand at ``level`` and ``scale`` x Delta."""
        params = toy_parameters(**PARAMS)
        messages = []
        for backend in ToyBackend(params, seed=1), SimBackend(params, seed=1):
            values = np.linspace(-0.5, 0.5, backend.slot_count)
            a = backend.level_down(backend.encode_encrypt(values), 4)
            plain = backend.encode(values, level, params.scale * scale)
            b = plain if op in ("add_plain", "mul_plain") else backend.encrypt(plain)
            with pytest.raises(ValueError, match="mismatch") as refused:
                getattr(backend, op)(a, b)
            messages.append(str(refused.value))
        return messages


class TestLedgerFolds:
    def test_reset_clears(self):
        ledger = OpLedger()
        ledger.key_switches[KeySwitch(3)] += 2
        ledger.key_switches[KeySwitch(2, gathers=1)] += 4
        ledger.reset()
        assert not ledger.key_switches

    def test_a_lane_accumulates_k_requests(self, mlp, tmp_path):
        onet, params, _ = mlp
        path = str(tmp_path / "mlp.npz")
        onet.export(path, params)
        artifact = ArtifactMap(path).load()
        server = InferenceServer(
            artifact, ToyBackend(artifact.manifest.to_params(), seed=4), max_batch=1
        )
        rng = np.random.default_rng(4)
        server.serve_now(0, rng.normal(0, 0.5, (1, 4, 4)))
        one = Counter(server.ledger.key_switches)
        assert one
        for k in range(2, 5):
            server.serve_now(k, rng.normal(0, 0.5, (1, 4, 4)))
            want = Counter({ks: k * count for ks, count in one.items()})
            assert server.ledger.key_switches == want
            assert server.backend.ledger.key_switches == want
