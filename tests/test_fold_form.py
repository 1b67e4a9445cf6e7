"""A linear layer's fold form is compiled, and the key manifest is exact.

The compiler fixes each packed layer's Gazelle fold form once, after
placement (``PackedMatVec.fused_folds``, from ``CostModel.
fused_fold_depth`` at the layer's ``exec_level``); execution never asks
a cost model.  So the rotations an inference performs are exactly the
ones ``required_rotation_steps`` names, view by view — checked here on
an exact backend by recording every Galois key the inference fetches —
and the form survives every way a layer is copied: the artifact
payload, batched views and sibling merges.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import ToyBackend
from repro.backend.costs import CostModel
from repro.ckks.params import paper_parameters, toy_parameters
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import (
    PackedMatVec,
    build_linear_packing,
    merge_packed_matvecs,
)
from repro.core.program import LinearInstr
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve.keys import generate_lane_keys

TOY_SETS = {
    "n512_l6": dict(ring_degree=512, max_level=6, boot_levels=1, scale_bits=24),
    "n4096_l6": dict(ring_degree=4096, max_level=6, boot_levels=1, scale_bits=24),
    "n256_l5": dict(ring_degree=256, max_level=5),
    "alpha2_special2": dict(
        ring_degree=256, max_level=5, num_special_primes=2, ks_alpha=2
    ),
    "n2048_l12_alpha2": dict(
        ring_degree=2048, max_level=12, num_special_primes=2, ks_alpha=2
    ),
    "n1024_l12_alpha3": dict(
        ring_degree=1024, max_level=12, num_special_primes=3, ks_alpha=3
    ),
}


def _linear(program):
    return [i for i in program.instructions if isinstance(i, LinearInstr)]


@pytest.fixture(scope="module")
def mlp():
    """SecureMlp(16, 8, 2) at N = 512: ``linear_5`` (2 outputs in 256
    slots) folds 7 deep at level 1, one more than the cost model runs
    expanded there — sequential alone, expanded in every batched view —
    while the wider layers fold expanded throughout."""
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=16, hidden=8, classes=2), (1, 4, 4))
    onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 4, 4))])
    params = toy_parameters(**TOY_SETS["n512_l6"])
    return params, onet.compile(params).program


class TestFoldDepthThreshold:
    @pytest.mark.parametrize("name", sorted(TOY_SETS) + ["paper"])
    def test_expanded_folds_are_a_prefix_at_every_level(self, name):
        params = (
            paper_parameters() if name == "paper" else toy_parameters(**TOY_SETS[name])
        )
        costs = CostModel(params)
        for level in range(params.max_level + 1):
            depth = costs.fused_fold_depth(level)
            assert depth >= 1, f"level {level}: one fold must run expanded"
            for folds in range(1, 33):
                assert costs.fused_fold_cheaper(level, folds) == (folds <= depth), (
                    f"level {level}, {folds} folds vs depth {depth}"
                )

    def test_fold_cost_prices_the_form_the_depth_picks(self):
        costs = CostModel(toy_parameters(**TOY_SETS["n256_l5"]))
        for level in range(6):
            depth = costs.fused_fold_depth(level)
            for folds in (depth, depth + 1):
                fused, sequential = costs._fold_prices(level, folds)
                want = fused if folds <= depth else sequential
                assert costs.fold_cost(level, folds, num_out=3) == 3 * want


class TestCompiledForm:
    def test_the_network_has_a_layer_in_each_form(self, mlp):
        _, program = mlp
        forms = {
            (i.name, len(i.packed.fold_shifts), i.packed.folds_expanded())
            for i in _linear(program)
        }
        assert ("linear_5", 7, False) in forms
        assert any(expanded for _, folds, expanded in forms if folds)
        batched = {i.name: i.packed for i in _linear(program.batched(2))}
        assert len(batched["linear_5"].fold_shifts) == 6
        assert batched["linear_5"].folds_expanded()

    def test_form_comes_from_the_compilers_cost_model(self, mlp):
        params, program = mlp
        costs = CostModel(params)
        for instr in _linear(program):
            packed = instr.packed
            assert packed.fused_folds == min(
                len(packed.fold_shifts), costs.fused_fold_depth(instr.exec_level)
            )
        # A cost model that never prices the expansion cheaper compiles
        # every fold sequential, whatever the executing backend's model.
        init.seed_init(0)
        onet = OrionNetwork(SecureMlp(input_pixels=16, hidden=8, classes=2), (1, 4, 4))
        onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 4, 4))])
        dear = CostModel(params, c_inner_fused=1.0)
        assert dear.fused_fold_depth(params.max_level) == 0
        compiled = onet.compile(params, cost_model=dear)
        assert all(i.packed.fused_folds == 0 for i in _linear(compiled.program))
        backend = ToyBackend(params, seed=3)
        compiled.program.run(backend, np.zeros((1, 4, 4)))
        folds = sum(len(i.packed.fold_shifts) for i in _linear(compiled.program))
        assert backend.ledger.counts["hrot"] == folds


class TestManifestIsExact:
    def test_each_view_touches_exactly_its_required_steps(self, mlp):
        """The ROADMAP item B gate: on an exact backend, the Galois keys
        one inference fetches at batch size b are that view's
        ``required_rotation_steps``, and their union over the views up
        to b is ``required_rotation_step_levels(b)`` — each at no more
        than the manifest's level."""
        params, program = mlp
        capacity = program.slot_batch_capacity()
        assert capacity >= 4
        backend = ToyBackend(params, seed=1)
        generate_lane_keys(backend, program)
        context = backend.context
        exponent = context.encoder.rotation_exponent
        fetch = context.galois_key
        touched = {}

        def recording(exp, max_level=None):
            exp %= 2 * params.ring_degree
            touched[exp] = max(touched.get(exp, -1), max_level)
            return fetch(exp, max_level=max_level)

        context.galois_key = recording
        rng = np.random.default_rng(5)
        union = {}
        batch = 1
        while batch <= capacity:
            view = program.batched(batch)
            touched.clear()
            shape = (1, 4, 4) if batch == 1 else (batch, 1, 4, 4)
            view.run(backend, rng.normal(0, 0.5, shape))
            want = {
                exponent(step)
                for instr in _linear(view)
                for step in instr.packed.required_rotation_steps()
            }
            assert set(touched) == want, f"batch {batch}"
            for exp, level in touched.items():
                union[exp] = max(union.get(exp, -1), level)
            levels = program.required_rotation_step_levels(batch)
            assert {exponent(step) for step in levels} == set(union)
            for step, level in levels.items():
                assert union[exponent(step)] <= level
            batch *= 2


class TestFormSurvivesCopies:
    N = 256

    def _hybrid(self, rows=2, seed=0):
        rng = np.random.default_rng(seed)
        packed = build_linear_packing(
            rng.normal(size=(rows, 64)), rng.normal(size=rows),
            VectorLayout(64, self.N), force_mode="hybrid",
        )
        assert packed.fold_shifts
        return packed

    def test_payload_round_trip_keeps_it(self):
        packed = self._hybrid()
        packed.fused_folds = 4
        stored = {}

        def store(array):
            stored[f"a{len(stored)}"] = array
            return f"a{len(stored) - 1}"

        payload = packed.to_payload(store)
        assert payload["fused_folds"] == 4
        loaded = PackedMatVec.from_payload(payload, stored.__getitem__)
        assert loaded.fused_folds == 4
        assert loaded.required_rotation_steps() == packed.required_rotation_steps()

    def test_batched_views_inherit_it(self):
        packed = self._hybrid()
        packed.fused_folds = len(packed.fold_shifts) - 1
        assert not packed.folds_expanded()
        view = packed.batched(2)
        assert view.fused_folds == packed.fused_folds
        assert len(view.fold_shifts) == len(packed.fold_shifts) - 1
        assert view.folds_expanded()
        assert set(view.fold_expansion) <= set(view.required_rotation_steps())

    def test_merged_layers_inherit_it_and_refuse_a_mix(self):
        first, second = self._hybrid(seed=1), self._hybrid(seed=2)
        first.fused_folds = second.fused_folds = 3
        assert merge_packed_matvecs([first, second]).fused_folds == 3
        with pytest.raises(ValueError, match="fold form"):
            merge_packed_matvecs([first, replace(second, fused_folds=0)])

    def test_required_steps_name_one_form_only(self):
        packed = self._hybrid()
        offsets = {
            off % self.N for dmap in packed.diags.values() for off in dmap
        } - {0}
        shifts = set(packed.fold_shifts)
        expansion = set(packed.fold_expansion)
        sequential = set(packed.required_rotation_steps())
        assert sequential == offsets | shifts
        packed.fused_folds = len(packed.fold_shifts)
        assert set(packed.required_rotation_steps()) == offsets | expansion
