"""A linear layer's fold partition is compiled, and the key manifest is exact.

The compiler fixes each packed layer's Gazelle fold partition once,
after placement (``PackedMatVec.fold_groups``, from ``CostModel.
fold_partition`` at the layer's ``exec_level``): consecutive groups of
the fold ladder, each one hoisted key switch over its subset sums.
Execution never asks a cost model.  So the rotations an inference
performs are exactly the ones ``required_rotation_steps`` names, view
by view — checked here on an exact backend by recording every Galois
key the inference fetches — and the partition survives every way a
layer is copied: the artifact payload, batched views and sibling
merges.

A slot-batched view rotates by no step the single-client program lacks:
out-of-block scratch is gathered by a block-shift rotation made of the
layer's own fold steps, so every view's manifest is the batch-1
manifest.  The relocating form it replaced is the oracle
``tests/reference/batched_relocation.py``.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.backend import SimBackend, ToyBackend
from repro.backend.costs import CostModel
from repro.ckks.keys import KeyManifest
from repro.ckks.params import paper_parameters, toy_parameters
from repro.core.packing import matvec
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import (
    PackedMatVec,
    build_linear_packing,
    fold_group_steps,
    merge_packed_matvecs,
)
from repro.core.program import LinearInstr
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve.keys import generate_lane_keys

from reference.batched_relocation import relocated_view

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
    slots) folds 7 deep at level 1, in two groups (4, 3); the wider
    layers fold 5 deep as (3, 2).  Batched views drop the shifts that
    span a block from their groups, down to a lone group."""
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=16, hidden=8, classes=2), (1, 4, 4))
    onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 4, 4))])
    params = toy_parameters(**TOY_SETS["n512_l6"])
    return params, onet.compile(params).program


def _mlp_program(pixels, hidden, ring_degree):
    """``SecureMlp(pixels, hidden)`` as the e2e harness compiles it: at
    N = 2048 the ``serve_mlp_pool`` artifact, at 4096 ``mlp_solo``."""
    side = math.isqrt(pixels)
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=pixels, hidden=hidden), (1, side, side))
    onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (8, 1, side, side))])
    params = toy_parameters(
        ring_degree=ring_degree, max_level=6, boot_levels=1, scale_bits=24
    )
    return params, onet.compile(params).program


@pytest.fixture(scope="module")
def pool():
    return _mlp_program(64, 16, 2048)


@pytest.fixture(scope="module")
def solo():
    return _mlp_program(784, 128, 4096)


def _views(program):
    """Every slot-batched view of ``program``, smallest batch first."""
    batch = 2
    while batch <= program.slot_batch_capacity():
        yield batch, program.batched(batch)
        batch *= 2


def _group_price(costs, level, size):
    """One hoisted group of ``size`` folds: a decomposition, a mod-down,
    and an inner product and an add per nonzero subset sum."""
    return (
        costs.ks_decompose(level)
        + ((1 << size) - 1) * (costs.ks_inner_fused(level) + costs.hadd(level))
        + costs.ks_moddown(level)
    )


def _compositions(total):
    """Every ordered split of ``total`` folds into nonempty groups."""
    for cuts in itertools.product((False, True), repeat=total - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield tuple(sizes + [size])


class TestFoldPartition:
    @pytest.mark.parametrize("name", sorted(TOY_SETS) + ["paper"])
    def test_partition_is_the_cheapest_composition_at_every_level(self, name):
        """The balanced search over group counts finds the brute-force
        minimum over all compositions of the ladder, never dearer than
        the full expansion or the sequential fold."""
        params = (
            paper_parameters() if name == "paper" else toy_parameters(**TOY_SETS[name])
        )
        costs = CostModel(params)
        for level in range(params.max_level + 1):
            for folds in range(1, 9):
                def price(sizes):
                    return sum(_group_price(costs, level, g) for g in sizes)

                best = min(price(sizes) for sizes in _compositions(folds))
                partition = costs.fold_partition(level, folds)
                chosen = costs.fold_cost(level, folds)
                where = f"level {level}, {folds} folds: {partition}"
                assert sum(partition) == folds and min(partition) >= 1, where
                assert max(partition) - min(partition) <= 1, where
                assert list(partition) == sorted(partition, reverse=True), where
                assert math.isclose(chosen, price(partition), rel_tol=1e-12), where
                assert math.isclose(chosen, best, rel_tol=1e-12), where
                for bound in (price((folds,)), price((1,) * folds)):
                    assert chosen <= bound * (1 + 1e-12), where

    def test_fold_cost_prices_the_partition_per_output(self):
        costs = CostModel(toy_parameters(**TOY_SETS["n256_l5"]))
        for level in range(6):
            for folds in range(9):
                partition = costs.fold_partition(level, folds)
                want = sum(_group_price(costs, level, g) for g in partition)
                got = costs.fold_cost(level, folds, num_out=3)
                assert math.isclose(got, 3 * want, rel_tol=1e-12)

    def test_a_second_call_does_no_pricing(self, monkeypatch):
        costs = CostModel(toy_parameters(**TOY_SETS["n256_l5"]))
        priced = []
        decompose = CostModel.ks_decompose

        def counting(self, level):
            priced.append(level)
            return decompose(self, level)

        monkeypatch.setattr(CostModel, "ks_decompose", counting)
        first = (costs.fold_partition(4, 7), costs.fold_cost(4, 7))
        assert priced
        priced.clear()
        assert (costs.fold_partition(4, 7), costs.fold_cost(4, 7)) == first
        assert costs.fold_cost(4, 7, num_out=2) == 2 * first[1]
        assert priced == []


class TestCompiledForm:
    def test_the_network_has_multi_group_and_truncated_partitions(self, mlp):
        _, program = mlp
        groups = {i.name: i.packed.fold_groups for i in _linear(program)}
        assert groups == {"linear_1": (3, 2), "linear_3": (3, 2), "linear_5": (4, 3)}
        # A batched view drops the shifts spanning a block (the largest,
        # so from the first group); a group left empty vanishes.
        want = {
            2: {"linear_1": (2, 2), "linear_5": (3, 3)},
            4: {"linear_1": (1, 2), "linear_5": (2, 3)},
            8: {"linear_1": (2,), "linear_5": (1, 3)},
        }
        for batch, by_name in want.items():
            view = {i.name: i.packed for i in _linear(program.batched(batch))}
            for name, fold_groups in by_name.items():
                assert view[name].fold_groups == fold_groups, (batch, name)
                assert sum(fold_groups) == len(view[name].fold_shifts)

    def test_partition_comes_from_the_compilers_cost_model(self, mlp):
        params, program = mlp
        costs = CostModel(params)
        for instr in _linear(program):
            packed = instr.packed
            assert packed.fold_groups == costs.fold_partition(
                instr.exec_level, len(packed.fold_shifts)
            )
        # A cost model that prices every inner product dear compiles the
        # sequential fold (one group per shift), one that prices the
        # decomposition dear the full expansion (one group), whatever
        # the executing backend's model.  Either way each group is one
        # hoisted key switch over its subset sums, charging its folds.
        init.seed_init(0)
        onet = OrionNetwork(SecureMlp(input_pixels=16, hidden=8, classes=2), (1, 4, 4))
        onet.fit([np.random.default_rng(0).normal(0, 0.5, (8, 1, 4, 4))])
        extremes = ((dict(c_inner_fused=1.0), True), (dict(c_decompose=10.0), False))
        for model, single in extremes:
            compiled = onet.compile(params, cost_model=CostModel(params, **model))
            layers = _linear(compiled.program)
            for instr in layers:
                k = len(instr.packed.fold_shifts)
                assert instr.packed.fold_groups == ((1,) * k if single else (k,))
            backend = ToyBackend(params, seed=3)
            calls = []
            hoisted = backend.rotate_sum_hoisted

            def recording(ct, steps, charged_rotations=None):
                calls.append((len(steps), charged_rotations))
                return hoisted(ct, steps, charged_rotations=charged_rotations)

            backend.rotate_sum_hoisted = recording
            compiled.program.run(backend, np.zeros((1, 4, 4)))
            want = [
                ((1 << g) - 1, g)
                for instr in layers
                for g in instr.packed.fold_groups
            ]
            assert calls == want
            assert backend.ledger.counts.get("hrot", 0) == 0


class TestManifestIsExact:
    def test_each_view_touches_exactly_its_required_steps(self, mlp):
        """The manifest gate: on an exact backend, the Galois keys one
        inference fetches at batch size b are exactly that view's
        ``required_rotation_steps`` — the diagonal offsets, the gather
        steps and every fold group's subset sums — all of them steps of
        the single-client manifest, each fetched at no more than the
        level it records — and their union over the views up to any b is
        the manifest, ``required_rotation_step_levels()``.  At b = 2
        ``linear_5``'s first group has lost its block-spanning shift: of
        the sums through it only the gather, the shift itself, is
        fetched."""
        params, program = mlp
        capacity = program.slot_batch_capacity()
        assert capacity >= 4
        backend = ToyBackend(params, seed=1)
        generate_lane_keys(backend, KeyManifest.for_program(params, program))
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
        levels = program.required_rotation_step_levels()
        single = {exponent(step): level for step, level in levels.items()}
        gathered, union = set(), {}
        batch = 1
        while batch <= capacity:
            view = program.batched(batch)
            touched.clear()
            shape = (1, 4, 4) if batch == 1 else (batch, 1, 4, 4)
            view.run(backend, rng.normal(0, 0.5, shape))
            want = set()
            for instr in _linear(view):
                packed = instr.packed
                steps = {
                    off % packed.slots for dmap in packed.diags.values() for off in dmap
                }
                steps.update(step for chain in packed.gathers for step in chain)
                for group in fold_group_steps(
                    packed.fold_shifts, packed.fold_groups, packed.slots
                ):
                    steps.update(group)
                assert set(packed.required_rotation_steps()) == steps - {0}
                if packed.gathers:
                    gathered.add(batch)
                want |= {exponent(step) for step in steps - {0}}
            assert set(touched) == want, f"batch {batch}"
            assert want <= set(single), f"batch {batch}"
            for exp, level in touched.items():
                assert level <= single[exp], f"batch {batch}"
            if batch == 2:
                whole = {i.name: i.packed for i in _linear(program)}["linear_5"]
                half = {i.name: i.packed for i in _linear(view)}["linear_5"]
                dropped = whole.fold_shifts[0]
                assert whole.fold_groups == (4, 3) and half.fold_groups == (3, 3)
                assert dropped not in half.fold_shifts
                assert half.gathers == ((), (dropped,))
                lost = set(fold_group_steps(whole.fold_shifts, (4, 3), whole.slots)[0])
                kept = set(fold_group_steps(half.fold_shifts, (3, 3), half.slots)[0])
                assert dropped in lost and kept < lost
                offsets = {
                    off % half.slots for dmap in half.diags.values() for off in dmap
                }
                unused = lost - kept - offsets - {dropped}
                assert not {exponent(s) for s in unused} & set(touched)
            for exp, level in touched.items():
                union[exp] = max(union.get(exp, -1), level)
            assert {exponent(step) for step in levels} == set(union)
            for step, level in levels.items():
                assert union[exponent(step)] <= level
            batch *= 2
        assert gathered == {2, 4, 8, 16}

    @pytest.mark.parametrize("name", ["mlp", "pool", "solo", "solo_n65536"])
    def test_no_view_adds_a_step(self, name, request):
        """Every slot-batched view rotates only by steps of the
        single-client manifest, at no higher level, so the manifest keys
        a lane at any cap: the e2e artifacts (``serve_mlp_pool`` up to 16 clients,
        ``mlp_solo`` 2) and ``mlp_solo``'s network at the paper's ring,
        N = 2^16 (compiled only: its 157 steps are what a lane there
        keys; the relocating views listed 876)."""
        if name == "solo_n65536":
            _, program = _mlp_program(784, 128, 1 << 16)
        else:
            _, program = request.getfixturevalue(name)
        manifest = program.required_rotation_step_levels()
        views = list(_views(program))
        assert views
        for batch, view in views:
            for step, level in view.required_rotation_step_levels().items():
                assert step in manifest and level <= manifest[step], (batch, step)
        sizes = {"mlp": 27, "pool": 29, "solo": 142, "solo_n65536": 157}
        assert len(manifest) == sizes[name]

    def test_pool_manifest_holds_its_exact_key_count(self, pool):
        """The e2e harness's ``serve_mlp_pool`` artifact (SecureMlp(64,
        16) at N = 2048, L = 6) folds every 6-deep ladder as (3, 3): its
        manifest over all slot-batch views holds 29 rotation keys, the
        single-client set (89 while batched views relocated scratch
        under new offsets, 138 with each ladder fully expanded).  Lanes
        share those keys."""
        _, program = pool
        assert [i.packed.fold_groups for i in _linear(program)] == [(3, 3)] * 3
        assert len(program.required_rotation_step_levels()) == 29


class TestGatheredViews:
    """A batched view keeps each scratch piece's single-client offset and
    gathers the out-of-block pieces with one block-shift rotation."""

    @pytest.mark.parametrize("name", ["mlp", "pool", "solo"])
    def test_pre_fold_vector_is_the_relocating_views(self, name, request):
        """Before the fold, every layer of every view computes what the
        relocating view computes, on random inputs (only the float
        summation order differs), and folds with the same shifts."""
        _, program = request.getfixturevalue(name)
        rng = np.random.default_rng(3)

        def pre_fold(packed, x):
            bare = replace(packed, fold_shifts=(), fold_groups=(), bias_vecs=None)
            return bare.execute_cleartext([x])[0]

        for batch, view in _views(program):
            for instr, layer in zip(_linear(program), _linear(view)):
                packed, gathered = instr.packed, layer.packed
                oracle = relocated_view(packed, batch)
                x = rng.normal(size=packed.slots)
                assert np.allclose(
                    pre_fold(gathered, x), pre_fold(oracle, x), rtol=1e-12, atol=1e-12
                ), (batch, instr.name)
                assert gathered.fold_shifts == oracle.fold_shifts
                assert gathered.fold_groups == oracle.fold_groups
                assert np.array_equal(gathered.bias_vecs[0], oracle.bias_vecs[0])

    def test_a_gather_is_one_subset_sum_per_fold_group(self, pool):
        """``serve_mlp_pool`` (1024 slots, ladder 512 ... 16 as (3, 3)):
        scratch falls in blocks 0 and B - 1 only, and the B = 16 shift,
        960, is no single-client step, so it runs as 896 then 64."""
        _, program = pool
        shifts = {2: (512,), 4: (768,), 8: (896,), 16: (896, 64)}
        for batch, view in _views(program):
            for layer in _linear(view):
                assert layer.packed.gathers == ((), shifts[batch]), batch
                assert set(layer.packed.diags) == {(0, 0), (1, 0)}

    @pytest.mark.parametrize("name", ["pool", "solo"])
    def test_stats_count_what_a_view_charges(self, name, request):
        """A view's ``stats`` are what its execution charges: offsets,
        gather rotations and folds in "# Rots", one PMult per stored
        diagonal, and the gathers as the only un-hoisted rotations."""
        params, program = request.getfixturevalue(name)
        for batch, view in _views(program):
            backend = SimBackend(params, seed=0)
            shape = (batch,) + program.input_layout.tensor_shape
            view.run(backend, np.zeros(shape))
            stats = [layer.packed.stats for layer in _linear(view)]
            counts = backend.ledger.counts
            assert backend.ledger.rotations == sum(s.rotations for s in stats)
            assert counts["pmult"] == sum(s.pmults for s in stats)
            assert counts["hrot"] == sum(sum(s.gathers) for s in stats) > 0

    def test_a_view_with_a_step_of_its_own_is_refused(self, monkeypatch):
        """The relocating form's signature — one scratch piece moved into
        partial 0 under the offset ``off + q*S`` — is a rotation the
        layer never performs, so no manifest holds its key: ``batched``
        refuses such a view, naming the layer and the step."""

        class Relocating(PackedMatVec):
            def __post_init__(self):
                super().__post_init__()
                if len(self.gathers) > 1:
                    offset, vec = self.diags[(1, 0)].popitem()
                    step = (offset + sum(self.gathers[1])) % self.slots
                    self.diags[(0, 0)][step] = vec

        packed = build_linear_packing(
            np.ones((2, 64)), None, VectorLayout(64, 256), force_mode="hybrid"
        )
        assert packed.batched(2).gathers == ((), (128,))
        packed = replace(packed, _batched={})
        assert 129 not in packed.required_rotation_steps()
        monkeypatch.setattr(matvec, "PackedMatVec", Relocating)
        with pytest.raises(ValueError, match=r"^fc: the view at batch 2 rotates by step 129,"):
            packed.batched(2)

    def test_scratch_without_a_fold_to_gather_it_is_refused(self):
        packed = build_linear_packing(
            np.ones((2, 64)), None, VectorLayout(64, 256), force_mode="hybrid"
        )
        bare = replace(packed, fold_shifts=(), fold_groups=())
        assert any(vec[128:].any() for vec in bare.diags[(0, 0)].values())
        with pytest.raises(ValueError, match="cannot gather"):
            bare.batched(2)


class TestFormSurvivesCopies:
    N = 256

    def _hybrid(self, rows=2, seed=0):
        rng = np.random.default_rng(seed)
        packed = build_linear_packing(
            rng.normal(size=(rows, 64)), rng.normal(size=rows),
            VectorLayout(64, self.N), force_mode="hybrid",
        )
        assert len(packed.fold_shifts) == 7
        return packed

    def test_payload_round_trip_keeps_it(self):
        packed = replace(self._hybrid(), fold_groups=(3, 4))
        stored = {}

        def store(array):
            stored[f"a{len(stored)}"] = array
            return f"a{len(stored) - 1}"

        payload = packed.to_payload(store)
        assert payload["fold_groups"] == [3, 4]
        assert "fused_folds" not in payload
        loaded = PackedMatVec.from_payload(payload, stored.__getitem__)
        assert loaded.fold_groups == (3, 4)
        assert loaded.required_rotation_steps() == packed.required_rotation_steps()

    def test_batched_views_drop_truncated_shifts_from_their_groups(self):
        packed = replace(self._hybrid(), fold_groups=(1, 3, 3))
        assert packed.fold_shifts[0] == self.N // 2
        view = packed.batched(2)
        assert view.fold_shifts == packed.fold_shifts[1:]
        assert view.fold_groups == (3, 3)
        view = packed.batched(8)
        assert view.fold_shifts == packed.fold_shifts[3:]
        assert view.fold_groups == (1, 3)
        steps = fold_group_steps(view.fold_shifts, view.fold_groups, self.N)
        assert {s for group in steps for s in group} <= set(view.required_rotation_steps())

    def test_a_partition_must_cover_the_ladder(self):
        with pytest.raises(ValueError, match="do not partition"):
            replace(self._hybrid(), fold_groups=(3, 3))
        with pytest.raises(ValueError, match="do not partition"):
            replace(self._hybrid(), fold_groups=(7, 0))
        assert self._hybrid().fold_groups == (1,) * 7

    def test_merged_layers_inherit_it_and_refuse_a_mix(self):
        first = replace(self._hybrid(seed=1), fold_groups=(4, 3))
        second = replace(self._hybrid(seed=2), fold_groups=(4, 3))
        assert merge_packed_matvecs([first, second]).fold_groups == (4, 3)
        with pytest.raises(ValueError, match="fold partition"):
            merge_packed_matvecs([first, replace(second, fold_groups=(3, 4))])

    def test_required_steps_are_each_groups_subset_sums(self):
        packed = self._hybrid()
        offsets = {
            off % self.N for dmap in packed.diags.values() for off in dmap
        } - {0}
        shifts = packed.fold_shifts
        assert set(packed.required_rotation_steps()) == offsets | set(shifts)
        whole = {
            sum(c) % self.N
            for r in range(1, 8)
            for c in itertools.combinations(shifts, r)
        }
        packed = replace(packed, fold_groups=(7,))
        assert set(packed.required_rotation_steps()) == offsets | whole
        packed = replace(packed, fold_groups=(4, 3))
        head = {sum(c) for r in range(1, 5) for c in itertools.combinations(shifts[:4], r)}
        tail = {sum(c) for r in range(1, 4) for c in itertools.combinations(shifts[4:], r)}
        assert set(packed.required_rotation_steps()) == offsets | head | tail
