"""Tests for the fused bootstrap transforms, fused Gazelle folds, and
fused planner pricing (the PR 3 tentpole).

Three layers of coverage:

- the fused ``CkksBootstrapper._matvec_sum`` (multi-input "sum_i M_i x_i"
  via ``FheBackend.matvec_fused``) asserted **bit-exact** against a
  per-rotation reference that pays a fresh digit decomposition per
  rotation but the same deferred mod-down — including a grouped-digit
  (``ks_alpha=2``) configuration whose transform levels leave a partial
  last digit;
- the fused Gazelle rotate-and-sum fold (``FheBackend.rotate_sum_hoisted``),
  bit-exact against per-rotation raw accumulators, run in the compiled
  partition of hoisted groups (``PackedMatVec.fold_groups``): one group
  per shift is bit-exact against the sequential fold, one group of all
  of them against a single expanded call, and every partition decrypts
  to the cleartext product with "# Rots" ledger parity;
- the cost model / placement planner, which now prices linear layers
  with the ``"fused"`` model by default.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from reference.bigint import extend_primes_reference
from repro.backend import SimBackend, ToyBackend
from repro.backend.costs import CostModel
from repro.backend.ledger import KeySwitch
from repro.ckks.bootstrap import CkksBootstrapper
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.context import HOISTED_SLAB
from repro.ckks.params import bootstrap_parameters, toy_parameters
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import (
    apply_fold_groups,
    build_linear_packing,
    fold_group_steps,
)
from repro.core.placement import LayerSpec, PlacementChain, solve_placement
from repro.rns.poly import RnsPolynomial

BOOT_PARAM_SETS = {
    # Small ring keeps the suite fast; alpha2's transform levels have an
    # odd limb count, so the last key-switch digit group is partial.
    "alpha1": dict(ring_degree=64),
    "alpha2": dict(ring_degree=64, ks_alpha=2),
}


@pytest.fixture(scope="module", params=sorted(BOOT_PARAM_SETS))
def boot_setup(request):
    params = bootstrap_parameters(**BOOT_PARAM_SETS[request.param])
    backend = ToyBackend(params, seed=7)
    fused = CkksBootstrapper(backend)
    rng = np.random.default_rng(3)
    message = rng.uniform(-0.9, 0.9, params.slot_count)
    ct = backend.encode_encrypt(message, level=0)
    raised = fused._prescale(
        backend.context.mod_raise(ct, Fraction(fused.q0) * fused.window)
    )
    conj = backend.conjugate(raised)
    level = backend.level_of(raised)
    pt_scale = (
        Fraction(params.primes[level - 1]) * params.primes[level] / raised.scale
    )
    pairs = {
        "cts_lo": [(raised, fused.cts_lo[0]), (conj, fused.cts_lo[1])],
        "cts_hi": [(raised, fused.cts_hi[0]), (conj, fused.cts_hi[1])],
    }
    return backend, fused, pairs, pt_scale, message, ct


def per_rotation_matvec_sum(bs, pairs, pt_scale, table):
    """Per-rotation reference: fresh decomposition per rotation,
    immediate reductions, one deferred mod-down — the same exact math
    as the fused path, organized one rotation at a time."""
    ctx = bs.backend.context
    plan = bs._transform_plan(table, pairs)
    in_cts = [ct for ct, _ in pairs]
    level = in_cts[0].level
    ks_chain = ctx._ks_chain(level)
    mod_ks = ctx.basis.moduli_column(ks_chain)
    data_primes = ctx._data_chain(level)
    mod_q = ctx.basis.moduli_column(data_primes)
    acc_ext = np.zeros((2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64)
    acc_c0 = np.zeros((len(data_primes), ctx.basis.ring_degree), dtype=np.int64)
    acc_c1 = None
    for (_, i, k) in sorted(plan["terms"]):
        pt = ctx.encode(plan["terms"][(0, i, k)], level=level, scale=Fraction(pt_scale))
        if k == 0:
            acc_c0 = (acc_c0 + pt.poly.data * in_cts[i].c0.data) % mod_q
            if acc_c1 is None:
                acc_c1 = np.zeros_like(acc_c0)
            acc_c1 = (acc_c1 + pt.poly.data * in_cts[i].c1.data) % mod_q
            continue
        rot0, acc = ctx.rotate_hoisted_raw(in_cts[i], [k])[k]
        pt_ext = extend_primes_reference(pt.poly, ks_chain).data
        acc_ext = (acc_ext + pt_ext * acc) % mod_ks
        acc_c0 = (acc_c0 + pt.poly.data * rot0.data) % mod_q
    p0, p1 = ctx._ks_moddown(acc_ext, level)
    c0 = (acc_c0 + p0.data) % mod_q
    c1 = p1.data if acc_c1 is None else (acc_c1 + p1.data) % mod_q
    out = Ciphertext(
        c0=RnsPolynomial(ctx.basis, data_primes, c0, is_ntt=True),
        c1=RnsPolynomial(ctx.basis, data_primes, c1, is_ntt=True),
        level=level,
        scale=in_cts[0].scale * Fraction(pt_scale),
        slot_count=in_cts[0].slot_count,
    )
    return ctx.rescale(out)


class TestFusedBootstrapTransforms:
    def test_bitwise_equals_per_rotation_reference(self, boot_setup):
        backend, fused, pairs, pt_scale, _, _ = boot_setup
        for table, table_pairs in pairs.items():
            got = fused._matvec_sum(table_pairs, pt_scale, table)
            ref = per_rotation_matvec_sum(fused, table_pairs, pt_scale, table)
            assert np.array_equal(got.c0.data, ref.c0.data), table
            assert np.array_equal(got.c1.data, ref.c1.data), table

    def test_matches_cleartext_transform_to_noise_precision(self, boot_setup):
        """The transform computes sum_i M_i x_i: its decryption matches
        the matrices applied to the decrypted inputs, to noise
        precision, at the planned level and scale."""
        backend, fused, pairs, pt_scale, _, _ = boot_setup
        ctx = backend.context
        for table, table_pairs in pairs.items():
            a = fused._matvec_sum(table_pairs, pt_scale, table)
            level = backend.level_of(table_pairs[0][0])
            assert a.level == level - 1
            assert a.scale == table_pairs[0][0].scale * pt_scale / backend.params.primes[level]
            expected = sum(
                matrix @ ctx.decode_complex(ctx.decrypt(ct))
                for ct, matrix in table_pairs
            )
            got = ctx.decode_complex(ctx.decrypt(a))
            assert np.abs(got - expected).max() < 5e-2 * max(1.0, np.abs(expected).max())

    def test_ledger_rotation_parity(self, boot_setup):
        """The transform reports the BSGS plan's rotation count
        (identity baby steps excluded), not its Galois-element count,
        so "# Rots" stays paper-comparable."""
        backend, fused, pairs, pt_scale, _, _ = boot_setup
        plan = fused._transform_plan("cts_lo", pairs["cts_lo"])
        backend.ledger.reset()
        fused._matvec_sum(pairs["cts_lo"], pt_scale, "cts_lo")
        assert backend.ledger.rotations == plan["rot_count"]
        assert plan["rot_count"] < sum(1 for (_, _, k) in plan["terms"] if k)

    def test_identity_rotation_never_charged(self, boot_setup):
        """Rotation by 0 is free everywhere: in ``rotate_hoisted`` and in
        the transform plan (the old code planned ``range(n1)`` babies)."""
        backend, fused, pairs, _, _, ct = boot_setup
        plan = fused._transform_plan("cts_lo", pairs["cts_lo"])
        assert plan["rot_count"] < len(plan["terms"])
        # offset 0 exists in a dense transform...
        assert {k for (_, _, k) in plan["terms"]} >= {0}
        backend.ledger.reset()
        outs = backend.rotate_hoisted(pairs["cts_lo"][0][0], [0])
        assert backend.ledger.rotations == 0  # ...but never charges
        assert outs[0] is pairs["cts_lo"][0][0]

    def test_diagonal_plaintexts_cached_across_calls(self, boot_setup):
        backend, fused, pairs, pt_scale, _, _ = boot_setup
        fused._matvec_sum(pairs["cts_hi"], pt_scale, "cts_hi")  # warm
        calls = []
        original = backend.context.encode

        def counting_encode(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        backend.context.encode = counting_encode
        try:
            fused._matvec_sum(pairs["cts_hi"], pt_scale, "cts_hi")
        finally:
            backend.context.encode = original
        assert calls == []

    def test_full_bootstrap_rotations_and_precision(self, boot_setup):
        backend, fused, pairs, _, message, ct = boot_setup
        backend.ledger.reset()
        out = fused.bootstrap(ct)
        # "# Rots" is the plans' BSGS accounting: CoeffToSlot (both
        # halves + the conjugation) and SlotToCoeff.  The conjugation is
        # counted but rides the hoisted decomposition: the pipeline
        # performs no standalone key switch at all.
        stc = fused._transform_plan("stc", [(None, fused.stc_lo), (None, fused.stc_hi)])
        assert backend.ledger.rotations == (
            fused._shared_cts_plan()["rot_count"] + stc["rot_count"]
        )
        assert backend.ledger.counts["hrot"] == 0
        assert out.level == backend.params.effective_level
        assert out.scale == Fraction(backend.params.scale)
        assert np.abs(backend.decrypt(out) - message).mean() < 2.0**-7


FOLD_PARAM_SETS = {
    "alpha1": dict(ring_degree=256, max_level=5),
    "alpha2_special2": dict(
        ring_degree=256, max_level=5, num_special_primes=2, ks_alpha=2
    ),
}


@pytest.fixture(scope="module", params=sorted(FOLD_PARAM_SETS))
def fold_setup(request):
    backend = ToyBackend(toy_parameters(**FOLD_PARAM_SETS[request.param]), seed=5)
    n = backend.slot_count
    rng = np.random.default_rng(11)
    m = n // 8  # squat matrix -> Gazelle hybrid with a 3-deep fold
    matrix = rng.uniform(-1, 1, (m, n))
    packed = build_linear_packing(matrix, None, VectorLayout(n, n), name="fc")
    assert packed.fold_shifts, "expected the Gazelle hybrid plan"
    values = np.linspace(-1, 1, n)
    ct = backend.encode_encrypt(values)
    # The partition a compiler placing the layer at the top level fixes:
    # the 3-deep ladder runs as one group.
    packed.fold_groups = backend.costs.fold_partition(
        ct.level, len(packed.fold_shifts)
    )
    assert packed.fold_groups == (3,)
    return backend, packed, ct, values


def _expansion(packed):
    """Every nonzero subset sum of the layer's fold shifts (one group)."""
    shifts = packed.fold_shifts
    return fold_group_steps(shifts, (len(shifts),), packed.slots)[0]


def _balanced_partitions(folds):
    """The balanced split into m groups, larger groups first, for every m."""
    for groups in range(1, folds + 1):
        small, extra = divmod(folds, groups)
        yield (small + 1,) * extra + (small,) * (groups - extra)


class TestFusedGazelleFold:
    def test_fold_expansion_is_subset_sums(self, fold_setup):
        _, packed, _, _ = fold_setup
        steps = _expansion(packed)
        m2 = min(packed.fold_shifts)
        f = packed.slots // m2
        assert steps == [j * m2 for j in range(1, f)]

    def test_rotate_sum_bitwise_equals_per_rotation_raw(self, fold_setup):
        """Shared-decomposition rotate_sum == per-rotation fresh
        decompositions + one mod-down, bit for bit (including a
        partial-digit level in the alpha2 configuration)."""
        backend, packed, ct, _ = fold_setup
        ctx = backend.context
        for level in (ct.level, ct.level - 1):  # odd limb count -> partial digit
            a = backend.level_down(ct, level)
            steps = _expansion(packed)
            got = backend.rotate_sum_hoisted(a, steps)
            ks_chain = ctx._ks_chain(level)
            mod_ks = ctx.basis.moduli_column(ks_chain)
            data_primes = ctx._data_chain(level)
            mod_q = ctx.basis.moduli_column(data_primes)
            acc = np.zeros((2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64)
            c0 = a.c0.data.copy()
            for step in steps:
                rot0, raw = ctx.rotate_hoisted_raw(a, [step])[step]
                acc = (acc + raw) % mod_ks
                c0 = (c0 + rot0.data) % mod_q
            p0, p1 = ctx._ks_moddown(acc, level)
            assert np.array_equal(got.c0.data, (c0 + p0.data) % mod_q)
            assert np.array_equal(got.c1.data, (a.c1.data + p1.data) % mod_q)

    def test_fold_across_slabs_equals_sequential_fold(self, fold_setup):
        """A fold whose expansion spans several hoisted slabs (a single
        output row: 7 folds, 127 rotations) is bit-identical to
        per-rotation raw accumulators plus one mod-down, and decrypts to
        the sequential fold t -> t + rot(t, shift)."""
        backend = fold_setup[0]
        ctx = backend.context
        n = backend.slot_count
        rng = np.random.default_rng(13)
        row = rng.uniform(-1, 1, (1, n))
        ct = backend.encode_encrypt(rng.uniform(0, 0.1, n))
        deep = build_linear_packing(row, None, VectorLayout(n, n), name="row")
        steps = _expansion(deep)
        assert len(steps) > 2 * HOISTED_SLAB
        got = backend.rotate_sum_hoisted(ct, steps)
        level = ct.level
        ks_chain = ctx._ks_chain(level)
        mod_ks = ctx.basis.moduli_column(ks_chain)
        mod_q = ctx.basis.moduli_column(ctx._data_chain(level))
        acc = np.zeros((2, len(ks_chain), ctx.basis.ring_degree), dtype=np.int64)
        c0 = ct.c0.data.copy()
        for step, (rot0, raw) in ctx.rotate_hoisted_raw(ct, steps).items():
            acc = (acc + raw) % mod_ks
            c0 = (c0 + rot0.data) % mod_q
        p0, p1 = ctx._ks_moddown(acc, level)
        assert np.array_equal(got.c0.data, (c0 + p0.data) % mod_q)
        assert np.array_equal(got.c1.data, (ct.c1.data + p1.data) % mod_q)
        sequential = ct
        for shift in deep.fold_shifts:
            sequential = backend.add(sequential, backend.rotate(sequential, shift))
        want = backend.decrypt(sequential)
        assert np.abs(backend.decrypt(got) - want).max() < 2e-2 * max(1.0, np.abs(want).max())

    def test_partitions_reproduce_both_old_fold_forms(self, fold_setup):
        """On a 7-deep ladder, one group per shift is bit for bit the
        sequential fold ``t -> t + rot(t, s)``, and one group of every
        shift is bit for bit a single hoisted call over all subset sums
        — so neither form needs a path of its own."""
        backend = fold_setup[0]
        n = backend.slot_count
        rng = np.random.default_rng(17)
        deep = build_linear_packing(
            rng.uniform(-1, 1, (1, n)), None, VectorLayout(n, n), name="row"
        )
        shifts = deep.fold_shifts
        assert len(shifts) == 7
        ct = backend.level_down(backend.encode_encrypt(rng.uniform(0, 0.1, n)), 4)
        sequential = ct
        for shift in shifts:
            sequential = backend.add(sequential, backend.rotate(sequential, shift))
        singles = apply_fold_groups(backend, ct, shifts, (1,) * 7)
        whole = apply_fold_groups(backend, ct, shifts, (7,))
        expanded = backend.rotate_sum_hoisted(ct, _expansion(deep))
        for got, want in ((singles, sequential), (whole, expanded)):
            assert np.array_equal(got.c0.data, want.c0.data)
            assert np.array_equal(got.c1.data, want.c1.data)
        # Whatever the partition, the fold charges one rotation per shift.
        for groups in _balanced_partitions(7):
            backend.ledger.reset()
            apply_fold_groups(backend, ct, shifts, groups)
            assert backend.ledger.rotations == len(shifts), groups

    def test_fused_execute_matches_cleartext_in_every_partition(self, fold_setup):
        """The compiled partition (``fold_groups``) alone picks how the
        fold runs: the fixture's 3-deep fold and a 7-deep one (a single
        output row) in every balanced partition.  Each reproduces the
        cleartext product, charges the planned rotation count, and runs
        exactly one hoisted key switch of ``2^g - 1`` products per group
        of ``g`` folds — never an un-hoisted rotation."""
        backend, packed, ct, values = fold_setup
        n = backend.slot_count
        row = np.random.default_rng(12).uniform(-1, 1, (1, n))
        deep = build_linear_packing(row, None, VectorLayout(n, n), name="row")
        assert len(packed.fold_shifts) == 3 and len(deep.fold_shifts) == 7
        cases = [(packed, packed.fold_groups)]
        cases += [(deep, groups) for groups in _balanced_partitions(7)]
        assert (deep, (1,) * 7) in cases and (deep, (4, 3)) in cases
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        fold_level = ct.level - 1
        for layer, fold_groups in cases:
            layer = replace(layer, fold_groups=fold_groups)
            expected = layer.execute_cleartext([values])[0]
            backend.ledger.reset()
            got = backend.decrypt(layer.execute(backend, [ct], pt_scale)[0])
            assert np.abs(got - expected).max() < 0.05 * max(1.0, np.abs(expected).max())
            assert backend.ledger.rotations == layer.stats.rotations
            assert backend.ledger.counts.get("hrot", 0) == 0
            folds = Counter({
                ks: count
                for ks, count in backend.ledger.key_switches.items()
                if ks.level == fold_level
            })
            want = Counter()
            for g in fold_groups:
                k = (1 << g) - 1
                want[KeySwitch(fold_level, products=k, gathers=k, table_rows=k)] += 1
            assert folds == want, fold_groups

    def test_fold_ledger_rotations_match_plan(self, fold_setup):
        """The fused fold charges len(fold_shifts) rotations (not the
        expanded count), keeping "# Rots" == the compile-time plan."""
        backend, packed, ct, _ = fold_setup
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        packed.execute(backend, [ct], pt_scale)  # warm caches
        backend.ledger.reset()
        packed.execute(backend, [ct], pt_scale)
        assert backend.ledger.rotations == packed.stats.rotations

    def test_sim_backend_fused_fold(self, fold_setup):
        backend, packed, _, values = fold_setup
        sim = SimBackend(backend.params, seed=9)
        ct = sim.encode_encrypt(values)
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        expected = packed.execute_cleartext([values])[0]
        got = sim.decrypt(packed.execute(sim, [ct], pt_scale)[0])
        assert np.abs(got - expected).max() < 0.05 * max(1.0, np.abs(expected).max())
        sim.ledger.reset()
        packed.execute(sim, [ct], pt_scale)
        assert sim.ledger.rotations == packed.stats.rotations

    def test_rotate_sum_identity_and_dedup(self, fold_setup):
        backend, _, ct, values = fold_setup
        n = backend.slot_count
        assert backend.rotate_sum_hoisted(ct, [0]) is ct
        got = backend.decrypt(backend.rotate_sum_hoisted(ct, [3, 3 - n, 0]))
        assert np.abs(got - (values + np.roll(values, -3))).max() < 2e-2


class TestFusedPlannerPricing:
    def test_packed_cost_defaults_to_fused_price(self):
        params = toy_parameters(ring_degree=256, max_level=5)
        costs = CostModel(params)
        backend = ToyBackend(params, seed=1)
        n = backend.slot_count
        # Banded square matrix: genuine baby + giant steps, no fold —
        # the shape where deferring the mod-down pays off most.
        band = 16
        rng = np.random.default_rng(0)
        matrix = np.zeros((n, n))
        rows = np.arange(n)[:, None]
        matrix[rows, (rows + np.arange(band)[None, :]) % n] = rng.uniform(
            -1, 1, (n, band)
        )
        packed = build_linear_packing(matrix, None, VectorLayout(n, n))
        assert not packed.fold_shifts and packed.num_in == packed.num_out == 1
        # One block: the stats are the plan's counts.
        offsets = list(packed.diags[(0, 0)])
        baby = sum(1 for b in packed.plan.babies if b)
        giant = sum(1 for g in packed.plan.giants if g)
        assert (packed.stats.pmults, packed.stats.rotations) == (len(offsets), baby + giant)
        level = 4
        fused = costs.matvec_cost(
            level, len(offsets), baby, giant, "fused", num_in=1, num_out=1,
            num_folds=0, num_offsets=sum(1 for off in offsets if off),
        )
        assert packed.stats.cost(level, costs) == fused
        assert fused < packed.stats.cost(level, costs, hoisting="none")
        # At paper scale the deferred mod-down genuinely wins in-model:
        # deep chains make each giant step's decomposition (dnum NTT
        # batches) the dominant term the fused path amortizes away.
        from repro.ckks.params import paper_parameters

        paper_costs = CostModel(paper_parameters())
        top = paper_parameters().max_level
        assert packed.stats.cost(top, paper_costs) < packed.stats.cost(
            top, paper_costs, hoisting="double"
        )

    def test_offset_zero_only_layer_pays_no_keyswitch(self):
        """A depthwise 1x1 conv (batchnorm) has only offset-0 diagonals:
        execution performs no key switch, and neither does the price."""
        costs = CostModel(toy_parameters(ring_degree=256, max_level=5))
        level = 4
        priced = costs.matvec_cost(
            level, 4, 0, 0, "fused", num_in=1, num_out=1, num_offsets=0
        )
        no_rotation_floor = (
            4 * costs.pmult_fused(level)
            + 3 * costs.hadd(level)
            + costs.rescale(level)
        )
        assert priced == no_rotation_floor

    def test_fold_cost_picks_the_cheapest_partition(self):
        costs = CostModel(toy_parameters(ring_degree=256, max_level=5))
        level = 5
        sequential = lambda k: k * (costs.hrot(level) + costs.hadd(level))
        group = lambda g: (
            costs.ks_decompose(level)
            + ((1 << g) - 1) * (costs.ks_inner_fused(level) + costs.hadd(level))
            + costs.ks_moddown(level)
        )
        # Shallow folds: the full expansion (one shared decomposition) wins.
        assert costs.fold_partition(level, 3) == (3,)
        shallow = costs.fold_cost(level, 3)
        assert shallow < sequential(3)
        # Deep folds split into balanced groups, never dearer than one
        # group or one group per shift (hoisted or not).
        for folds in (7, 20):
            deep = costs.fold_cost(level, folds)
            groups = costs.fold_partition(level, folds)
            assert 1 < len(groups) < folds
            assert deep <= group(folds)
            assert deep <= folds * group(1)
            assert deep < sequential(folds)

    def test_placement_under_fused_prices_is_valid(self):
        """The planner consumes the fused default price and still emits
        a feasible, consistent level policy."""
        params = toy_parameters(ring_degree=256, max_level=5)
        costs = CostModel(params)
        backend = ToyBackend(params, seed=1)
        n = backend.slot_count
        matrix = np.random.default_rng(1).uniform(-1, 1, (n, n))
        packed = build_linear_packing(matrix, None, VectorLayout(n, n))
        chain = PlacementChain(
            [
                LayerSpec(
                    f"fc{i}",
                    depth=1,
                    cost_fn=lambda l: packed.stats.cost(l, costs),
                    boot_units=1,
                )
                for i in range(6)
            ]
        )
        result = solve_placement(chain, l_eff=3, boot_cost=costs.bootstrap())
        assert result.num_bootstraps >= 1  # 6 levels of depth, L_eff = 3
        level = result.entry_level
        for policy in result.policies:
            if policy.bootstrap_before:
                level = 3
            assert policy.exec_level <= level
            level = policy.exec_level - 1
            assert level >= 0
        # The chain total is built from the fused per-layer prices.
        expected_layer = packed.stats.cost(result.policies[0].exec_level, costs)
        assert chain.items[0].cost_fn(result.policies[0].exec_level) == expected_layer

    def test_table5_placements_stay_valid_under_fused_prices(self):
        """Compile ResNet-20 (analyze mode) with the fused default and
        re-validate the Table 5 contract: a feasible, consistent level
        policy with a paper-regime bootstrap count."""
        from repro.ckks.params import paper_parameters
        from repro.models import relu_act, resnet_cifar
        from repro.nn import init
        from repro.orion import OrionNetwork

        init.seed_init(20)
        net = resnet_cifar(20, act=relu_act())
        compiled = OrionNetwork(net, (3, 32, 32)).compile(
            paper_parameters(), mode="analyze"
        )
        placement = compiled.placement
        l_eff = paper_parameters().effective_level
        level = placement.entry_level
        for policy in placement.policies:
            if policy.bootstrap_before:
                level = l_eff
            assert policy.exec_level <= level
            level = policy.exec_level - getattr(policy, "depth", 0)
        # Paper Table 5 regime: tens of bootstraps for ResNet-20, not
        # hundreds (the fused prices must not destabilize placement).
        assert 20 <= compiled.num_bootstraps <= 90
        assert placement.modeled_seconds > 0
