"""Cross-backend tests: the simulator must agree with the exact backend
on semantics, and the cost model must reproduce the shapes of Figure 1."""

import numpy as np
import pytest
from fractions import Fraction

from repro.backend import CostModel, OpLedger, SimBackend
from repro.ckks.params import paper_parameters


class TestLedger:
    def test_phase_accounting(self):
        ledger = OpLedger()
        with ledger.phase("conv1"):
            ledger.charge("hrot", 0.5)
            ledger.charge("pmult", 0.1)
        with ledger.phase("boot"):
            ledger.charge("bootstrap", 10.0)
        assert ledger.rotations == 1
        assert ledger.bootstraps == 1
        assert ledger.seconds == pytest.approx(10.6)

    def test_nested_phases_restore(self):
        ledger = OpLedger()
        with ledger.phase("outer"):
            with ledger.phase("inner"):
                ledger.charge("hadd", 1.0)
            ledger.charge("hadd", 2.0)
        assert ledger.seconds_by_phase["inner"] == pytest.approx(1.0)
        assert ledger.seconds_by_phase["outer"] == pytest.approx(2.0)

    def test_reset(self):
        ledger = OpLedger()
        ledger.charge("hrot", 1.0)
        ledger.reset()
        assert ledger.rotations == 0
        assert ledger.seconds == 0.0


class TestCostModelShapes:
    """The qualitative claims of paper Figure 1."""

    @pytest.fixture(scope="class")
    def costs(self):
        return CostModel(paper_parameters())

    def test_pmult_increases_with_level(self, costs):
        latencies = [costs.pmult(l) for l in range(20)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_hrot_increases_with_level(self, costs):
        latencies = [costs.hrot(l) for l in range(20)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_bootstrap_superlinear_in_leff(self, costs):
        """Fig 1c: increments grow with L_eff (superlinear growth)."""
        lat = [costs.bootstrap(l) for l in range(1, 16)]
        increments = np.diff(lat)
        assert increments[-1] > increments[0] > 0

    def test_hoisting_strictly_helps(self, costs):
        level = 8
        none = costs.matvec_cost(level, 32, 8, 4, hoisting="none")
        single = costs.matvec_cost(level, 32, 8, 4, hoisting="single")
        double = costs.matvec_cost(level, 32, 8, 4, hoisting="double")
        assert double < single < none

    def test_rotation_dominates_pmult(self, costs):
        """Rotations are the expensive primitive (motivation for BSGS)."""
        assert costs.hrot(10) > 3 * costs.pmult(10)

    def test_fused_pricing_beats_double_at_every_level(self, costs):
        """Calibration regression (BENCH_ckks_hotpath.json): the fused
        deferred-mod-down path measures 2.9-3.9x over the per-rotation
        pipeline, so its price must beat hoisting="double" at shallow
        levels too — the previous constants made it look break-even."""
        for level in (2, 4, 8, 12):
            # Every diagonal rotated: the most inner products 16 can need.
            fused = costs.matvec_cost(
                level, 16, 3, 3, hoisting="fused", num_offsets=16
            )
            double = costs.matvec_cost(level, 16, 3, 3, hoisting="double")
            assert fused < double, f"fused not cheaper at level {level}"

    def test_fused_price_needs_the_offset_count(self, costs):
        """Zero offsets prices no key switch at all, so a missing count
        must not default to anything."""
        with pytest.raises(TypeError, match="num_offsets"):
            costs.matvec_cost(8, 16, 3, 3, hoisting="fused")

    def test_inner_product_is_small_fraction_of_keyswitch(self, costs):
        """Measured: the lazy int64 inner product is ~5% of a keyswitch
        (hoisted-x8 median); decompose + mod-down dominate."""
        level = 8
        assert costs.ks_inner(level) < 0.2 * costs.keyswitch(level)

    def test_bootstrap_dominates_everything(self, costs):
        assert costs.bootstrap() > 20 * costs.hrot(costs.params.effective_level)


class TestSimBackend:
    def test_encode_encrypt_roundtrip(self, sim_backend):
        a = np.linspace(-1, 1, 50)
        ct = sim_backend.encode_encrypt(a)
        assert np.abs(sim_backend.decrypt(ct)[:50] - a).max() < 1e-4

    def test_level_and_scale_tracking(self, sim_backend):
        p = sim_backend.params
        a = np.ones(10) * 0.5
        ct = sim_backend.encode_encrypt(a)
        assert sim_backend.level_of(ct) == p.max_level
        assert sim_backend.scale_of(ct) == Fraction(p.scale)

    def test_errorless_rescale(self, sim_backend):
        p = sim_backend.params
        ct = sim_backend.encode_encrypt(np.ones(4))
        q_top = p.data_primes[ct.level]
        pt = sim_backend.encode(np.full(4, 0.5), ct.level, q_top)
        out = sim_backend.rescale(sim_backend.mul_plain(ct, pt))
        assert out.scale == Fraction(p.scale)

    def test_non_errorless_scale_drifts(self, sim_backend):
        """Encoding at Delta (not q_l) leaves scale != Delta: the problem
        errorless scale management solves (paper Section 6)."""
        p = sim_backend.params
        ct = sim_backend.encode_encrypt(np.ones(4))
        pt = sim_backend.encode(np.full(4, 0.5), ct.level, p.scale)
        out = sim_backend.rescale(sim_backend.mul_plain(ct, pt))
        assert out.scale != Fraction(p.scale)

    def test_mismatched_levels_raise(self, sim_backend):
        a = sim_backend.encode_encrypt(np.ones(4))
        b = sim_backend.level_down(sim_backend.encode_encrypt(np.ones(4)), 3)
        with pytest.raises(ValueError):
            sim_backend.add(a, b)

    def test_rescale_at_zero_raises(self, sim_backend):
        ct = sim_backend.level_down(sim_backend.encode_encrypt(np.ones(4)), 0)
        with pytest.raises(ValueError):
            sim_backend.rescale(ct)

    def test_bootstrap_contract(self, sim_backend):
        ct = sim_backend.level_down(sim_backend.encode_encrypt(np.full(8, 0.7)), 0)
        out = sim_backend.bootstrap(ct)
        assert sim_backend.level_of(out) == sim_backend.params.effective_level
        assert np.abs(sim_backend.decrypt(out)[:8] - 0.7).max() < 1e-3
        assert sim_backend.ledger.bootstraps == 1

    def test_bootstrap_range_check(self, sim_backend):
        ct = sim_backend.encode_encrypt(np.full(8, 2.5))
        with pytest.raises(ValueError):
            sim_backend.bootstrap(ct)

    def test_rotate_hoisted_counts_once_per_step(self, sim_backend):
        ct = sim_backend.encode_encrypt(np.arange(16.0) / 16.0)
        outs = sim_backend.rotate_hoisted(ct, [0, 1, 2, 3])
        assert sim_backend.ledger.counts["hrot_hoisted"] == 3
        assert outs[0] is ct
        got = sim_backend.decrypt(outs[2])
        expected = np.roll(sim_backend.decrypt(ct), -2)
        assert np.abs(got - expected).max() < 1e-4

    def test_hoisted_group_cheaper_than_individual(self, sim_params):
        individual = SimBackend(sim_params, seed=0)
        ct = individual.encode_encrypt(np.ones(8))
        for k in range(1, 9):
            individual.rotate(ct, k)
        grouped = SimBackend(sim_params, seed=0)
        ct2 = grouped.encode_encrypt(np.ones(8))
        grouped.rotate_hoisted(ct2, list(range(1, 9)))
        assert grouped.ledger.seconds < individual.ledger.seconds
        # Charged as executed: one decomposition for the group, then an
        # inner product AND a mod-down per step (nothing defers it).
        costs, level = grouped.costs, grouped.level_of(ct2)
        assert grouped.ledger.seconds == pytest.approx(
            costs.ks_decompose(level)
            + 8 * (costs.ks_inner(level) + costs.ks_moddown(level))
        )

    def test_noise_free_mode_is_exact(self, sim_params):
        backend = SimBackend(sim_params, noise_free=True)
        a = np.linspace(-1, 1, 32)
        ct = backend.encode_encrypt(a)
        assert np.array_equal(backend.decrypt(ct)[:32], a)


class TestToyBackendInterface:
    def test_matches_sim_semantics(self, toy_backend, sim_params):
        """The same little program gives the same answer on both backends."""
        sim = SimBackend(sim_params, seed=3)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 64)
        b = rng.uniform(-1, 1, 64)

        results = []
        for backend in (toy_backend, sim):
            ct = backend.encode_encrypt(a)
            level = backend.level_of(ct)
            pt = backend.encode(b, level, backend.params.data_primes[level])
            out = backend.rescale(backend.mul_plain(ct, pt))
            out = backend.rotate(out, 3)
            # Rotation shifts within the full slot vector, so only the
            # first 61 outputs still hold products of encoded values.
            results.append(backend.decrypt(out)[:61])
        expected = (a * b)[3:]
        # Both close to the truth (toy backend has ~8-bit precision).
        assert np.abs(results[0] - expected).max() < 2e-2
        assert np.abs(results[1] - expected).max() < 1e-4

    def test_ledger_counts_rotations(self, toy_backend):
        toy_backend.ledger.reset()
        ct = toy_backend.encode_encrypt(np.ones(8))
        toy_backend.rotate(ct, 1)
        toy_backend.rotate(ct, 2)
        assert toy_backend.ledger.rotations == 2

    def test_rotate_hoisted_exact_values(self, toy_backend):
        a = np.linspace(-1, 1, toy_backend.slot_count)
        ct = toy_backend.encode_encrypt(a)
        outs = toy_backend.rotate_hoisted(ct, [1, 4])
        assert np.abs(toy_backend.decrypt(outs[4]) - np.roll(a, -4)).max() < 2e-2
