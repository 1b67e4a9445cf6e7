"""Tests for polynomial approximation and homomorphic evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sim import SimBackend
from repro.ckks.params import paper_parameters
from repro.core.approx import (
    ChebyshevPoly,
    CompositeSign,
    chebyshev_fit,
    evaluate_chebyshev,
    poly_eval_depth,
    relu_approximation_error,
    remez_odd_sign,
)


class TestChebyshevFit:
    def test_interpolates_exactly_at_degree(self):
        poly = chebyshev_fit(lambda x: 3 * x**3 - x, 3)
        xs = np.linspace(-1, 1, 50)
        assert np.abs(poly(xs) - (3 * xs**3 - xs)).max() < 1e-12

    def test_silu_fit_quality(self):
        silu = lambda x: x / (1 + np.exp(-x))
        poly = chebyshev_fit(silu, 63)
        xs = np.linspace(-1, 1, 1000)
        assert np.abs(poly(xs) - silu(xs)).max() < 1e-6

    def test_scaled_and_offset(self):
        poly = chebyshev_fit(lambda x: x, 1).scaled(2.0).plus_constant(1.0)
        assert abs(poly(np.array([0.5]))[0] - 2.0) < 1e-12

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            chebyshev_fit(lambda x: x, 0)


class TestRemez:
    def test_equioscillation_error_reasonable(self):
        poly, err = remez_odd_sign(15, 0.1)
        xs = np.linspace(0.1, 1, 3000)
        assert np.abs(poly(xs) - 1).max() <= err + 1e-9

    def test_odd_symmetry(self):
        poly, _ = remez_odd_sign(7, 0.2)
        xs = np.linspace(0.2, 1, 100)
        assert np.abs(poly(xs) + poly(-xs)).max() < 1e-10

    def test_higher_degree_is_better(self):
        _, err7 = remez_odd_sign(7, 0.1)
        _, err15 = remez_odd_sign(15, 0.1)
        assert err15 < err7

    def test_rejects_even_degree(self):
        with pytest.raises(ValueError):
            remez_odd_sign(8, 0.1)


class TestCompositeSign:
    def test_paper_degrees_high_precision(self):
        cs = CompositeSign.build((15, 15, 27), tau=0.02)
        xs = np.linspace(0.02, 1, 4000)
        assert np.abs(cs(xs) - 1).max() < 1e-6
        assert np.abs(cs(-xs) + 1).max() < 1e-6

    def test_relu_error_small(self):
        cs = CompositeSign.build((15, 15, 27), tau=0.02)
        assert relu_approximation_error(cs) < 0.02

    def test_depth_accounting(self):
        """Paper: sign depth 13 + 1 for the multiply = 14.  Our
        evaluator spends at most +1 per stage (docs/substitutions.md)."""
        cs = CompositeSign.build((15, 15, 27))
        assert 13 <= cs.depth <= 16

    def test_relu_stages_fold_half(self):
        cs = CompositeSign.build((7, 7), tau=0.05)
        stages = cs.relu_stages()
        xs = np.linspace(-1, 1, 1001)
        out = xs.copy()
        for stage in stages:
            out = stage(out)
        relu = xs * out
        exact = np.maximum(xs, 0)
        mask = np.abs(xs) > 0.05
        assert np.abs(relu[mask] - exact[mask]).max() < 0.08

    def test_cache_returns_same_object(self):
        a = CompositeSign.build((7, 7), tau=0.05)
        b = CompositeSign.build((7, 7), tau=0.05)
        assert a is b


class TestHomomorphicEvaluation:
    @pytest.fixture()
    def backend(self):
        return SimBackend(paper_parameters(), seed=11)

    def _eval(self, backend, poly, values):
        ct = backend.encode_encrypt(values)
        out = evaluate_chebyshev(backend, ct, poly)
        return backend.decrypt(out)[: len(values)], out

    def test_matches_cleartext_eval(self, backend):
        poly = chebyshev_fit(lambda x: np.tanh(3 * x), 31)
        values = np.linspace(-1, 1, 128)
        got, _ = self._eval(backend, poly, values)
        assert np.abs(got - poly(values)).max() < 1e-5

    def test_degree_127(self, backend):
        silu = lambda x: x / (1 + np.exp(-6 * x))
        poly = chebyshev_fit(silu, 127)
        values = np.linspace(-1, 1, 64)
        got, out = self._eval(backend, poly, values)
        assert np.abs(got - poly(values)).max() < 1e-4
        assert backend.level_of(out) >= backend.params.max_level - 8

    def test_depth_measurements(self):
        assert poly_eval_depth(15) <= 5
        assert poly_eval_depth(63) <= 8
        assert poly_eval_depth(127) <= 8

    def test_exact_fraction_scales_no_drift(self, backend):
        """Every add inside the evaluator is between equal exact scales;
        the output scale is a well-defined Fraction."""
        poly = chebyshev_fit(lambda x: x**3, 7)
        ct = backend.encode_encrypt(np.ones(4) * 0.5)
        out = evaluate_chebyshev(backend, ct, poly)
        assert backend.scale_of(out) > 0  # exact Fraction, no exception

    def test_odd_polynomial_zero_coeffs_skipped(self, backend):
        """Sign stages are odd; evaluation must handle sparse coeffs."""
        sign_poly, _ = remez_odd_sign(15, 0.1)
        values = np.linspace(-1, 1, 64)
        got, _ = self._eval(backend, sign_poly, values)
        assert np.abs(got - sign_poly(values)).max() < 1e-5

    def test_rejects_constant(self, backend):
        ct = backend.encode_encrypt(np.ones(4))
        with pytest.raises(ValueError):
            evaluate_chebyshev(backend, ct, ChebyshevPoly((1.0,)))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=2, max_value=40))
    def test_random_degrees(self, degree):
        backend = SimBackend(paper_parameters(), seed=degree, noise_free=True)
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1) / (degree + 1)
        poly = ChebyshevPoly(tuple(coeffs))
        values = np.linspace(-1, 1, 32)
        ct = backend.encode_encrypt(values)
        got = backend.decrypt(evaluate_chebyshev(backend, ct, poly))[:32]
        assert np.abs(got - poly(values)).max() < 1e-8
