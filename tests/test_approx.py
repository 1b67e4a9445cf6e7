"""Tests for polynomial approximation and homomorphic evaluation."""

import hashlib

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
    remez_odd_sign,
)
from repro.core.approx.evaluator import measure_poly_depth
from repro.core.approx.remez import _local_extrema
from repro.core.approx.sign import _CACHE
from reference.remez_loop import local_extrema_loop


def relu_approximation_error(composite, samples=20001):
    """Max |relu_approx(x) - relu(x)| over [-1, 1] (dead zone included:
    inside (-tau, tau) the error of x*(sign+1)/2 is at most ~tau)."""
    x = np.linspace(-1.0, 1.0, samples)
    approx = x * (composite(x) + 1.0) / 2.0
    return float(np.abs(approx - np.maximum(x, 0.0)).max())


def poly_eval_depth(degree):
    """Depth of a dense polynomial of the given degree."""
    return measure_poly_depth(ChebyshevPoly(tuple([0.0, 1.0] + [1e-3] * max(0, degree - 1))))


def _sha256(polys, error):
    digest = hashlib.sha256()
    for poly in polys:
        digest.update(np.asarray(poly.coeffs, dtype=np.float64).tobytes())
    digest.update(np.float64(error).tobytes())
    return digest.hexdigest()


@st.composite
def _residuals(draw):
    """A residual on a grid, shaped to stress the reference picker:
    exact ties, rounded plateaus, monotone runs, and more or fewer
    alternations than ``count``."""
    n = draw(st.integers(min_value=1, max_value=160))
    count = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["ties", "plateaus", "monotone", "oscillating"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = np.linspace(0.0, 1.0, n)
    if kind == "ties":
        residual = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=n)
    elif kind == "plateaus":
        decimals = draw(st.integers(min_value=0, max_value=2))
        residual = np.round(rng.uniform(-1.0, 1.0, n), decimals)
    elif kind == "monotone":
        runs = draw(st.integers(min_value=1, max_value=8))
        run_of = np.searchsorted(np.sort(rng.integers(0, n, runs - 1)), np.arange(n), side="right")
        steps = rng.choice([0.0, 0.25, 1.0], size=n) * np.where(run_of % 2, -1.0, 1.0)
        residual = np.cumsum(steps) - draw(st.floats(min_value=-3.0, max_value=3.0))
    else:
        alternations = draw(st.integers(min_value=0, max_value=60))
        decimals = draw(st.integers(min_value=1, max_value=6))
        envelope = 1.0 + rng.uniform(-0.3, 0.3, n)
        residual = np.round(envelope * np.cos(np.pi * alternations * x), decimals)
    return np.linspace(0.1, 1.0, n), residual, count


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

    def test_fit_is_pinned(self):
        """The exchange's coefficients and error, byte for byte."""
        poly, err = remez_odd_sign(15, 0.1)
        assert _sha256([poly], err) == (
            "cccce3732e664768c00c8ea6bdd7f04f2c8f4c55c752c922d59856632ae449e9"
        )

    @pytest.mark.parametrize(
        "degree, lower, grid_points",
        [(127, 0.02, 4000), (15, 0.1, 20)],
    )
    def test_degenerate_fit_names_its_arguments(self, degree, lower, grid_points):
        with pytest.raises(ValueError) as info:
            remez_odd_sign(degree, lower, grid_points=grid_points)
        message = str(info.value)
        assert f"degree={degree}" in message
        assert f"lower={lower}" in message
        assert f"grid_points={grid_points}" in message
        assert "raise grid_points or lower the degree" in message


class TestLocalExtrema:
    """The array picker against the per-point loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_residuals())
    def test_matches_loop_or_refuses_degenerate(self, case):
        grid, residual, count = case
        expected = local_extrema_loop(grid, residual, count)
        if len(expected) < count:
            with pytest.raises(ValueError, match="alternates"):
                _local_extrema(grid, residual, count)
        else:
            assert np.array_equal(_local_extrema(grid, residual, count), expected)

    def test_weakest_dropped_leftmost_first_on_ties(self):
        grid = np.arange(7, dtype=np.float64)
        residual = np.array([1.0, -0.5, 0.5, -0.5, 0.5, -1.0, 1.0])
        expected = local_extrema_loop(grid, residual, 5)
        assert np.array_equal(_local_extrema(grid, residual, 5), expected)
        assert expected.tolist() == [0.0, 3.0, 4.0, 5.0, 6.0]

    def test_one_short_takes_the_right_end(self):
        grid = np.arange(5, dtype=np.float64)
        residual = np.array([-1.0, 1.0, 2.0, 0.5, 0.25])
        expected = local_extrema_loop(grid, residual, 3)
        assert np.array_equal(_local_extrema(grid, residual, 3), expected)
        assert expected.tolist() == [0.0, 2.0, 4.0]


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

    def test_paper_fit_is_pinned(self):
        """Placement, Table 5 and every ReLU artifact rest on this fit:
        the stage coefficients and the error, byte for byte."""
        cs = CompositeSign.build((15, 15, 27), 0.02)
        assert _sha256(cs.stages, cs.error) == (
            "e43995a009a6dc3267082317aa37b991c9c33041a53168a8cc6892d8022ef465"
        )

    def test_degenerate_stage_raises_and_is_not_cached(self):
        with pytest.raises(ValueError, match=r"degree=127, lower=0\.05"):
            CompositeSign.build((3, 127), tau=0.02)
        assert ((3, 127), 0.02) not in _CACHE

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
