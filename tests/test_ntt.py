"""Tests for the negacyclic NTT against schoolbook references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.bigint import negacyclic_convolve_reference
from repro.ntt import NttContext
from repro.utils.primes import find_ntt_primes


@pytest.fixture(scope="module")
def ctx():
    n = 128
    q = find_ntt_primes(28, 1, n)[0]
    return NttContext(q, n)


class TestNttContext:
    def test_roundtrip(self, ctx):
        rng = np.random.default_rng(0)
        a = rng.integers(0, ctx.q, ctx.n)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a % ctx.q)

    def test_forward_of_constant(self, ctx):
        """The constant polynomial evaluates to itself everywhere."""
        a = np.zeros(ctx.n, dtype=np.int64)
        a[0] = 7
        assert np.all(ctx.forward(a) == 7)

    def test_multiply_matches_schoolbook(self, ctx):
        rng = np.random.default_rng(1)
        a = rng.integers(0, ctx.q, ctx.n)
        b = rng.integers(0, ctx.q, ctx.n)
        assert np.array_equal(
            ctx.multiply(a, b), negacyclic_convolve_reference(a, b, ctx.q)
        )

    def test_x_to_the_n_is_minus_one(self, ctx):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        half = np.zeros(ctx.n, dtype=np.int64)
        half[ctx.n // 2] = 1
        prod = ctx.multiply(half, half)
        expected = np.zeros(ctx.n, dtype=np.int64)
        expected[0] = ctx.q - 1
        assert np.array_equal(prod, expected)

    def test_batched_transform(self, ctx):
        rng = np.random.default_rng(2)
        batch = rng.integers(0, ctx.q, (3, ctx.n))
        fwd = ctx.forward(batch)
        for i in range(3):
            assert np.array_equal(fwd[i], ctx.forward(batch[i]))

    def test_linearity(self, ctx):
        rng = np.random.default_rng(3)
        a = rng.integers(0, ctx.q, ctx.n)
        b = rng.integers(0, ctx.q, ctx.n)
        lhs = ctx.forward((a + b) % ctx.q)
        rhs = (ctx.forward(a) + ctx.forward(b)) % ctx.q
        assert np.array_equal(lhs, rhs)

    def test_rejects_large_prime(self):
        with pytest.raises(ValueError):
            NttContext((1 << 62) + 1, 64)

    def test_rejects_bad_congruence(self):
        # 97 = 1 mod 32 but not mod 256
        assert (97 - 1) % 32 == 0
        with pytest.raises(ValueError):
            NttContext(97, 128)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**28 - 1), st.integers(min_value=0, max_value=63))
    def test_monomial_products(self, coeff, degree):
        """(c * X^d)^2 = c^2 X^2d with sign wrap, for random monomials."""
        n = 64
        q = find_ntt_primes(28, 1, n)[0]
        context = _MONOMIAL_CTX.setdefault((q, n), NttContext(q, n))
        a = np.zeros(n, dtype=np.int64)
        a[degree] = coeff % q
        prod = context.multiply(a, a)
        expected = np.zeros(n, dtype=np.int64)
        target = 2 * degree
        value = (coeff * coeff) % q
        if target < n:
            expected[target] = value
        else:
            expected[target - n] = (-value) % q
        assert np.array_equal(prod, expected)


_MONOMIAL_CTX = {}
