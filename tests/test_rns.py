"""Tests for RNS basis and polynomial arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.bigint import extend_primes_reference
from repro.rns import RnsBasis, RnsPolynomial
from repro.utils.primes import find_ntt_primes

N = 64


@pytest.fixture(scope="module")
def basis():
    primes = find_ntt_primes(26, 4, N) + find_ntt_primes(28, 1, N)
    return RnsBasis(primes, N, num_special=1)


class TestRnsBasis:
    def test_modulus_products(self, basis):
        assert basis.modulus(1) == basis.primes[0]
        assert basis.modulus(3) == basis.primes[0] * basis.primes[1] * basis.primes[2]

    def test_special_primes_split(self, basis):
        assert basis.num_data_primes == 4
        assert len(basis.special_primes) == 1
        assert basis.special_modulus() == basis.primes[-1]

    def test_crt_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        primes = basis.primes[:3]
        q = basis.modulus(3)
        assert q // 2 > 1 << 60  # values below stay inside the CRT range
        values = rng.integers(-(1 << 60), 1 << 60, N).astype(object)
        limbs = basis.reduce_bigints(values, primes)
        back = basis.crt_reconstruct(limbs, primes)
        assert np.array_equal(back, values)

    def test_rejects_duplicate_primes(self):
        p = find_ntt_primes(26, 1, N)[0]
        with pytest.raises(ValueError):
            RnsBasis([p, p], N)


class TestRnsPolynomial:
    def _random_poly(self, basis, primes, seed, magnitude=1 << 20):
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-magnitude, magnitude, N).astype(object)
        return coeffs, RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs)

    def test_bigint_roundtrip(self, basis):
        coeffs, poly = self._random_poly(basis, basis.primes[:3], 0)
        assert np.array_equal(poly.to_bigint_coeffs(), coeffs)

    def test_add_matches_integers(self, basis):
        primes = basis.primes[:3]
        ca, pa = self._random_poly(basis, primes, 1)
        cb, pb = self._random_poly(basis, primes, 2)
        assert np.array_equal((pa + pb).to_bigint_coeffs(), ca + cb)

    def test_sub_and_neg(self, basis):
        primes = basis.primes[:2]
        ca, pa = self._random_poly(basis, primes, 3)
        cb, pb = self._random_poly(basis, primes, 4)
        assert np.array_equal((pa - pb).to_bigint_coeffs(), ca - cb)
        assert np.array_equal((-pa).to_bigint_coeffs(), -ca)

    def test_mul_matches_negacyclic_reference(self, basis):
        primes = basis.primes[:2]
        rng = np.random.default_rng(5)
        ca = rng.integers(0, 100, N).astype(object)
        cb = rng.integers(0, 100, N).astype(object)
        pa = RnsPolynomial.from_bigint_coeffs(basis, primes, ca)
        pb = RnsPolynomial.from_bigint_coeffs(basis, primes, cb)
        got = (pa * pb).to_bigint_coeffs()
        # schoolbook negacyclic product over the integers
        expected = np.zeros(N, dtype=object)
        for i in range(N):
            for j in range(N):
                k = i + j
                term = int(ca[i]) * int(cb[j])
                if k < N:
                    expected[k] += term
                else:
                    expected[k - N] -= term
        q = basis.modulus(2)
        assert np.array_equal(
            np.array([int(x) % q for x in got], dtype=object),
            np.array([int(x) % q for x in expected], dtype=object),
        )

    def test_scalar_mul(self, basis):
        primes = basis.primes[:3]
        ca, pa = self._random_poly(basis, primes, 6, magnitude=1000)
        got = pa.scalar_mul(7).to_bigint_coeffs()
        assert np.array_equal(got, ca * 7)

    def test_automorphism_composition(self, basis):
        """sigma_5 applied slot-count times is the identity."""
        primes = basis.primes[:2]
        _, pa = self._random_poly(basis, primes, 7)
        out = pa
        for _ in range(N // 2):
            out = out.automorphism(5)
        assert np.array_equal(out.to_bigint_coeffs(), pa.to_bigint_coeffs())

    def test_automorphism_preserves_products(self, basis):
        """sigma is a ring homomorphism: sigma(ab) = sigma(a)sigma(b)."""
        primes = basis.primes[:2]
        _, pa = self._random_poly(basis, primes, 8, magnitude=50)
        _, pb = self._random_poly(basis, primes, 9, magnitude=50)
        lhs = (pa * pb).automorphism(5)
        rhs = pa.automorphism(5) * pb.automorphism(5)
        assert np.array_equal(lhs.to_bigint_coeffs(), rhs.to_bigint_coeffs())

    def test_divide_and_round_by_last(self, basis):
        primes = basis.primes[:3]
        last = primes[-1]
        rng = np.random.default_rng(10)
        coeffs = rng.integers(-(1 << 40), 1 << 40, N).astype(object)
        poly = RnsPolynomial.from_bigint_coeffs(basis, primes, coeffs)
        divided = poly.divide_and_round_by_last().to_bigint_coeffs()
        expected = np.array([round_half_away(int(c), last) for c in coeffs], dtype=object)
        assert np.array_equal(divided, expected)

    def test_drop_limbs(self, basis):
        primes = basis.primes[:3]
        _, pa = self._random_poly(basis, primes, 11, magnitude=100)
        dropped = pa.drop_limbs(1)
        assert dropped.primes == primes[:2]
        # Values congruent modulo the smaller modulus.
        q2 = basis.modulus(2)
        a = np.array([int(x) % q2 for x in pa.to_bigint_coeffs()], dtype=object)
        b = np.array([int(x) % q2 for x in dropped.to_bigint_coeffs()], dtype=object)
        assert np.array_equal(a, b)

    def test_extend_primes_exact(self, basis):
        primes = basis.primes[:2]
        _, pa = self._random_poly(basis, primes, 12, magnitude=1000)
        target = primes + basis.special_primes
        data = basis.convert_residues(pa.to_coeff().data, primes, target)
        extended = RnsPolynomial(basis, target, data, is_ntt=False)
        assert np.array_equal(extended.to_bigint_coeffs(), pa.to_bigint_coeffs())
        exact = extend_primes_reference(pa, target).to_coeff()
        assert np.array_equal(data, exact.data)

    def test_incompatible_operands_raise(self, basis):
        _, pa = self._random_poly(basis, basis.primes[:2], 13)
        _, pb = self._random_poly(basis, basis.primes[:3], 14)
        with pytest.raises(ValueError):
            _ = pa + pb

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30))
    def test_constant_polys_multiply_like_ints(self, value):
        primes = find_ntt_primes(26, 2, N)
        basis = _BASIS_CACHE.setdefault(tuple(primes), RnsBasis(primes, N))
        coeffs = np.zeros(N, dtype=object)
        coeffs[0] = value
        poly = RnsPolynomial.from_bigint_coeffs(basis, basis.primes, coeffs)
        sq = (poly * poly).to_bigint_coeffs()
        q = basis.modulus(2)
        expected = (value * value) % q
        if expected > q // 2:
            expected -= q
        assert int(sq[0]) == expected
        assert all(int(c) == 0 for c in sq[1:])


_BASIS_CACHE = {}


def round_half_away(value: int, divisor: int):
    """Python reference for divide-and-round used by rescaling.

    The RNS formula computes (x - [x]_q) / q with a centered lift of
    [x]_q into (-q/2, q/2], which rounds ties *down* (toward the value
    whose remainder is +q/2).  Mirror that exactly.
    """
    rem = value % divisor
    if rem > divisor // 2:
        rem -= divisor
    return (value - rem) // divisor
