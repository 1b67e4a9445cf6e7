"""Unit and property tests for repro.utils."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.intmath import (
    bit_reverse_indices,
    ceil_div,
    centered_mod,
    int_log2,
    is_power_of_two,
    mod_inverse,
    next_power_of_two,
)
from repro.utils.primes import find_ntt_primes, is_prime
from repro.utils.rng import SeededRng


class TestIntMath:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_int_log2(self):
        assert int_log2(1) == 0
        assert int_log2(65536) == 16
        with pytest.raises(ValueError):
            int_log2(12)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_next_power_of_two_properties(self, n):
        p = next_power_of_two(n)
        assert is_power_of_two(p)
        assert p >= n
        assert p < 2 * n or n == 1

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_ceil_div(self, a, b):
        assert ceil_div(a, b) == (a + b - 1) // b

    def test_ceil_div_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_mod_inverse(self, m):
        a = 1
        while True:
            import math

            if math.gcd(a, m) == 1:
                break
            a += 1
        inv = mod_inverse(a, m)
        assert (a * inv) % m == 1

    def test_mod_inverse_missing(self):
        with pytest.raises(ValueError):
            mod_inverse(4, 8)

    def test_bit_reverse_is_involution(self):
        for n in (2, 8, 64):
            rev = bit_reverse_indices(n)
            assert np.array_equal(rev[rev], np.arange(n))

    def test_centered_mod_range(self):
        q = 97
        vals = np.arange(q)
        centered = centered_mod(vals, q)
        assert centered.min() >= -(q // 2)
        assert centered.max() <= q // 2
        assert np.array_equal(centered % q, vals)


class TestPrimes:
    def test_is_prime_small(self):
        primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes_below_50)

    def test_is_prime_large(self):
        assert is_prime((1 << 31) - 1)  # Mersenne prime
        assert not is_prime((1 << 31) - 3)

    def test_find_ntt_primes_congruence(self):
        n = 1024
        primes = find_ntt_primes(28, 5, n)
        assert len(set(primes)) == 5
        for q in primes:
            assert q % (2 * n) == 1
            assert is_prime(q)
            assert 26 <= q.bit_length() <= 30

    def test_find_ntt_primes_exclusion(self):
        n = 256
        first = find_ntt_primes(25, 3, n)
        second = find_ntt_primes(25, 3, n, exclude=tuple(first))
        assert not set(first) & set(second)


class TestSeededRng:
    def test_determinism(self):
        a = SeededRng(42).uniform_mod(1000, 16)
        b = SeededRng(42).uniform_mod(1000, 16)
        assert np.array_equal(a, b)

    def test_fork_independence(self):
        root = SeededRng(1)
        a = root.fork(1).uniform_mod(10**6, 100)
        b = root.fork(2).uniform_mod(10**6, 100)
        assert not np.array_equal(a, b)

    def test_ternary_values(self):
        vals = SeededRng(0).ternary(1000)
        assert set(np.unique(vals)) <= {-1, 0, 1}

    def test_gaussian_std(self):
        vals = SeededRng(0).gaussian(3.2, 100000)
        assert 2.8 < vals.std() < 3.6

