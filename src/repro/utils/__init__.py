"""Shared utilities: integer math, primes, and RNG."""

from repro.utils.intmath import (
    bit_reverse_indices,
    ceil_div,
    int_log2,
    is_power_of_two,
    mod_inverse,
    mod_pow,
    next_power_of_two,
)
from repro.utils.primes import find_ntt_primes, is_prime
from repro.utils.rng import SeededRng

__all__ = [
    "bit_reverse_indices",
    "ceil_div",
    "int_log2",
    "is_power_of_two",
    "mod_inverse",
    "mod_pow",
    "next_power_of_two",
    "find_ntt_primes",
    "is_prime",
    "SeededRng",
]
