"""Integer and modular arithmetic helpers used across the FHE substrates."""

from __future__ import annotations

import numpy as np


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def int_log2(n: int) -> int:
    """Exact base-2 logarithm of a power of two.

    Raises ``ValueError`` if ``n`` is not a positive power of two.
    """
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative integers."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def conv_output_size(size: int, kernel: int, stride: int, pad: int, dil: int) -> int:
    """Output length of a convolution or pool along one axis:
    ``(size + 2 pad - dil (kernel - 1) - 1) // stride + 1``."""
    effective = dil * (kernel - 1) + 1
    return (size + 2 * pad - effective) // stride + 1


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation (thin wrapper for readability)."""
    return pow(base, exponent, modulus)


def mod_inverse(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise ValueError(f"{a} has no inverse modulo {modulus}") from exc


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` for power-of-two ``n``."""
    bits = int_log2(n)
    indices = np.arange(n, dtype=np.int64)
    result = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        result = (result << 1) | (indices & 1)
        indices >>= 1
    return result
