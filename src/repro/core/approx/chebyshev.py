"""Chebyshev interpolation on [-1, 1].

Range estimation (paper Section 6) guarantees polynomial inputs lie in
[-1, 1], so all fits happen on the canonical Chebyshev domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial import chebyshev as C


@dataclass(frozen=True)
class ChebyshevPoly:
    """A polynomial in the Chebyshev basis on [-1, 1].

    Attributes:
        coeffs: Chebyshev-basis coefficients (c_0 ... c_d).
    """

    coeffs: Tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def depth(self) -> int:
        """Multiplicative depth consumed by the homomorphic evaluator.

        Measured by probing the evaluator with these exact coefficients
        (at most ceil(log2(d+1)) + 1: our base-case coefficient
        combination can spend one level more than the depth-optimal
        evaluator of [11]; see docs/substitutions.md).
        """
        from repro.core.approx.evaluator import measure_poly_depth

        return measure_poly_depth(self)

    def __call__(self, x):
        return C.chebval(np.asarray(x), np.asarray(self.coeffs))

    def scaled(self, factor: float) -> "ChebyshevPoly":
        return ChebyshevPoly(tuple(c * factor for c in self.coeffs))

    def plus_constant(self, value: float) -> "ChebyshevPoly":
        coeffs = list(self.coeffs)
        coeffs[0] += value
        return ChebyshevPoly(tuple(coeffs))


def chebyshev_fit(fn: Callable, degree: int) -> ChebyshevPoly:
    """Interpolate ``fn`` at the degree+1 Chebyshev nodes of [-1, 1]."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    coeffs = C.chebinterpolate(fn, degree)
    return ChebyshevPoly(tuple(float(c) for c in coeffs))


def from_power_basis(power_coeffs) -> ChebyshevPoly:
    """Convert power-basis coefficients (c[k] * x^k) to Chebyshev basis."""
    cheb = C.poly2cheb(np.asarray(power_coeffs, dtype=np.float64))
    return ChebyshevPoly(tuple(float(c) for c in cheb))
