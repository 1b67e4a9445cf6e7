"""Discrete Remez exchange for minimax odd approximations of sign.

The composite-sign construction (Lee et al. [53], used by the paper for
ReLU) needs, at each stage, the odd polynomial of degree d minimizing
max |p(x) - 1| over [a, 1] (odd symmetry then gives p(x) ~ -1 on
[-1, -a]).  This module implements the classical exchange algorithm on
a dense grid: solve for equioscillation on the current reference set,
move the references to the new extrema, repeat until the levels agree.
"""

from __future__ import annotations

import numpy as np

from repro.core.approx.chebyshev import from_power_basis


def _odd_vandermonde(x: np.ndarray, degree: int) -> np.ndarray:
    """Columns x, x^3, ..., x^degree."""
    powers = np.arange(1, degree + 1, 2)
    return x[:, None] ** powers[None, :]


def remez_odd_sign(
    degree: int,
    lower: float,
    grid_points: int = 4000,
    max_iterations: int = 50,
    tolerance: float = 1e-12,
):
    """Minimax odd polynomial approximating 1 on [lower, 1].

    Args:
        degree: odd polynomial degree (only odd monomials used).
        lower: left end of the approximation interval (the dead zone
            boundary a; sign is not approximated inside (-a, a)).

    Returns:
        (ChebyshevPoly, minimax_error): the polynomial (full Chebyshev
        basis on [-1, 1]) and the achieved equioscillation error.

    Raises:
        ValueError: when the residual on the grid alternates fewer times
            than the exchange needs references (the degree is too high
            for ``grid_points`` on [lower, 1]).
    """
    if degree % 2 == 0:
        raise ValueError("sign approximations use odd degrees")
    if not 0.0 < lower < 1.0:
        raise ValueError("lower must be in (0, 1)")
    num_coeffs = (degree + 1) // 2
    num_refs = num_coeffs + 1
    grid = np.linspace(lower, 1.0, grid_points)
    # Chebyshev-style initial references on [lower, 1].
    k = np.arange(num_refs)
    refs = 0.5 * (lower + 1.0) + 0.5 * (1.0 - lower) * np.cos(
        np.pi * (num_refs - 1 - k) / (num_refs - 1)
    )

    vandermonde = _odd_vandermonde(grid, degree)
    coeffs = np.zeros(num_coeffs)
    for _ in range(max_iterations):
        # Solve p(r_i) + (-1)^i E = 1 for the coefficients and level E.
        design = np.zeros((num_refs, num_coeffs + 1))
        design[:, :num_coeffs] = _odd_vandermonde(refs, degree)
        design[:, num_coeffs] = (-1.0) ** np.arange(num_refs)
        solution = np.linalg.solve(design, np.ones(num_refs))
        coeffs = solution[:num_coeffs]
        error_level = abs(solution[num_coeffs])

        residual = vandermonde @ coeffs - 1.0
        if np.abs(residual).max() - error_level < tolerance:
            break
        try:
            refs = _local_extrema(grid, residual, num_refs)
        except ValueError as err:
            raise ValueError(
                f"remez_odd_sign(degree={degree}, lower={lower}, "
                f"grid_points={grid_points}): {err}; raise grid_points "
                "or lower the degree"
            ) from None

    power = np.zeros(degree + 1)
    power[1::2] = coeffs
    return from_power_basis(power), float(np.abs(vandermonde @ coeffs - 1.0).max())


def _local_extrema(grid: np.ndarray, residual: np.ndarray, count: int) -> np.ndarray:
    """Pick ``count`` alternating extrema of the residual.

    Candidates are the grid's two ends and every turning point
    (``(r[i] - r[i-1]) * (r[i+1] - r[i]) <= 0``).  Each run of
    same-sign candidates keeps its largest magnitude (the first, on a
    tie).  While more than ``count`` remain, the weakest goes, the
    leftmost first on a tie; that order is exactly a stable argsort of
    the magnitudes, so one sort drops them all.  A residual one
    alternation short takes the grid's right end as its last reference
    when no run kept it.  Raises ``ValueError`` when fewer than
    ``count`` references remain.
    """
    last = len(grid) - 1
    steps = np.diff(residual)
    turning = np.flatnonzero(steps[:-1] * steps[1:] <= 0) + 1
    candidates = np.concatenate(([0], turning, [last]))
    values = residual[candidates]
    magnitudes = np.abs(values)
    signs = np.sign(values).tolist()
    mags = magnitudes.tolist()
    chosen = [0]
    for j in range(1, len(candidates)):
        if signs[j] == signs[chosen[-1]]:
            if mags[j] > mags[chosen[-1]]:
                chosen[-1] = j
        else:
            chosen.append(j)
    keep = candidates[chosen]
    surplus = len(keep) - count
    if surplus > 0:
        weakest = np.argsort(magnitudes[chosen], kind="stable")[:surplus]
        keep = np.delete(keep, weakest)
    elif surplus < 0 and keep[-1] != last:
        keep = np.append(keep, last)
    if len(keep) < count:
        raise ValueError(
            f"the residual alternates {len(keep)} times where the exchange "
            f"needs {count} references"
        )
    return grid[keep]
