"""The diagonal method for dense matrices (paper Section 3.1, Fig. 2).

The cleartext form of the dataflow every packed matvec runs (rotate,
multiply, accumulate), kept as a test oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def extract_generalized_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Extract nonzero generalized diagonals of a square matrix.

    diag_k[i] = M[i, (i + k) mod n]  (paper Section 3.1).

    Returns:
        mapping k -> diagonal vector, only for diagonals with any
        nonzero entry.
    """
    n, m = matrix.shape
    if n != m:
        raise ValueError("generalized diagonals need a square matrix")
    rows = np.arange(n)
    out: Dict[int, np.ndarray] = {}
    for k in range(n):
        diag = matrix[rows, (rows + k) % n]
        if np.any(diag != 0):
            out[k] = diag
    return out


def matvec_diagonal_cleartext(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Evaluate M @ v using only rotations and pointwise products.

    This mirrors the homomorphic dataflow exactly (rotate, multiply,
    accumulate) and must agree with ``matrix @ vector``.
    """
    diagonals = extract_generalized_diagonals(matrix)
    out = np.zeros(matrix.shape[0])
    for k, diag in diagonals.items():
        out += diag * np.roll(vector, -k)
    return out
