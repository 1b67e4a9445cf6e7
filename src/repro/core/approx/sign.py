"""Composite minimax sign polynomials (paper Section 7).

A single minimax polynomial approximating sign needs enormous degree
for tight dead zones; composing several low-degree minimax polynomials
(Lee et al. [53]) reaches the same precision with far fewer levels.
The paper's default composition for ReLU is degrees [15, 15, 27] with
total multiplicative depth 13 for sign plus 1 for the final multiply.

Construction: with dead zone (-tau, tau), stage 1 is the minimax odd
approximation of 1 on [tau, 1]; its outputs concentrate near +-1 within
error e1, so stage 2 approximates on [(1-e1)/(1+e1), 1] after dividing
by (1+e1), and so on.  The composition maps |x| >= tau to within e_k
of sign(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.approx.chebyshev import ChebyshevPoly
from repro.core.approx.remez import remez_odd_sign

_CACHE = {}


@dataclass(frozen=True)
class CompositeSign:
    """sign(x) ~ p_k(...p_2(p_1(x))...) for |x| in [tau, 1].

    Attributes:
        stages: the composed Chebyshev-basis polynomials, in application
            order.
        tau: dead-zone half-width (no accuracy guarantee inside).
        error: final minimax error on [tau, 1].
    """

    stages: Tuple[ChebyshevPoly, ...]
    tau: float
    error: float

    @classmethod
    def build(cls, degrees: Sequence[int] = (15, 15, 27), tau: float = 0.02) -> "CompositeSign":
        key = (tuple(degrees), tau)
        if key in _CACHE:
            return _CACHE[key]
        stages: List[ChebyshevPoly] = []
        lower = tau
        error = 1.0
        for degree in degrees:
            poly, error = remez_odd_sign(degree, lower)
            # Normalize so outputs fall back inside [-1, 1].
            poly = poly.scaled(1.0 / (1.0 + error))
            error = (2 * error) / (1.0 + error)  # post-normalization error band
            stages.append(poly)
            lower = max(1e-6, 1.0 - error)
        result = cls(stages=tuple(stages), tau=tau, error=error)
        _CACHE[key] = result
        return result

    def __call__(self, x):
        out = np.asarray(x, dtype=np.float64)
        for stage in self.stages:
            out = stage(out)
        return out

    @property
    def depth(self) -> int:
        """Total depth of the composed evaluation."""
        return sum(stage.depth for stage in self.stages)

    def relu_stages(self) -> Tuple[ChebyshevPoly, ...]:
        """Stages for ReLU(x) = x * (sign(x) + 1) / 2: the final stage is
        rescaled/offset so the join multiply needs no extra constants."""
        *head, last = self.stages
        return tuple(head) + (last.scaled(0.5).plus_constant(0.5),)
