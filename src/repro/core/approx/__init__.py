"""Polynomial approximation of activation functions (paper Sections 6-7).

- Chebyshev interpolation and a discrete Remez exchange algorithm for
  minimax fits.
- Composite minimax sign polynomials (Lee et al. [53]) with the default
  degrees [15, 15, 27] used for ReLU = x * (1 + sign(x)) / 2.
- A homomorphic Chebyshev evaluator (BSGS / Paterson-Stockmeyer over
  the Chebyshev basis) with exact Fraction scale bookkeeping: plaintext
  constant scales are chosen so that every addition is between equal
  scales — the errorless evaluation style of Bossuat et al. [11].
"""

from repro.core.approx.chebyshev import ChebyshevPoly, chebyshev_fit
from repro.core.approx.remez import remez_odd_sign
from repro.core.approx.sign import CompositeSign
from repro.core.approx.evaluator import evaluate_chebyshev

__all__ = [
    "ChebyshevPoly",
    "chebyshev_fit",
    "remez_odd_sign",
    "CompositeSign",
    "evaluate_chebyshev",
]
