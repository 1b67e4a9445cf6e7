"""Scale-management policies (paper Section 6, Figure 7).

Orion's *errorless* policy encodes each linear layer's weights at the
scale q_j of the level the layer executes at, so the rescale after the
layer lands the ciphertext scale back on exactly Delta.  The baseline
is EVA's waterline policy [21]: encode everything at Delta and rescale
whenever the scale exceeds a waterline — simple, but the scale drifts
multiplicatively (Delta^2 / q_j != Delta) and decoded values inherit
the drift as error unless the runtime tracks it exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np


class ErrorlessScalePolicy:
    """Weight plaintexts at q_level * Delta / input_scale (Figure 7):
    the scale every compiled linear layer encodes at
    (``LinearInstr.execute``)."""

    name = "errorless"

    def plaintext_scale(self, backend, level: int, input_scale: Fraction) -> Fraction:
        q = backend.params.data_primes[level]
        return Fraction(q) * Fraction(backend.params.scale) / input_scale


class WaterlineScalePolicy:
    """EVA-style: always encode at Delta; the post-rescale scale drifts."""

    name = "waterline"

    def plaintext_scale(self, backend, level: int, input_scale: Fraction) -> Fraction:
        return Fraction(backend.params.scale)


def run_pmult_chain(
    backend, values: np.ndarray, weights: List[np.ndarray], policy
) -> Tuple[np.ndarray, Fraction]:
    """Multiply a ciphertext through a chain of plaintext vectors.

    Decodes *assuming* the scale is Delta at the end — which is exactly
    what a runtime that does not track drifting scales would do — so
    the waterline policy's scale drift shows up as value error while
    the errorless policy stays exact.

    Returns:
        (decoded values, final exact scale).
    """
    ct = backend.encode_encrypt(values)
    for w in weights:
        level = backend.level_of(ct)
        pt_scale = policy.plaintext_scale(backend, level, backend.scale_of(ct))
        pt = backend.encode(w, level, pt_scale)
        ct = backend.rescale(backend.mul_plain(ct, pt))
    final_scale = backend.scale_of(ct)
    decoded = backend.decrypt(ct)
    # A Delta-assuming runtime mis-scales the result by scale/Delta.
    drift = float(final_scale / Fraction(backend.params.scale))
    return decoded * drift, final_scale
