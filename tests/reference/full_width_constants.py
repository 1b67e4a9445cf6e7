"""The exact evaluator with every scalar constant encoded at full width.

:meth:`ToyBackend._encode_scalar` holds a scalar in every slot as the
``(level + 1, 1)`` column of its residues.  This backend keeps the form
the column replaced: the filled slot vector through the encoder, a
``(level + 1, N)`` plaintext whose every column is that residue column
(the encoder maps a constant slot vector to exactly ``(c, 0, ..., 0)``,
and the transform of a constant polynomial is that constant at every
evaluation point).  Broadcasting the column over the ring then gives
the same residues, so a program's outputs agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.backend.toy import ToyBackend


class FullWidthConstants(ToyBackend):
    """A :class:`ToyBackend` whose scalar constants are full plaintexts."""

    def _encode_scalar(self, value, level, scale):
        return self.encode(np.full(self.slot_count, value), level, scale)
