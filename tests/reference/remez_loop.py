"""The Remez exchange's reference picker as a per-point Python loop.

``repro.core.approx.remez._local_extrema`` is pinned to it: on every
residual where this loop returns ``count`` distinct references the
array form returns the same ones, bit for bit; where it returns fewer
(it pads with the grid's right end and ``set()`` folds the copies away),
the array form raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np


def local_extrema_loop(grid: np.ndarray, residual: np.ndarray, count: int) -> np.ndarray:
    """Pick ``count`` alternating extrema of the residual."""
    candidates = [0]
    for i in range(1, len(grid) - 1):
        if (residual[i] - residual[i - 1]) * (residual[i + 1] - residual[i]) <= 0:
            candidates.append(i)
    candidates.append(len(grid) - 1)
    # Keep the largest-magnitude extremum per sign run, preserving order.
    chosen = []
    for idx in candidates:
        if chosen and np.sign(residual[idx]) == np.sign(residual[chosen[-1]]):
            if abs(residual[idx]) > abs(residual[chosen[-1]]):
                chosen[-1] = idx
        else:
            chosen.append(idx)
    # If too many alternations, keep the strongest consecutive window.
    while len(chosen) > count:
        mags = [abs(residual[i]) for i in chosen]
        drop = int(np.argmin(mags))
        chosen.pop(drop)
    while len(chosen) < count:
        # Degenerate (shouldn't happen on reasonable grids): pad evenly.
        chosen.append(len(grid) - 1)
    return grid[np.array(sorted(set(chosen))[:count])]
