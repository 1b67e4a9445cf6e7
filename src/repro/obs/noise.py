"""Noise-budget telemetry: level/scale drift at chain boundaries.

RNS-CKKS precision regressions are invisible in op counts — a program
can run the right number of rescales and still land at the wrong scale.
A :class:`NoiseMonitor` attached to a backend records, at every
rescale / mod-down / bootstrap boundary, the ciphertext's level and
scale before and after, and tracks:

- per-op boundary counts (``rescales`` / ``mod_downs`` / ``bootstraps``);
- the minimum level any ciphertext touched (how close the run came to
  exhausting the modulus chain);
- the maximum absolute log2 drift of the scale from the context's
  Delta (``max_scale_drift_log2`` — a precision regression shows up
  here before it shows up in decrypted values).

When a tracer is active, each boundary event also lands on the current
innermost span, so drift localizes to a layer (`linear/conv2`), not
just a run.  Recording is observe-only: levels and scales are read,
never written, so enabling the monitor cannot perturb bit-exactness.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

#: (op, level_before, level_after, drift_log2_after)
NoiseEvent = Tuple[str, int, int, float]

_BOUNDARY_OPS = ("rescale", "mod_down", "bootstrap")


class NoiseMonitor:
    """Accumulates level/scale drift at modulus-chain boundaries."""

    def __init__(self, delta_scale=None, keep_events: int = 0):
        #: the context's Delta (int/Fraction); drift is measured
        #: against it.  None disables drift (counts/levels only).
        self.delta_scale = delta_scale
        #: how many raw events to retain (0 = counts only; serving
        #: keeps 0, tests and the example keep a window).
        self.keep_events = keep_events
        self.counts: Dict[str, int] = {op: 0 for op in _BOUNDARY_OPS}
        self.min_level: Optional[int] = None
        self.max_scale_drift_log2 = 0.0
        self.events: List[NoiseEvent] = []

    def record(
        self,
        op: str,
        level_before: int,
        level_after: int,
        scale_before=None,
        scale_after=None,
    ) -> None:
        if op not in self.counts:
            self.counts[op] = 0
        self.counts[op] += 1
        if self.min_level is None or level_after < self.min_level:
            self.min_level = level_after
        drift = self._drift_log2(scale_after)
        if drift > self.max_scale_drift_log2:
            self.max_scale_drift_log2 = drift
        event: NoiseEvent = (op, level_before, level_after, drift)
        if self.keep_events:
            self.events.append(event)
            if len(self.events) > self.keep_events:
                del self.events[0]
        from repro.obs.tracing import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.current_span
            if span is not None:
                span.add_noise(event)

    def _drift_log2(self, scale) -> float:
        if scale is None or not self.delta_scale:
            return 0.0
        try:
            ratio = float(scale / self.delta_scale)
        except OverflowError:
            return float("inf")
        if ratio <= 0.0:
            return float("inf")
        return abs(math.log2(ratio))

    # -- aggregation -------------------------------------------------------
    @property
    def rescales(self) -> int:
        return self.counts["rescale"]

    @property
    def mod_downs(self) -> int:
        return self.counts["mod_down"]

    @property
    def bootstraps(self) -> int:
        return self.counts["bootstrap"]

    def stats(self) -> Dict:
        return {
            "rescales": self.rescales,
            "mod_downs": self.mod_downs,
            "bootstraps": self.bootstraps,
            "min_level": self.min_level,
            "max_scale_drift_log2": self.max_scale_drift_log2,
        }

    def __repr__(self) -> str:
        return (
            f"NoiseMonitor(rescales={self.rescales}, "
            f"mod_downs={self.mod_downs}, boots={self.bootstraps}, "
            f"min_level={self.min_level}, "
            f"drift_log2={self.max_scale_drift_log2:.3g})"
        )
