"""repro.obs — unified observability: tracing, metrics, noise telemetry.

Three zero-dependency pillars (see docs/observability.md):

- :mod:`repro.obs.tracing` — context-propagated span trees with ledger
  op-count attribution, Chrome ``trace_event`` export;
- :mod:`repro.obs.metrics` — counters / gauges / histograms with a
  Prometheus text-exposition writer;
- :mod:`repro.obs.noise`   — level/scale drift at rescale / mod-down /
  bootstrap boundaries.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.noise import NoiseMonitor
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracer,
    use_tracer,
    write_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "NoiseMonitor",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "write_chrome_trace",
]
