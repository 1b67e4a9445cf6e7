"""Zero-dependency metrics registry with Prometheus text exposition.

Three instrument kinds, all label-aware:

- **counter** — monotone totals (``repro_serve_requests_total``);
- **gauge**   — point-in-time values (``repro_serve_queue_depth``);
- **histogram** — latency distributions backed by the same log2
  buckets as :class:`repro.backend.ledger.LatencyHistogram`, so serving
  telemetry and metrics exposition share one bucketing scheme.

Naming convention (docs/observability.md): ``repro_<area>_<what>``
with Prometheus unit suffixes (``_seconds``, ``_total``).  Labels are
passed as kwargs and serialize sorted, so the same series is the same
series regardless of call-site kwarg order.

A registry is a rendering, built fresh from a stats snapshot when read
(:meth:`repro.serve.ServerStats.to_metrics` writes every serving family);
it is never shipped between processes or merged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class MetricsRegistry:
    """A process-local collection of named metric series."""

    def __init__(self):
        #: name -> (kind, help)
        self._meta: Dict[str, Tuple[str, str]] = {}
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, object]] = {}

    def _declare(self, name: str, kind: str, help: str) -> None:
        existing = self._meta.get(name)
        if existing is None:
            self._meta[name] = (kind, help)
        elif existing[0] != kind:
            raise ValueError(
                f"metric {name!r} already declared as {existing[0]}, "
                f"cannot redeclare as {kind}"
            )

    # -- instruments -------------------------------------------------------
    def counter(
        self, name: str, value: float = 1.0, help: str = "", **labels
    ) -> None:
        """Add ``value`` (>= 0) to the counter series ``name{labels}``."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        self._declare(name, "counter", help)
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        self._declare(name, "gauge", help)
        self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def record_histogram(self, name: str, histogram, help: str = "", **labels):
        """Fold an existing ``LatencyHistogram`` into a series (the
        serving runtime already owns per-op histograms; re-observing
        every sample would double the work)."""
        self._declare(name, "histogram", help)
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        mine = series.get(key)
        if mine is None:
            series[key] = histogram.copy()
        else:
            mine.merge(histogram)

    # -- reads -------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def histogram_value(self, name: str, **labels):
        return self._histograms.get(name, {}).get(_label_key(labels))

    @property
    def names(self) -> List[str]:
        return sorted(self._meta)

    # -- Prometheus text exposition ---------------------------------------
    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Histograms render with cumulative ``le`` buckets at the
        LatencyHistogram upper edges (``base * 2^(i+1)``) plus
        ``+Inf``, ``_sum``, and ``_count`` — directly scrapable.
        """
        lines: List[str] = []
        for name in sorted(self._meta):
            kind, help = self._meta[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "counter":
                for key, value in sorted(self._counters.get(name, {}).items()):
                    lines.append(f"{name}{_format_labels(key)} {_num(value)}")
            elif kind == "gauge":
                for key, value in sorted(self._gauges.get(name, {}).items()):
                    lines.append(f"{name}{_format_labels(key)} {_num(value)}")
            else:
                for key, hist in sorted(self._histograms.get(name, {}).items()):
                    cumulative = 0
                    for i, bucket_count in enumerate(hist.buckets):
                        cumulative += bucket_count
                        edge = hist.base * (2.0 ** (i + 1))
                        bucket_key = key + (("le", _num(edge)),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_key)} "
                            f"{cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_format_labels(inf_key)} {hist.count}"
                    )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} {_num(hist.total)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {hist.count}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
