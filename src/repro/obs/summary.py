"""Shared telemetry summarizers.

Before this module, ``OpLedger.snapshot()`` / ``LatencyHistogram.
snapshot()`` and ``WorkerStats`` each re-derived per-op latency
summaries (count-weighted means, percentile merges) with their own
arithmetic.  Both now consume these functions, so the summary shape —
and the merge semantics — live in exactly one place.

A histogram summary is the plain dict
``{"count", "mean_seconds", "p50_seconds", "p99_seconds"}``; merging
two summaries is count-weighted on the mean and takes the max of each
percentile (the conservative bound: the merged distribution's true
percentile cannot exceed the max of the parts' bucket upper edges).
"""

from __future__ import annotations

from typing import Dict


def summarize_histogram(histogram) -> Dict[str, float]:
    """The canonical summary of one ``LatencyHistogram``."""
    return {
        "count": histogram.count,
        "mean_seconds": histogram.mean,
        "p50_seconds": histogram.quantile(0.5),
        "p99_seconds": histogram.quantile(0.99),
    }


def merge_histogram_summaries(
    a: Dict[str, float], b: Dict[str, float]
) -> Dict[str, float]:
    """Merge two histogram summaries (count-weighted mean, max
    percentiles).  Used when only summaries — not the underlying
    buckets — survived serialization (fork-mode worker payloads)."""
    total = a["count"] + b["count"]
    if total:
        mean = (
            a["mean_seconds"] * a["count"] + b["mean_seconds"] * b["count"]
        ) / total
    else:
        mean = 0.0
    return {
        "count": total,
        "mean_seconds": mean,
        "p50_seconds": max(a["p50_seconds"], b["p50_seconds"]),
        "p99_seconds": max(a["p99_seconds"], b["p99_seconds"]),
    }


def summarize_ledger(ledger) -> Dict[str, float]:
    """The canonical summary of one ``OpLedger`` (per-op counts, total
    modeled seconds, rotation total, active kernel backend)."""
    from repro.kernels import active_backend

    out: Dict[str, float] = {
        op: ledger.counts[op] for op in ledger.TRACKED_OPS
    }
    out["seconds"] = ledger.seconds
    out["rotations"] = ledger.rotations
    # Which kernel implementation produced these charges (telemetry).
    out["kernel_backend"] = active_backend()
    return out
