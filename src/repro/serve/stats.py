"""Typed, schema-versioned serving telemetry: what ``Server.stats()``
returns and ``Server.metrics()`` renders.

- :class:`LaneStats`   — one (worker, artifact) lane at one instant: its
  counters, the ledger's op counts, noise, key bytes, and copies of its
  :class:`repro.backend.ledger.LatencyHistogram` s.  The only thing a
  pool worker reports (inline, or pickled over a fork's pipe);
- :class:`WorkerStats` — one worker: its lanes, with every worker-level
  attribute a sum or bucket merge over them, computed when read;
- :class:`ServerStats` — the pool: per-worker stats plus the
  server's admission-conservation counters, rendered to Prometheus
  by :meth:`ServerStats.to_metrics`.

All are frozen dataclasses, and ``ServerStats.schema_version`` names
their layout (``STATS_SCHEMA_VERSION``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.backend.ledger import LatencyHistogram
from repro.obs.metrics import MetricsRegistry
from repro.serve.keys import backend_key_bytes

#: Version 4: a worker row is its per-artifact ``lanes``, each carrying
#: whole latency histograms (request, queue wait, per phase) and the
#: ledger's op counts; the constant kernel name and the pool-side
#: tenant key-cache fields are gone.  Version 3 added per-worker key-material
#: accounting, version 2 the noise-budget telemetry (``WorkerStats.noise``).
STATS_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class NoiseStats:
    """Noise-budget telemetry of one lane (schema v2).

    Summarizes a :class:`repro.obs.NoiseMonitor`: how many modulus-chain
    boundary events the lane executed, the lowest level any ciphertext
    reached (how close the run came to exhausting the chain), and the
    largest log2 drift of any post-boundary scale from the context's
    Delta (precision regressions localize here before they corrupt
    decrypted outputs).
    """

    rescales: int = 0
    mod_downs: int = 0
    bootstraps: int = 0
    min_level: Optional[int] = None
    max_scale_drift_log2: float = 0.0

    @classmethod
    def from_monitor(cls, monitor) -> "NoiseStats":
        return cls(**monitor.stats())


@dataclass(frozen=True)
class LaneStats:
    """One (worker, artifact) lane's serving telemetry.

    ``ops`` are the lane ledger's per-op counts; ``phases`` map a program
    phase (``linear``, ``act``, ...) to the modeled-seconds histogram of
    its per-batch charges.  ``key_bytes_resident`` is the stored
    rotation-key bytes of the lane's backend.
    """

    artifact_id: str
    requests_served: int
    batches_run: int
    queue_depth: int
    capacity: int
    preloaded_plaintexts: int
    compilations_since_load: int
    placements_since_load: int
    mmap_backed: bool
    key_bytes_resident: int
    modeled_seconds: float
    rotations: int
    bootstraps: int
    ops: Tuple[Tuple[str, int], ...]
    noise: NoiseStats
    request_latency: LatencyHistogram
    queue_wait: LatencyHistogram
    phases: Tuple[Tuple[str, LatencyHistogram], ...]

    @classmethod
    def from_server(cls, artifact_id: str, server, mmap_backed: bool) -> "LaneStats":
        """Snapshot one :class:`repro.serve.runtime.InferenceServer`."""
        ledger = server.ledger
        return cls(
            artifact_id=artifact_id,
            requests_served=server.requests_served,
            batches_run=server.batches_run,
            queue_depth=len(server.scheduler),
            capacity=server.scheduler.capacity,
            preloaded_plaintexts=server.preloaded_plaintexts,
            compilations_since_load=server.compilations_since_load,
            placements_since_load=server.placements_since_load,
            mmap_backed=mmap_backed,
            key_bytes_resident=backend_key_bytes(server.backend),
            modeled_seconds=ledger.seconds,
            rotations=ledger.rotations,
            bootstraps=ledger.bootstraps,
            ops=tuple(sorted(ledger.counts.items())),
            noise=NoiseStats.from_monitor(server.noise),
            request_latency=server.request_latency.copy(),
            queue_wait=server.queue_wait.copy(),
            phases=tuple(
                (phase, histogram.copy())
                for phase, histogram in sorted(server.op_histograms.items())
            ),
        )


class _LaneSum:
    """A :class:`WorkerStats` attribute read as the sum over its lanes."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, stats, owner=None):
        if stats is None:
            return self
        return sum(getattr(lane, self.name) for lane in stats.lanes)


@dataclass(frozen=True)
class WorkerStats:
    """One worker's serving telemetry: one :class:`LaneStats` per hosted
    artifact.  The worker-level attributes aggregate the lanes when
    read — counters sum, histograms merge bucket for bucket — so a
    worker hosting two artifacts reports exactly what one lane fed
    every observation would."""

    worker_id: int
    lanes: Tuple[LaneStats, ...]

    requests_served = _LaneSum()
    batches_run = _LaneSum()
    queue_depth = _LaneSum()
    preloaded_plaintexts = _LaneSum()
    compilations_since_load = _LaneSum()
    placements_since_load = _LaneSum()
    key_bytes_resident = _LaneSum()
    modeled_seconds = _LaneSum()
    rotations = _LaneSum()
    bootstraps = _LaneSum()

    @property
    def capacity(self) -> int:
        return max(lane.capacity for lane in self.lanes)

    @property
    def mmap_backed(self) -> bool:
        return all(lane.mmap_backed for lane in self.lanes)

    @property
    def request_latency(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for lane in self.lanes:
            merged.merge(lane.request_latency)
        return merged

    @property
    def noise(self) -> NoiseStats:
        """Counts sum, ``min_level`` is the lowest any lane reached,
        drift the largest."""
        parts = [lane.noise for lane in self.lanes]
        levels = [n.min_level for n in parts if n.min_level is not None]
        return NoiseStats(
            rescales=sum(n.rescales for n in parts),
            mod_downs=sum(n.mod_downs for n in parts),
            bootstraps=sum(n.bootstraps for n in parts),
            min_level=min(levels, default=None),
            max_scale_drift_log2=max(
                (n.max_scale_drift_log2 for n in parts), default=0.0
            ),
        )


@dataclass(frozen=True)
class ServerStats:
    """The pool-level view :meth:`repro.serve.Server.stats` returns.

    Admission conservation is part of the schema, not just the tests:
    ``requests_submitted == requests_admitted + requests_rejected`` and
    ``requests_admitted == requests_completed + in_flight`` hold at
    every observation point, so a consumer can audit that no request
    was dropped silently.
    """

    schema_version: int
    artifacts: Tuple[str, ...]
    requests_submitted: int
    requests_admitted: int
    requests_rejected: int
    requests_completed: int
    in_flight: int
    workers: Tuple[WorkerStats, ...]

    def __post_init__(self):
        if self.requests_submitted != (
            self.requests_admitted + self.requests_rejected
        ):
            raise ValueError(
                "conservation violated: submitted != admitted + rejected "
                f"({self.requests_submitted} != {self.requests_admitted} "
                f"+ {self.requests_rejected})"
            )
        if self.requests_admitted != self.requests_completed + self.in_flight:
            raise ValueError(
                "conservation violated: admitted != completed + in_flight "
                f"({self.requests_admitted} != {self.requests_completed} "
                f"+ {self.in_flight})"
            )

    @property
    def reject_rate(self) -> float:
        if self.requests_submitted == 0:
            return 0.0
        return self.requests_rejected / self.requests_submitted

    # -- Prometheus ----------------------------------------------------------
    def to_metrics(self) -> MetricsRegistry:
        """The Prometheus view of these stats: the one place a serving
        metric's name and help string are written (naming scheme:
        docs/observability.md)."""
        registry = MetricsRegistry()
        for worker in self.workers:
            for lane in worker.lanes:
                labels = {"worker": worker.worker_id, "artifact": lane.artifact_id}
                registry.counter(
                    "repro_serve_requests_total",
                    lane.requests_served,
                    help="Requests served (slot-batched or single).",
                    **labels,
                )
                registry.counter(
                    "repro_serve_batches_total",
                    lane.batches_run,
                    help="Batched program executions run.",
                    **labels,
                )
                registry.counter(
                    "repro_modeled_seconds_total",
                    lane.modeled_seconds,
                    help="Cost-model seconds charged by the op ledger.",
                    **labels,
                )
                for op, count in lane.ops:
                    registry.counter(
                        "repro_fhe_ops_total",
                        count,
                        help="FHE primitive operations executed, by op.",
                        op=op,
                        **labels,
                    )
                noise = lane.noise
                for op, count in (
                    ("rescale", noise.rescales),
                    ("mod_down", noise.mod_downs),
                    ("bootstrap", noise.bootstraps),
                ):
                    registry.counter(
                        "repro_noise_boundary_total",
                        count,
                        help="Modulus-chain boundary events, by boundary op.",
                        op=op,
                        **labels,
                    )
                registry.gauge(
                    "repro_serve_queue_depth",
                    lane.queue_depth,
                    help="Requests waiting in the slot-batching queue.",
                    **labels,
                )
                if noise.min_level is not None:
                    registry.gauge(
                        "repro_noise_min_level",
                        noise.min_level,
                        help="Lowest ciphertext level any boundary op reached.",
                        **labels,
                    )
                registry.gauge(
                    "repro_noise_max_scale_drift_log2",
                    noise.max_scale_drift_log2,
                    help="Max |log2(scale/Delta)| seen after a boundary op.",
                    **labels,
                )
                registry.gauge(
                    "repro_key_material_bytes",
                    lane.key_bytes_resident,
                    help="Key-registry material bytes, by residency.",
                    state="resident",
                    **labels,
                )
                registry.record_histogram(
                    "repro_request_latency_seconds",
                    lane.request_latency,
                    help="Execution wall of the batch that served each "
                    "request (one observation per request; excludes queue wait).",
                    **labels,
                )
                registry.record_histogram(
                    "repro_serve_queue_wait_seconds",
                    lane.queue_wait,
                    help="Time each request spent queued before its batch started.",
                    **labels,
                )
                for phase, histogram in lane.phases:
                    registry.record_histogram(
                        "repro_phase_modeled_seconds",
                        histogram,
                        help="Modeled seconds per batch, by program phase.",
                        phase=phase,
                        **labels,
                    )
        for outcome, count in (
            ("submitted", self.requests_submitted),
            ("admitted", self.requests_admitted),
            ("rejected", self.requests_rejected),
        ):
            registry.counter(
                "repro_admission_requests_total",
                count,
                help="Admission outcomes.",
                outcome=outcome,
            )
        registry.counter(
            "repro_requests_completed_total",
            self.requests_completed,
            help="Requests whose results were delivered.",
        )
        registry.gauge(
            "repro_in_flight_requests",
            self.in_flight,
            help="Admitted requests not yet completed.",
        )
        return registry
