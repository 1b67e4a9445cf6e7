"""Typed, schema-versioned serving telemetry: the single schema both
``Server.stats()`` and ``BENCH_serving.json`` speak.

- :class:`HistogramStats` — one latency histogram, summarized;
- :class:`WorkerStats`    — one worker's serving counters, per-op
  latency, serve-path purity counters, and the mmap discipline flag;
- :class:`ServerStats`    — the pool: per-worker stats plus the
  dispatcher's admission-conservation counters.

All three are frozen dataclasses with ``to_payload`` / ``from_payload``
(plain-JSON dicts) and ``to_json`` / ``from_json`` round-trips, pinned
by ``STATS_SCHEMA_VERSION`` — a consumer reading a payload written by a
different build fails loudly instead of mis-parsing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.summary import merge_histogram_summaries, summarize_histogram

#: Version 3: adds per-worker key-material accounting (``WorkerStats.
#: key_bytes_resident`` / ``key_bytes_spilled`` and the matching tenant
#: counts) from the spill-capable :class:`repro.serve.keys.KeyRegistry`.
#: Version 2 added the per-worker noise-budget telemetry
#: (``WorkerStats.noise``).  Payloads from any other version are
#: rejected loudly by ``ServerStats.from_payload``.
STATS_SCHEMA_VERSION = 3


class StatsSchemaError(ValueError):
    """A stats payload written by an incompatible schema version."""


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one :class:`repro.backend.ledger.LatencyHistogram`.

    Produced by — and merged with — the shared summarizer in
    :mod:`repro.obs.summary`, so this class and ``LatencyHistogram.
    snapshot()`` can never disagree on the summary shape or the merge
    arithmetic.
    """

    count: int
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float

    @classmethod
    def from_histogram(cls, histogram) -> "HistogramStats":
        return cls(**summarize_histogram(histogram))

    def merged_with(self, other: "HistogramStats") -> "HistogramStats":
        """Count-weighted mean, max percentiles (the only merge possible
        once the underlying buckets are gone)."""
        return HistogramStats(
            **merge_histogram_summaries(self.to_payload(), other.to_payload())
        )

    def to_payload(self) -> Dict:
        return {
            "count": self.count,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "HistogramStats":
        return cls(
            count=int(payload["count"]),
            mean_seconds=float(payload["mean_seconds"]),
            p50_seconds=float(payload["p50_seconds"]),
            p99_seconds=float(payload["p99_seconds"]),
        )


@dataclass(frozen=True)
class NoiseStats:
    """Noise-budget telemetry of one worker (schema v2).

    Summarizes a :class:`repro.obs.NoiseMonitor`: how many modulus-chain
    boundary events the worker executed, the lowest level any ciphertext
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

    def merged_with(self, other: "NoiseStats") -> "NoiseStats":
        levels = [
            lvl for lvl in (self.min_level, other.min_level) if lvl is not None
        ]
        return NoiseStats(
            rescales=self.rescales + other.rescales,
            mod_downs=self.mod_downs + other.mod_downs,
            bootstraps=self.bootstraps + other.bootstraps,
            min_level=min(levels) if levels else None,
            max_scale_drift_log2=max(
                self.max_scale_drift_log2, other.max_scale_drift_log2
            ),
        )

    def to_payload(self) -> Dict:
        return {
            "rescales": self.rescales,
            "mod_downs": self.mod_downs,
            "bootstraps": self.bootstraps,
            "min_level": self.min_level,
            "max_scale_drift_log2": self.max_scale_drift_log2,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "NoiseStats":
        min_level = payload["min_level"]
        return cls(
            rescales=int(payload["rescales"]),
            mod_downs=int(payload["mod_downs"]),
            bootstraps=int(payload["bootstraps"]),
            min_level=None if min_level is None else int(min_level),
            max_scale_drift_log2=float(payload["max_scale_drift_log2"]),
        )


@dataclass(frozen=True)
class WorkerStats:
    """One worker's serving telemetry.

    ``ops`` maps an operation phase (``linear``, ``act``, ...) to the
    modeled-latency histogram of its per-batch charges.

    ``key_bytes_resident`` / ``key_bytes_spilled`` (schema v3) split the
    worker's key-material footprint between RAM and spill files, as
    accounted by its :meth:`repro.serve.keys.KeyRegistry.key_bytes`;
    ``tenants_resident`` / ``tenants_spilled`` count the clients on each
    side.  The serving-pool benchmark gates the resident number against
    a budget so tenant-density regressions fail CI.
    """

    worker_id: int
    requests_served: int
    batches_run: int
    queue_depth: int
    capacity: int
    preloaded_plaintexts: int
    modeled_seconds: float
    rotations: int
    bootstraps: int
    compilations_since_load: int
    placements_since_load: int
    kernel_backend: str
    mmap_backed: bool
    request_latency: HistogramStats = field(
        default_factory=lambda: HistogramStats(0, 0.0, 0.0, 0.0)
    )
    ops: Tuple[Tuple[str, HistogramStats], ...] = ()
    noise: NoiseStats = field(default_factory=NoiseStats)
    key_bytes_resident: int = 0
    key_bytes_spilled: int = 0
    tenants_resident: int = 0
    tenants_spilled: int = 0

    @classmethod
    def from_server(
        cls,
        worker_id: int,
        server,
        queue_depth: int,
        mmap_backed: bool,
        registry=None,
    ) -> "WorkerStats":
        """Summarize one :class:`repro.serve.runtime.InferenceServer`.

        ``registry`` is the worker's :class:`repro.serve.keys.KeyRegistry`
        for this artifact (when the pool routes key accounting through
        one); it supplies the resident/spilled key-material split.
        """
        from repro import kernels

        key_bytes = (
            registry.key_bytes() if registry is not None else {"resident": 0, "spilled": 0}
        )
        return cls(
            worker_id=worker_id,
            requests_served=server.requests_served,
            batches_run=server.batches_run,
            queue_depth=queue_depth,
            capacity=server.scheduler.capacity,
            preloaded_plaintexts=server.preloaded_plaintexts,
            modeled_seconds=server.ledger.seconds,
            rotations=server.ledger.rotations,
            bootstraps=server.ledger.bootstraps,
            compilations_since_load=server.compilations_since_load,
            placements_since_load=server.placements_since_load,
            kernel_backend=kernels.active_backend(),
            mmap_backed=mmap_backed,
            request_latency=HistogramStats.from_histogram(
                server.request_latency
            ),
            ops=tuple(
                (op, HistogramStats.from_histogram(histogram))
                for op, histogram in sorted(server.op_histograms.items())
            ),
            noise=NoiseStats.from_monitor(server.noise),
            key_bytes_resident=key_bytes["resident"],
            key_bytes_spilled=key_bytes["spilled"],
            tenants_resident=len(registry) if registry is not None else 0,
            tenants_spilled=(
                registry.spilled_count() if registry is not None else 0
            ),
        )

    def merged_with(self, other: "WorkerStats") -> "WorkerStats":
        """Fold another server's counters into this worker's (a worker
        hosting several artifacts reports one combined row).  Histogram
        summaries merge through the shared summarizer in
        :mod:`repro.obs.summary`."""
        ops: Dict[str, HistogramStats] = dict(self.ops)
        for op, stats in other.ops:
            ops[op] = ops[op].merged_with(stats) if op in ops else stats
        latency = self.request_latency.merged_with(other.request_latency)
        return WorkerStats(
            worker_id=self.worker_id,
            requests_served=self.requests_served + other.requests_served,
            batches_run=self.batches_run + other.batches_run,
            queue_depth=self.queue_depth + other.queue_depth,
            capacity=max(self.capacity, other.capacity),
            preloaded_plaintexts=self.preloaded_plaintexts
            + other.preloaded_plaintexts,
            modeled_seconds=self.modeled_seconds + other.modeled_seconds,
            rotations=self.rotations + other.rotations,
            bootstraps=self.bootstraps + other.bootstraps,
            compilations_since_load=self.compilations_since_load
            + other.compilations_since_load,
            placements_since_load=self.placements_since_load
            + other.placements_since_load,
            kernel_backend=self.kernel_backend,
            mmap_backed=self.mmap_backed and other.mmap_backed,
            request_latency=latency,
            ops=tuple(sorted(ops.items())),
            noise=self.noise.merged_with(other.noise),
            key_bytes_resident=self.key_bytes_resident
            + other.key_bytes_resident,
            key_bytes_spilled=self.key_bytes_spilled + other.key_bytes_spilled,
            tenants_resident=self.tenants_resident + other.tenants_resident,
            tenants_spilled=self.tenants_spilled + other.tenants_spilled,
        )

    def to_payload(self) -> Dict:
        return {
            "worker_id": self.worker_id,
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "queue_depth": self.queue_depth,
            "capacity": self.capacity,
            "preloaded_plaintexts": self.preloaded_plaintexts,
            "modeled_seconds": self.modeled_seconds,
            "rotations": self.rotations,
            "bootstraps": self.bootstraps,
            "compilations_since_load": self.compilations_since_load,
            "placements_since_load": self.placements_since_load,
            "kernel_backend": self.kernel_backend,
            "mmap_backed": self.mmap_backed,
            "request_latency": self.request_latency.to_payload(),
            "ops": {op: stats.to_payload() for op, stats in self.ops},
            "noise": self.noise.to_payload(),
            "key_bytes_resident": self.key_bytes_resident,
            "key_bytes_spilled": self.key_bytes_spilled,
            "tenants_resident": self.tenants_resident,
            "tenants_spilled": self.tenants_spilled,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "WorkerStats":
        return cls(
            worker_id=int(payload["worker_id"]),
            requests_served=int(payload["requests_served"]),
            batches_run=int(payload["batches_run"]),
            queue_depth=int(payload["queue_depth"]),
            capacity=int(payload["capacity"]),
            preloaded_plaintexts=int(payload["preloaded_plaintexts"]),
            modeled_seconds=float(payload["modeled_seconds"]),
            rotations=int(payload["rotations"]),
            bootstraps=int(payload["bootstraps"]),
            compilations_since_load=int(payload["compilations_since_load"]),
            placements_since_load=int(payload["placements_since_load"]),
            kernel_backend=str(payload["kernel_backend"]),
            mmap_backed=bool(payload["mmap_backed"]),
            request_latency=HistogramStats.from_payload(
                payload["request_latency"]
            ),
            ops=tuple(
                (op, HistogramStats.from_payload(entry))
                for op, entry in sorted(payload["ops"].items())
            ),
            noise=NoiseStats.from_payload(payload["noise"]),
            key_bytes_resident=int(payload["key_bytes_resident"]),
            key_bytes_spilled=int(payload["key_bytes_spilled"]),
            tenants_resident=int(payload["tenants_resident"]),
            tenants_spilled=int(payload["tenants_spilled"]),
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
    kernel_backend: str
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

    def worker(self, worker_id: int) -> WorkerStats:
        for stats in self.workers:
            if stats.worker_id == worker_id:
                return stats
        raise KeyError(f"no worker {worker_id}")

    def to_payload(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "artifacts": list(self.artifacts),
            "requests_submitted": self.requests_submitted,
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "requests_completed": self.requests_completed,
            "in_flight": self.in_flight,
            "reject_rate": self.reject_rate,
            "kernel_backend": self.kernel_backend,
            "workers": [stats.to_payload() for stats in self.workers],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict) -> "ServerStats":
        version = payload.get("schema_version")
        if version != STATS_SCHEMA_VERSION:
            raise StatsSchemaError(
                f"stats schema version {version!r} is not supported "
                f"(this build reads version {STATS_SCHEMA_VERSION}); "
                "re-export from this build"
            )
        return cls(
            schema_version=int(version),
            artifacts=tuple(payload["artifacts"]),
            requests_submitted=int(payload["requests_submitted"]),
            requests_admitted=int(payload["requests_admitted"]),
            requests_rejected=int(payload["requests_rejected"]),
            requests_completed=int(payload["requests_completed"]),
            in_flight=int(payload["in_flight"]),
            kernel_backend=str(payload["kernel_backend"]),
            workers=tuple(
                WorkerStats.from_payload(entry) for entry in payload["workers"]
            ),
        )

    @classmethod
    def from_json(cls, doc: str) -> "ServerStats":
        return cls.from_payload(json.loads(doc))
