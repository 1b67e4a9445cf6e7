"""The serving front door: ``serve.open(artifact, config) -> Server``.

- :class:`ServerConfig` — one validated, frozen dataclass holding every
  serving knob (worker count, batch window, admission limits, key
  seed) instead of constructor-kwarg sprawl;
- :func:`open` — the single entry point: give it an artifact path (or
  several, or an already-loaded :class:`ServingArtifact`) and a config,
  get a :class:`Server`;
- :class:`Server` — the facade over the dispatcher + worker pool, with
  typed, schema-versioned :meth:`Server.stats`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import write_chrome_trace
from repro.serve.artifact import ServingArtifact
from repro.serve.pool import (
    ArtifactSpec,
    Dispatcher,
    WorkerPool,
)
from repro.serve.runtime import ServeResult
from repro.serve.stats import (
    STATS_SCHEMA_VERSION,
    ServerStats,
)


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob, validated once, in one place.

    Args:
        workers: pool size (shards).
        mode: ``"inline"`` (workers called in-process; deterministic,
            the mode every correctness gate runs under) or ``"process"``
            (the same workers in forked children over the same mmapped
            files, called through a pipe).
        batching: enable cross-request slot batching inside each worker.
        max_batch: cap on the slot-batch size (power-of-two floored).
        batch_window_seconds: default deadline (``now +
            batch_window_seconds``) of a request submitted without one.
            Orders a worker's queue, earliest deadline first; never
            delays an idle worker — batches form from backlog only.
        max_queue_depth: bound on each worker's pending queue; beyond it
            the dispatcher rejects with :class:`AdmissionError`.
        admission_budget_seconds: optional backlog latency budget; a
            routed worker whose backlog (queued batches times the batch
            time measured on that worker) would exceed it rejects at
            admission instead of queueing.
        routing_seed: seed folded into rendezvous routing, pinning the
            client -> worker assignment reproducibly.
        key_seed: seed of the pool's key domain.  Every worker holds
            the same keys from it (an inline pool generates them once
            per artifact and shares them; a process worker generates
            its own), so any worker's response decrypts under the pool
            key and a solo replay with this seed reproduces any worker
            bit for bit.
        backend_factory: ``(params, seed) -> FheBackend`` override
            (defaults to the exact toy backend for toy-sized primes).
        tracing: give every worker a :class:`repro.obs.Tracer` so each
            served batch produces a span tree; export the result with
            :meth:`Server.trace` / :meth:`Server.export_chrome_trace`.
            Observe-only: outputs are bit-identical either way.
        trace_sample_rate: fraction of root spans recorded when tracing
            (systematic sampling, in ``(0, 1]``).
    """

    workers: int = 1
    mode: str = "inline"
    batching: bool = True
    max_batch: Optional[int] = None
    batch_window_seconds: float = 0.05
    max_queue_depth: int = 32
    admission_budget_seconds: Optional[float] = None
    routing_seed: int = 0
    key_seed: int = 0
    backend_factory: Optional[Callable] = None
    tracing: bool = False
    trace_sample_rate: float = 1.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("ServerConfig.workers must be at least 1")
        if self.mode not in ("inline", "process"):
            raise ValueError(
                f"ServerConfig.mode must be 'inline' or 'process', "
                f"got {self.mode!r}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("ServerConfig.max_batch must be at least 1")
        if self.batch_window_seconds < 0:
            raise ValueError(
                "ServerConfig.batch_window_seconds must be non-negative"
            )
        if self.max_queue_depth < 1:
            raise ValueError("ServerConfig.max_queue_depth must be at least 1")
        if (
            self.admission_budget_seconds is not None
            and self.admission_budget_seconds <= 0
        ):
            raise ValueError(
                "ServerConfig.admission_budget_seconds must be positive"
            )
        if not 0.0 < self.trace_sample_rate <= 1.0:
            raise ValueError(
                "ServerConfig.trace_sample_rate must be in (0, 1], got "
                f"{self.trace_sample_rate!r}"
            )

    def with_overrides(self, **changes) -> "ServerConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


ArtifactSource = Union[str, ServingArtifact]


def _artifact_specs(
    source: Union[ArtifactSource, Dict[str, ArtifactSource], List[ArtifactSource], Tuple],
) -> Tuple[ArtifactSpec, ...]:
    """Normalize ``open``'s artifact argument into named specs."""
    if isinstance(source, dict):
        items = list(source.items())
    elif isinstance(source, (list, tuple)):
        items = [(None, entry) for entry in source]
    else:
        items = [(None, source)]
    specs: List[ArtifactSpec] = []
    seen = set()
    for index, (artifact_id, entry) in enumerate(items):
        if isinstance(entry, ServingArtifact):
            name = artifact_id or f"artifact{index}"
            spec = ArtifactSpec(artifact_id=name, artifact=entry)
        elif isinstance(entry, (str, os.PathLike)):
            path = os.fspath(entry)
            stem = os.path.splitext(os.path.basename(path))[0]
            name = artifact_id or stem
            spec = ArtifactSpec(artifact_id=name, path=path)
        else:
            raise TypeError(
                f"expected an artifact path or ServingArtifact, got "
                f"{type(entry).__name__}"
            )
        if spec.artifact_id in seen:
            raise ValueError(f"duplicate artifact id {spec.artifact_id!r}")
        seen.add(spec.artifact_id)
        specs.append(spec)
    if not specs:
        raise ValueError("open() needs at least one artifact")
    return tuple(specs)


class Server:
    """A running serving deployment (dispatcher + worker pool).

    Use :func:`open` to construct one; do not instantiate directly.
    Context-manager friendly: leaving the ``with`` block drains and
    shuts the pool down.

    The request surface is three calls: :meth:`submit` enqueues a
    request for slot batching (``step()`` later runs whatever queued),
    :meth:`serve_now` runs one request immediately, and :meth:`drain`
    flushes everything queued.  Observability is :meth:`stats` (typed,
    schema-versioned), :meth:`metrics` / :meth:`metrics_text`
    (Prometheus), and :meth:`trace` / :meth:`export_chrome_trace`
    (span tracks).  Lifecycle extras: :meth:`warm` pre-encodes the
    weight plaintexts, :meth:`reload` hot-swaps an updated artifact file
    into the running pool.  Keys need no warming: every lane generates
    its rotation keys when the pool opens.

    Example::

        cfg = ServerConfig(workers=4, admission_budget_seconds=0.25)
        with serve.open("mnist_mlp.npz", cfg) as server:
            ticket = server.submit(image, client_id="tenant-a")
            results = server.drain()
    """

    def __init__(self, specs: Tuple[ArtifactSpec, ...], config: ServerConfig):
        self.config = config
        self.artifact_ids: Tuple[str, ...] = tuple(
            spec.artifact_id for spec in specs
        )
        self._default_artifact = self.artifact_ids[0]
        pool = WorkerPool(
            specs,
            config.workers,
            mode=config.mode,
            key_seed=config.key_seed,
            batching=config.batching,
            max_batch=config.max_batch,
            batch_window_seconds=config.batch_window_seconds,
            backend_factory=config.backend_factory,
            tracing=config.tracing,
            trace_sample_rate=config.trace_sample_rate,
        )
        self._dispatcher = Dispatcher(
            pool,
            max_queue_depth=config.max_queue_depth,
            admission_budget_seconds=config.admission_budget_seconds,
            routing_seed=config.routing_seed,
        )
        # Accumulated per-worker trace tracks (worker_id -> track dict);
        # fed by _pump_telemetry, exported by trace().
        self._trace_tracks: Dict[int, Dict] = {}

    # -- request flow --------------------------------------------------------
    def submit(
        self,
        image,
        client_id: str = "anon",
        artifact: Optional[str] = None,
        now: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Enqueue a request; returns its (pool-global) ticket.

        Raises :class:`repro.serve.pool.AdmissionError` when the routed
        worker is saturated (backpressure — retry after the hint).
        """
        return self._dispatcher.submit(
            self._resolve(artifact), client_id, image, now=now, deadline=deadline
        )

    def serve_now(
        self,
        image,
        client_id: str = "anon",
        artifact: Optional[str] = None,
    ) -> ServeResult:
        """Run one request immediately on its routed worker."""
        return self._dispatcher.serve_now(
            self._resolve(artifact), client_id, image
        )

    def step(self, now: Optional[float] = None) -> List[ServeResult]:
        """Run every worker's queue empty, in backlog-sized batches."""
        return self._dispatcher.step(now)

    def drain(self) -> List[ServeResult]:
        """Flush every queue; afterwards ``stats().in_flight == 0``."""
        return self._dispatcher.drain()

    def warm(self, batch_sizes=None) -> None:
        """Pre-run plaintext-cache warm-up on every worker (off the books).

        Runs one throwaway batch per listed batch size so weight
        plaintext encodes happen here, not under the first paying
        request.  ``batch_sizes`` defaults to 1 and each lane's
        capacity; a size above a lane's capacity raises ``ValueError``.
        """
        for worker in self._dispatcher.pool.workers:
            worker.warm(batch_sizes)

    def reload(self, artifact: Optional[str] = None) -> None:
        """Hot-swap a new version of an artifact into the running pool.

        The caller first exports the retrained network over the served
        path (``onet.export(path, params)``: the file is published
        through tmp + ``os.replace``, so a reader sees the old bytes or
        the new ones, never a torn write) and then calls this.  Until
        then the pool keeps serving the file it mapped at open or last
        reload.  Every worker re-maps the path and rebuilds its
        serving lane around the new tables while **keeping
        its backend and key domain**: clients holding ciphertexts keep
        decrypting, which is why the new version must carry the same key
        manifest.  Requires an idle pool — :meth:`drain` first;
        ``RuntimeError`` if requests are in flight or the manifest
        changed, ``ValueError`` for in-memory (pathless) artifacts.
        """
        self._dispatcher.reload(self._resolve(artifact))

    def close(self) -> None:
        """Shut the pool down (process workers join their children)."""
        self._dispatcher.close()

    def _resolve(self, artifact: Optional[str]) -> str:
        if artifact is None:
            return self._default_artifact
        if artifact not in self.artifact_ids:
            raise KeyError(
                f"unknown artifact {artifact!r}; serving {self.artifact_ids}"
            )
        return artifact

    # -- observability -----------------------------------------------------
    def stats(self) -> ServerStats:
        """Typed, schema-versioned pool telemetry (docs/serving.md):
        every worker's lane snapshots plus the dispatcher's counters."""
        dispatcher = self._dispatcher
        return ServerStats(
            schema_version=STATS_SCHEMA_VERSION,
            artifacts=self.artifact_ids,
            requests_submitted=dispatcher.requests_submitted,
            requests_admitted=dispatcher.requests_admitted,
            requests_rejected=dispatcher.requests_rejected,
            requests_completed=dispatcher.requests_completed,
            in_flight=dispatcher.in_flight,
            workers=tuple(
                worker.stats() for worker in dispatcher.pool.workers
            ),
        )

    def _pump_telemetry(self) -> None:
        """Append every worker's drained trace spans to its track."""
        for worker in self._dispatcher.pool.workers:
            bundle = worker.telemetry()
            track = self._trace_tracks.get(worker.worker_id)
            if track is None:
                track = {
                    "tid": worker.worker_id,
                    "name": f"worker-{worker.worker_id}",
                    "spans": [],
                    "clock_offset": 0.0,
                    "dropped_roots": 0,
                }
                self._trace_tracks[worker.worker_id] = track
            track["spans"].extend(bundle["trace"])
            track["clock_offset"] = bundle["clock_offset"]
            track["dropped_roots"] = bundle["dropped_roots"]

    def metrics(self) -> MetricsRegistry:
        """:meth:`stats` as a :class:`repro.obs.MetricsRegistry`: every
        lane's counters/gauges/histograms plus the dispatcher's
        admission-conservation counters."""
        return self.stats().to_metrics()

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics`."""
        return self.metrics().to_prometheus_text()

    def trace(self) -> List[Dict]:
        """Per-worker span tracks accumulated so far (tracing pools
        only; empty tracks otherwise).  Feed to
        :func:`repro.obs.chrome_trace` or :meth:`export_chrome_trace`."""
        self._pump_telemetry()
        return [
            self._trace_tracks[worker_id]
            for worker_id in sorted(self._trace_tracks)
        ]

    def export_chrome_trace(self, path: str) -> str:
        """Write the pool's Chrome ``trace_event`` JSON (Perfetto-
        loadable, one thread lane per worker shard); returns ``path``."""
        return write_chrome_trace(path, self.trace())

    @property
    def workers(self) -> int:
        return len(self._dispatcher.pool)

    def route(self, client_id: str, artifact: Optional[str] = None) -> int:
        """Which worker a client's requests land on (deterministic)."""
        return self._dispatcher.route(self._resolve(artifact), client_id)

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.drain()
        self.close()


def open(
    source: Union[ArtifactSource, Dict[str, ArtifactSource], List[ArtifactSource]],
    config: Optional[ServerConfig] = None,
) -> Server:
    """Open a serving deployment over one or more artifacts.

    Args:
        source: an artifact path (``.npz``), a loaded
            :class:`ServingArtifact`, or a dict/list of either for
            mixed-model serving (dict keys name the artifacts; paths
            default to their file stem).
        config: a :class:`ServerConfig`; defaults to a single inline
            worker.

    Returns:
        a :class:`Server` — use it as a context manager so the pool is
        drained and shut down on exit.

    Paths are opened through :class:`repro.serve.mmapio.ArtifactMap`,
    so every worker shares one mmapped copy of the tables.  In-memory
    artifacts are accepted for ``inline`` pools only — process workers
    need a path to map.  Only full artifacts open; a manifest of any
    other ``kind`` raises :class:`repro.serve.ArtifactSchemaError`.  To
    update weights, export the retrained network over the same path and
    call :meth:`Server.reload`.

    Example::

        import repro.serve as serve

        with serve.open({"mnist": "mnist_mlp.npz"}) as server:
            result = server.serve_now(image, client_id="tenant-a")
    """
    return Server(_artifact_specs(source), config or ServerConfig())
