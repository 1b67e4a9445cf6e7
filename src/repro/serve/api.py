"""The serving front door: ``serve.open(artifact, config) -> Server``.

- :class:`ServerConfig` — one validated, frozen dataclass holding every
  serving knob (worker count, batch window, admission limits, key
  seed) instead of constructor-kwarg sprawl;
- :func:`open` — the single entry point: give it an artifact path (or
  an ``{id: path}`` dict of several) and a config, get a
  :class:`Server`;
- :class:`Server` — the one object in front of the workers: it routes,
  admits (:class:`AdmissionError` backpressure), steps and accounts for
  every request, and reports typed :meth:`Server.stats`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import write_chrome_trace
from repro.serve.mmapio import ArtifactMap
from repro.serve.pool import ArtifactSpec, start_workers
from repro.serve.runtime import ServeResult
from repro.serve.stats import ServerStats

#: Weight of the newest batch in a lane's exponentially weighted mean of
#: measured batch seconds (fixed on purpose: not a serving knob).
_BATCH_SECONDS_WEIGHT = 0.25


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob, validated once, in one place.

    Args:
        workers: pool size (shards).
        mode: ``"inline"`` (workers called in-process; deterministic,
            the mode every correctness gate runs under) or ``"process"``
            (the same workers in forked children over the same mmapped
            files, called through a pipe).
        max_batch: cap on the slot-batch size (power-of-two floored;
            ``1`` serves every request alone).
        batch_window_seconds: every request's deadline after its
            enqueue (``now + batch_window_seconds``).  Orders a worker's
            queue, earliest deadline first; never delays an idle
            worker — batches form from backlog only.
        max_queue_depth: bound on each worker's pending queue; beyond it
            the server rejects with :class:`AdmissionError`.
        key_seed: seed of the pool's key domain.  Every worker holds
            the same keys from it (an inline pool generates them once
            per artifact and shares them; a process worker generates
            its own), so any worker's response decrypts under the pool
            key and a solo replay with this seed reproduces any worker
            bit for bit.
        tracing: give every worker a :class:`repro.obs.Tracer` so each
            served batch produces a span tree; export the result with
            :meth:`Server.trace` / :meth:`Server.export_chrome_trace`.
            Observe-only: outputs are bit-identical either way.
    """

    workers: int = 1
    mode: str = "inline"
    max_batch: Optional[int] = None
    batch_window_seconds: float = 0.05
    max_queue_depth: int = 32
    key_seed: int = 0
    tracing: bool = False

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


ArtifactPath = Union[str, os.PathLike]


def _artifact_specs(
    source: Union[ArtifactPath, Dict[str, ArtifactPath]],
) -> Tuple[ArtifactSpec, ...]:
    """Normalize ``open``'s artifact argument into named specs."""
    if isinstance(source, dict):
        items = list(source.items())
    else:  # a lone path is named by its file stem
        items = [(None, source)]
    specs: List[ArtifactSpec] = []
    for artifact_id, path in items:
        if not isinstance(path, (str, os.PathLike)):
            raise TypeError(
                "open() takes an artifact path or an {id: path} dict, got "
                f"{type(path).__name__}"
            )
        path = os.fspath(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        specs.append(ArtifactSpec(artifact_id=artifact_id or stem, path=path))
    if not specs:
        raise ValueError("open() needs at least one artifact")
    return tuple(specs)


class AdmissionError(RuntimeError):
    """The server refused a request (backpressure).

    Attributes:
        retry_after_ms: the server's hint for when capacity should
            free up (the lane's measured batch time).
        worker_id: the worker the request routed to.
        queue_depth: that worker's queue depth at refusal time.
    """

    def __init__(
        self,
        message: str,
        retry_after_ms: float,
        worker_id: int,
        queue_depth: int,
    ):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.worker_id = worker_id
        self.queue_depth = queue_depth


class Server:
    """A running serving deployment: the front door of a worker pool.

    :func:`open` builds one over workers it has started
    (:func:`repro.serve.pool.start_workers`); the constructor takes any
    list of objects speaking the worker protocol, which is how tests
    drive admission with stub workers.  The server itself does
    everything in front of the workers:

    - **Deterministic routing.**  Rendezvous (highest-random-weight)
      hashing of ``(artifact, client)`` over the workers:
      a client's requests always land on the same worker, so they
      coalesce into that worker's slot batches, and the assignment is
      reproducible run-to-run — the property the bit-exactness gates
      are built on.  Load imbalance surfaces as backpressure, never as
      non-deterministic migration.
    - **Admission control.**  Each worker's queue is bounded
      (``max_queue_depth``, against the server's own count of requests
      admitted to that worker and not yet delivered — no worker keeps
      one); once the routed worker is full the request
      is refused with :class:`AdmissionError` carrying a
      ``retry_after_ms`` hint — one batch at the time *measured* on that
      lane — rather than queued without bound.  Conservation holds at every instant:
      ``submitted == admitted + rejected`` and
      ``admitted == completed + failed + in_flight``.
    - **Failures close the books.**  A request whose batch raised comes
      back as a :class:`ServeResult` carrying the exception (no output),
      frees its queue slot and counts as failed; :meth:`serve_now`
      raises it after booking it.
    - **Lock-step stepping.**  :meth:`step` sends every worker its step
      before reading any reply, so process workers run concurrently.

    The request surface is three calls: :meth:`submit` enqueues a
    request for slot batching (``step()`` later runs whatever queued),
    :meth:`serve_now` runs one request immediately, and :meth:`drain`
    flushes everything queued.  Observability is :meth:`stats` (typed),
    :meth:`metrics` / :meth:`metrics_text`
    (Prometheus), and :meth:`trace` / :meth:`export_chrome_trace`
    (span tracks).  Lifecycle extras: :meth:`warm` pre-encodes the
    weight plaintexts, :meth:`reload` hot-swaps an updated artifact file
    into the running pool.  Keys need no warming: every lane generates
    its rotation keys when the pool opens.  Leaving a ``with`` block
    drains the pool and shuts it down — shut down even when the drain
    raises.

    Example::

        cfg = ServerConfig(workers=4, max_queue_depth=16)
        with serve.open("mnist_mlp.npz", cfg) as server:
            ticket = server.submit(image, client_id="tenant-a")
            results = server.drain()
    """

    def __init__(
        self, specs: Tuple[ArtifactSpec, ...], workers: List, config: ServerConfig
    ):
        self.config = config
        self.artifact_ids: Tuple[str, ...] = tuple(
            spec.artifact_id for spec in specs
        )
        self._specs = {spec.artifact_id: spec for spec in specs}
        self._workers = list(workers)
        self._closed = False
        # The books: admission-conservation counters, the ticket every
        # admitted request carries to its lane and back, and each
        # worker's queue depth (admitted there, not yet delivered).
        self._submitted = self._admitted = self._rejected = 0
        self._completed = self._failed = 0
        self._next_ticket = 0
        self._depths: Dict[int, int] = {worker.worker_id: 0 for worker in workers}
        # (worker id, artifact id) -> running mean of the batch wall
        # seconds that lane's results reported.  A lane that has
        # delivered nothing yet is absent, and priced at its modeled
        # seconds.
        self._batch_seconds: Dict[Tuple[int, str], float] = {}
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
    ) -> int:
        """Enqueue a request; returns its ticket, the number its
        ``ServeResult`` and its ``serve.request`` trace span carry.

        Raises :class:`AdmissionError` when the routed worker is
        saturated (backpressure — retry after the hint).
        """
        artifact_id = self._resolve(artifact)
        worker, ticket = self._admit(artifact_id, client_id)
        worker.submit(ticket, artifact_id, client_id, image, now)
        return ticket

    def serve_now(
        self,
        image,
        client_id: str = "anon",
        artifact: Optional[str] = None,
    ) -> ServeResult:
        """Run one request immediately on its routed worker; raises
        what its run raised, once the request is booked as failed."""
        artifact_id = self._resolve(artifact)
        worker, ticket = self._admit(artifact_id, client_id)
        result = worker.serve_now(ticket, artifact_id, client_id, image)
        self._delivered([result])
        if result.error is not None:
            raise result.error
        return result

    def step(self, now: Optional[float] = None) -> List[ServeResult]:
        """Run every worker's queue empty, in backlog-sized batches.

        Every worker is sent its step before any reply is read, so
        process workers overlap; results come back in worker order.  A
        request whose batch raised comes back with the exception in
        ``error`` and no output; the other batches' results still arrive.
        """
        for worker in self._workers:
            worker.begin_step(now)
        results: List[ServeResult] = []
        for worker in self._workers:
            results.extend(worker.finish_step(now))
        return self._delivered(results)

    def drain(self) -> List[ServeResult]:
        """Flush every queue; afterwards ``stats().in_flight == 0``.

        One lock-step :meth:`step`: a step already runs every queue
        empty, and process workers drain in parallel."""
        return self.step()

    def warm(self, batch_sizes=None) -> None:
        """Pre-run plaintext-cache warm-up on every worker (off the books).

        Runs one throwaway batch per listed batch size so weight
        plaintext encodes happen here, not under the first paying
        request.  ``batch_sizes`` defaults to 1 and each lane's
        capacity; a size above a lane's capacity raises ``ValueError``.
        """
        for worker in self._workers:
            worker.warm(batch_sizes)

    def reload(self, artifact: Optional[str] = None) -> None:
        """Hot-swap a new version of an artifact into the running pool.

        The caller first exports the retrained network over the served
        path (``onet.export(path, params)``: the file is published
        through tmp + ``os.replace``, so a reader sees the old bytes or
        the new ones, never a torn write) and then calls this.  Until
        then the pool keeps serving the file it mapped at open or last
        reload.  Every worker rebuilds its serving lane around the new
        tables while **keeping its backend and key domain**: clients
        holding ciphertexts keep decrypting, which is why the new
        version must carry the same key manifest.  An inline pool maps
        the file once and shares the load, as at open; a process worker
        re-maps it in its own child.  Requires an idle pool —
        :meth:`drain` first, so no request ever sees half a swap;
        ``RuntimeError`` if requests are in flight or the manifest
        changed.
        Routing and the admission counters survive the reload.
        """
        artifact_id = self._resolve(artifact)
        self._check_open()
        in_flight = self._in_flight()
        if in_flight:
            raise RuntimeError(
                f"{in_flight} request(s) in flight; drain() before "
                "reloading an artifact"
            )
        fresh = None
        if self.config.mode == "inline":
            fresh = ArtifactMap(self._specs[artifact_id].path).load()
        for worker in self._workers:
            worker.reload(artifact_id, fresh)

    def close(self) -> None:
        """Shut the pool down (process workers join their children)."""
        self._closed = True
        for worker in self._workers:
            worker.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("server is closed")

    def _resolve(self, artifact: Optional[str]) -> str:
        if artifact is None:
            return self.artifact_ids[0]
        if artifact not in self.artifact_ids:
            raise KeyError(
                f"unknown artifact {artifact!r}; serving {self.artifact_ids}"
            )
        return artifact

    # -- admission -----------------------------------------------------------
    def _lane_batch_seconds(self, worker, artifact_id: str) -> float:
        """What one batch on this lane takes: measured once the lane has
        delivered, the cost model's figure until then."""
        return self._batch_seconds.get(
            (worker.worker_id, artifact_id),
            worker.modeled_seconds[artifact_id],
        )

    def _admit(self, artifact_id: str, client_id: str):
        """Route, admit and ticket one request: ``(worker, ticket)``.

        Raises :class:`AdmissionError`, counted as rejected, when the
        routed worker's queue is full.
        """
        self._check_open()
        worker = self._workers[self.route(client_id, artifact_id)]
        self._submitted += 1
        depth = self._depths[worker.worker_id]
        if depth >= self.config.max_queue_depth:
            self._rejected += 1
            retry_ms = max(1.0, self._lane_batch_seconds(worker, artifact_id) * 1e3)
            raise AdmissionError(
                f"worker {worker.worker_id} queue is full "
                f"({depth}/{self.config.max_queue_depth}); "
                f"retry in ~{retry_ms:.0f}ms",
                retry_after_ms=retry_ms,
                worker_id=worker.worker_id,
                queue_depth=depth,
            )
        ticket = self._next_ticket
        self._next_ticket += 1
        self._admitted += 1
        self._depths[worker.worker_id] += 1
        return worker, ticket

    def _delivered(self, results: List[ServeResult]) -> List[ServeResult]:
        """Count deliveries, completed or failed, and fold each completed
        batch's wall into its lane's mean."""
        for result in results:
            self._depths[result.worker_id] -= 1
            if result.error is None:
                self._completed += 1
            else:
                self._failed += 1
        index = 0
        while index < len(results):
            head = results[index]  # a batch's results arrive together
            index += head.batch_size
            if head.error is not None:
                continue
            lane = (head.worker_id, head.artifact_id)
            mean = self._batch_seconds.get(lane, head.wall_seconds)
            self._batch_seconds[lane] = mean + _BATCH_SECONDS_WEIGHT * (
                head.wall_seconds - mean
            )
        return results

    def _in_flight(self) -> int:
        return self._admitted - self._completed - self._failed

    # -- observability -----------------------------------------------------
    def stats(self) -> ServerStats:
        """Typed pool telemetry (docs/serving.md): every worker's lane
        snapshots plus the admission counters."""
        return ServerStats(
            artifacts=self.artifact_ids,
            requests_submitted=self._submitted,
            requests_admitted=self._admitted,
            requests_rejected=self._rejected,
            requests_completed=self._completed,
            requests_failed=self._failed,
            in_flight=self._in_flight(),
            workers=tuple(worker.stats() for worker in self._workers),
        )

    def _pump_telemetry(self) -> None:
        """Append every worker's drained trace spans to its track."""
        for worker in self._workers:
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
        lane's counters/gauges/histograms plus the admission-conservation
        counters."""
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
        return len(self._workers)

    def route(self, client_id: str, artifact: Optional[str] = None) -> int:
        """Which worker a client's requests land on (deterministic
        rendezvous hashing)."""
        artifact_id = self._resolve(artifact)
        best_worker, best_score = 0, -1
        for worker_id in range(len(self._workers)):
            # The "0/" prefix is part of the hashed string: without it
            # every client would move to another worker.
            digest = hashlib.sha256(
                f"0/{artifact_id}/{client_id}/{worker_id}".encode()
            ).digest()
            score = int.from_bytes(digest[:8], "big")
            if score > best_score:
                best_worker, best_score = worker_id, score
        return best_worker

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.drain()
        finally:
            self.close()


def open(
    source: Union[ArtifactPath, Dict[str, ArtifactPath]],
    config: Optional[ServerConfig] = None,
) -> Server:
    """Open a serving deployment over one or more artifacts.

    Args:
        source: an artifact path (``.npz``, named by its file stem), or
            an ``{id: path}`` dict for mixed-model serving.
        config: a :class:`ServerConfig`; defaults to a single inline
            worker.

    Returns:
        a :class:`Server` — use it as a context manager so the pool is
        drained and shut down on exit.

    Paths are opened through :class:`repro.serve.mmapio.ArtifactMap`,
    so every worker shares one mmapped copy of the tables.  Only full
    artifacts open; a manifest of any
    other ``kind`` raises :class:`repro.serve.ArtifactSchemaError`.  To
    update weights, export the retrained network over the same path and
    call :meth:`Server.reload`.

    Example::

        import repro.serve as serve

        with serve.open({"mnist": "mnist_mlp.npz"}) as server:
            result = server.serve_now(image, client_id="tenant-a")
    """
    config = config or ServerConfig()
    specs = _artifact_specs(source)
    return Server(specs, start_workers(specs, config), config)
