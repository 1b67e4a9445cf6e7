"""The sharded worker pool: dispatcher + N workers over shared tables.

The asynchronous-architecture decoupling that fleet-scale serving
needs: a front-of-house :class:`Dispatcher` that routes, admits, and
accounts for requests, and a :class:`WorkerPool` of N workers each
running *today's* :class:`repro.serve.runtime.InferenceServer` loop —
one server per hosted artifact, slot-batching its own backlog by the
scheduler's work-conserving rule.  Nothing about the execution hot path
changes; the pool is pure orchestration:

- **Shared read-only artifact memory.**  Workers open artifacts through
  :class:`repro.serve.mmapio.ArtifactMap`: the weight and pre-encoded
  plaintext tables are mmapped once per machine, so per-worker RSS
  stays flat as the pool grows (the tables are physically shared pages;
  ``verify_mmap_tables`` asserts no worker ever copied them).
- **Deterministic routing.**  Rendezvous (highest-random-weight)
  hashing of ``(routing_seed, artifact, client)`` over the workers:
  a client's requests always land on the same worker, so its requests
  coalesce into that worker's slot batches, and the assignment is
  reproducible run-to-run — the property the bit-exactness gates are
  built on.  Load imbalance surfaces as backpressure, never as
  non-deterministic migration.
- **Admission control.**  Per-worker queues are bounded
  (``max_queue_depth``); once the routed worker is full — or its
  backlog, priced at the batch time the dispatcher has *measured* on
  that lane, exceeds the configured latency budget — the dispatcher
  refuses the request with :class:`AdmissionError` carrying a
  ``retry_after_ms`` hint, rather than letting queues grow without
  bound.  Conservation holds at every instant:
  ``submitted == admitted + rejected`` and
  ``admitted == completed + in_flight``.
- **Two execution modes.**  ``inline`` runs every worker in-process
  (deterministic, the mode the correctness gates run under — process
  parallelism is unmeasurable on a single-core host anyway);
  ``process`` forks real ``multiprocessing`` workers that each map the
  same artifact files and serve from their own queues.
"""

from __future__ import annotations

import hashlib
import math
import os
import queue
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serve.artifact import ServingArtifact
from repro.serve.keys import KeyRegistry, default_backend_factory
from repro.serve.mmapio import ArtifactMap, is_mmap_backed
from repro.serve.runtime import InferenceServer, ServeResult
from repro.serve.stats import WorkerStats

#: Registry client id under which each worker's own serving backend is
#: adopted (and pinned for the worker's lifetime): the pool backend is
#: permanently in flight, so the LRU may spill cold *tenant* keys around
#: it but never the keys requests are being served under.
POOL_CLIENT_ID = "__pool__"

#: How often a parent blocked on a fork worker's response queue checks
#: that the child still exists.
_LIVENESS_POLL_SECONDS = 0.5

#: Weight of the newest batch in the dispatcher's exponentially weighted
#: mean of measured batch seconds (fixed on purpose: not a serving knob).
_BATCH_SECONDS_WEIGHT = 0.25


class WorkerLostError(RuntimeError):
    """A fork worker exited (killed, OOM) without answering."""


class AdmissionError(RuntimeError):
    """The dispatcher refused a request (backpressure).

    Attributes:
        retry_after_ms: the dispatcher's hint for when capacity should
            free up (the lane's measured batch time, or the backlog's
            overhang past the latency budget at that batch time).
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


@dataclass(frozen=True)
class WorkerProfile:
    """What the dispatcher knows about one (worker, artifact) lane."""

    capacity: int
    modeled_seconds: float
    mmap_backed: bool


def verify_mmap_tables(server: InferenceServer, artifact_path: str) -> bool:
    """Assert the worker's tables are mmap-backed views, never copies.

    Checks both table tiers an artifact ships: the float diagonal/bias
    weight tables inside every linear instruction, and the pre-encoded
    residue tables preloading installed into the backend's caches — the
    whole operand the fused matvec multiplies, data and special limbs
    alike.  Raises ``RuntimeError`` naming the offender on violation —
    a copied table silently multiplies fleet RSS by the worker count,
    which is exactly the regression this guard exists to catch.
    """
    from repro.core.program import LinearInstr

    for instr in server.program.instructions:
        if not isinstance(instr, LinearInstr):
            continue
        packed = instr.packed
        for (bo, bi), dmap in packed.diags.items():
            for off, vec in dmap.items():
                if not is_mmap_backed(vec):
                    raise RuntimeError(
                        f"{artifact_path}: weight diagonal "
                        f"{instr.name}[bo={bo},bi={bi},off={off}] was "
                        "copied off the artifact map"
                    )
        if packed.bias_vecs is not None:
            for vec in packed.bias_vecs:
                if not is_mmap_backed(vec):
                    raise RuntimeError(
                        f"{artifact_path}: bias table of {instr.name} was "
                        "copied off the artifact map"
                    )
        per_backend = packed._pt_cache.get(server.backend)
        if not per_backend:
            continue
        # Only the ("fused", ...) caches hold the artifact's pre-encoded
        # tables (artifact.preload installs them there); zero/bias
        # plaintexts under other keys are small runtime encodes, not
        # table copies.
        for key, cache in per_backend.items():
            if not (isinstance(key, tuple) and key and key[0] == "fused"):
                continue
            for table in cache.values():
                if not is_mmap_backed(table):
                    raise RuntimeError(
                        f"{artifact_path}: pre-encoded plaintext table of "
                        f"{instr.name} was copied off the artifact map"
                    )
    return True


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact hosted by the pool."""

    artifact_id: str
    path: Optional[str] = None
    artifact: Optional[ServingArtifact] = None

    def __post_init__(self):
        if self.path is None and self.artifact is None:
            raise ValueError("ArtifactSpec needs a path or a loaded artifact")


def _worker_seed(key_seed: int, key_policy: str, worker_id: int) -> int:
    # "shared": every worker holds the same key domain (bit-identical
    # keygen), so any worker's response decrypts under the pool key and
    # a solo replay with key_seed reproduces any worker bit-for-bit.
    if key_policy == "shared":
        return key_seed
    return key_seed + worker_id


def _build_servers(
    worker_id: int,
    specs: Tuple[ArtifactSpec, ...],
    *,
    key_seed: int,
    key_policy: str,
    batching: bool,
    max_batch: Optional[int],
    batch_window_seconds: float,
    preload: bool,
    backend_factory: Optional[Callable],
    key_cache_dir: Optional[str] = None,
    max_tenants: int = 16,
    shared_artifacts: Optional[Dict[str, ServingArtifact]] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[
    Dict[str, InferenceServer],
    Dict[str, WorkerProfile],
    Dict[str, KeyRegistry],
]:
    """Load every hosted artifact (mmap when given a path) and stand up
    one InferenceServer per artifact for this worker.

    Each (worker, artifact) lane also gets a
    :class:`repro.serve.keys.KeyRegistry` over the artifact's manifest:
    the worker's own backend is built by the factory exactly as before
    (same deterministic seed — the bit-exactness contract is untouched)
    and then *adopted* and pinned under :data:`POOL_CLIENT_ID`, so the
    registry's resident/spilled key-bytes accounting covers the pool and
    any per-tenant backends share its LRU/pin/spill discipline.
    """
    factory = backend_factory or default_backend_factory
    seed = _worker_seed(key_seed, key_policy, worker_id)
    servers: Dict[str, InferenceServer] = {}
    profiles: Dict[str, WorkerProfile] = {}
    registries: Dict[str, KeyRegistry] = {}
    for spec in specs:
        mmapped = False
        if shared_artifacts is not None and spec.artifact_id in shared_artifacts:
            artifact = shared_artifacts[spec.artifact_id]
            mmapped = spec.path is not None
        elif spec.path is not None:
            artifact = ArtifactMap(spec.path).load()
            mmapped = True
            if shared_artifacts is not None:
                shared_artifacts[spec.artifact_id] = artifact
        else:
            artifact = spec.artifact
        backend = factory(artifact.manifest.to_params(), seed)
        registry = KeyRegistry(
            artifact.manifest,
            backend_factory=factory,
            max_clients=max_tenants,
            cache_dir=key_cache_dir,
        )
        registry.adopt(POOL_CLIENT_ID, backend)
        registry.pin(POOL_CLIENT_ID)
        server = InferenceServer(
            artifact,
            backend,
            batching=batching,
            max_batch=max_batch,
            max_wait_seconds=batch_window_seconds,
            preload=preload,
            tracer=tracer,
        )
        if mmapped:
            verify_mmap_tables(server, spec.path)
        servers[spec.artifact_id] = server
        registries[spec.artifact_id] = registry
        profiles[spec.artifact_id] = WorkerProfile(
            capacity=server.scheduler.capacity,
            modeled_seconds=server.modeled_seconds,
            mmap_backed=mmapped,
        )
    return servers, profiles, registries


class InlineWorker:
    """One shard running in-process: a dict of InferenceServers.

    The deterministic reference implementation — identical code to what
    a process worker runs in its child, minus the queue transport.
    """

    def __init__(
        self,
        worker_id: int,
        specs: Tuple[ArtifactSpec, ...],
        *,
        shared_artifacts: Optional[Dict[str, ServingArtifact]] = None,
        **build_opts,
    ):
        self.worker_id = worker_id
        self.specs = tuple(specs)
        tracing = build_opts.pop("tracing", False)
        sample_rate = build_opts.pop("trace_sample_rate", 1.0)
        #: one tracer per worker shard — its spans become this worker's
        #: track in the Chrome-trace export.
        self.tracer = Tracer(sample_rate=sample_rate) if tracing else None
        # Kept for hot reload: a swapped-in artifact rebuilds its server
        # with the same batching/preload options it was opened with.
        self._build_opts = dict(build_opts)
        self.servers, self.profiles, self.registries = _build_servers(
            worker_id,
            specs,
            shared_artifacts=shared_artifacts,
            tracer=self.tracer,
            **build_opts,
        )
        # Inner (per-server) ticket -> the dispatcher's global ticket.
        self._tickets: Dict[Tuple[str, int], int] = {}

    # -- intake ------------------------------------------------------------
    def submit(
        self,
        ticket: int,
        artifact_id: str,
        client_id: str,
        payload,
        now: Optional[float],
        deadline: Optional[float],
    ) -> None:
        inner = self.servers[artifact_id].submit(
            payload, client_id=client_id, now=now, deadline=deadline
        )
        self._tickets[(artifact_id, inner)] = ticket

    def serve_now(
        self, ticket: int, artifact_id: str, client_id: str, payload
    ) -> ServeResult:
        result = self.servers[artifact_id].serve_now(payload, client_id=client_id)
        return self._stamp(result, artifact_id, ticket)

    # -- execution ---------------------------------------------------------
    def begin_step(self, now: Optional[float]) -> None:
        pass  # inline workers run synchronously in finish_step

    def finish_step(self, now: Optional[float]) -> List[ServeResult]:
        results: List[ServeResult] = []
        for artifact_id, server in self.servers.items():
            for result in server.step(now):
                results.append(self._stamp(result, artifact_id))
        return results

    def drain(self) -> List[ServeResult]:
        return self.finish_step(None)  # a step leaves nothing queued

    def warm(self, batch_sizes=None) -> None:
        for server in self.servers.values():
            server.warm(batch_sizes=batch_sizes)

    def reload(self, artifact_id: str, artifact: Optional[ServingArtifact] = None):
        """Hot-swap a new artifact version into this worker.

        Re-opens the artifact's path (whose bytes the caller has already
        replaced — e.g. via
        :func:`repro.serve.artifact.apply_artifact_delta` — so the
        ``<path>.mmap`` stamp discipline re-extracts automatically) and
        rebuilds the lane's :class:`InferenceServer` around it.  The
        existing backend is **reused**: a weight update must not rotate
        the key domain out from under clients that hold ciphertexts, so
        the swapped-in artifact is required to carry the *same* key
        manifest.  The lane's queue must be empty (``drain()`` first).
        Returns the refreshed :class:`WorkerProfile`.
        """
        old = self.servers[artifact_id]
        if len(old.scheduler):
            raise RuntimeError(
                f"artifact {artifact_id!r} has queued requests on worker "
                f"{self.worker_id}; drain() before reload"
            )
        spec = next(s for s in self.specs if s.artifact_id == artifact_id)
        if artifact is None:
            if spec.path is None:
                raise ValueError(
                    f"artifact {artifact_id!r} was opened in-memory; hot "
                    "reload needs a path-backed artifact"
                )
            artifact = ArtifactMap(spec.path).load()
        registry = self.registries[artifact_id]
        if artifact.manifest.fingerprint() != registry.manifest.fingerprint():
            raise RuntimeError(
                f"artifact {artifact_id!r}: reload changes the key manifest "
                "— tenants hold ciphertexts under the current keys; open a "
                "new server for key-incompatible artifacts"
            )
        server = InferenceServer(
            artifact,
            old.backend,
            batching=self._build_opts["batching"],
            max_batch=self._build_opts["max_batch"],
            max_wait_seconds=self._build_opts["batch_window_seconds"],
            preload=self._build_opts["preload"],
            tracer=self.tracer,
        )
        if spec.path is not None:
            verify_mmap_tables(server, spec.path)
        self.servers[artifact_id] = server
        self.profiles[artifact_id] = WorkerProfile(
            capacity=server.scheduler.capacity,
            modeled_seconds=server.modeled_seconds,
            mmap_backed=spec.path is not None,
        )
        return self.profiles[artifact_id]

    def _stamp(
        self, result: ServeResult, artifact_id: str, ticket: Optional[int] = None
    ) -> ServeResult:
        if ticket is None:
            ticket = self._tickets.pop((artifact_id, result.ticket))
        result.ticket = ticket
        result.artifact_id = artifact_id
        result.worker_id = self.worker_id
        return result

    # -- observability -----------------------------------------------------
    def queue_depths(self) -> Dict[str, int]:
        return {
            artifact_id: len(server.scheduler)
            for artifact_id, server in self.servers.items()
        }

    def queue_depth(self) -> int:
        return sum(self.queue_depths().values())

    def stats(self) -> WorkerStats:
        combined: Optional[WorkerStats] = None
        for artifact_id, server in self.servers.items():
            stats = WorkerStats.from_server(
                self.worker_id,
                server,
                queue_depth=len(server.scheduler),
                mmap_backed=self.profiles[artifact_id].mmap_backed,
                registry=self.registries.get(artifact_id),
            )
            combined = stats if combined is None else combined.merged_with(stats)
        return combined

    def metrics_registry(self) -> MetricsRegistry:
        """This worker's counters/gauges/histograms as a fresh
        :class:`repro.obs.MetricsRegistry` snapshot (naming scheme:
        docs/observability.md)."""
        registry = MetricsRegistry()
        worker = str(self.worker_id)
        for artifact_id, server in self.servers.items():
            labels = {"worker": worker, "artifact": artifact_id}
            registry.counter(
                "repro_serve_requests_total",
                server.requests_served,
                help="Requests served (slot-batched or single).",
                **labels,
            )
            registry.counter(
                "repro_serve_batches_total",
                server.batches_run,
                help="Batched program executions run.",
                **labels,
            )
            registry.counter(
                "repro_modeled_seconds_total",
                server.ledger.seconds,
                help="Cost-model seconds charged by the op ledger.",
                **labels,
            )
            for op, count in sorted(server.ledger.counts.items()):
                registry.counter(
                    "repro_fhe_ops_total",
                    count,
                    help="FHE primitive operations executed, by op.",
                    op=op,
                    **labels,
                )
            noise = server.noise.stats()
            for op, count in (
                ("rescale", noise["rescales"]),
                ("mod_down", noise["mod_downs"]),
                ("bootstrap", noise["bootstraps"]),
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
                len(server.scheduler),
                help="Requests waiting in the slot-batching queue.",
                **labels,
            )
            if noise["min_level"] is not None:
                registry.gauge(
                    "repro_noise_min_level",
                    noise["min_level"],
                    help="Lowest ciphertext level any boundary op reached.",
                    **labels,
                )
            registry.gauge(
                "repro_noise_max_scale_drift_log2",
                noise["max_scale_drift_log2"],
                help="Max |log2(scale/Delta)| seen after a boundary op.",
                **labels,
            )
            key_registry = self.registries.get(artifact_id)
            if key_registry is not None:
                key_bytes = key_registry.key_bytes()
                for state, value in sorted(key_bytes.items()):
                    registry.gauge(
                        "repro_key_material_bytes",
                        value,
                        help="Key-registry material bytes, by residency.",
                        state=state,
                        **labels,
                    )
                registry.counter(
                    "repro_key_spills_total",
                    key_registry.spill_count,
                    help="Tenant key chains demoted to spill files.",
                    **labels,
                )
                registry.counter(
                    "repro_key_promotes_total",
                    key_registry.promote_count,
                    help="Tenant key chains promoted back from disk.",
                    **labels,
                )
            registry.record_histogram(
                "repro_request_latency_seconds",
                server.request_latency,
                help="Execution wall of the batch that served each "
                "request (one observation per request; excludes queue wait).",
                **labels,
            )
            registry.record_histogram(
                "repro_serve_queue_wait_seconds",
                server.queue_wait,
                help="Time each request spent queued before its batch started.",
                **labels,
            )
            for phase, histogram in sorted(server.op_histograms.items()):
                registry.record_histogram(
                    "repro_phase_modeled_seconds",
                    histogram,
                    help="Modeled seconds per batch, by program phase.",
                    phase=phase,
                    **labels,
                )
        return registry

    def telemetry(self) -> Dict:
        """One plain-JSON bundle of everything observable about this
        worker: stats payload, metrics payload, and the trace-span
        backlog.  ``trace`` has drain semantics — each completed root
        span is returned exactly once — so callers accumulate without
        deduplicating; this is also what makes the fork-mode flush on
        ``drain()``/``close()`` lossless."""
        tracer = self.tracer
        return {
            "stats": self.stats().to_payload(),
            "metrics": self.metrics_registry().to_payload(),
            "trace": tracer.drain() if tracer is not None else [],
            "clock_offset": tracer.clock_offset if tracer is not None else 0.0,
            "dropped_roots": tracer.dropped_roots if tracer is not None else 0,
        }

    def close(self) -> None:
        pass


# -- process workers --------------------------------------------------------


def _process_worker_main(
    worker_id: int,
    specs: Tuple[ArtifactSpec, ...],
    build_opts: Dict,
    request_queue,
    response_queue,
) -> None:
    """Child entry point: map the artifacts, serve the queue until stop.

    The child maps the same artifact files as every sibling (shared
    page-cache residency — the whole point), builds its own key domain,
    and then runs a plain message loop: submit / step / stats / ...
    """
    try:
        worker = InlineWorker(worker_id, specs, **build_opts)
        response_queue.put(
            ("ready", worker_id, {aid: p for aid, p in worker.profiles.items()})
        )
    except Exception as exc:  # pragma: no cover - startup failure path
        response_queue.put(("error", worker_id, repr(exc)))
        return
    while True:
        message = request_queue.get()
        kind = message[0]
        try:
            if kind == "submit":
                _, ticket, artifact_id, client_id, payload, now, deadline = message
                worker.submit(ticket, artifact_id, client_id, payload, now, deadline)
            elif kind == "serve_now":
                _, ticket, artifact_id, client_id, payload = message
                result = worker.serve_now(ticket, artifact_id, client_id, payload)
                response_queue.put(("result", worker_id, _result_payload(result)))
                response_queue.put(("done", worker_id, 1))
            elif kind == "step":
                results = worker.finish_step(message[1])
                for result in results:
                    response_queue.put(("result", worker_id, _result_payload(result)))
                response_queue.put(("done", worker_id, len(results)))
            elif kind == "stats":
                response_queue.put(
                    ("stats", worker_id, worker.stats().to_payload())
                )
            elif kind == "telemetry":
                response_queue.put(("telemetry", worker_id, worker.telemetry()))
            elif kind == "warm":
                worker.warm(message[1])
                response_queue.put(("done", worker_id, 0))
            elif kind == "reload":
                profile = worker.reload(message[1])
                response_queue.put(("profile", worker_id, (message[1], profile)))
            elif kind == "stop":
                response_queue.put(("stopped", worker_id, None))
                return
        except Exception as exc:  # pragma: no cover - fail loudly upstream
            response_queue.put(("error", worker_id, repr(exc)))
            return


def _result_payload(result: ServeResult) -> Dict:
    return {
        "ticket": result.ticket,
        "client_id": result.client_id,
        "output": np.asarray(result.output),
        "batch_size": result.batch_size,
        "reason": result.reason,
        "wall_seconds": result.wall_seconds,
        "modeled_seconds": result.modeled_seconds,
        "artifact_id": result.artifact_id,
        "worker_id": result.worker_id,
    }


class ProcessWorker:
    """One shard as a real ``multiprocessing`` child over the same maps.

    The parent mirrors queue depths (incremented on submit, decremented
    as results stream back) so admission control never needs a blocking
    round trip into the child.
    """

    def __init__(
        self,
        worker_id: int,
        specs: Tuple[ArtifactSpec, ...],
        **build_opts,
    ):
        import multiprocessing

        for spec in specs:
            if spec.path is None:
                raise ValueError(
                    "process workers need artifact paths (shared mmap), "
                    f"got an in-memory artifact for {spec.artifact_id!r}"
                )
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
            raise RuntimeError("process mode requires a fork-capable platform")
        context = multiprocessing.get_context("fork")
        self.worker_id = worker_id
        self._requests = context.Queue()
        self._responses = context.Queue()
        self._depths: Dict[str, int] = {spec.artifact_id: 0 for spec in specs}
        # Parent-side telemetry mirror: the child's latest stats/metrics
        # payloads plus the undelivered trace spans.  Refreshed by
        # _fetch_telemetry — notably on drain() and close(), so the last
        # batches before shutdown are never lost (the child's buffers
        # would die with the fork otherwise).
        self._cached_stats_payload: Optional[Dict] = None
        self._cached_metrics_payload: Optional[Dict] = None
        self._pending_trace: List[Dict] = []
        self._clock_offset = 0.0
        self._dropped_roots = 0
        self._process = context.Process(
            target=_process_worker_main,
            args=(
                worker_id,
                specs,
                build_opts,
                self._requests,
                self._responses,
            ),
            daemon=True,
        )
        self._process.start()
        self.profiles: Dict[str, WorkerProfile] = dict(self._recv("ready")[1])

    def _recv(self, *kinds: str):
        """The child's next response of one of ``kinds``: ``(kind, payload)``.

        Every parent-side wait goes through here.  A child that posted
        ``"error"`` raises ``RuntimeError``; one that is gone without a
        word (SIGKILL, OOM) raises :class:`WorkerLostError` instead of
        blocking forever.  Liveness is sampled *before* each poll, so an
        answer the child flushed just before exiting is still delivered.
        """
        while True:
            alive = self._process.is_alive()
            try:
                kind, _, payload = self._responses.get(
                    timeout=_LIVENESS_POLL_SECONDS
                )
            except queue.Empty:
                if not alive:
                    raise WorkerLostError(
                        f"worker {self.worker_id} (pid {self._process.pid}) "
                        f"exited with code {self._process.exitcode} while "
                        f"the parent waited for {'/'.join(kinds)}"
                    ) from None
                continue
            if kind == "error":
                raise RuntimeError(f"worker {self.worker_id} died: {payload}")
            if kind in kinds:
                return kind, payload

    # -- intake ------------------------------------------------------------
    def submit(self, ticket, artifact_id, client_id, payload, now, deadline):
        self._requests.put(
            ("submit", ticket, artifact_id, client_id, np.asarray(payload), now, deadline)
        )
        self._depths[artifact_id] += 1

    def serve_now(self, ticket, artifact_id, client_id, payload) -> ServeResult:
        self._requests.put(
            ("serve_now", ticket, artifact_id, client_id, np.asarray(payload))
        )
        results = self._collect()
        return results[0]

    # -- execution ---------------------------------------------------------
    def begin_step(self, now: Optional[float]) -> None:
        self._requests.put(("step", now))

    def finish_step(self, now: Optional[float]) -> List[ServeResult]:
        return self._collect()

    def drain(self) -> List[ServeResult]:
        self.begin_step(None)  # a step leaves nothing queued
        results = self._collect()
        # Flush the child's telemetry after the final batches: without
        # this, metrics and trace spans recorded by drain-time runs only
        # exist in the fork and disappear at close().
        self._fetch_telemetry()
        return results

    def warm(self, batch_sizes=None) -> None:
        self._requests.put(("warm", batch_sizes))
        self._collect()

    def reload(self, artifact_id: str) -> WorkerProfile:
        """Hot-swap the artifact inside the child; mirror its profile."""
        self._requests.put(("reload", artifact_id))
        _, profile = self._recv("profile")[1]
        self.profiles[artifact_id] = profile
        return profile

    def _collect(self) -> List[ServeResult]:
        """Read responses until the worker's 'done' marker."""
        results: List[ServeResult] = []
        while True:
            kind, payload = self._recv("result", "done")
            if kind == "done":
                return results
            result = ServeResult(**payload)
            self._depths[result.artifact_id] -= 1
            results.append(result)

    # -- observability -----------------------------------------------------
    def queue_depths(self) -> Dict[str, int]:
        return dict(self._depths)

    def queue_depth(self) -> int:
        return sum(self._depths.values())

    def stats(self) -> WorkerStats:
        if not self._process.is_alive():
            # The fork is gone; answer from the last flushed snapshot
            # (populated by drain()/close()) instead of deadlocking on a
            # queue nobody serves.
            if self._cached_stats_payload is None:
                raise RuntimeError(
                    f"worker {self.worker_id} is gone and left no stats"
                )
            return WorkerStats.from_payload(self._cached_stats_payload)
        self._requests.put(("stats",))
        self._cached_stats_payload = self._recv("stats")[1]
        return WorkerStats.from_payload(self._cached_stats_payload)

    def _fetch_telemetry(self) -> None:
        """Round-trip one telemetry snapshot from the child into the
        parent-side mirror.  Trace spans accumulate (the child drains
        its buffer, so no span arrives twice); stats/metrics payloads
        are cumulative and simply replace the cache."""
        if not self._process.is_alive():
            return
        self._requests.put(("telemetry",))
        payload = self._recv("telemetry")[1]
        self._cached_stats_payload = payload["stats"]
        self._cached_metrics_payload = payload["metrics"]
        self._pending_trace.extend(payload["trace"])
        self._clock_offset = payload["clock_offset"]
        self._dropped_roots = payload["dropped_roots"]

    def telemetry(self) -> Dict:
        """Same bundle as :meth:`InlineWorker.telemetry`, served from
        the parent-side mirror (refreshed first if the child is alive).
        Trace spans keep their drain semantics across the pipe: the
        pending buffer is handed over exactly once."""
        self._fetch_telemetry()
        trace, self._pending_trace = self._pending_trace, []
        return {
            "stats": self._cached_stats_payload,
            "metrics": self._cached_metrics_payload,
            "trace": trace,
            "clock_offset": self._clock_offset,
            "dropped_roots": self._dropped_roots,
        }

    def close(self) -> None:
        if self._process.is_alive():
            # Final telemetry flush before the fork (and its buffers)
            # goes away; errors here must not block shutdown.
            try:
                self._fetch_telemetry()
            except RuntimeError:  # pragma: no cover - child died mid-close
                pass
            self._requests.put(("stop",))
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - stuck child
                self._process.terminate()
                self._process.join(timeout=5.0)


class WorkerPool:
    """N workers sharding the hosted artifacts (lifecycle owner)."""

    def __init__(
        self,
        specs: Tuple[ArtifactSpec, ...],
        num_workers: int,
        *,
        mode: str = "inline",
        **build_opts,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.specs = tuple(specs)
        self.mode = mode
        self.workers: List[object] = []
        if mode == "inline":
            # One shared load of each mmapped artifact for the whole
            # pool: the program object (and its mapped tables) is
            # reference-shared; per-worker state lives in the backends.
            shared: Dict[str, ServingArtifact] = {}
            for worker_id in range(num_workers):
                self.workers.append(
                    InlineWorker(
                        worker_id,
                        self.specs,
                        shared_artifacts=shared,
                        **build_opts,
                    )
                )
        elif mode == "process":
            for worker_id in range(num_workers):
                self.workers.append(
                    ProcessWorker(worker_id, self.specs, **build_opts)
                )
        else:
            raise ValueError(f"unknown pool mode {mode!r}")

    def __len__(self) -> int:
        return len(self.workers)

    def reload(self, artifact_id: str) -> None:
        """Hot-swap a new version of one artifact into every worker.

        Inline pools re-open the (replaced) artifact file once and share
        the fresh load across workers, mirroring construction; process
        workers each re-map the file in their own child (page cache
        makes the bytes physically shared anyway).
        """
        spec = next(
            (s for s in self.specs if s.artifact_id == artifact_id), None
        )
        if spec is None:
            raise KeyError(f"unknown artifact {artifact_id!r}")
        if self.mode == "inline":
            fresh = None
            if spec.path is not None:
                fresh = ArtifactMap(spec.path).load()
            for worker in self.workers:
                worker.reload(artifact_id, artifact=fresh)
        else:
            for worker in self.workers:
                worker.reload(artifact_id)

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


class Dispatcher:
    """Routing, admission, and conservation accounting for a pool."""

    def __init__(
        self,
        pool: WorkerPool,
        *,
        max_queue_depth: int = 32,
        admission_budget_seconds: Optional[float] = None,
        routing_seed: int = 0,
    ):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        self.pool = pool
        self.max_queue_depth = max_queue_depth
        self.admission_budget_seconds = admission_budget_seconds
        self.routing_seed = routing_seed
        self.requests_submitted = 0
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.requests_completed = 0
        self._next_ticket = 0
        self._closed = False
        # (worker id, artifact id) -> running mean of the batch wall
        # seconds that lane's results reported.  A lane that has
        # delivered nothing yet is absent, and priced at its profile's
        # modeled seconds.
        self._batch_seconds: Dict[Tuple[int, str], float] = {}

    # -- routing -----------------------------------------------------------
    def route(self, artifact_id: str, client_id: str) -> int:
        """Rendezvous-hash the request onto a worker (deterministic)."""
        best_worker, best_score = 0, -1
        for worker_id in range(len(self.pool)):
            digest = hashlib.sha256(
                f"{self.routing_seed}/{artifact_id}/{client_id}/{worker_id}".encode()
            ).digest()
            score = int.from_bytes(digest[:8], "big")
            if score > best_score:
                best_worker, best_score = worker_id, score
        return best_worker

    # -- admission ---------------------------------------------------------
    def batch_seconds(self, worker, artifact_id: str) -> float:
        """What one batch on this lane takes: measured once the lane has
        delivered, the cost model's figure until then."""
        return self._batch_seconds.get(
            (worker.worker_id, artifact_id),
            worker.profiles[artifact_id].modeled_seconds,
        )

    def _delivered(self, results: List[ServeResult]) -> List[ServeResult]:
        """Count deliveries and fold each batch's wall into its lane's mean."""
        self.requests_completed += len(results)
        index = 0
        while index < len(results):
            head = results[index]  # a batch's results arrive together
            lane = (head.worker_id, head.artifact_id)
            mean = self._batch_seconds.get(lane, head.wall_seconds)
            self._batch_seconds[lane] = mean + _BATCH_SECONDS_WEIGHT * (
                head.wall_seconds - mean
            )
            index += head.batch_size
        return results

    def _backlog_seconds(self, worker) -> float:
        """Time to clear the worker's current queues at its batch times."""
        total = 0.0
        for artifact_id, depth in worker.queue_depths().items():
            if depth == 0:
                continue
            capacity = max(1, worker.profiles[artifact_id].capacity)
            total += math.ceil(depth / capacity) * self.batch_seconds(
                worker, artifact_id
            )
        return total

    def _admit(self, worker, artifact_id: str) -> None:
        depth = worker.queue_depth()
        batch_seconds = self.batch_seconds(worker, artifact_id)
        if depth >= self.max_queue_depth:
            retry_ms = max(1.0, batch_seconds * 1e3)
            self.requests_rejected += 1
            raise AdmissionError(
                f"worker {worker.worker_id} queue is full "
                f"({depth}/{self.max_queue_depth}); retry in ~{retry_ms:.0f}ms",
                retry_after_ms=retry_ms,
                worker_id=worker.worker_id,
                queue_depth=depth,
            )
        if self.admission_budget_seconds is not None:
            estimate = self._backlog_seconds(worker) + batch_seconds
            if estimate > self.admission_budget_seconds:
                overhang = estimate - self.admission_budget_seconds
                retry_ms = max(1.0, overhang * 1e3)
                self.requests_rejected += 1
                raise AdmissionError(
                    f"worker {worker.worker_id} backlog {estimate * 1e3:.0f}ms "
                    f"exceeds the {self.admission_budget_seconds * 1e3:.0f}ms "
                    f"latency budget; retry in ~{retry_ms:.0f}ms",
                    retry_after_ms=retry_ms,
                    worker_id=worker.worker_id,
                    queue_depth=depth,
                )

    # -- request flow --------------------------------------------------------
    def submit(
        self,
        artifact_id: str,
        client_id: str,
        payload,
        now: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> int:
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        worker = self.pool.workers[self.route(artifact_id, client_id)]
        self.requests_submitted += 1
        self._admit(worker, artifact_id)  # raises AdmissionError (counted)
        ticket = self._next_ticket
        self._next_ticket += 1
        worker.submit(ticket, artifact_id, client_id, payload, now, deadline)
        self.requests_admitted += 1
        return ticket

    def serve_now(self, artifact_id: str, client_id: str, payload) -> ServeResult:
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        worker = self.pool.workers[self.route(artifact_id, client_id)]
        self.requests_submitted += 1
        self._admit(worker, artifact_id)
        ticket = self._next_ticket
        self._next_ticket += 1
        self.requests_admitted += 1
        result = worker.serve_now(ticket, artifact_id, client_id, payload)
        return self._delivered([result])[0]

    def step(self, now: Optional[float] = None) -> List[ServeResult]:
        """Run every worker's queue empty (process workers overlap)."""
        for worker in self.pool.workers:
            worker.begin_step(now)
        results: List[ServeResult] = []
        for worker in self.pool.workers:
            results.extend(worker.finish_step(now))
        return self._delivered(results)

    def drain(self) -> List[ServeResult]:
        """Flush every queue (graceful shutdown: zero in-flight after)."""
        results: List[ServeResult] = []
        for worker in self.pool.workers:
            results.extend(worker.drain())
        return self._delivered(results)

    def reload(self, artifact_id: str) -> None:
        """Hot-swap one artifact across the pool (quiesced swap).

        Requires zero in-flight requests — call :meth:`drain` first —
        so no request ever sees half a swap.  Routing, admission
        counters, and tenant key domains all survive the reload.
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        if self.in_flight:
            raise RuntimeError(
                f"{self.in_flight} request(s) in flight; drain() before "
                "reloading an artifact"
            )
        self.pool.reload(artifact_id)

    def close(self) -> None:
        self._closed = True
        self.pool.close()

    # -- observability -----------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.requests_admitted - self.requests_completed
