"""The sharded worker pool: N workers over shared tables.

A pool is a list of shards, each running *today's*
:class:`repro.serve.runtime.InferenceServer` loop — one server per
hosted artifact, slot-batching its own backlog by the scheduler's
work-conserving rule.  :class:`repro.serve.Server` routes, admits and
accounts for requests in front of them; :func:`start_workers` is how it
gets them.  Nothing about the execution hot path changes; the pool is
pure orchestration:

- **Shared read-only artifact memory.**  Workers open artifacts through
  :class:`repro.serve.mmapio.ArtifactMap`: the weight and pre-encoded
  plaintext tables are mmapped once per machine, so per-worker RSS
  stays flat as the pool grows (the tables are physically shared pages;
  ``verify_mmap_tables`` asserts no worker ever copied them).
- **One worker, two transports.**  A shard is a :class:`Worker`.
  ``inline`` calls it directly (deterministic, the reference every
  bit-exactness gate runs under); ``process`` runs the same class in a
  forked child behind :class:`ProcessWorker`, whose pipe carries
  ``(method, args)`` one way and the return value — or the exception —
  back.  The parent keeps only what a parent alone can hold: the queue
  depths it has itself caused (so admission never blocks on a round
  trip), the lane profiles, the last telemetry bundle (so a closed or
  dead child can still be reported on), and the liveness check that
  turns a vanished child into :class:`WorkerLostError`.
"""

from __future__ import annotations

import os
import queue
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.serve.artifact import ServingArtifact
from repro.serve.keys import KeyDomain, default_backend_factory
from repro.serve.mmapio import ArtifactMap, is_mmap_backed
from repro.serve.runtime import InferenceServer, ServeResult
from repro.serve.stats import LaneStats, WorkerStats

#: How often a parent blocked on a fork worker's response queue checks
#: that the child still exists.
_LIVENESS_POLL_SECONDS = 0.5


class WorkerLostError(RuntimeError):
    """A fork worker exited (killed, OOM) without answering."""


@dataclass(frozen=True)
class WorkerProfile:
    """What the server knows about one (worker, artifact) lane."""

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


class Worker:
    """One shard: an :class:`InferenceServer` lane per hosted artifact.

    The only implementation of a shard.  An inline pool calls it
    directly; a process pool runs it in a forked child and calls it
    through :class:`ProcessWorker`.

    Each lane's backend is built by the factory from ``key_seed`` —
    every worker the same key domain, so a solo replay with that seed
    reproduces any worker bit for bit — and gets its rotation keys when
    the lane's server is constructed.  It is held for the worker's
    lifetime (a reload keeps it, and its keys).

    Workers of an inline pool share one :class:`repro.serve.keys.KeyDomain`
    per artifact (``shared_keys``): the first worker to open a lane
    generates its keys, and every later worker's fresh backend installs
    them — the same key objects and the rng state keygen left — so its
    lane generates none.  A process worker keys itself in its own child.
    Either way each lane's ``key_bytes_resident`` counts the tensors it
    holds, so in an inline pool the sum over workers overstates the
    physical key bytes by the worker count.
    """

    def __init__(
        self,
        worker_id: int,
        specs: Tuple[ArtifactSpec, ...],
        *,
        key_seed: int,
        batching: bool,
        max_batch: Optional[int],
        batch_window_seconds: float,
        backend_factory: Optional[Callable],
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
        shared_artifacts: Optional[Dict[str, ServingArtifact]] = None,
        shared_keys: Optional[Dict[str, Optional[KeyDomain]]] = None,
    ):
        self.worker_id = worker_id
        self.specs = tuple(specs)
        #: one tracer per worker shard — its spans become this worker's
        #: track in the Chrome-trace export.
        self.tracer = (
            Tracer(sample_rate=trace_sample_rate) if tracing else NULL_TRACER
        )
        # A lane rebuilt by reload() gets the options it was opened with.
        self._server_opts = dict(
            batching=batching,
            max_batch=max_batch,
            max_wait_seconds=batch_window_seconds,
        )
        factory = backend_factory or default_backend_factory
        self.servers: Dict[str, InferenceServer] = {}
        self.profiles: Dict[str, WorkerProfile] = {}
        # Inner (per-lane) ticket -> the pool-global ticket Server issued.
        self._tickets: Dict[Tuple[str, int], int] = {}
        loaded = {} if shared_artifacts is None else shared_artifacts
        domains = {} if shared_keys is None else shared_keys
        for spec in self.specs:
            if spec.artifact_id not in loaded:
                loaded[spec.artifact_id] = self._load(spec)
            artifact = loaded[spec.artifact_id]
            backend = factory(artifact.manifest.to_params(), key_seed)
            domain = domains.get(spec.artifact_id)
            if domain is not None:
                domain.install(backend)
            self._open_lane(spec, artifact, backend)
            if spec.artifact_id not in domains:
                # The server draws nothing after its keygen, so this is
                # the state generate_lane_keys left.
                domains[spec.artifact_id] = KeyDomain.of(backend)

    @staticmethod
    def _load(spec: ArtifactSpec) -> ServingArtifact:
        if spec.path is None:
            return spec.artifact
        return ArtifactMap(spec.path).load()

    def _open_lane(self, spec: ArtifactSpec, artifact, backend) -> WorkerProfile:
        """Stand up (or replace) the lane serving ``spec`` from ``artifact``."""
        server = InferenceServer(
            artifact, backend, tracer=self.tracer, **self._server_opts
        )
        mmapped = spec.path is not None
        if mmapped:
            verify_mmap_tables(server, spec.path)
        self.servers[spec.artifact_id] = server
        self.profiles[spec.artifact_id] = profile = WorkerProfile(
            capacity=server.scheduler.capacity,
            modeled_seconds=server.modeled_seconds,
            mmap_backed=mmapped,
        )
        return profile

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
        pass  # a direct call has nothing to overlap; finish_step runs it

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

    def reload(
        self, artifact_id: str, artifact: Optional[ServingArtifact] = None
    ) -> WorkerProfile:
        """Hot-swap a new artifact version into this worker.

        Re-maps the artifact's path (which the caller has already
        re-exported in place: a full export over the served path,
        published atomically) unless the pool hands over the fresh load
        it shares, and rebuilds the lane around it.  The existing backend is **reused**: a weight update
        must not rotate the key domain out from under clients that hold
        ciphertexts, so the swapped-in artifact is required to carry the
        *same* key manifest, so the rebuilt lane finds every key it
        needs already there and generates none.  The lane's queue must
        be empty (``drain()`` first).  Returns the refreshed
        :class:`WorkerProfile`.
        """
        old = self.servers[artifact_id]
        if len(old.scheduler):
            raise RuntimeError(
                f"artifact {artifact_id!r} has queued requests on worker "
                f"{self.worker_id}; drain() before reload"
            )
        spec = next(s for s in self.specs if s.artifact_id == artifact_id)
        if spec.path is None:
            raise ValueError(
                f"artifact {artifact_id!r} was opened in-memory; hot "
                "reload needs a path-backed artifact"
            )
        if artifact is None:
            artifact = self._load(spec)
        if artifact.manifest.fingerprint() != old.artifact.manifest.fingerprint():
            raise RuntimeError(
                f"artifact {artifact_id!r}: reload changes the key manifest "
                "— tenants hold ciphertexts under the current keys; open a "
                "new server for key-incompatible artifacts"
            )
        return self._open_lane(spec, artifact, old.backend)

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

    def stats(self) -> WorkerStats:
        """This worker's one report: a frozen snapshot per lane."""
        return WorkerStats(
            self.worker_id,
            tuple(
                LaneStats.from_server(
                    artifact_id, server, self.profiles[artifact_id].mmap_backed
                )
                for artifact_id, server in self.servers.items()
            ),
        )

    def telemetry(self) -> Dict:
        """Everything observable about this worker in one reply: its
        :class:`WorkerStats` and the trace-span backlog.  ``trace`` has
        drain semantics — each completed root span is returned exactly
        once — so callers accumulate without deduplicating; this is also
        what makes the fork-mode flush on ``drain()``/``close()``
        lossless."""
        tracer = self.tracer
        return {
            "stats": self.stats(),
            "trace": tracer.drain(),
            "clock_offset": tracer.clock_offset,
            "dropped_roots": tracer.dropped_roots,
        }

    def close(self) -> None:
        pass


# -- the fork transport -------------------------------------------------------


def _process_worker_main(
    worker_id: int,
    specs: Tuple[ArtifactSpec, ...],
    build_opts: Dict,
    request_queue,
    response_queue,
) -> None:
    """Child entry point: build the :class:`Worker`, then answer calls.

    The child maps the same artifact files as every sibling (shared
    page-cache residency — the whole point).  Every request is
    ``(method, args)`` and gets exactly one reply, in order:
    ``(True, return value)`` or ``(False, exception)``.  The first
    reply, to the construction itself, is the lane profiles; ``None``
    ends the loop.
    """

    def failed(exc: Exception):
        exc.add_note(f"in worker {worker_id}:\n{traceback.format_exc()}")
        return False, exc

    try:
        worker = Worker(worker_id, specs, **build_opts)
    except Exception as exc:
        response_queue.put(failed(exc))
        return
    response_queue.put((True, worker.profiles))
    for method, args in iter(request_queue.get, None):
        try:
            reply = True, getattr(worker, method)(*args)
        except Exception as exc:  # raised in the parent by _receive
            reply = failed(exc)
        response_queue.put(reply)


class ProcessWorker:
    """The pipe to a :class:`Worker` living in a forked child.

    No serving behaviour of its own: every method forwards
    ``(method, args)`` and returns the child's reply.  ``submit`` and
    ``begin_step`` only send — the parent never blocks to enqueue, and a
    step on one child overlaps the next child's.  Replies arrive in
    request order, so a call first reads the replies to those earlier
    sends (raising any exception they carry), then its own.
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
        # Requests this parent has queued and not yet seen delivered:
        # admission reads them without a round trip into the child.
        self._depths: Dict[str, int] = {spec.artifact_id: 0 for spec in specs}
        # The child's latest telemetry bundle (minus the trace spans,
        # which wait in _pending_trace until someone takes them).
        # Refreshed on stats()/telemetry() and — so the last batches
        # before shutdown are never lost with the fork — on drain() and
        # close().
        self._bundle: Dict = {"stats": None, "clock_offset": 0.0, "dropped_roots": 0}
        self._pending_trace: List[Dict] = []
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
        self._unanswered = 1  # the construction's own reply: the profiles
        self.profiles: Dict[str, WorkerProfile] = self._receive()

    # -- the wire ------------------------------------------------------------
    def _send(self, method: str, *args) -> None:
        self._requests.put((method, args))
        self._unanswered += 1

    def _receive(self):
        """The child's reply to the oldest unanswered request.

        Every parent-side wait goes through here.  A reply carrying an
        exception raises it; a child that is gone without a word
        (SIGKILL, OOM) raises :class:`WorkerLostError` instead of
        blocking forever.  Liveness is sampled *before* each poll, so an
        answer the child flushed just before exiting is still delivered.
        """
        while True:
            alive = self._process.is_alive()
            try:
                ok, value = self._responses.get(timeout=_LIVENESS_POLL_SECONDS)
            except queue.Empty:
                if not alive:
                    raise WorkerLostError(
                        f"worker {self.worker_id} (pid {self._process.pid}) "
                        f"exited with code {self._process.exitcode} with "
                        f"{self._unanswered} request(s) unanswered"
                    ) from None
                continue
            self._unanswered -= 1
            if not ok:
                raise value
            return value

    def _await(self):
        """The reply to the newest request, after every earlier one's."""
        while self._unanswered > 1:
            self._receive()
        return self._receive()

    def _call(self, method: str, *args):
        self._send(method, *args)
        return self._await()

    def _delivered(self, results: List[ServeResult]) -> List[ServeResult]:
        for result in results:
            self._depths[result.artifact_id] -= 1
        return results

    # -- intake ------------------------------------------------------------
    def submit(self, ticket, artifact_id, client_id, payload, now, deadline):
        self._depths[artifact_id] += 1
        self._send("submit", ticket, artifact_id, client_id, payload, now, deadline)

    def serve_now(self, ticket, artifact_id, client_id, payload) -> ServeResult:
        self._depths[artifact_id] += 1
        result = self._call("serve_now", ticket, artifact_id, client_id, payload)
        return self._delivered([result])[0]

    # -- execution ---------------------------------------------------------
    def begin_step(self, now: Optional[float]) -> None:
        self._send("finish_step", now)

    def finish_step(self, now: Optional[float]) -> List[ServeResult]:
        return self._delivered(self._await())

    def drain(self) -> List[ServeResult]:
        results = self._delivered(self._call("drain"))
        self._refresh()
        return results

    def warm(self, batch_sizes=None) -> None:
        self._call("warm", batch_sizes)

    def reload(
        self, artifact_id: str, artifact: Optional[ServingArtifact] = None
    ) -> WorkerProfile:
        self.profiles[artifact_id] = self._call("reload", artifact_id, artifact)
        return self.profiles[artifact_id]

    # -- observability -----------------------------------------------------
    def queue_depths(self) -> Dict[str, int]:
        return dict(self._depths)

    def _refresh(self) -> None:
        """Pull the child's telemetry bundle, if there is a child to ask.
        Trace spans accumulate (the child drains its buffer, so no span
        arrives twice); the rest is cumulative and replaces the cache."""
        if self._process.is_alive():
            self._bundle = self._call("telemetry")
            self._pending_trace.extend(self._bundle.pop("trace"))

    def stats(self) -> WorkerStats:
        self._refresh()
        if self._bundle["stats"] is None:
            raise RuntimeError(
                f"worker {self.worker_id} is gone and left no stats"
            )
        return self._bundle["stats"]

    def telemetry(self) -> Dict:
        """:meth:`Worker.telemetry`, or the last bundle a child that is
        gone reported.  Trace spans keep their drain semantics across
        the pipe: the pending buffer is handed over exactly once."""
        self._refresh()
        trace, self._pending_trace = self._pending_trace, []
        return {**self._bundle, "trace": trace}

    def close(self) -> None:
        if self._process.is_alive():
            # Final telemetry flush before the fork (and its buffers)
            # goes away; errors here must not block shutdown.
            try:
                self._refresh()
            except RuntimeError:  # pragma: no cover - child died mid-close
                pass
            self._requests.put(None)
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - stuck child
                self._process.terminate()
                self._process.join(timeout=5.0)
        # Whatever is still buffered for the child can never be read now
        # (a lost worker leaves its whole backlog there): the feeder
        # thread must not hold interpreter exit waiting to write it.
        self._requests.cancel_join_thread()
        self._requests.close()
        self._responses.close()


def start_workers(specs: Tuple[ArtifactSpec, ...], config) -> List:
    """Start ``config.workers`` shards over ``specs`` (a
    :class:`repro.serve.ServerConfig`), worker ids 0 .. N-1.

    ``inline`` builds :class:`Worker` objects that share one load of each
    mmapped artifact — the program object (and its mapped tables) is
    reference-shared; per-worker state lives in the backends — and one
    :class:`KeyDomain` per artifact, so the first worker's keygen is the
    pool's only one.  ``process`` forks one :class:`ProcessWorker` per
    shard; each child maps the files and keys itself.
    """
    build_opts = dict(
        key_seed=config.key_seed,
        batching=config.batching,
        max_batch=config.max_batch,
        batch_window_seconds=config.batch_window_seconds,
        backend_factory=config.backend_factory,
        tracing=config.tracing,
        trace_sample_rate=config.trace_sample_rate,
    )
    if config.mode == "inline":
        build_opts.update(shared_artifacts={}, shared_keys={})
        transport = Worker
    else:
        transport = ProcessWorker
    return [
        transport(worker_id, specs, **build_opts)
        for worker_id in range(config.workers)
    ]
