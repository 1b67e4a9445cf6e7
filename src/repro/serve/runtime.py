"""The inference server: a worker loop over reusable execution state.

Ties the serving pieces together (docs/serving.md):

- loads a program from a :class:`repro.serve.artifact.ServingArtifact`
  (never invoking the compiler — the construction-time counters are
  snapshotted so tests can assert exactly that);
- owns one backend — one key domain: slot batching packs several
  requests into one ciphertext, which is only meaningful under one
  encryption key — and generates its rotation keys at construction,
  from the artifact's key manifest, which covers every batch size
  (:func:`repro.serve.keys.generate_lane_keys`), so no key is ever
  generated on the request path;
- drives a :class:`repro.serve.scheduler.SlotBatchingScheduler`,
  executing whatever its queue holds through the program's
  block-replicated views and de-multiplexing per-client outputs;
- attributes cost to requests: every run executes under a scratch
  :class:`repro.backend.ledger.OpLedger` that is merged into the
  server's cumulative ledger afterwards, while per-op and per-request
  latency histograms accumulate the serving telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.backend.ledger import LatencyHistogram, OpLedger
from repro.core.program import ExecutionState
from repro.obs.noise import NoiseMonitor
from repro.obs.tracing import NULL_TRACER, get_tracer, use_tracer
from repro.serve.keys import generate_lane_keys
from repro.serve.scheduler import Batch, SlotBatchingScheduler


@dataclass
class ServeResult:
    """One completed request.

    ``artifact_id`` / ``worker_id`` are stamped by the worker pool
    (:mod:`repro.serve.pool`); a bare :class:`InferenceServer` leaves
    them ``None``.
    """

    ticket: int
    client_id: str
    output: np.ndarray
    batch_size: int
    reason: str
    wall_seconds: float
    modeled_seconds: float
    artifact_id: Optional[str] = None
    worker_id: Optional[int] = None


class InferenceServer:
    """Compile-once / serve-many worker over one key domain.

    Args:
        artifact: a loaded :class:`ServingArtifact` (or anything with
            ``program``/``manifest``/``summary``/``preload`` in its
            shape).
        backend: the backend requests are encrypted under, built from
            ``artifact.manifest.to_params()``.  Its rotation keys are
            generated and the artifact's pre-encoded tables installed
            in its caches here, before anything runs (a functional
            backend installs none).
        batching: enable cross-request slot batching.
        max_batch: cap on the batch size (defaults to the program's
            slot capacity).
        max_wait_seconds: default deadline per request (queue order
            only; an idle worker never waits — see the scheduler).
    """

    def __init__(
        self,
        artifact,
        backend,
        batching: bool = True,
        max_batch: Optional[int] = None,
        max_wait_seconds: float = 0.05,
        tracer=None,
    ):
        from repro.core.compiler import OrionCompiler
        from repro.core.placement.planner import solve_placement

        self.artifact = artifact
        self.program = artifact.program
        self.backend = backend
        capacity = 1
        if batching:
            capacity = self.program.slot_batch_capacity()
            if max_batch is not None:
                if max_batch < 1:
                    raise ValueError("max_batch must be at least 1")
                # Batch sizes must be powers of two (block replication
                # divides the slot count), so floor the cap to one.
                capacity = min(
                    capacity, 1 << (max_batch.bit_length() - 1)
                )
        self.scheduler = SlotBatchingScheduler(
            capacity=capacity, max_wait_seconds=max_wait_seconds
        )
        generate_lane_keys(backend, artifact.manifest)
        #: cost-model seconds of one program execution (batched or
        #: single — same ciphertext count); admission's estimate of a
        #: batch until the lane has measured one.
        self.modeled_seconds = float(artifact.summary.get("modeled_seconds", 0.0))
        self.state = ExecutionState(backend)
        self.ledger = OpLedger()
        self.request_latency = LatencyHistogram()
        #: enqueue -> start of the batch that ran the request, on the
        #: scheduler's (injectable) clock.
        self.queue_wait = LatencyHistogram()
        self.op_histograms: Dict[str, LatencyHistogram] = {}
        self.requests_served = 0
        self.batches_run = 0
        #: this server's repro.obs.Tracer: every batch run produces a
        #: "serve.batch" span tree plus one "serve.request" span per
        #: completed request.  Untraced, the spans go to NULL_TRACER.
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Noise telemetry is always on: level/scale drift at modulus-
        # chain boundaries is counts-only (no events retained), cheap,
        # and observe-only — surfaced in ServerStats schema v2.
        self.noise = NoiseMonitor(delta_scale=backend.params.scale)
        backend.noise_monitor = self.noise
        self.preloaded_plaintexts = artifact.preload(backend)
        # Serve-path purity: neither the compiler nor the placement
        # planner may run while this server lives.
        self._compiler_invocations_at_load = OrionCompiler.invocations
        self._planner_invocations_at_load = solve_placement.invocations

    # -- serve-path purity ---------------------------------------------------
    @property
    def compilations_since_load(self) -> int:
        from repro.core.compiler import OrionCompiler

        return OrionCompiler.invocations - self._compiler_invocations_at_load

    @property
    def placements_since_load(self) -> int:
        from repro.core.placement.planner import solve_placement

        return solve_placement.invocations - self._planner_invocations_at_load

    # -- warm-up -------------------------------------------------------------
    def warm(self, batch_sizes=None) -> None:
        """Run a zeros inference through the given execution shapes so
        the weight-plaintext caches are populated before the first real
        request (off the books: nothing is recorded).  The keys already
        exist; a size above the lane's capacity has none and is refused."""
        capacity = self.scheduler.capacity
        if batch_sizes is None:
            batch_sizes = (1, capacity)
        if max(batch_sizes) > capacity:
            raise ValueError(
                f"cannot warm batch size {max(batch_sizes)}: this lane runs "
                f"batches of at most {capacity}"
            )
        shape = self.program.input_layout.tensor_shape
        scratch = OpLedger()
        main_ledger = self.backend.ledger
        main_monitor = self.backend.noise_monitor
        self.backend.ledger = scratch
        self.backend.noise_monitor = None
        try:
            for size in sorted(set(batch_sizes)):
                program = self.program.batched(size)
                dummy = np.zeros(shape) if size == 1 else np.zeros((size,) + shape)
                program.run(self.backend, dummy)
        finally:
            self.backend.ledger = main_ledger
            self.backend.noise_monitor = main_monitor

    # -- request intake ------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        client_id: str = "anon",
        now: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Enqueue a request; returns its ticket."""
        request = self.scheduler.submit(client_id, image, now=now, deadline=deadline)
        request.trace_enqueued = self.tracer.clock()
        return request.ticket

    def serve_now(self, image: np.ndarray, client_id: str = "anon") -> ServeResult:
        """Run one request immediately, bypassing the queue."""
        request = self.scheduler.ticket(client_id, image)
        request.trace_enqueued = self.tracer.clock()
        return self._run_batch(Batch(requests=[request], reason="single"))[0]

    # -- worker loop ---------------------------------------------------------
    def step(self, now: Optional[float] = None) -> List[ServeResult]:
        """Run the queue empty, one backlog-sized batch after another
        (``now`` only dates the queue-wait histogram)."""
        results: List[ServeResult] = []
        while True:
            batch = self.scheduler.next_batch()
            if batch is None:
                return results
            results.extend(self._run_batch(batch, now))

    #: Work-conserving: a step already leaves nothing queued.
    drain = step

    # -- execution -----------------------------------------------------------
    def _run_batch(
        self, batch: Batch, now: Optional[float] = None
    ) -> List[ServeResult]:
        """Run one batch: a "serve.batch" root span (bound to the
        scratch ledger, so its op counts are exactly this batch's) with
        encrypt / execute / decrypt children, plus one "serve.request"
        span per request covering enqueue → complete.  All spans are
        observe-only (bit-exactness with tracing on and off is asserted
        by the tracing tests)."""
        size = batch.size
        started = time.monotonic() if now is None else now
        for request in batch.requests:
            self.queue_wait.observe(started - request.enqueued_at)
        program = self.program.batched(size)
        if size > 1:
            inputs = np.stack([np.asarray(r.payload) for r in batch.requests])
        else:
            inputs = np.asarray(batch.requests[0].payload)
        scratch = OpLedger()
        main_ledger = self.backend.ledger
        self.backend.ledger = scratch
        tracer = self.tracer
        # Library spans land on this server's tree; a server without a
        # tracer leaves whichever one the process has installed in place.
        try:
            with use_tracer(tracer if tracer.enabled else get_tracer()):
                with tracer.span(
                    "serve.batch",
                    category="serve",
                    ledger=scratch,
                    batch_size=size,
                    reason=batch.reason,
                ):
                    start = tracer.clock()
                    self.state.reset()
                    with tracer.span("encrypt", category="serve", ledger=scratch):
                        cts = program.encrypt_input(self.backend, inputs)
                    with tracer.span("execute", category="serve", ledger=scratch):
                        out_cts = program.execute(self.state, cts)
                    with tracer.span("decrypt", category="serve", ledger=scratch):
                        outputs = program.decrypt_output(self.backend, out_cts)
                    end = tracer.clock()
        finally:
            self.backend.ledger = main_ledger
        wall = end - start
        self._record(scratch, wall, size)
        main_ledger.merge(scratch)
        self.ledger.merge(scratch)
        self.batches_run += 1
        self.requests_served += size
        results = []
        for index, request in enumerate(batch.requests):
            tracer.record_span(
                "serve.request",
                request.trace_enqueued,
                end,
                category="serve",
                client_id=request.client_id,
                ticket=request.ticket,
                batch_size=size,
                reason=batch.reason,
            )
            output = outputs[index] if size > 1 else outputs
            results.append(
                ServeResult(
                    ticket=request.ticket,
                    client_id=request.client_id,
                    output=output,
                    batch_size=size,
                    reason=batch.reason,
                    wall_seconds=wall,
                    modeled_seconds=scratch.seconds / size,
                )
            )
        return results

    def _record(self, scratch: OpLedger, wall: float, size: int) -> None:
        # Every request in the batch sat through the full run, so the
        # batch's execution wall is observed once per request (time in
        # the queue is ``queue_wait``); amortized per-request cost lives
        # in ServeResult.modeled_seconds and the throughput benchmarks.
        for _ in range(size):
            self.request_latency.observe(wall)
        for phase, seconds in scratch.seconds_by_phase.items():
            op = phase.split("/", 1)[0]
            histogram = self.op_histograms.get(op)
            if histogram is None:
                histogram = LatencyHistogram()
                self.op_histograms[op] = histogram
            histogram.observe(seconds)
