"""Single-threaded open-loop load generator for the serving pool.

Requests are due on a fixed schedule whatever the server is doing:
independent tenants do not wait for each other's replies.  The one
thread alternates "submit everything that has come due" with one
blocking ``step()``; while a step runs nothing can be submitted, so a
slow step makes later requests *late* -- and their latency is counted
from when they were **due**, not from when the generator got round to
sending them.  How late the generator ran is reported next to it.

Per delivered request, by construction::

    latency = (return of the step that delivered it) - due time
    exec    = ServeResult.wall_seconds
    wait    = latency - exec        # queue + batch window + lock-step stall

The server is anything with ``submit(image, client_id=..., artifact=...)
-> ticket`` (raising a refusal exception with ``retry_after_ms``),
``step() -> results`` and ``drain() -> results``; the self-tests drive
this with a stalled fake under a fake clock.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: How long the generator sleeps when nothing is due and nothing was delivered.
IDLE_SECONDS = 0.002


@dataclass
class Arrival:
    due: float  # seconds from the start of the run
    phase: str
    tenant: str
    artifact: Optional[str]
    image: object


@dataclass
class Delivery:
    phase: str
    tenant: str
    due: float
    sent: float
    done: float
    exec_seconds: float
    batch_size: int
    worker_id: Optional[int]
    output: object
    image: object

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def wait(self) -> float:
        return self.latency - self.exec_seconds


@dataclass
class Refusal:
    phase: str
    tenant: str
    due: float
    retry_after_ms: float


@dataclass
class LoadReport:
    #: clock reading all ``due``/``sent``/``done`` times are relative to
    origin: float = 0.0
    deliveries: List[Delivery] = field(default_factory=list)
    refusals: List[Refusal] = field(default_factory=list)
    # Per phase: seconds spent in each submit() and each step()/drain()
    # that delivered something, and how late each request was sent.
    submit_seconds: Dict[str, List[float]] = field(default_factory=dict)
    step_seconds: Dict[str, List[float]] = field(default_factory=dict)
    lag_seconds: Dict[str, List[float]] = field(default_factory=dict)

    def phase_wall_seconds(self, phase: str, start: float) -> float:
        """From the phase's scheduled start to its last delivery, so a
        phase's wall time includes clearing its own backlog."""
        done = [d.done for d in self.deliveries if d.phase == phase]
        return max(done) - start if done else 0.0


def schedule(phases: Sequence[tuple], tenants: Sequence[tuple], make_image) -> List[Arrival]:
    """Evenly spaced arrivals, tenants in rotation.

    ``phases`` is ``[(name, rate_per_second, seconds), ...]`` run back to
    back; ``tenants`` is ``[(tenant_id, artifact_id), ...]``.
    """
    arrivals: List[Arrival] = []
    start = 0.0
    for name, rate, seconds in phases:
        for k in range(max(1, round(rate * seconds))):
            tenant, artifact = tenants[len(arrivals) % len(tenants)]
            arrivals.append(Arrival(start + k / rate, name, tenant, artifact, make_image()))
        start += seconds
    return arrivals


def run_open_loop(
    server,
    arrivals: Sequence[Arrival],
    refusal_type: type,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    span=None,
) -> LoadReport:
    """Drive ``arrivals`` through ``server``, then ``drain()``.

    ``span(name, **args)`` (a ``SpanRecorder.span``) wraps each submit
    and step; a disabled recorder makes that free in the plain pass.
    """
    span = span or (lambda name, **args: contextlib.nullcontext())
    origin = clock()
    report = LoadReport(origin=origin)
    pending: Dict[int, tuple] = {}  # ticket -> (arrival, sent)

    def elapsed() -> float:
        return clock() - origin

    def submit(arrival: Arrival) -> None:
        sent = elapsed()
        report.lag_seconds.setdefault(arrival.phase, []).append(sent - arrival.due)
        try:
            with span("serve.submit", phase=arrival.phase, tenant=arrival.tenant):
                ticket = server.submit(
                    arrival.image, client_id=arrival.tenant, artifact=arrival.artifact
                )
        except refusal_type as refusal:
            report.refusals.append(
                Refusal(arrival.phase, arrival.tenant, arrival.due, refusal.retry_after_ms)
            )
        else:
            pending[ticket] = (arrival, sent)
        report.submit_seconds.setdefault(arrival.phase, []).append(elapsed() - sent)

    def run(call, name: str, phase: str) -> bool:
        started = elapsed()
        with span(name, phase=phase, queued=len(pending)):
            results = call()
        done = elapsed()
        if results:
            report.step_seconds.setdefault(phase, []).append(done - started)
        for result in results:
            arrival, sent = pending.pop(result.ticket)
            report.deliveries.append(
                Delivery(
                    phase=arrival.phase,
                    tenant=arrival.tenant,
                    due=arrival.due,
                    sent=sent,
                    done=done,
                    exec_seconds=result.wall_seconds,
                    batch_size=result.batch_size,
                    worker_id=result.worker_id,
                    output=result.output,
                    image=arrival.image,
                )
            )
        return bool(results)

    sent_count = 0
    phase = arrivals[0].phase if arrivals else ""
    while sent_count < len(arrivals):
        while sent_count < len(arrivals) and arrivals[sent_count].due <= elapsed():
            phase = arrivals[sent_count].phase
            submit(arrivals[sent_count])
            sent_count += 1
        if pending and run(server.step, "serve.step", phase):
            continue
        # Nothing due and nothing delivered (idle, or inside the batch window).
        if sent_count < len(arrivals):
            sleep(max(0.0, min(IDLE_SECONDS, arrivals[sent_count].due - elapsed())))
    if pending:
        run(server.drain, "serve.drain", phase)
    if pending:
        raise RuntimeError(f"{len(pending)} admitted requests were never delivered")
    return report
