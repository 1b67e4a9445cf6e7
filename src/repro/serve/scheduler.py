"""Cross-request SIMD slot batching: the queue and the decision rule.

One encrypted MNIST-scale inference occupies a small fraction of a
ciphertext's slots; the rest ride along as zeros.  The scheduler
coalesces pending requests into those unused slots — B clients in B
blocks of n/B slots — so the *same* compiled program (with its linear
layers swapped for block-replicated views, see
:meth:`repro.core.program.FheProgram.batched`) serves all of them in
one execution: ~B x requests/sec for ~1 x the latency.

The decision rule (docs/serving.md) is work-conserving: a worker that
asks for work while its queue is non-empty always gets a batch, so
batches grow from *backlog* — requests that arrived while the worker
was busy, which is exactly when throughput needs them — and never from
an idle worker waiting for company.

- **Full batch** — the queue holds a full ciphertext's worth of
  requests (the program's slot capacity): run a capacity-sized batch.
- **Partial batch** — otherwise the largest power of two the backlog
  holds (a batched run costs what a single run costs: the batched
  program runs the same ciphertext count).
- **Single** — one request waiting.

Each request carries a deadline, ``enqueued_at + max_wait_seconds``.
It never delays anyone: it is the earliest-deadline-first order in
which requests leave the queue.  A request arrives with its ticket
(the front door's); the scheduler keeps it and issues none.

The scheduler is deterministic and clock-injected (pass ``now``) so the
runtime — and the tests — fully control time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class PendingRequest:
    """One inference request, queued or about to run."""

    ticket: int
    client_id: str
    payload: object
    enqueued_at: float
    # ``None`` for a request run at once, which never queues.
    deadline: Optional[float] = None
    # Enqueue timestamp on the *tracer* clock (perf_counter), stamped by
    # the serving runtime; ``enqueued_at`` stays on the scheduler's
    # injected monotonic clock, which tests control.
    trace_enqueued: Optional[float] = None


@dataclass
class Batch:
    """A group of requests scheduled to run in one ciphertext."""

    requests: List[PendingRequest]
    reason: str  # "full" | "partial" | "single"

    @property
    def size(self) -> int:
        return len(self.requests)


class SlotBatchingScheduler:
    """Coalesces a worker's backlog into slot-batched runs.

    Args:
        capacity: the program's slot-batch capacity (power of two).
        max_wait_seconds: the deadline (``now + max_wait_seconds``) of
            every request.  Orders the queue; never delays an idle
            worker.
    """

    def __init__(self, capacity: int, max_wait_seconds: float = 0.05):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.max_wait_seconds = max_wait_seconds
        self.queue: List[PendingRequest] = []

    # -- queue -------------------------------------------------------------
    def submit(
        self, ticket: int, client_id: str, payload, now: Optional[float] = None
    ) -> PendingRequest:
        now = time.monotonic() if now is None else now
        request = PendingRequest(
            ticket=ticket,
            client_id=client_id,
            payload=payload,
            enqueued_at=now,
            deadline=now + self.max_wait_seconds,
        )
        self.queue.append(request)
        return request

    def __len__(self) -> int:
        return len(self.queue)

    # -- decision rule -----------------------------------------------------
    def next_batch(self) -> Optional[Batch]:
        """The batch to run right now; ``None`` only when the queue is
        empty.  Call repeatedly to clear a backlog."""
        if not self.queue:
            return None
        size = min(self.capacity, _floor_power_of_two(len(self.queue)))
        if size == 1:
            reason = "single"
        else:
            reason = "full" if size == self.capacity else "partial"
        self.queue.sort(key=lambda r: (r.deadline, r.ticket))
        taken, self.queue = self.queue[:size], self.queue[size:]
        return Batch(requests=taken, reason=reason)


def _floor_power_of_two(value: int) -> int:
    return 1 << (max(1, value).bit_length() - 1)
