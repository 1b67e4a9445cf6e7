"""Structured span tracing: context-propagated, sampling-aware, cheap.

One :class:`Tracer` per process (installed with :func:`set_tracer` /
:func:`use_tracer`) records a tree of :class:`Span` objects.  Spans are
opened with ``tracer.span(name, ...)`` as context managers and nest via
an explicit stack, so a serving batch renders as

    serve.batch
    ├── encrypt
    ├── execute
    │   ├── linear/conv1          ops={hrot_hoisted: 12, pmult: 20, ...}
    │   ├── act/act1
    │   └── ...
    └── decrypt

Design constraints (docs/observability.md):

- **Disabled tracing is a no-op object, not a branch forest.**  The
  module-level default is :data:`NULL_TRACER`; its ``span()`` returns a
  shared :data:`NULL_SPAN` whose enter/exit/set do nothing.  Hot paths
  that would pay even for building the kwargs dict guard with one
  ``tracer.enabled`` attribute read (the executor's fast path).  The
  overhead of the disabled path is gated in CI
  (``tracing_overhead`` section of ``BENCH_ckks_hotpath.json``).
- **Observe-only.**  Spans read ledgers, levels, and scales; they never
  touch ciphertexts.  Bit-exactness with tracing on is asserted by the
  tier-1 ``REPRO_TRACE=on`` CI leg.
- **Op-count attribution.**  A span opened with ``ledger=`` snapshots
  the ledger's counters at entry and stores the delta at exit, so
  per-span op counts reconcile *exactly* against ``OpLedger`` totals.
- **Sampling.**  ``sample_rate`` applies to *root* spans via
  deterministic systematic sampling (every ``1/rate``-th root); an
  unsampled root skips its entire subtree.
- **Exportable.**  :meth:`Tracer.drain` returns JSON-safe span payloads;
  :func:`chrome_trace` converts per-worker tracks into Chrome
  ``trace_event`` JSON loadable in Perfetto (one thread track per pool
  shard).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    """One timed, attributed region of execution."""

    __slots__ = (
        "name",
        "category",
        "start",
        "end",
        "attrs",
        "children",
        "ops",
        "seconds",
        "noise",
        "_counts0",
        "_seconds0",
        "_ledger",
    )

    def __init__(self, name: str, category: str, attrs: Optional[Dict] = None):
        self.name = name
        self.category = category
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs or {}
        self.children: List[Span] = []
        #: op -> count delta of the bound ledger over this span's lifetime.
        self.ops: Dict[str, int] = {}
        #: modeled seconds delta of the bound ledger.
        self.seconds = 0.0
        #: noise events recorded while this span was innermost
        #: (op, level_before, level_after, drift_log2) tuples.
        self.noise: List = []
        self._counts0 = None
        self._seconds0 = 0.0
        self._ledger = None

    # -- annotation (no-op safe: NULL_SPAN mirrors these) ------------------
    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def add_noise(self, event) -> None:
        self.noise.append(event)

    @property
    def duration(self) -> float:
        return self.end - self.start

    # -- serialization -----------------------------------------------------
    def to_payload(self) -> Dict:
        payload = {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }
        if self.ops:
            payload["ops"] = dict(self.ops)
        if self.seconds:
            payload["modeled_seconds"] = self.seconds
        if self.noise:
            payload["noise"] = [list(event) for event in self.noise]
        if self.children:
            payload["children"] = [c.to_payload() for c in self.children]
        return payload

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _SpanContext:
    """The context manager ``Tracer.span`` returns (one per call)."""

    __slots__ = ("tracer", "name", "category", "ledger", "attrs", "span")

    def __init__(self, tracer, name, category, ledger, attrs):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.ledger = ledger
        self.attrs = attrs
        self.span = None

    def __enter__(self):
        tracer = self.tracer
        if tracer._skipping:
            tracer._skipping += 1
            return NULL_SPAN
        if not tracer._stack and not tracer._sample_root():
            tracer._skipping = 1
            return NULL_SPAN
        span = Span(self.name, self.category, self.attrs)
        ledger = self.ledger
        if ledger is not None:
            span._ledger = ledger
            span._counts0 = dict(ledger.counts)
            span._seconds0 = ledger.seconds
        tracer._stack.append(span)
        span.start = tracer.clock()
        self.span = span
        return span

    def __exit__(self, *exc):
        tracer = self.tracer
        if self.span is None:
            if tracer._skipping:
                tracer._skipping -= 1
            return False
        span = tracer._stack.pop()
        span.end = tracer.clock()
        ledger = span._ledger
        if ledger is not None:
            base = span._counts0
            span.ops = {
                op: count - base.get(op, 0)
                for op, count in ledger.counts.items()
                if count != base.get(op, 0)
            }
            span.seconds = ledger.seconds - span._seconds0
            span._ledger = span._counts0 = None
        tracer._attach(span)
        return False


class Tracer:
    """An enabled tracer: records sampled span trees per process/worker.

    Args:
        sample_rate: fraction of *root* spans recorded (systematic:
            every ``1/rate``-th root; children follow their root).
        max_roots: bound on retained root spans; further roots are
            dropped (counted in :attr:`dropped_roots`) so a long-lived
            worker cannot grow without bound between flushes.
        clock: the time source (``time.perf_counter``).  All span
            timestamps share it; :attr:`clock_offset` maps it onto the
            Unix epoch so traces from different processes align.
    """

    enabled = True

    def __init__(
        self,
        sample_rate: float = 1.0,
        max_roots: int = 10_000,
        clock=time.perf_counter,
    ):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if max_roots < 1:
            raise ValueError("max_roots must be at least 1")
        self.sample_rate = sample_rate
        self.max_roots = max_roots
        self.clock = clock
        self.clock_offset = time.time() - clock()
        self.roots: List[Span] = []
        self.dropped_roots = 0
        self._stack: List[Span] = []
        self._skipping = 0
        self._acc = 0.0

    # -- span lifecycle ----------------------------------------------------
    def span(
        self, name: str, category: str = "", ledger=None, **attrs
    ) -> _SpanContext:
        """Open a nested span (use as a context manager)."""
        return _SpanContext(self, name, category, ledger, attrs)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        **attrs,
    ) -> Optional[Span]:
        """Record an externally-timed span (async request lifetimes).

        ``start``/``end`` must come from this tracer's :attr:`clock`.
        The span lands under the current innermost span, or as a root
        (root sampling applies, same as ``span()``).
        """
        if self._skipping:
            return None
        if not self._stack and not self._sample_root():
            return None
        span = Span(name, category, attrs)
        span.start = start
        span.end = end
        self._attach(span)
        return span

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _sample_root(self) -> bool:
        self._acc += self.sample_rate
        if self._acc < 1.0 - 1e-12:
            return False
        self._acc -= 1.0
        return True

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        elif len(self.roots) < self.max_roots:
            self.roots.append(span)
        else:
            self.dropped_roots += 1

    # -- export ------------------------------------------------------------
    def drain(self) -> List[Dict]:
        """Return all finished root spans as payloads and clear them.

        The flush primitive: process workers drain on ``stats`` /
        ``telemetry`` / ``close`` so telemetry recorded after the last step
        is never lost, and repeated flushes never duplicate spans.
        """
        payloads = [span.to_payload() for span in self.roots]
        self.roots = []
        return payloads

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._skipping = 0
        self._acc = 0.0
        self.dropped_roots = 0


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def add_noise(self, event) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is a class attribute so the hot-path guard
    ``if tracer.enabled`` is one attribute read with no descriptor
    indirection.
    """

    enabled = False
    clock = staticmethod(time.perf_counter)
    clock_offset = 0.0
    sample_rate = 0.0
    dropped_roots = 0

    @property
    def roots(self):
        return []

    @property
    def current_span(self):
        return None

    def span(self, name, category="", ledger=None, **attrs):
        return NULL_SPAN

    def record_span(self, name, start, end, category="", **attrs):
        return None

    def drain(self):
        return []

    def reset(self):
        pass


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()

_active = NULL_TRACER


def get_tracer():
    """The process-active tracer (the :data:`NULL_TRACER` by default)."""
    return _active


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the process-active tracer (None disables)."""
    global _active
    _active = NULL_TRACER if tracer is None else tracer


@contextmanager
def use_tracer(tracer):
    """Temporarily install ``tracer`` (workers scope their own tracer
    around each batch so nested library spans land on the right tree)."""
    global _active
    previous = _active
    _active = NULL_TRACER if tracer is None else tracer
    try:
        yield _active
    finally:
        _active = previous


# -- Chrome trace_event export ----------------------------------------------


def chrome_trace(
    tracks: List[Dict],
    process_name: str = "repro.serve",
) -> Dict:
    """Convert per-worker span tracks into Chrome ``trace_event`` JSON.

    Args:
        tracks: one dict per track: ``{"tid": int, "name": str,
            "spans": [span payloads], "clock_offset": float}``.  The
            clock offset (``time.time() - perf_counter()`` of the
            producing process) aligns every track on the Unix epoch so
            a multi-process pool renders coherently.

    Load the result in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: one thread lane per pool shard.
    """
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]

    def emit(span: Dict, tid: int, offset: float) -> None:
        start_us = (span["start"] + offset) * 1e6
        dur_us = max(0.0, span["end"] - span["start"]) * 1e6
        args = dict(span.get("attrs", {}))
        if span.get("ops"):
            args["ops"] = span["ops"]
        if span.get("modeled_seconds"):
            args["modeled_seconds"] = span["modeled_seconds"]
        if span.get("noise"):
            args["noise"] = span["noise"]
        events.append(
            {
                "name": span["name"],
                "cat": span.get("category") or "span",
                "ph": "X",
                "ts": start_us,
                "dur": dur_us,
                "pid": 0,
                "tid": tid,
                "args": {k: _json_safe(v) for k, v in args.items()},
            }
        )
        for child in span.get("children", ()):
            emit(child, tid, offset)

    for track in tracks:
        tid = int(track["tid"])
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track.get("name", f"worker-{tid}")},
            }
        )
        offset = float(track.get("clock_offset", 0.0))
        for span in track.get("spans", ()):
            emit(span, tid, offset)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def write_chrome_trace(path: str, tracks: List[Dict], **kwargs) -> str:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    with open(path, "w") as f:
        json.dump(chrome_trace(tracks, **kwargs), f)
    return path
