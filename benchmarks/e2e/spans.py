"""The benchmark's own span recorder (outside-in layer attribution).

Nothing in ``src/`` is instrumented for this harness: every layer is
timed from outside, by wrapping calls into its public functions in a
span.  Spans live in memory (name, start, end, parent, workload id) and
are written once, at exit, as Chrome ``trace_event`` JSON.  A span's
*self time* is its duration minus the part of it its children cover --
for an inference span whose children are the per-instruction spans this
is exactly the unattributed remainder ROADMAP aim 1 asks to see printed.

A disabled recorder records nothing, so the plain (end-to-end) pass and
the traced pass run the same code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    workload: str = ""
    args: Dict = field(default_factory=dict)
    #: total duration of the direct children, accumulated as they close
    covered: float = 0.0
    #: Chrome-trace thread lane (live spans share lane 1)
    lane: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part the children cover.  Children open
        and close inside the parent one at a time, so they never
        overlap each other or leak past it."""
        return self.duration - self.covered


class _Scope:
    """Context manager for one open span (or nothing, when disabled)."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: Optional[int]):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> Optional[int]:
        return self.index

    def __exit__(self, *exc) -> bool:
        if self.index is not None:
            self.recorder._close(self.index)
        return False


class SpanRecorder:
    """In-memory spans with parent links; one recorder per workload run."""

    def __init__(self, workload: str = "", enabled: bool = True, clock=time.perf_counter):
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, **args) -> _Scope:
        """Open a child of the innermost open span; close it on exit."""
        if not self.enabled:
            return _Scope(self, None)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(
            Span(name, self.clock(), parent=parent, workload=self.workload, args=args)
        )
        self._open.append(index)
        return _Scope(self, index)

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans must close innermost-first")
        if span.parent is not None:
            self.spans[span.parent].covered += span.duration

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            lane: int = 1, **args) -> Optional[int]:
        """Lay down an interval measured elsewhere (on this recorder's
        clock), e.g. a request's wait and exec reconstructed after the
        step that delivered it returned."""
        if not self.enabled:
            return None
        self.spans.append(
            Span(name, start, end, parent=parent, workload=self.workload, args=args, lane=lane)
        )
        if parent is not None:
            self.spans[parent].covered += end - start
        return len(self.spans) - 1

    # -- queries -------------------------------------------------------------
    def children(self, index: int) -> Iterator[int]:
        return (i for i, s in enumerate(self.spans) if s.parent == index)

    def named(self, name: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def child_seconds(self, index: int) -> Dict[str, float]:
        """Total child duration by child name under one span."""
        totals: Dict[str, float] = {}
        for c in self.children(index):
            child = self.spans[c]
            totals[child.name] = totals.get(child.name, 0.0) + child.duration
        return totals

    # -- export --------------------------------------------------------------
    def chrome_trace(self) -> Dict:
        """Chrome ``trace_event`` document ("X" complete events,
        microsecond timestamps relative to the earliest span).
        ``args.self_us`` carries the self time so the remainder of a
        parent is readable without summing its children by hand."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for span in self.spans:
            args = dict(span.args)
            args["workload"] = span.workload
            args["self_us"] = round(span.self_time * 1e6, 3)
            if span.parent is not None:
                args["parent"] = self.spans[span.parent].name
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": span.lane,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
        return path
