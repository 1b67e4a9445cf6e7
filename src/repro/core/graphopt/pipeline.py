"""Pass manager for the trace-level graph optimizer.

``optimize_graph`` runs the registered passes in order over a traced
:class:`~repro.trace.graph.LayerGraph`, in place, and returns a
:class:`GraphOptReport` of what fired.  It runs between the compiler's
structure trace (``repro.trace.trace_structure``) and program
building, so every rewrite sees
the whole network and the optimized graph flows through the unchanged
placement solver and lowering.

The pass order is deliberate: cancellation first (so hoisting and
fusion see a minimal graph), hoisting second (de-duplicated rotations
can expose new cancellations and new sibling pairs), cancellation
again, then concat-linear fusion last (it consumes fork structure the
earlier passes clean up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.trace.graph import LayerGraph

from repro.core.graphopt.passes import (
    OptContext,
    cancel_rotations,
    concat_linear_fusion,
    hoist_branch_rotations,
)

GraphPass = Callable[[LayerGraph, OptContext], int]

#: (name, pass) pairs in execution order.
PASSES: List[Tuple[str, GraphPass]] = [
    ("cancel_rotations", cancel_rotations),
    ("hoist_branch_rotations", hoist_branch_rotations),
    ("cancel_rotations", cancel_rotations),
    ("concat_linear_fusion", concat_linear_fusion),
]


@dataclass
class GraphOptReport:
    """Per-pass rewrite counts from one ``optimize_graph`` run."""

    rewrites: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.rewrites.values())

    def record(self, name: str, count: int) -> None:
        if count:
            self.rewrites[name] = self.rewrites.get(name, 0) + count

    def summary(self) -> Dict[str, int]:
        return dict(self.rewrites, total=self.total)


def optimize_graph(graph: LayerGraph, ctx: OptContext) -> GraphOptReport:
    """Run all passes over ``graph`` in place; each is cost-gated and
    semantics-preserving, so the result is safe at any rewrite count."""
    report = GraphOptReport()
    for name, graph_pass in PASSES:
        report.record(name, graph_pass(graph, ctx))
    return report
