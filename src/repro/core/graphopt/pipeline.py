"""Pass manager for the trace-level graph optimizer.

``optimize_graph`` runs the registered passes in order over a traced
:class:`~repro.trace.graph.LayerGraph`, in place, and returns a
:class:`GraphOptReport` of what fired.  It runs between the compiler's
structure trace (``repro.trace.trace_structure``) and program
building, so every rewrite sees
the whole network and the optimized graph flows through the unchanged
placement solver and lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.trace.graph import LayerGraph

from repro.core.graphopt.passes import OptContext, concat_linear_fusion

GraphPass = Callable[[LayerGraph, OptContext], int]

#: (name, pass) pairs in execution order.
PASSES: List[Tuple[str, GraphPass]] = [
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
