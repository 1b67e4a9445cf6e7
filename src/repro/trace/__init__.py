"""Network tracing: orion modules -> layer DAG -> nested SESE regions.

The bootstrap placement algorithm (paper Section 5) operates on a
program structure tree: chains of layers where each residual connection
forms a single-entry single-exit (SESE) region bounded by a fork node
and a join node.  This package builds that structure from a shape-only
trace of the network (:func:`trace_structure`).
"""

from repro.trace.graph import (
    LayerGraph,
    TraceNode,
    TracedValue,
    trace_active,
    trace_structure,
    tracer,
)
from repro.trace.sese import Chain, LayerItem, RegionItem, build_region_tree

__all__ = [
    "LayerGraph",
    "TraceNode",
    "TracedValue",
    "trace_active",
    "trace_structure",
    "tracer",
    "Chain",
    "LayerItem",
    "RegionItem",
    "build_region_tree",
]
