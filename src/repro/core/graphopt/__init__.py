"""Trace-level graph optimizer: cost-gated rewrites over the layer DAG.

Runs between tracing and program building (see docs/graphopt.md).
On by default; ``OrionCompiler(optimize=False)`` (or
``OrionNetwork.compile(optimize=False)``) compiles the un-optimized
reference lowering.
"""

from repro.core.graphopt.fused import FusedLinear, Slice
from repro.core.graphopt.passes import (
    OptContext,
    concat_linear_fusion,
    infer_layouts,
)
from repro.core.graphopt.pipeline import (
    PASSES,
    GraphOptReport,
    optimize_graph,
)

__all__ = [
    "FusedLinear",
    "Slice",
    "OptContext",
    "GraphOptReport",
    "PASSES",
    "concat_linear_fusion",
    "infer_layouts",
    "optimize_graph",
]
