"""Tracing machinery: record the module-level dataflow of a network.

Orion modules (repro.orion.nn) check :func:`trace_active` inside
``__call__``; when a trace is live, each *leaf* module appends a
:class:`TraceNode` linking its input value ids to its output value id.
Container modules (user subclasses, Sequential) contribute nothing —
only the leaves appear in the graph, mirroring how the paper treats a
"network layer" as a linear transform or polynomial evaluation.

A trace is shape-only unless the caller feeds real data: each leaf
derives its output shape from its ``traced_shape`` rule, and runs its
``forward`` only when its inputs carry tensors (range estimation's
calibration traces), where the forward's shape is checked against the
rule.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


@dataclass
class TracedValue:
    """A value flowing through a trace: its feature shape (no batch
    dimension) always, its tensor only when the trace runs real data."""

    feature_shape: Tuple[int, ...]
    uid: int
    tensor: Optional[Tensor] = None


@dataclass
class TraceNode:
    """One traced leaf module."""

    index: int
    module: object  # an orion leaf module
    inputs: Tuple[int, ...]
    output: int
    input_shapes: Tuple[Tuple[int, ...], ...]
    output_shape: Tuple[int, ...]
    # Peak |value| the forward produced: meaningful on calibration
    # traces only (range estimation); a shape-only trace leaves 0.0.
    output_max_abs: float = 0.0

    @property
    def name(self) -> str:
        return f"{type(self.module).__name__.lower()}_{self.index}"


@dataclass
class LayerGraph:
    """The traced layer DAG.

    ``nodes`` are in execution order (a valid topological order).
    Value ids: ``input_uid`` is the network input; every node output
    introduces a fresh uid.  Nothing edits a graph once traced.
    """

    nodes: List[TraceNode] = field(default_factory=list)
    input_uid: int = 0
    output_uid: Optional[int] = None
    _uid_counter: itertools.count = field(default_factory=itertools.count)

    def fresh_uid(self) -> int:
        return next(self._uid_counter)

    def producers(self) -> Dict[int, TraceNode]:
        return {node.output: node for node in self.nodes}

    def consumers(self) -> Dict[int, List[TraceNode]]:
        out: Dict[int, List[TraceNode]] = {}
        for node in self.nodes:
            for uid in node.inputs:
                out.setdefault(uid, []).append(node)
        return out


_ACTIVE_TRACE: List[LayerGraph] = []


def trace_active() -> Optional[LayerGraph]:
    return _ACTIVE_TRACE[-1] if _ACTIVE_TRACE else None


@contextlib.contextmanager
def tracer():
    """Open a trace scope; orion leaf modules record into it."""
    graph = LayerGraph()
    graph.input_uid = graph.fresh_uid()
    _ACTIVE_TRACE.append(graph)
    try:
        yield graph
    finally:
        _ACTIVE_TRACE.pop()


def record_node(
    module,
    inputs: List[TracedValue],
    output_shape: Tuple[int, ...],
    output_tensor: Optional[Tensor] = None,
) -> TracedValue:
    """Append a leaf module to the active trace."""
    graph = trace_active()
    if graph is None:
        raise RuntimeError("record_node called outside a tracer() scope")
    out = TracedValue(tuple(output_shape), graph.fresh_uid(), output_tensor)
    peak = 0.0
    if output_tensor is not None and output_tensor.size:
        peak = float(np.max(np.abs(output_tensor.data)))
    node = TraceNode(
        index=len(graph.nodes),
        module=module,
        inputs=tuple(v.uid for v in inputs),
        output=out.uid,
        input_shapes=tuple(v.feature_shape for v in inputs),
        output_shape=out.feature_shape,
        output_max_abs=peak,
    )
    graph.nodes.append(node)
    graph.output_uid = out.uid
    return out


def trace_structure(net, input_shape: Tuple[int, ...]) -> LayerGraph:
    """The layer DAG of ``net`` on one ``input_shape`` (C, H, W) input.

    Shape-only: every leaf's output shape comes from its
    ``traced_shape`` rule, so no forward runs and no weight is read.
    """
    with tracer() as graph:
        net(TracedValue(tuple(input_shape), graph.input_uid))
    if graph.output_uid is None:
        raise ValueError("tracing recorded no layers — not an orion network?")
    return graph
