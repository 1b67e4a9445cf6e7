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
    introduces a fresh uid.

    The producer/consumer maps are cached (the graph optimizer queries
    them heavily); every mutation must go through the rewrite API below
    (or call :meth:`invalidate` itself) so the caches never go stale.
    """

    nodes: List[TraceNode] = field(default_factory=list)
    input_uid: int = 0
    output_uid: Optional[int] = None
    _uid_counter: itertools.count = field(default_factory=itertools.count)
    _producers: Optional[Dict[int, TraceNode]] = field(
        default=None, repr=False, compare=False
    )
    _consumers: Optional[Dict[int, List[TraceNode]]] = field(
        default=None, repr=False, compare=False
    )

    def fresh_uid(self) -> int:
        return next(self._uid_counter)

    def invalidate(self) -> None:
        """Drop the cached producer/consumer maps after a mutation."""
        self._producers = None
        self._consumers = None

    def producers(self) -> Dict[int, TraceNode]:
        if self._producers is None:
            self._producers = {node.output: node for node in self.nodes}
        return self._producers

    def consumers(self) -> Dict[int, List[TraceNode]]:
        if self._consumers is None:
            out: Dict[int, List[TraceNode]] = {}
            for node in self.nodes:
                for uid in node.inputs:
                    out.setdefault(uid, []).append(node)
            self._consumers = out
        return self._consumers

    def fork_uids(self) -> List[int]:
        """Value ids consumed by more than one node (fork points)."""
        return [uid for uid, nodes in self.consumers().items() if len(nodes) > 1]

    # -- rewrite API (repro.core.graphopt) ---------------------------------
    def fresh_index(self) -> int:
        """An unused node index for a rewrite-created node.

        Node indices key the compiler's batch-norm fold plan and the
        ``name`` property, so rewrites must never reuse one.
        """
        return max((node.index for node in self.nodes), default=-1) + 1

    def position_of(self, node: TraceNode) -> int:
        """Position of ``node`` in the execution-ordered node list."""
        for pos, candidate in enumerate(self.nodes):
            if candidate is node:
                return pos
        raise ValueError(f"{node.name} is not in this graph")

    def insert_nodes(self, position: int, new_nodes: List[TraceNode]) -> None:
        """Insert nodes at a list position (caller keeps topo order)."""
        self.nodes[position:position] = list(new_nodes)
        self.invalidate()

    def remove_nodes(self, dead: List[TraceNode]) -> None:
        """Remove nodes by identity."""
        doomed = {id(node) for node in dead}
        self.nodes = [node for node in self.nodes if id(node) not in doomed]
        self.invalidate()

    def rewire_value(self, old_uid: int, new_uid: int) -> None:
        """Replace every read of ``old_uid`` with ``new_uid``.

        Used when a rewrite removes the producer of ``old_uid`` and an
        equal value is available under ``new_uid`` (e.g. canceled
        rotation pairs).  Also retargets the graph output.
        """
        for node in self.nodes:
            if old_uid in node.inputs:
                node.inputs = tuple(
                    new_uid if uid == old_uid else uid for uid in node.inputs
                )
        if self.output_uid == old_uid:
            self.output_uid = new_uid
        self.invalidate()


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
    graph.invalidate()
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
