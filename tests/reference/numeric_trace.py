"""The numeric zero-image trace the compiler used before shape rules,
kept as the oracle for ``repro.trace.trace_structure``.

Every leaf module runs its real ``forward`` on a batch-of-one zero
image and its node records the shape that forward produced — at
paper scale a full float64 im2col pass spent only to learn shapes.
It shares nothing with the ``src/`` trace but the graph dataclasses:
no ``trace_active`` scope, no ``record_node``, no ``traced_shape``
rule is consulted.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

import repro.orion.nn as on
from repro.autograd.tensor import Tensor, no_grad
from repro.trace.graph import LayerGraph, TracedValue, TraceNode


def numeric_trace(net, input_shape: Tuple[int, ...]) -> LayerGraph:
    graph = LayerGraph()
    graph.input_uid = graph.fresh_uid()

    def call(module, *args):
        if module.orion_kind is None:
            return module.forward(*args)
        out = module.forward(*(arg.tensor for arg in args))
        value = TracedValue(tuple(out.shape[1:]), graph.fresh_uid(), out)
        graph.nodes.append(
            TraceNode(
                index=len(graph.nodes),
                module=module,
                inputs=tuple(arg.uid for arg in args),
                output=value.uid,
                input_shapes=tuple(arg.feature_shape for arg in args),
                output_shape=value.feature_shape,
            )
        )
        graph.output_uid = value.uid
        return value

    dummy = Tensor(np.zeros((1,) + tuple(input_shape)))
    real_call = on.Module.__call__
    on.Module.__call__ = call
    try:
        net.eval()
        with no_grad():
            net(TracedValue(tuple(input_shape), graph.input_uid, dummy))
    finally:
        on.Module.__call__ = real_call
    return graph
