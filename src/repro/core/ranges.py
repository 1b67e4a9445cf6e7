"""Range estimation (paper Section 6, ``net.fit()``).

High-precision bootstrapping and Chebyshev evaluation require values in
[-1, 1].  Orion runs the calibration set through the cleartext network,
records the largest magnitude seen at every inter-layer value, and
derives per-value normalization constants M so that the packed network
always carries values / M.  The scale-downs are *fused* into linear
layer weights (w' = w * M_in / M_out) and into activation fits
(g(u) = act(M_in * u) / M_out) — no extra multiplicative level.

Joins constrain their operands to share one constant (both addends must
be normalized identically), so constants propagate through Add and
layout-only nodes by union-find before the final maxima are taken.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.trace.graph import LayerGraph, TracedValue, tracer


class _UnionFind:
    def __init__(self):
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class RangeEstimate:
    """Per-value normalization constants keyed by trace uid."""

    def __init__(self, norms: Dict[int, float], margin: float):
        self._norms = norms
        self.margin = margin

    def norm(self, uid: int) -> float:
        return self._norms.get(uid, 1.0)


def estimate_ranges(
    net,
    graph: LayerGraph,
    calibration_batches: Iterable[np.ndarray],
    margin: float = 1.5,
) -> RangeEstimate:
    """Compute normalization constants from calibration data.

    Args:
        net: the orion network (eval mode recommended).
        graph: a trace of the network (provides the join structure).
        calibration_batches: iterable of input arrays (B, C, H, W).
        margin: safety factor on observed maxima (unseen data may
            slightly exceed the calibration range).
    """
    maxima: Dict[int, float] = {}
    with no_grad():
        for batch in calibration_batches:
            batch = np.asarray(batch)
            with tracer() as run:
                # A traced value with a tensor: every leaf runs its
                # forward and checks it against its shape rule.
                net(TracedValue(batch.shape[1:], run.input_uid, Tensor(batch)))
            peak_in = float(np.max(np.abs(batch)))
            maxima[graph.input_uid] = max(maxima.get(graph.input_uid, 0.0), peak_in)
            if len(run.nodes) != len(graph.nodes):
                raise ValueError("calibration trace does not match the graph")
            for node, ref_node in zip(run.nodes, graph.nodes):
                # Traces of the same net line up node-for-node.
                maxima[ref_node.output] = max(
                    maxima.get(ref_node.output, 0.0), node.output_max_abs
                )

    # Join constraints: Add inputs/outputs and layout-only nodes share M.
    groups = _UnionFind()
    for node in graph.nodes:
        kind = getattr(node.module, "orion_kind", None)
        if kind == "add":
            groups.union(node.inputs[0], node.inputs[1])
            groups.union(node.inputs[0], node.output)
        elif kind in ("reshape",):
            groups.union(node.inputs[0], node.output)

    group_max: Dict[int, float] = {}
    for uid, peak in maxima.items():
        root = groups.find(uid)
        group_max[root] = max(group_max.get(root, 0.0), peak)

    norms = {}
    for uid in list(maxima) + [graph.input_uid]:
        peak = group_max[groups.find(uid)]
        norms[uid] = max(peak * margin, 1e-6)
    return RangeEstimate(norms, margin)
