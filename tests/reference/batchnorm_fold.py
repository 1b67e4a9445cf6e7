"""The whole-network batch-norm fold the compiler ran before fold
plans, kept as the oracle for the program builder's per-layer fold.

One pass over the graph writes a folded ``(weight, bias)`` copy of
every BN-absorbing linear layer, with the float operations the
materialize path must still perform in the same order.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.trace.graph import LayerGraph


def fold_batchnorms(graph: LayerGraph) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """linear node index -> (weight, bias) with its adjacent BN folded in."""
    folded = {}
    consumers = graph.consumers()
    producers = graph.producers()
    for node in graph.nodes:
        if getattr(node.module, "orion_kind", None) != "batchnorm":
            continue
        producer = producers.get(node.inputs[0])
        only_consumer = len(consumers.get(node.inputs[0], [])) == 1
        if (
            producer is not None
            and only_consumer
            and getattr(producer.module, "orion_kind", None) == "linear"
            and getattr(producer.module, "weight", None) is not None
        ):
            scale, shift = node.module.folded_affine()
            lin = producer.module
            base_weight = lin.weight.data
            if base_weight.ndim == 4:  # convolution
                weight = base_weight * scale[:, None, None, None]
            elif base_weight.ndim == 2:  # dense Linear
                weight = base_weight * scale[:, None]
            else:
                continue
            if lin.bias is not None:
                base_bias = lin.bias.data
            else:
                base_bias = np.zeros(weight.shape[0])
            folded[producer.index] = (weight, base_bias * scale + shift)
    return folded
