"""Rotation-count model of Lee et al.'s multiplexed parallel convolutions.

Baseline for paper Table 3.  Lee et al. [52] (ICML '22) evaluate a
convolution by rotating the input once per filter tap, multiplying by
punctured plaintexts, accumulating over input channels with
rotate-and-sum, and — for strided convolutions — spending a *second*
multiplicative level on a mask-and-collect step to re-densify the
layout (their Figure 5; contrast with Orion's one-level single-shot
multiplexing).

Rotation components per convolution (see their Section 4):

- tap rotations: fh*fw - 1 (a rotation per filter offset, not
  BSGS-decomposable because each tap's punctured plaintext differs);
- input-channel accumulation: each of the co/po output groups needs
  log2(ci / ki^2) rotate-and-sum steps;
- output assembly: log2(po) rotations to combine the po outputs
  computed in parallel within one ciphertext;
- strided collect: 2*log2(s*ki) extra rotations for mask-and-collect.

where ki is the input multiplexing gap and po the number of output
copies that fit in the ciphertext alongside the input.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.packing.layouts import MultiplexedLayout
from repro.trace.graph import trace_structure


def _log2_ceil(x: float) -> int:
    return max(0, math.ceil(math.log2(max(1.0, x))))


def lee_conv_rotations(
    in_layout: MultiplexedLayout,
    kernel: Tuple[int, int],
    c_out: int,
    stride: int = 1,
) -> int:
    """Modeled rotation count of one Lee et al. multiplexed parallel conv."""
    kh, kw = kernel
    n = in_layout.slots
    ci = in_layout.channels
    gap_sq = in_layout.channels_per_block
    image_slots = in_layout.grid_height * in_layout.grid_width
    # Output copies computable in parallel within one ciphertext.
    po = max(1, n // max(1, image_slots * max(1, ci // gap_sq)))
    po = min(po, c_out)

    taps = kh * kw - 1
    # Rotate-and-sum spans the full input-channel extent of the
    # multiplexed block (log2(ci) steps), once per output-channel group.
    channel_acc = (c_out // po) * _log2_ceil(ci)
    assembly = _log2_ceil(po)
    collect = 2 * _log2_ceil(stride * in_layout.gap) if stride > 1 else 0
    return taps + channel_acc + assembly + collect


def lee_conv_depth(stride: int) -> int:
    """Multiplicative depth: 2 for strided convs (conv + mask-collect),
    1 otherwise — the depth Orion's single-shot multiplexing halves."""
    return 2 if stride > 1 else 1


def lee_avgpool_rotations(in_layout: MultiplexedLayout, kernel: int) -> int:
    """Average pooling as a depthwise conv under the same model."""
    return lee_conv_rotations(in_layout, (kernel, kernel), in_layout.channels, stride=kernel)


def lee_fc_rotations(in_features: int, out_features: int, slots: int) -> int:
    """Fully-connected layer: Halevi-Shoup diagonals without BSGS."""
    diagonals = min(in_features, slots)
    fold = _log2_ceil(in_features / max(1, out_features))
    return diagonals - 1 + fold


def lee_network_rotations(net, input_shape, slots: int) -> Tuple[int, int]:
    """Total (rotations, multiplicative depth) of a network under the
    Lee et al. scheme (the Table 3 baseline).

    Traces the network's structure, propagates the multiplexed gap the
    same way their packing does, and sums per-layer rotation counts;
    strided convolutions cost an extra level each (mask-and-collect).
    """
    graph = trace_structure(net, input_shape)
    layouts = {graph.input_uid: MultiplexedLayout(*input_shape, gap=1, slots=slots)}
    total_rotations = 0
    total_depth = 0
    for node in graph.nodes:
        kind = getattr(node.module, "orion_kind", None)
        module = node.module
        in_layout = layouts.get(node.inputs[0])
        type_name = type(module).__name__
        if kind == "linear" and type_name == "Conv2d":
            stride = module.stride[0]
            total_rotations += lee_conv_rotations(
                in_layout, module.kernel_size, module.out_channels, stride
            )
            total_depth += lee_conv_depth(stride)
            c, h, w = module.output_shape(
                (in_layout.channels, in_layout.height, in_layout.width)
            )
            layouts[node.output] = MultiplexedLayout(
                c, h, w, in_layout.gap * stride, slots
            )
        elif kind == "linear" and type_name == "AvgPool2d":
            k = module.kernel_size
            total_rotations += lee_avgpool_rotations(in_layout, k)
            total_depth += lee_conv_depth(k)
            c, h, w = module.output_shape(
                (in_layout.channels, in_layout.height, in_layout.width)
            )
            layouts[node.output] = MultiplexedLayout(c, h, w, in_layout.gap * k, slots)
        elif kind == "linear" and type_name == "AdaptiveAvgPool2d":
            k = in_layout.global_pool_kernel(node.name)
            total_rotations += lee_avgpool_rotations(in_layout, k)
            total_depth += lee_conv_depth(k)
            layouts[node.output] = MultiplexedLayout(
                in_layout.channels, 1, 1, in_layout.gap * k, slots
            )
        elif kind == "linear":  # fully connected
            total_rotations += lee_fc_rotations(
                module.in_features, module.out_features, slots
            )
            total_depth += 1
            layouts[node.output] = MultiplexedLayout(
                module.out_features, 1, 1, 1, slots
            )
        else:
            layouts[node.output] = in_layout
            if kind in ("relu",):
                total_depth += 14  # composite sign + multiply
            elif kind == "poly":
                degree = getattr(module, "degree", 2)
                total_depth += max(1, math.ceil(math.log2(degree + 1)))
    return total_rotations, total_depth
