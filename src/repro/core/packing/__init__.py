"""Packing: tensors -> ciphertext slots, linear layers -> BSGS matvecs.

Implements the paper's Section 3 (diagonal method, BSGS, hoisting) and
Section 4 (Toeplitz formulation, single-shot multiplexed convolutions,
multi-ciphertext blocked products) plus the baselines it compares
against (Gazelle packed SISO, Lee et al. multiplexed parallel convs).
"""

from repro.core.packing.layouts import MultiplexedLayout, VectorLayout
from repro.core.packing.bsgs import BsgsPlan, plan_bsgs
from repro.core.packing.matvec import PackedMatVec, build_conv_packing, build_linear_packing
from repro.core.packing.analysis import analyze_conv_packing
from repro.core.packing.lee import lee_conv_rotations

__all__ = [
    "MultiplexedLayout",
    "VectorLayout",
    "BsgsPlan",
    "plan_bsgs",
    "PackedMatVec",
    "build_conv_packing",
    "build_linear_packing",
    "analyze_conv_packing",
    "lee_conv_rotations",
]
