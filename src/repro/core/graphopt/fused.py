"""Synthetic trace modules created by graph-optimizer rewrites.

These never execute a cleartext forward pass — rewrites run *after*
tracing and range estimation, so the modules only carry the metadata
the lowering in ``repro.core.compiler`` needs (``orion_kind`` plus the
wrapped original nodes).  Calling them is a bug and raises.
"""

from __future__ import annotations

from typing import Tuple


class FusedLinear:
    """Concat-fusion of sibling linear/conv nodes sharing one input.

    Wraps the original :class:`~repro.trace.graph.TraceNode` objects so
    the lowering can recover each sibling's module, its batch-norm fold
    (the fold plan is keyed by ``node.index``), and range normalization
    (via ``terminal_uids``, the value ids the siblings originally
    produced — batchnorm-folded siblings terminate at their BN's
    output).  ``part_layouts`` records
    each sibling's output layout as inferred at rewrite time (used for
    layout propagation before lowering).
    """

    orion_kind = "fused_linear"

    def __init__(self, siblings: Tuple, terminal_uids: Tuple[int, ...],
                 part_layouts: Tuple):
        self.siblings = tuple(siblings)
        self.terminal_uids = tuple(terminal_uids)
        self.part_layouts = tuple(part_layouts)

    def forward(self, *args):
        raise RuntimeError(
            "FusedLinear is a compile-time rewrite artifact and has no "
            "cleartext forward; it must never be traced"
        )


class Slice:
    """Split part ``part`` back out of a FusedLinear's stacked output.

    Lowers to a free ciphertext-list slice
    (:class:`repro.core.program.SliceInstr`).
    """

    orion_kind = "slice"

    def __init__(self, part: int):
        self.part = part

    def forward(self, *args):
        raise RuntimeError(
            "Slice is a compile-time rewrite artifact and has no "
            "cleartext forward; it must never be traced"
        )
