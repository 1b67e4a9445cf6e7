"""The rewrite passes of the trace-level graph optimizer.

Every pass takes ``(graph, ctx)`` and returns the number of rewrites it
applied.  The shared contract (docs/graphopt.md):

- **Semantics-preserving.** A rewrite must leave the lowered program's
  packed cleartext semantics bit-exact (verified per pass on ToyBackend
  in ``tests/test_graphopt.py``); rewrites that merely approximate are
  not admitted.
- **Cost-gated.** A rewrite only fires when the :class:`CostModel`
  prices the rewritten form strictly cheaper at the parameter set's
  effective level — the e-graph-extraction discipline of rewriting
  freely but *extracting* by cost.
- **Geometry-only gating.** Gates may read shapes, layouts, and offset
  profiles but never weight values, so analyze-mode and
  materialize-mode compiles make identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backend.costs import CostModel
from repro.core.packing.analysis import (
    ConvAnalysisTable,
    OffsetProfile,
    linear_structure,
    merged_packing_stats,
)
from repro.core.packing.layouts import (
    MultiplexedLayout,
    StackedLayout,
    VectorLayout,
)
from repro.trace.graph import LayerGraph, TraceNode

from repro.core.graphopt.fused import FusedLinear, Slice


@dataclass
class OptContext:
    """Everything a pass may consult: parameters, prices, the
    batch-norm fold plan (linear node index -> the BN node it absorbs;
    rewrites must respect what the compiler already decided to fold),
    and the compile's conv analysis table (shared with the program
    builder, so a gate's offset profile is the entry the lowering
    reads)."""

    params: object  # CkksParameters
    costs: CostModel
    input_shape: Tuple[int, ...]
    folds: Dict[int, TraceNode] = field(default_factory=dict)
    analysis: ConvAnalysisTable = field(default_factory=ConvAnalysisTable)

    @property
    def slots(self) -> int:
        return self.params.slot_count

    @property
    def level(self) -> int:
        """Level rewrites are priced at (the planner may execute lower,
        but relative prices — the gate's input — are level-stable)."""
        return self.params.effective_level


def _kind(node: TraceNode) -> Optional[str]:
    return getattr(node.module, "orion_kind", None)


# ---------------------------------------------------------------------------
# Layout inference (mirrors _ProgramBuilder's layout propagation)
# ---------------------------------------------------------------------------
def infer_layouts(graph: LayerGraph, input_shape, slots: int) -> Dict[int, object]:
    """Propagate packing layouts over the traced graph.

    The optimizer runs before the program builder, so it mirrors the
    builder's propagation rules: convolutions multiply the gap by their
    stride, dense layers produce vectors, everything else (batchnorm,
    activations, reshapes, joins, rotations) passes its input layout
    through.
    """
    channels, height, width = input_shape
    layouts: Dict[int, object] = {
        graph.input_uid: MultiplexedLayout(channels, height, width, gap=1, slots=slots)
    }
    for node in graph.nodes:
        in_layout = layouts.get(node.inputs[0])
        if in_layout is None:
            continue
        kind = _kind(node)
        if kind == "linear":
            layouts[node.output] = _linear_out_layout(node, in_layout, slots)
        elif kind == "fused_linear":
            layouts[node.output] = StackedLayout(
                parts=tuple(node.module.part_layouts), slots=slots
            )
        elif kind == "slice":
            layouts[node.output] = in_layout.parts[node.module.part]
        else:
            # batchnorm / relu / poly / reshape / add: layout-
            # preserving (reshapes alias; the builder keeps the packed
            # layout and maps logical indices through it).
            layouts[node.output] = in_layout
    return layouts


def _linear_out_layout(node: TraceNode, in_layout, slots: int):
    module = node.module
    type_name = type(module).__name__
    if type_name == "AvgPool2d":
        k, s = module.kernel_size, module.stride
        return MultiplexedLayout(
            channels=in_layout.channels,
            height=(in_layout.height - k) // s + 1,
            width=(in_layout.width - k) // s + 1,
            gap=in_layout.gap * s,
            slots=slots,
        )
    if type_name == "AdaptiveAvgPool2d":
        k = in_layout.global_pool_kernel(node.name)
        return MultiplexedLayout(
            channels=in_layout.channels, height=1, width=1,
            gap=in_layout.gap * k, slots=slots,
        )
    if getattr(module, "kernel_size", None) is not None:  # convolution
        kh, kw = module.kernel_size
        sh, sw = module.stride
        ph, pw = module.padding
        dh, dw = module.dilation
        out_h = (in_layout.height + 2 * ph - dh * (kh - 1) - 1) // sh + 1
        out_w = (in_layout.width + 2 * pw - dw * (kw - 1) - 1) // sw + 1
        return MultiplexedLayout(
            channels=module.out_channels, height=out_h, width=out_w,
            gap=in_layout.gap * sh, slots=slots,
        )
    return VectorLayout(module.out_features, slots)


def sibling_profile(
    module, in_layout, analysis: ConvAnalysisTable
) -> Optional[OffsetProfile]:
    """Geometry-only offset profile of a fusable linear node (None for
    layers the concat pass does not handle, e.g. pools).  Conv profiles
    are entries of the compile's ``analysis`` table."""
    if getattr(module, "weight", None) is None:
        return None
    if getattr(module, "kernel_size", None) is not None:
        if not isinstance(in_layout, MultiplexedLayout):
            return None
        return analysis.lookup(
            module.weight.shape, in_layout,
            stride=module.stride, padding=module.padding,
            dilation=module.dilation, groups=module.groups,
        ).profile
    if hasattr(module, "out_features"):
        return linear_structure(module.out_features, in_layout).profile
    return None


# ---------------------------------------------------------------------------
# Concat-linear fusion
# ---------------------------------------------------------------------------
def concat_linear_fusion(graph: LayerGraph, ctx: OptContext) -> int:
    """Merge sibling linear/conv nodes consuming the same value.

    The siblings' diagonal tables concatenate along the output-block
    axis under one BSGS plan (``merge_packed_matvecs``), so the fused
    matvec pays one digit decomposition per input block instead of one
    per sibling and de-duplicates shared (input block, offset) inner
    products; free :class:`Slice` nodes then hand each branch its
    original value id.  Fires only when the cost model prices the
    merged layer cheaper than the siblings combined.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        layouts = infer_layouts(graph, ctx.input_shape, ctx.slots)
        for fork_uid in graph.fork_uids():
            cons = graph.consumers().get(fork_uid, [])
            if len(cons) != 2 or cons[0] is cons[1]:
                continue
            if any(_kind(node) != "linear" for node in cons):
                continue
            in_layout = layouts.get(fork_uid)
            if in_layout is None:
                continue
            profiles = [
                sibling_profile(node.module, in_layout, ctx.analysis)
                for node in cons
            ]
            if any(p is None for p in profiles):
                continue
            if profiles[0].num_in != profiles[1].num_in:
                continue
            if profiles[0].fold_shifts != profiles[1].fold_shifts:
                continue
            merged = merged_packing_stats(profiles)
            stats = [p.stats() for p in profiles]
            separate = sum(s.cost(ctx.level, ctx.costs) for s in stats)
            gain = ctx.costs.sibling_fusion_gain(
                ctx.level,
                num_in=profiles[0].num_in,
                total_offsets=sum(s._offsets for s in stats),
                merged_offsets=merged._offsets,
                num_siblings=len(profiles),
            )
            if gain <= 0 or merged.cost(ctx.level, ctx.costs) >= separate:
                continue
            terminals = [ctx.folds.get(node.index) for node in cons]
            terminal_uids = [
                (t.output if t is not None else node.output)
                for t, node in zip(terminals, cons)
            ]
            if graph.output_uid in terminal_uids:
                # Slicing straight into the program output complicates
                # nothing downstream but the denorm bookkeeping; skip.
                continue
            _apply_concat_fusion(graph, fork_uid, cons, terminals,
                                 terminal_uids, profiles)
            rewrites += 1
            changed = True
            break  # caches and layouts are stale; restart the scan
    return rewrites


def _apply_concat_fusion(graph, fork_uid, siblings, terminals, terminal_uids,
                         profiles) -> None:
    fused_mod = FusedLinear(
        siblings=tuple(siblings),
        terminal_uids=tuple(terminal_uids),
        part_layouts=tuple(p.out_layout for p in profiles),
    )
    total_len = sum(p.out_layout.logical_length for p in profiles)
    base_index = graph.fresh_index()
    fused_node = TraceNode(
        index=base_index,
        module=fused_mod,
        inputs=(fork_uid,),
        output=graph.fresh_uid(),
        input_shapes=(siblings[0].input_shapes[0],),
        output_shape=(total_len,),
    )
    slices = [
        TraceNode(
            index=base_index + 1 + part,
            module=Slice(part),
            inputs=(fused_node.output,),
            output=terminal_uids[part],
            input_shapes=((total_len,),),
            output_shape=sib.output_shape,
        )
        for part, sib in enumerate(siblings)
    ]
    position = graph.position_of(siblings[0])
    dead = list(siblings) + [t for t in terminals if t is not None]
    graph.remove_nodes(dead)
    graph.insert_nodes(position, [fused_node] + slices)
