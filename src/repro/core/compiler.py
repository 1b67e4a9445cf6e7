"""The Orion compiler: traced network -> executable FHE program.

Pipeline (paper Sections 4-6):

1. **Trace** the network into a layer DAG from shape rules alone (no
   forward runs) and parse its SESE region tree (residual blocks;
   repro.trace).
2. **Plan batch-norm folds** into their producing convolutions (no
   level); the folded weights are computed per layer, and only when
   materializing.
3. **Range-estimate** normalization constants from calibration data and
   fuse the scale-downs into weights and activation fits.
4. **Pack** every linear layer with single-shot multiplexing + BSGS
   (materialized plaintext diagonals, or in ``analyze`` mode for
   paper-scale networks the layer's diagonal key set from its geometry
   alone).  Either way the layer's ``PackingStats`` — counted from the
   key set by ``packing.analysis._count_stats`` — prices it for
   placement and fills its report.
5. **Approximate** activations: composite minimax sign for ReLU,
   Chebyshev fits for SiLU/custom, direct squaring for x^2.
6. **Place bootstraps** with the level-digraph planner and stamp every
   instruction with its execution level.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.costs import CostModel
from repro.ckks.params import CkksParameters
from repro.core.approx.chebyshev import chebyshev_fit
from repro.core.approx.evaluator import poly_eval_ops
from repro.core.approx.sign import CompositeSign
from repro.core.graphopt import OptContext, optimize_graph
from repro.core.graphopt.passes import sibling_profile
from repro.core.packing.analysis import (
    ConvAnalysisTable,
    linear_structure,
    merged_packing_stats,
)
from repro.core.packing.layouts import MultiplexedLayout, VectorLayout
from repro.core.packing.matvec import (
    build_conv_packing,
    build_linear_packing,
    merge_packed_matvecs,
)
from repro.core.placement.items import (
    JoinSpec,
    LayerSpec,
    PlacementChain,
    PlacementRegion,
)
from repro.core.placement.planner import PlacementResult, solve_placement
from repro.core.program import (
    AddJoinInstr,
    FheProgram,
    Instruction,
    LinearInstr,
    MultJoinInstr,
    PolyInstr,
    SliceInstr,
    SquareInstr,
)
from repro.core.ranges import RangeEstimate, estimate_ranges
from repro.trace.graph import LayerGraph, TraceNode, trace_structure
from repro.trace.sese import Chain, RegionItem, build_region_tree


@dataclass
class LayerReport:
    """Per-layer compile results (drives the benchmark tables)."""

    name: str
    kind: str
    rotations: int
    pmults: int
    depth: int
    num_cts: int


@dataclass
class CompiledNetwork:
    """Everything the benchmarks and executor need."""

    program: Optional[FheProgram]
    placement: PlacementResult
    chain: PlacementChain
    layer_reports: List[LayerReport]
    multiplicative_depth: int
    compile_seconds: float = 0.0
    graph_opt_seconds: float = 0.0
    graph_opt_report: object = None

    @property
    def total_rotations(self) -> int:
        return sum(r.rotations for r in self.layer_reports)

    @property
    def total_pmults(self) -> int:
        return sum(r.pmults for r in self.layer_reports)

    @property
    def num_bootstraps(self) -> int:
        return self.placement.num_bootstraps

    @property
    def modeled_seconds(self) -> float:
        return self.placement.modeled_seconds

    def run(self, backend, image: np.ndarray) -> np.ndarray:
        if self.program is None:
            raise RuntimeError("network compiled in analyze mode; cannot execute")
        return self.program.run(backend, image)

    def export(self, path: str, params: CkksParameters) -> "object":
        """Serialize this compilation to a serving artifact on disk.

        The artifact (``repro.serve.artifact``) carries the program,
        weight-plaintext tables, layer reports, and the key manifest —
        everything a serving worker needs to load and serve without ever
        invoking the compiler or the placement planner again.  Returns
        the written :class:`repro.serve.artifact.ServingArtifact`.
        """
        from repro.serve.artifact import save_artifact

        return save_artifact(self, params, path)

    def artifact_summary(self) -> Dict[str, float]:
        """The summary fields that are a function of the compile alone:
        what a serving artifact records.  No wall-clock timings, so two
        exports of one compile are byte-identical."""
        return {
            "rotations": self.total_rotations,
            "pmults": self.total_pmults,
            "bootstraps": self.num_bootstraps,
            "depth": self.multiplicative_depth,
            "modeled_seconds": self.modeled_seconds,
        }

    def summary(self) -> Dict[str, float]:
        return {
            **self.artifact_summary(),
            "placement_seconds": self.placement.solve_seconds,
            "compile_seconds": self.compile_seconds,
            "graph_opt_seconds": self.graph_opt_seconds,
        }


class OrionCompiler:
    """Compiles one orion network for one parameter set."""

    # Class-wide count of compile() calls.  The serving runtime's
    # load-and-serve contract is "zero compiler invocations on the
    # serve path"; tests and the serving benchmark assert this counter
    # does not move while requests are served from an artifact.
    invocations: int = 0

    def __init__(
        self,
        params: CkksParameters,
        cost_model: Optional[CostModel] = None,
        mode: str = "materialize",
        optimize: Optional[bool] = None,
    ):
        if mode not in ("materialize", "analyze"):
            raise ValueError("mode must be 'materialize' or 'analyze'")
        self.params = params
        self.costs = cost_model or CostModel(params)
        self.mode = mode
        if optimize is None:
            flag = os.environ.get("REPRO_GRAPH_OPT", "on").strip().lower()
            optimize = flag not in ("off", "0", "false", "no")
        self.optimize = optimize

    # ------------------------------------------------------------------
    def compile(
        self,
        net,
        input_shape: Tuple[int, int, int],
        calibration_batches: Optional[List[np.ndarray]] = None,
        entry_level: Optional[int] = None,
    ) -> CompiledNetwork:
        from repro.obs.tracing import get_tracer

        obs = get_tracer()
        if not obs.enabled:
            return self._compile(
                net, input_shape, calibration_batches, entry_level
            )
        with obs.span(
            "compile",
            category="compile",
            mode=self.mode,
            optimize=self.optimize,
            ring_degree=self.params.ring_degree,
        ) as span:
            compiled = self._compile(
                net, input_shape, calibration_batches, entry_level
            )
            span.set(
                rotations=compiled.total_rotations,
                bootstraps=compiled.num_bootstraps,
                depth=compiled.multiplicative_depth,
            )
            return compiled

    def _compile(
        self,
        net,
        input_shape: Tuple[int, int, int],
        calibration_batches: Optional[List[np.ndarray]] = None,
        entry_level: Optional[int] = None,
    ) -> CompiledNetwork:
        from repro.obs.tracing import get_tracer

        OrionCompiler.invocations += 1
        start = time.perf_counter()
        net.eval()
        graph = trace_structure(net, input_shape)
        folds = plan_batchnorm_folds(graph)
        ranges = self._ranges(net, graph, calibration_batches)
        # One conv analysis table per compile: the optimizer's gate, the
        # fused lowering and the emitter share an entry per geometry,
        # and nothing outlives this call.
        analysis = ConvAnalysisTable()

        # Graph-level optimizer: cost-gated rewrites over the traced DAG
        # (docs/graphopt.md).  Runs after range estimation — rewrites
        # preserve the original value ids their results flow into, so
        # the estimates stay valid — and before region parsing.
        graph_opt_seconds = 0.0
        graph_opt_report = None
        if self.optimize:
            opt_start = time.perf_counter()
            ctx = OptContext(
                params=self.params,
                costs=self.costs,
                input_shape=tuple(input_shape),
                folds=folds,
                analysis=analysis,
            )
            with get_tracer().span("graph_opt", category="compile"):
                graph_opt_report = optimize_graph(graph, ctx)
            graph_opt_seconds = time.perf_counter() - opt_start

        tree = build_region_tree(graph)
        build = _ProgramBuilder(self, graph, folds, ranges, input_shape, analysis)
        build.walk(tree)

        with get_tracer().span("placement", category="compile") as place_span:
            placement = solve_placement(
                build.chain,
                l_eff=self.params.effective_level,
                boot_cost=self.costs.bootstrap(),
                entry_level=entry_level,
            )
            place_span.set(
                entry_level=placement.entry_level,
                solve_seconds=placement.solve_seconds,
            )
        policy = placement.policy_map()
        level_by_uid: Dict[int, int] = {}
        for instr in build.instructions:
            decision = policy.get(instr.name)
            if decision is not None:
                instr.exec_level = decision.exec_level
                instr.boots_before = decision.bootstrap_before
            else:
                # Chain-less instructions (SliceInstr is free and holds
                # no placement item): inherit the producer's level.
                instr.exec_level = level_by_uid.get(
                    getattr(instr, "in_uid", -1), placement.entry_level
                )
                instr.boots_before = 0
            level_by_uid[instr.out_uid] = instr.exec_level
            if isinstance(instr, LinearInstr) and instr.packed is not None:
                # The fold partition, fixed once at the level the plan priced.
                instr.packed.fold_groups = self.costs.fold_partition(
                    instr.exec_level, len(instr.packed.fold_shifts)
                )

        program = None
        if self.mode == "materialize":
            program = FheProgram(
                instructions=build.instructions,
                input_uid=graph.input_uid,
                output_uid=build.final_uid,
                input_layout=build.layouts[graph.input_uid],
                output_layout=build.layouts[build.final_uid],
                input_norm=ranges.norm(graph.input_uid),
                output_denorm=ranges.norm(build.final_uid)
                * build.pending.get(build.final_uid, 1.0),
                entry_level=placement.entry_level,
            )
        return CompiledNetwork(
            program=program,
            placement=placement,
            chain=build.chain,
            layer_reports=build.reports,
            multiplicative_depth=build.chain.total_depth(),
            compile_seconds=time.perf_counter() - start,
            graph_opt_seconds=graph_opt_seconds,
            graph_opt_report=graph_opt_report,
        )

    # ------------------------------------------------------------------
    def _ranges(self, net, graph, calibration_batches) -> RangeEstimate:
        if calibration_batches is None:
            return RangeEstimate({}, margin=1.0)
        return estimate_ranges(net, graph, calibration_batches)


def plan_batchnorm_folds(graph: LayerGraph) -> Dict[int, TraceNode]:
    """Which batch norms fold away: linear node index -> the BN node it
    absorbs (the BN is the linear output's only consumer).

    A plan, not weights: the folded ``(weight, bias)`` is computed per
    layer by the program builder, and only in materialize mode.  Folding
    preserves ``module.weight.shape``, all analyze mode reads.
    """
    folds: Dict[int, TraceNode] = {}
    consumers = graph.consumers()
    producers = graph.producers()
    for node in graph.nodes:
        if getattr(node.module, "orion_kind", None) != "batchnorm":
            continue
        producer = producers.get(node.inputs[0])
        if (
            producer is not None
            and len(consumers.get(node.inputs[0], [])) == 1
            and getattr(producer.module, "orion_kind", None) == "linear"
            and getattr(producer.module, "weight", None) is not None
            and len(producer.module.weight.shape) in (2, 4)  # dense or conv
        ):
            folds[producer.index] = node
    return folds


class _ProgramBuilder:
    """Walks the region tree emitting instructions + placement items."""

    def __init__(self, compiler: OrionCompiler, graph, folds, ranges,
                 input_shape, analysis: ConvAnalysisTable):
        self.compiler = compiler
        self.graph = graph
        self.folds = folds
        self.folded_bns = {bn.index for bn in folds.values()}
        self.ranges = ranges
        self.analysis = analysis
        self.instructions: List[Instruction] = []
        self.reports: List[LayerReport] = []
        self.chain = PlacementChain()
        self.layouts: Dict[int, object] = {}
        self.alias: Dict[int, int] = {}
        self.pending: Dict[int, float] = {}
        self.final_uid = graph.input_uid
        channels, height, width = input_shape
        self.layouts[graph.input_uid] = MultiplexedLayout(
            channels, height, width, gap=1, slots=compiler.params.slot_count
        )

    # -- helpers -----------------------------------------------------------
    def _resolve(self, uid: int) -> int:
        while uid in self.alias:
            uid = self.alias[uid]
        return uid

    def _num_cts(self, uid: int) -> int:
        return self.layouts[self._resolve(uid)].num_ciphertexts

    def _poly_cost_fn(self, degree: int, num_cts: int):
        ops = _POLY_OPS_CACHE.get(degree)
        if ops is None:
            ops = _POLY_OPS_CACHE[degree] = poly_eval_ops(degree)
        costs = self.compiler.costs

        def cost(level: int) -> float:
            return num_cts * (
                ops.get("hmult", 0) * costs.hmult(level)
                + ops.get("pmult", 0) * costs.pmult(level)
                + ops.get("rescale", 0) * costs.rescale(level)
                + (ops.get("hadd", 0) + ops.get("padd", 0)) * costs.hadd(level)
            )

        return cost

    # -- tree walk -----------------------------------------------------------
    def walk(self, tree: Chain, target: Optional[PlacementChain] = None) -> int:
        """Emit a chain; returns the uid carrying the chain's output."""
        chain = self.chain if target is None else target
        last_uid = None
        for item in tree.items:
            if isinstance(item, RegionItem):
                last_uid = self._emit_region(item, chain)
            else:
                last_uid = self._emit_node(item.node, chain)
        if target is None and last_uid is not None:
            self.final_uid = self._resolve(last_uid)
        return last_uid

    def _emit_region(self, region: RegionItem, chain: PlacementChain) -> int:
        branch_a = PlacementChain()
        branch_b = PlacementChain()
        self.walk(region.branch_a, branch_a)
        self.walk(region.branch_b, branch_b)
        join = region.join
        a_uid = self._resolve(join.inputs[0])
        b_uid = self._resolve(join.inputs[1])
        if self.pending.get(a_uid, 1.0) != self.pending.get(b_uid, 1.0):
            raise ValueError("mismatched pending scale factors at a join")
        self.layouts[join.output] = self.layouts[a_uid]
        self.pending[join.output] = self.pending.get(a_uid, 1.0)
        num_cts = self._num_cts(a_uid) + self._num_cts(b_uid)
        costs = self.compiler.costs
        spec = JoinSpec(
            join.name, depth=0, cost_fn=lambda l: costs.hadd(l), boot_units=num_cts
        )
        chain.items.append(PlacementRegion(branch_a, branch_b, spec))
        self.instructions.append(
            AddJoinInstr(
                name=join.name,
                out_uid=join.output,
                exec_level=0,
                boots_before=0,
                a_uid=a_uid,
                b_uid=b_uid,
            )
        )
        return join.output

    def _emit_node(self, node, chain: PlacementChain) -> int:
        kind = getattr(node.module, "orion_kind", None)
        if kind == "linear":
            return self._emit_linear(node, chain)
        if kind == "batchnorm":
            return self._emit_batchnorm(node, chain)
        if kind == "reshape":
            in_uid = self._resolve(node.inputs[0])
            self.alias[node.output] = in_uid
            return node.output
        if kind == "relu":
            return self._emit_relu(node, chain)
        if kind == "poly":
            return self._emit_poly(node, chain)
        if kind == "fused_linear":
            return self._emit_fused_linear(node, chain)
        if kind == "slice":
            return self._emit_slice(node)
        raise ValueError(f"unsupported node kind {kind!r} for {node.name}")

    # -- linear layers -----------------------------------------------------
    def _pop_factor(self, in_uid: int, out_uid: int) -> float:
        """The fused scale-down of paper Section 6: the packed layer
        computes out/M_out from in/M_in, so its weights scale by
        M_in/M_out, times any pending factor a preceding Square left on
        the input (popped: only the first consumer applies it)."""
        m_in = self.ranges.norm(in_uid)
        m_out = self.ranges.norm(out_uid)
        return (m_in / m_out) * self.pending.pop(in_uid, 1.0)

    def _effective_linear_params(self, node, factor: float, out_uid: int):
        """A linear node's packed ``(weight, bias)``: its planned BN fold
        applied, the weight times ``factor``, the bias over M_out.

        Materialize mode only, one layer at a time: analyze mode never
        reads a weight value.
        """
        module = node.module
        weight = module.weight.data
        bias = module.bias.data if module.bias is not None else None
        bn = self.folds.get(node.index)
        if bn is not None:
            scale, shift = bn.module.folded_affine()
            weight = weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1))
            if bias is None:
                bias = np.zeros(weight.shape[0])
            bias = bias * scale + shift
        weight = weight * factor
        if bias is not None:
            bias = np.asarray(bias) / self.ranges.norm(out_uid)
        return weight, bias

    def _emit_linear(self, node, chain: PlacementChain) -> int:
        module = node.module
        # A folded-away BN redirects the conv's output uid to the BN's.
        bn = self.folds.get(node.index)
        out_uid = node.output if bn is None else bn.output
        name = node.name
        in_uid = self._resolve(node.inputs[0])
        in_layout = self.layouts[in_uid]
        factor = self._pop_factor(in_uid, out_uid)
        type_name = type(module).__name__

        if type_name in ("AvgPool2d", "AdaptiveAvgPool2d"):
            if type_name == "AvgPool2d":
                k, stride = module.kernel_size, module.stride
            else:
                k = stride = in_layout.global_pool_kernel(name)
            c = in_layout.channels
            shape = (c, 1, k, k)
            packed, stats = self._pack_conv(
                shape, lambda: (np.full(shape, factor / (k * k)), None),
                in_layout, (stride, stride), (0, 0), (1, 1), c, name,
            )
        elif getattr(module, "kernel_size", None) is not None:  # convolution
            packed, stats = self._pack_conv(
                module.weight.shape,
                lambda: self._effective_linear_params(node, factor, out_uid),
                in_layout, module.stride, module.padding, module.dilation,
                module.groups, name,
            )
        else:  # fully connected
            packed, stats = self._pack_fc(
                module.weight.shape,
                lambda: self._effective_linear_params(node, factor, out_uid),
                in_layout, name,
            )

        self.layouts[out_uid] = stats.out_layout
        if out_uid != node.output:
            self.alias[node.output] = out_uid
        self._append_packed(chain, name, "linear", in_uid, out_uid, packed, stats)
        return out_uid

    def _append_packed(self, chain, name, kind, in_uid, out_uid, packed, stats):
        """One packed layer: its placement item (priced by ``stats``), its
        instruction (``packed`` is None in analyze mode) and its report."""
        costs = self.compiler.costs
        chain.items.append(
            LayerSpec(
                name,
                depth=1,
                cost_fn=lambda l: stats.cost(l, costs),
                boot_units=stats.num_in_cts,
                cost_obj=stats,
            )
        )
        self.instructions.append(
            LinearInstr(
                name=name, out_uid=out_uid, exec_level=0, boots_before=0,
                in_uid=in_uid, packed=packed,
            )
        )
        self.reports.append(
            LayerReport(
                name=name,
                kind=kind,
                rotations=stats.rotations,
                pmults=stats.pmults,
                depth=1,
                num_cts=stats.out_layout.num_ciphertexts,
            )
        )

    # Each returns ``(packed or None, PackingStats)``.  ``params()``
    # yields a layer's ``(weight, bias)`` and is called in materialize
    # mode only; analyze mode counts the layer from ``weight_shape`` and
    # the input layout.
    def _pack_conv(self, weight_shape, params, in_layout, stride, padding,
                   dilation, groups, name):
        if self.compiler.mode == "materialize":
            weight, bias = params()
            packed = build_conv_packing(
                weight, bias, in_layout, stride=stride, padding=padding,
                dilation=dilation, groups=groups, name=name,
            )
            return packed, packed.stats
        return None, self.analysis.lookup(
            weight_shape, in_layout, stride=stride, padding=padding,
            dilation=dilation, groups=groups,
        ).stats

    def _pack_fc(self, weight_shape, params, in_layout, name, diagonal=False):
        if self.compiler.mode == "materialize":
            weight, bias = params()
            packed = build_linear_packing(weight, bias, in_layout, name=name)
            return packed, packed.stats
        return None, linear_structure(weight_shape[0], in_layout, diagonal).stats

    # -- graph-optimizer rewrite artifacts ---------------------------------
    def _emit_fused_linear(self, node, chain: PlacementChain) -> int:
        """Lower a FusedLinear rewrite: pack every sibling against the
        shared input, merge into one stacked matvec.

        Bit-exactness bookkeeping: the pending scale factor (if any) is
        popped once and applied to the *first* sibling only — exactly
        what the un-optimized lowering does, where the first consumer
        pops it and later siblings see 1.0.
        """
        fmod = node.module
        in_uid = self._resolve(node.inputs[0])
        in_layout = self.layouts[in_uid]
        m_in = self.ranges.norm(in_uid)
        pending = self.pending.pop(in_uid, 1.0)

        if self.compiler.mode == "analyze":  # geometry only
            profiles = [
                sibling_profile(sib.module, in_layout, self.analysis)
                for sib in fmod.siblings
            ]
            merged, stats = None, merged_packing_stats(profiles)
        else:
            packeds = []
            for part, (sib, term_uid) in enumerate(
                zip(fmod.siblings, fmod.terminal_uids)
            ):
                module = sib.module
                factor = (m_in / self.ranges.norm(term_uid)) * (
                    pending if part == 0 else 1.0
                )
                params = functools.partial(
                    self._effective_linear_params, sib, factor, term_uid
                )
                sub_name = f"{node.name}/{sib.name}"
                if getattr(module, "kernel_size", None) is not None:
                    packed, _ = self._pack_conv(
                        module.weight.shape, params, in_layout, module.stride,
                        module.padding, module.dilation, module.groups, sub_name,
                    )
                else:
                    packed, _ = self._pack_fc(
                        module.weight.shape, params, in_layout, sub_name
                    )
                packeds.append(packed)
            merged = merge_packed_matvecs(packeds, name=node.name)
            stats = merged.stats
        self.layouts[node.output] = stats.out_layout
        self._append_packed(
            chain, node.name, "linear", in_uid, node.output, merged, stats
        )
        return node.output

    def _emit_slice(self, node) -> int:
        """A free ciphertext-list slice out of a stacked fused output.

        No placement item and no layer report: slicing moves list
        references, performing zero homomorphic operations.
        """
        in_uid = self._resolve(node.inputs[0])
        stacked = self.layouts[in_uid]
        part = node.module.part
        start, stop = stacked.ct_ranges()[part]
        self.layouts[node.output] = stacked.parts[part]
        self.instructions.append(
            SliceInstr(
                name=node.name, out_uid=node.output, exec_level=0,
                boots_before=0, in_uid=in_uid, start=start, stop=stop,
            )
        )
        return node.output

    # -- activations -------------------------------------------------------
    def _emit_relu(self, node, chain: PlacementChain) -> int:
        module = node.module
        in_uid = self._resolve(node.inputs[0])
        out_uid = node.output
        m_in = self.ranges.norm(in_uid)
        m_out = self.ranges.norm(out_uid)
        ratio = m_in / m_out
        composite = CompositeSign.build(tuple(module.degrees))
        stages = list(composite.relu_stages())
        stages[-1] = stages[-1].scaled(ratio)

        num_cts = self._num_cts(in_uid)
        branch = PlacementChain()
        prev_uid = in_uid
        for stage_index, stage in enumerate(stages):
            stage_name = f"{node.name}_sign{stage_index}"
            stage_uid = self.graph.fresh_uid()
            self.layouts[stage_uid] = self.layouts[in_uid]
            branch.items.append(
                LayerSpec(
                    stage_name,
                    depth=stage.depth,
                    cost_fn=self._poly_cost_fn(stage.degree, num_cts),
                    boot_units=num_cts,
                )
            )
            self.instructions.append(
                PolyInstr(
                    name=stage_name, out_uid=stage_uid, exec_level=0,
                    boots_before=0, in_uid=prev_uid, poly=stage,
                    target_kind="none",
                )
            )
            prev_uid = stage_uid

        join_name = f"{node.name}_mult"
        costs = self.compiler.costs
        join = JoinSpec(
            join_name,
            depth=2,  # scale-pin the sign branch (1) + the multiply (1)
            cost_fn=lambda l: num_cts
            * (costs.hmult(l) + costs.pmult(l) + 2 * costs.rescale(l)),
            boot_units=2 * num_cts,
        )
        chain.items.append(PlacementRegion(branch, PlacementChain(), join))
        self.instructions.append(
            MultJoinInstr(
                name=join_name, out_uid=out_uid, exec_level=0, boots_before=0,
                x_uid=in_uid, sign_uid=prev_uid,
            )
        )
        self.layouts[out_uid] = self.layouts[in_uid]
        total_depth = sum(s.depth for s in stages) + 2
        self.reports.append(
            LayerReport(node.name, "relu", 0, 0, total_depth, num_cts)
        )
        return out_uid

    def _emit_poly(self, node, chain: PlacementChain) -> int:
        module = node.module
        in_uid = self._resolve(node.inputs[0])
        out_uid = node.output
        self.layouts[out_uid] = self.layouts[in_uid]
        num_cts = self._num_cts(in_uid)
        m_in = self.ranges.norm(in_uid)
        m_out = self.ranges.norm(out_uid)
        costs = self.compiler.costs

        if type(module).__name__ == "Square":
            self.pending[out_uid] = (m_in * m_in / m_out) * self.pending.pop(
                in_uid, 1.0
            )
            chain.items.append(
                LayerSpec(
                    node.name,
                    depth=1,
                    cost_fn=lambda l: num_cts * (costs.hmult(l) + costs.rescale(l)),
                    boot_units=num_cts,
                )
            )
            self.instructions.append(
                SquareInstr(
                    name=node.name, out_uid=out_uid, exec_level=0,
                    boots_before=0, in_uid=in_uid,
                )
            )
            self.reports.append(LayerReport(node.name, "square", 0, 0, 1, num_cts))
            return out_uid

        degree = module.degree
        exact = module.exact_fn
        poly = chebyshev_fit(lambda u: exact(m_in * u) / m_out, degree)
        # +1 level: the output is pinned back to scale Delta so the
        # between-layer invariant holds (normalize_scale in PolyInstr).
        poly_depth = poly.depth + 1
        chain.items.append(
            LayerSpec(
                node.name,
                depth=poly_depth,
                cost_fn=self._poly_cost_fn(degree, num_cts),
                boot_units=num_cts,
            )
        )
        self.instructions.append(
            PolyInstr(
                name=node.name, out_uid=out_uid, exec_level=0, boots_before=0,
                in_uid=in_uid, poly=poly,
            )
        )
        self.reports.append(LayerReport(node.name, "poly", 0, 0, poly_depth, num_cts))
        return out_uid

    def _emit_batchnorm(self, node, chain: PlacementChain) -> int:
        if node.index in self.folded_bns:
            # Folded into the producing conv; uid already redirected.
            return node.output
        # Standalone BN: a diagonal linear map (one level) — a
        # depthwise 1x1 convolution on multiplexed inputs, a diagonal
        # dense matrix on vector inputs (BatchNorm1d after a Linear).
        in_uid = self._resolve(node.inputs[0])
        in_layout = self.layouts[in_uid]
        m_out = self.ranges.norm(node.output)
        factor = self._pop_factor(in_uid, node.output)
        vector = isinstance(in_layout, VectorLayout)
        c = node.module.num_features

        def params():
            scale, shift = node.module.folded_affine()
            if vector:
                return np.diag(scale * factor), shift / m_out
            return scale.reshape(c, 1, 1, 1) * factor, shift / m_out

        if vector:
            packed, stats = self._pack_fc(
                (c, c), params, in_layout, node.name, diagonal=True
            )
        else:
            packed, stats = self._pack_conv(
                (c, 1, 1, 1), params, in_layout, (1, 1), (0, 0), (1, 1), c,
                node.name,
            )
        self.layouts[node.output] = stats.out_layout
        self._append_packed(
            chain, node.name, "batchnorm", in_uid, node.output, packed, stats
        )
        return node.output


_POLY_OPS_CACHE: Dict[int, Dict[str, int]] = {}
