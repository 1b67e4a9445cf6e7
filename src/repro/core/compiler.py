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
   placement and fills its report.  With ``optimize`` on, the two
   linear layers that open a region fuse into one stacked matvec where
   that prices cheaper, and only if the fused program still beats the
   unfused one on what a lone client runs (docs/graphopt.md).
5. **Approximate** activations: composite minimax sign for ReLU,
   Chebyshev fits for SiLU/custom, direct squaring for x^2.
6. **Place bootstraps** with the level-digraph planner and stamp every
   instruction with its execution level.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.costs import CostModel
from repro.ckks.params import CkksParameters
from repro.core.approx.chebyshev import chebyshev_fit
from repro.core.approx.evaluator import poly_eval_ops
from repro.core.approx.sign import CompositeSign
from repro.core.packing.analysis import (
    ConvAnalysisTable,
    OffsetProfile,
    linear_structure,
    merged_packing_stats,
    slot_batch_capacity,
)
from repro.core.packing.layouts import MultiplexedLayout, VectorLayout
from repro.core.packing.matvec import (
    build_conv_packing,
    build_linear_packing,
    cut_fold_groups,
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
from repro.trace.sese import Chain, LayerItem, RegionItem, build_region_tree


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
    graph_opt_report: Optional["GraphOptReport"] = None

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
        }


@dataclass
class GraphOptReport:
    """What ``optimize=True`` fused: rewrite counts by name (None on a
    compile with ``optimize=False``)."""

    rewrites: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.rewrites.values())

    def summary(self) -> Dict[str, int]:
        return dict(self.rewrites, total=self.total)


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
        *,
        mode: str = "materialize",
        optimize: bool = True,
    ):
        if mode not in ("materialize", "analyze"):
            raise ValueError("mode must be 'materialize' or 'analyze'")
        self.params = params
        self.costs = CostModel(params)
        self.mode = mode
        self.optimize = optimize

    # ------------------------------------------------------------------
    def compile(
        self,
        net,
        input_shape: Tuple[int, int, int],
        calibration_batches: Optional[List[np.ndarray]] = None,
    ) -> CompiledNetwork:
        from repro.obs.tracing import get_tracer

        with get_tracer().span(
            "compile",
            category="compile",
            mode=self.mode,
            optimize=self.optimize,
            ring_degree=self.params.ring_degree,
        ) as span:
            compiled = self._compile(net, input_shape, calibration_batches)
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
    ) -> CompiledNetwork:
        from repro.obs.tracing import get_tracer

        OrionCompiler.invocations += 1
        start = time.perf_counter()
        net.eval()
        graph = trace_structure(net, input_shape)
        folds = plan_batchnorm_folds(graph)
        ranges = self._ranges(net, graph, calibration_batches)
        build = self._lower(graph, folds, ranges, input_shape)
        block = self.params.slot_count // build.price_capacity_view()

        with get_tracer().span("placement", category="compile") as place_span:
            placement = solve_placement(
                build.chain,
                l_eff=self.params.effective_level,
                boot_cost=self.costs.bootstrap(),
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
                # The fold partition and the fused walk's split, fixed
                # once at the level the plan priced; the partition cut
                # at the slot-batch block.
                packed = instr.packed
                shifts = packed.fold_shifts
                packed.fold_groups = cut_fold_groups(
                    shifts, self.costs.fold_partition(instr.exec_level, len(shifts)),
                    block,
                )
                packed.split = packed.stats.split(instr.exec_level, self.costs)

        report = None
        if self.optimize:
            fused = {"concat_linear_fusion": build.fusions} if build.fusions else {}
            report = GraphOptReport(fused)
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
                * build.pending_factor(build.final_uid),
                entry_level=placement.entry_level,
            ).capacity_view()
        return CompiledNetwork(
            program=program,
            placement=placement,
            chain=build.chain,
            layer_reports=build.reports,
            multiplicative_depth=build.chain.total_depth(),
            compile_seconds=time.perf_counter() - start,
            graph_opt_report=report,
        )

    def _lower(self, graph, folds, ranges, input_shape) -> "_ProgramBuilder":
        """The lowered network, with its sibling fusions only when they
        pay on what runs.

        Each fusion the gate takes is cheaper on block-level counts, but
        a fused register stacks two ciphertexts, so any fusion drops the
        program's slot-batch capacity to 1 and gives up the capacity
        view's fold savings on every layer.  The choice is whole-program:
        a geometry-only lowering with the gate's fusions is priced
        against the same program unfused (:meth:`_ProgramBuilder.fusion_pays`),
        and the network lowers unfused when that is cheaper.
        """
        tree = build_region_tree(graph)
        analysis = ConvAnalysisTable()
        first_uid = graph.fresh_uid()  # each lowering numbers from here

        def lowered(mode: str, fuse: bool) -> _ProgramBuilder:
            build = _ProgramBuilder(
                self, graph, folds, ranges, input_shape, mode, fuse, analysis,
                first_uid,
            )
            build.lower(tree)
            return build

        if not self.optimize or not any(
            isinstance(item, RegionItem) for item in tree.items
        ):
            return lowered(self.mode, False)
        geometry = lowered("analyze", True)
        fuse = geometry.fusion_pays()
        if self.mode == "analyze" and (fuse or not geometry.fusions):
            return geometry
        return lowered(self.mode, fuse)

    # ------------------------------------------------------------------
    def _ranges(self, net, graph, calibration_batches) -> RangeEstimate:
        if calibration_batches is None:
            return RangeEstimate({})
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

    def __init__(self, compiler: OrionCompiler, graph, folds, ranges, input_shape,
                 mode: str, fuse: bool, analysis: ConvAnalysisTable,
                 first_uid: int):
        self.compiler = compiler
        self.graph = graph
        self.folds = folds
        self.folded_bns = {bn.index for bn in folds.values()}
        self.ranges = ranges
        #: "materialize" packs weights; "analyze" counts geometry only.
        self.mode = mode
        #: whether the sibling-fusion gate runs at all
        self.fuse = fuse
        # The compile's conv structures, one per geometry: the fusion
        # gate and the analyze-mode emitter share an entry.
        self.analysis = analysis
        #: Sibling fusions lowered so far (their ordinal names them).
        self.fusions = 0
        #: the registers this lowering adds, after the traced ones
        self._uids = itertools.count(first_uid)
        #: each fusion's merged stats and its siblings' own stats
        self.fused_stats: List[Tuple[object, List[object]]] = []
        #: ReLU sign stages emitted so far; stage j holds the provisional
        #: register -(j + 1) until :meth:`lower` numbers it.
        self._sign_stages = 0
        self.instructions: List[Instruction] = []
        self.reports: List[LayerReport] = []
        #: each packed layer's placement item, report and block-level stats
        self.packed_items: List[Tuple[LayerSpec, LayerReport, object]] = []
        self.chain = PlacementChain()
        self.layouts: Dict[int, object] = {}
        self.alias: Dict[int, int] = {}
        #: uid -> (range factor, Square name): a Square's output still
        #: owes m_in^2 / m_out, which every (linear) consumer applies.
        self.pending: Dict[int, Tuple[float, str]] = {}
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

    def pending_factor(self, uid: int) -> float:
        """The range factor a Square left on ``uid`` (1.0: none)."""
        return self.pending[uid][0] if uid in self.pending else 1.0

    def _refuse_pending(self, uid: int, consumer: str) -> None:
        """Only a linear layer can absorb a Square's pending range factor
        (it folds it into its weights): refuse any other consumer."""
        if uid in self.pending:
            factor, square = self.pending[uid]
            raise ValueError(
                f"{consumer} reads the output of Square {square}, whose range "
                f"factor {factor:.6g} only a linear layer can apply; put a "
                f"linear layer between {square} and {consumer}"
            )

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
    def lower(self, tree: Chain) -> None:
        """Emit the whole network into ``self.chain``.

        Register ids: traced values keep their uids; fused outputs take
        fresh ones in walk order; the ReLU sign stages take the ids after
        all of those, in emission order.  That is the numbering
        artifacts carry, so a ReLU lowered before a fusion does not shift
        the fused output's register.
        """
        self.final_uid = self._resolve(self.walk(tree.items, self.chain))
        base = next(self._uids)
        for instr in self.instructions:
            for attr in ("in_uid", "out_uid", "sign_uid"):
                uid = getattr(instr, attr, 0)
                if uid < 0:
                    setattr(instr, attr, base - 1 - uid)

    def walk(self, items, chain: PlacementChain) -> Optional[int]:
        """Emit ``items`` into ``chain``; returns the uid carrying their
        output (None for no items)."""
        last_uid = None
        for item in items:
            if isinstance(item, RegionItem):
                last_uid = self._emit_region(item, chain)
            else:
                last_uid = self._emit_node(item.node, chain)
        return last_uid

    def _emit_region(self, region: RegionItem, chain: PlacementChain) -> int:
        branches = (region.branch_a, region.branch_b)
        fusion = self._sibling_fusion(region)
        if fusion is not None:
            # The merged head goes before the region; each branch opens
            # with its free slice and lowers from its second item.  The
            # k-th fusion is fusedlinear_{N+3k} (N traced nodes), its
            # slices slice_{N+3k+1+part}.
            siblings, terminal_uids, merged_stats, sibling_stats = fusion
            index = len(self.graph.nodes) + 3 * self.fusions
            self.fusions += 1
            fused_uid = self._emit_fused_linear(
                f"fusedlinear_{index}", siblings, terminal_uids, merged_stats,
                chain,
            )
            self.fused_stats.append((self.packed_items[-1][2], sibling_stats))
        placed = []
        for part, branch in enumerate(branches):
            sub = PlacementChain()
            items = branch.items
            if fusion is not None:
                self._emit_slice(
                    f"slice_{index + 1 + part}", fused_uid, part,
                    terminal_uids[part],
                )
                items = items[1:]
            self.walk(items, sub)
            placed.append(sub)
        join = region.join
        a_uid = self._resolve(join.inputs[0])
        b_uid = self._resolve(join.inputs[1])
        self._refuse_pending(a_uid, join.name)
        self._refuse_pending(b_uid, join.name)
        self.layouts[join.output] = self.layouts[a_uid]
        num_cts = self._num_cts(a_uid) + self._num_cts(b_uid)
        costs = self.compiler.costs
        spec = JoinSpec(
            join.name, depth=0, cost_fn=lambda l: costs.hadd(l), boot_units=num_cts
        )
        chain.items.append(PlacementRegion(*placed, spec))
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
        raise ValueError(f"unsupported node kind {kind!r} for {node.name}")

    # -- linear layers -----------------------------------------------------
    def _range_factor(self, in_uid: int, out_uid: int) -> float:
        """The fused scale-down of paper Section 6: the packed layer
        computes out/M_out from in/M_in, so its weights scale by
        M_in/M_out, times any pending factor a preceding Square left on
        the input (every consumer applies it)."""
        m_in = self.ranges.norm(in_uid)
        m_out = self.ranges.norm(out_uid)
        return (m_in / m_out) * self.pending_factor(in_uid)

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

    def _terminal_uid(self, node) -> int:
        """A linear node's output uid: a folded-away BN redirects it to
        the BN's."""
        bn = self.folds.get(node.index)
        return node.output if bn is None else bn.output

    def _emit_linear(self, node, chain: PlacementChain) -> int:
        module = node.module
        out_uid = self._terminal_uid(node)
        name = node.name
        in_uid = self._resolve(node.inputs[0])
        in_layout = self.layouts[in_uid]
        factor = self._range_factor(in_uid, out_uid)
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
        """One packed layer: its placement item (priced by ``stats``, the
        block-level counts until :meth:`price_capacity_view`), its
        instruction (``packed`` is None in analyze mode) and its report."""
        costs = self.compiler.costs
        spec = LayerSpec(
            name,
            depth=1,
            cost_fn=lambda l: stats.cost(l, costs),
            boot_units=stats.num_in_cts,
            cost_obj=stats,
        )
        report = LayerReport(
            name=name,
            kind=kind,
            rotations=stats.rotations,
            pmults=stats.pmults,
            depth=1,
            num_cts=stats.out_layout.num_ciphertexts,
        )
        chain.items.append(spec)
        self.instructions.append(
            LinearInstr(
                name=name, out_uid=out_uid, exec_level=0, boots_before=0,
                in_uid=in_uid, packed=packed,
            )
        )
        self.reports.append(report)
        self.packed_items.append((spec, report, stats))

    def _capacity(self, stats) -> int:
        """The slot-batch capacity of a program whose packed layers count
        ``stats``, by the rule ``FheProgram.slot_batch_capacity`` applies
        to its layouts."""
        return slot_batch_capacity(
            [self.layouts[self.graph.input_uid]] + [s.out_layout for s in stats]
        )

    def fusion_pays(self) -> bool:
        """Whether this lowering's fusions make it cheaper to run than
        the same program with every fusion undone (each merged layer
        back to its two siblings): both priced at the effective level,
        each at its own capacity's view."""
        fused = [stats for _, _, stats in self.packed_items]
        merged = {id(stats) for stats, _ in self.fused_stats}
        unfused = [stats for stats in fused if id(stats) not in merged] + [
            sibling for _, siblings in self.fused_stats for sibling in siblings
        ]
        level = self.compiler.params.effective_level
        costs = self.compiler.costs

        def cost(stats) -> float:
            capacity = self._capacity(stats)
            return sum(s.capacity_view(capacity).cost(level, costs) for s in stats)

        return bool(self.fused_stats) and cost(fused) < cost(unfused)

    def price_capacity_view(self) -> int:
        """The program's slot-batch capacity C (:meth:`_capacity`); at
        C > 1 every packed layer's item and report now count what a lone
        client runs, the layer's ``PackingStats.capacity_view`` (its
        folds stop at the block).  Either compile mode, before
        placement."""
        capacity = self._capacity([stats for _, _, stats in self.packed_items])
        costs = self.compiler.costs
        for spec, report, stats in self.packed_items:
            view = stats.capacity_view(capacity)
            spec.cost_fn = lambda l, view=view: view.cost(l, costs)
            spec.cost_obj = view
            report.rotations = view.rotations
        return capacity

    # Each returns ``(packed or None, PackingStats)``.  ``params()``
    # yields a layer's ``(weight, bias)`` and is called in materialize
    # mode only; analyze mode counts the layer from ``weight_shape`` and
    # the input layout.
    def _pack_conv(self, weight_shape, params, in_layout, stride, padding,
                   dilation, groups, name):
        if self.mode == "materialize":
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
        if self.mode == "materialize":
            weight, bias = params()
            packed = build_linear_packing(weight, bias, in_layout, name=name)
            return packed, packed.stats
        return None, linear_structure(weight_shape[0], in_layout, diagonal).stats

    # -- sibling fusion (docs/graphopt.md) -----------------------------------
    def _sibling_profile(self, module, in_layout) -> Optional[OffsetProfile]:
        """Geometry-only offset profile of a fusable linear node (None for
        layers fusion does not handle, e.g. pools)."""
        if getattr(module, "weight", None) is None:
            return None
        if getattr(module, "kernel_size", None) is not None:
            if not isinstance(in_layout, MultiplexedLayout):
                return None
            return self.analysis.lookup(
                module.weight.shape, in_layout,
                stride=module.stride, padding=module.padding,
                dilation=module.dilation, groups=module.groups,
            ).profile
        if hasattr(module, "out_features"):
            return linear_structure(module.out_features, in_layout).profile
        return None

    def _sibling_fusion(self, region: RegionItem):
        """``(siblings, terminal uids, merged stats, siblings' stats)``
        when the region's two branches open with linear layers reading
        its fork value and concat-fusing them prices cheaper at the
        effective level; else None.  Block-level counts: what fusing
        costs the program's capacity is :meth:`fusion_pays`'s call.  The
        gate reads geometry only, never a weight, so analyze
        and materialize compiles decide alike."""
        if not self.fuse:
            return None
        heads = [branch.items[0] if branch.items else None
                 for branch in (region.branch_a, region.branch_b)]
        if not all(isinstance(head, LayerItem) for head in heads):
            return None
        siblings = [head.node for head in heads]
        if any(getattr(node.module, "orion_kind", None) != "linear"
               for node in siblings):
            return None
        in_layout = self.layouts[self._resolve(siblings[0].inputs[0])]
        profiles = [self._sibling_profile(node.module, in_layout)
                    for node in siblings]
        if any(p is None for p in profiles):
            return None
        if (profiles[0].num_in != profiles[1].num_in
                or profiles[0].fold_shifts != profiles[1].fold_shifts):
            return None
        costs = self.compiler.costs
        level = self.compiler.params.effective_level
        merged = merged_packing_stats(profiles)
        stats = [p.stats() for p in profiles]
        separate = sum(s.cost(level, costs) for s in stats)
        gain = costs.sibling_fusion_gain(
            level,
            num_in=profiles[0].num_in,
            total_offsets=sum(s._offsets for s in stats),
            merged_offsets=merged._offsets,
            num_siblings=len(profiles),
        )
        if gain <= 0 or merged.cost(level, costs) >= separate:
            return None
        terminal_uids = [self._terminal_uid(node) for node in siblings]
        if self.graph.output_uid in terminal_uids:
            # Slicing straight into the program output complicates
            # nothing downstream but the denorm bookkeeping; skip.
            return None
        return siblings, terminal_uids, merged, stats

    def _emit_fused_linear(self, name, siblings, terminal_uids, merged_stats,
                           chain: PlacementChain) -> int:
        """Pack every sibling against the shared input and merge them into
        one stacked matvec; returns the stacked output's uid.

        Every sibling applies the input's pending scale factor (if any),
        exactly as each consumer does in the un-fused lowering.
        """
        in_uid = self._resolve(siblings[0].inputs[0])
        in_layout = self.layouts[in_uid]
        m_in = self.ranges.norm(in_uid)
        pending = self.pending_factor(in_uid)

        if self.mode == "analyze":  # geometry only
            merged, stats = None, merged_stats
        else:
            packeds = []
            for sib, term_uid in zip(siblings, terminal_uids):
                module = sib.module
                factor = (m_in / self.ranges.norm(term_uid)) * pending
                params = functools.partial(
                    self._effective_linear_params, sib, factor, term_uid
                )
                sub_name = f"{name}/{sib.name}"
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
            merged = merge_packed_matvecs(packeds, name=name)
            stats = merged.stats
        out_uid = next(self._uids)
        self.layouts[out_uid] = stats.out_layout
        self._append_packed(chain, name, "linear", in_uid, out_uid, merged, stats)
        return out_uid

    def _emit_slice(self, name, in_uid: int, part: int, out_uid: int) -> None:
        """A free ciphertext-list slice out of a stacked fused output.

        No placement item and no layer report: slicing moves list
        references, performing zero homomorphic operations.
        """
        stacked = self.layouts[in_uid]
        start, stop = stacked.ct_ranges()[part]
        self.layouts[out_uid] = stacked.parts[part]
        self.instructions.append(
            SliceInstr(
                name=name, out_uid=out_uid, exec_level=0, boots_before=0,
                in_uid=in_uid, start=start, stop=stop,
            )
        )

    # -- activations -------------------------------------------------------
    def _emit_relu(self, node, chain: PlacementChain) -> int:
        module = node.module
        in_uid = self._resolve(node.inputs[0])
        self._refuse_pending(in_uid, node.name)
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
            self._sign_stages += 1
            stage_uid = -self._sign_stages
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
        self._refuse_pending(in_uid, node.name)
        out_uid = node.output
        self.layouts[out_uid] = self.layouts[in_uid]
        num_cts = self._num_cts(in_uid)
        m_in = self.ranges.norm(in_uid)
        m_out = self.ranges.norm(out_uid)
        costs = self.compiler.costs

        if type(module).__name__ == "Square":
            factor = m_in * m_in / m_out
            if factor != 1.0:
                self.pending[out_uid] = (factor, node.name)
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
        factor = self._range_factor(in_uid, node.output)
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
