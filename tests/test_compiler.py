"""Integration tests: orion networks through compile + FHE execution.

These are the repository's strongest guarantees: the compiled FHE
program must reproduce the cleartext network output on both backends,
with levels, scales, and bootstraps all enforced exactly.
"""

import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

import repro.orion.nn as on
from repro.backend import SimBackend, ToyBackend
from repro.ckks.params import paper_parameters, toy_parameters
from repro.core import compiler
from repro.models import LolaCnn, SecureMlp, resnet_cifar, resnet_imagenet, silu_act
from repro.models.resnet import BasicBlock
from repro.nn import init
from repro.orion import OrionNetwork
from repro.trace import trace_structure

from reference.batchnorm_fold import fold_batchnorms


@pytest.fixture(scope="module")
def params():
    return paper_parameters()


def make_net(builder, shape, seed=0, calib_scale=0.5):
    init.seed_init(seed)
    net = builder()
    rng = np.random.default_rng(seed)
    onet = OrionNetwork(net, shape)
    onet.fit([rng.normal(0, calib_scale, (8,) + shape)])
    return onet, rng


class TestMnistNetworks:
    def test_mlp_depth_matches_paper(self, params):
        onet, _ = make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        compiled = onet.compile(params)
        assert compiled.multiplicative_depth == 5  # paper Table 2
        assert compiled.num_bootstraps == 0

    def test_mlp_fhe_matches_cleartext(self, params):
        onet, rng = make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        compiled = onet.compile(params)
        img = rng.normal(0, 0.5, (1, 8, 8))
        clear = onet.forward_cleartext(img)
        fhe = compiled.run(SimBackend(params, seed=1), img)
        assert OrionNetwork.precision_bits(fhe, clear) > 8
        assert fhe.argmax() == clear.argmax()

    def test_lola_depth_five(self, params):
        onet, _ = make_net(lambda: LolaCnn(image_size=16, channels=3), (1, 16, 16))
        compiled = onet.compile(params)
        # Single-shot multiplexing: conv-act-conv-act-fc = 5 levels
        # (the Fhelipe baseline needs 10; paper Section 8.1).
        assert compiled.multiplicative_depth == 5

    def test_lola_on_exact_toy_backend(self):
        tparams = toy_parameters(ring_degree=1024, max_level=6, boot_levels=1)
        onet, rng = make_net(lambda: LolaCnn(image_size=8, channels=2), (1, 8, 8))
        compiled = onet.compile(tparams)
        img = rng.normal(0, 0.5, (1, 8, 8))
        clear = onet.forward_cleartext(img)
        fhe = compiled.run(ToyBackend(tparams, seed=2), img)
        # Real RNS-CKKS at toy precision: several bits of agreement.
        # (Untrained logits sit within noise of each other, so argmax is
        # not asserted here; the trained examples check it.)
        assert OrionNetwork.precision_bits(fhe, clear) > 3


class TestResNetCompilation:
    @pytest.fixture(scope="class")
    def compiled_resnet(self, params):
        onet, rng = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4),
            (3, 8, 8), seed=3,
        )
        return onet, rng, onet.compile(params)

    def test_bootstraps_placed(self, compiled_resnet):
        _, _, compiled = compiled_resnet
        assert compiled.num_bootstraps > 0

    def test_fhe_matches_cleartext(self, compiled_resnet):
        onet, rng, compiled = compiled_resnet
        img = rng.normal(0, 0.5, (3, 8, 8))
        clear = onet.forward_cleartext(img)
        backend = SimBackend(paper_parameters(), seed=5)
        fhe = compiled.run(backend, img)
        assert np.abs(fhe - clear).max() < 0.05
        assert backend.ledger.bootstraps == compiled.num_bootstraps

    def test_packed_cleartext_isolates_approximation(self, compiled_resnet):
        """Packed (noise-free) execution differs from the exact forward
        only by the polynomial activation approximation."""
        onet, rng, compiled = compiled_resnet
        img = rng.normal(0, 0.5, (3, 8, 8))
        packed = compiled.program.run_cleartext_packed(img)
        backend = SimBackend(paper_parameters(), seed=6, noise_free=True)
        fhe = compiled.run(backend, img)
        assert np.abs(packed - fhe).max() < 1e-6

    def test_scale_invariant_delta_between_layers(self, compiled_resnet):
        """Errorless scale management: linear-layer outputs sit at
        exactly Delta (paper Figure 7)."""
        onet, rng, compiled = compiled_resnet
        img = rng.normal(0, 0.5, (3, 8, 8))
        backend = SimBackend(paper_parameters(), seed=7)
        from repro.core.program import ExecutionState, LinearInstr

        state = ExecutionState(backend)
        vectors = compiled.program.input_layout.pack(img / compiled.program.input_norm)
        state.set(
            compiled.program.input_uid,
            [
                backend.encrypt(backend.encode(v, compiled.program.entry_level,
                                               backend.params.scale))
                for v in vectors
            ],
        )
        delta = Fraction(backend.params.scale)
        for instr in compiled.program.instructions:
            instr.execute(state)
            if isinstance(instr, LinearInstr):
                for ct in state.get(instr.out_uid):
                    assert backend.scale_of(ct) == delta

    def test_rotation_counts_match_ledger(self, compiled_resnet):
        onet, rng, compiled = compiled_resnet
        backend = SimBackend(paper_parameters(), seed=8)
        compiled.run(backend, rng.normal(0, 0.5, (3, 8, 8)))
        assert backend.ledger.rotations == compiled.total_rotations


class TestReluNetworks:
    def test_relu_composite_network(self, params):
        onet, rng = make_net(
            lambda: BasicBlock(2, 2, 1, act=lambda: on.ReLU(degrees=(15, 15))),
            (2, 8, 8), seed=9,
        )
        compiled = onet.compile(params)
        img = rng.normal(0, 0.5, (2, 8, 8))
        clear = onet.forward_cleartext(img)
        fhe = compiled.run(SimBackend(params, seed=10), img)
        # ReLU approximation error dominates; still close.
        assert np.abs(fhe - clear).max() < 0.1

    def test_strided_block_gap_tracking(self, params):
        onet, rng = make_net(
            lambda: BasicBlock(2, 4, 2, act=lambda: on.Square()),
            (2, 8, 8), seed=11, calib_scale=0.3,
        )
        compiled = onet.compile(params)
        img = rng.normal(0, 0.3, (2, 8, 8))
        clear = onet.forward_cleartext(img)
        packed = compiled.program.run_cleartext_packed(img)
        assert np.abs(packed - clear).max() < 1e-9


class TestAnalyzeMode:
    def test_analyze_matches_materialize_counts(self, params):
        onet, _ = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8), seed=3
        )
        materialized = onet.compile(params)
        analyzed = onet.compile(params, mode="analyze")
        assert analyzed.program is None
        # Every layer, the FC included, counts and prices identically.
        assert analyzed.layer_reports == materialized.layer_reports
        assert analyzed.num_bootstraps == materialized.num_bootstraps
        assert analyzed.modeled_seconds == materialized.modeled_seconds

    def test_standalone_batchnorm1d_is_priced_as_its_diagonal(self):
        """A BatchNorm1d no Linear absorbs is a diagonal matrix: one
        PMult, not a dense c x c table, in analyze mode as when packed."""

        class Net(on.Module):
            def __init__(self):
                super().__init__()
                self.flatten = on.Flatten()
                self.fc = on.Linear(16, 8)
                self.act = on.Square()
                self.bn = on.BatchNorm1d(8)

            def forward(self, x):
                return self.bn(self.act(self.fc(self.flatten(x))))

        tparams = toy_parameters(ring_degree=2048, max_level=6, boot_levels=1)
        onet, _ = make_net(Net, (1, 4, 4))
        materialized = onet.compile(tparams)
        analyzed = onet.compile(tparams, mode="analyze")
        assert analyzed.layer_reports == materialized.layer_reports
        assert analyzed.layer_reports[-1].kind == "batchnorm"
        assert analyzed.layer_reports[-1].pmults == 1
        assert analyzed.num_bootstraps == materialized.num_bootstraps
        assert analyzed.modeled_seconds == materialized.modeled_seconds

    def test_analyze_cannot_run(self, params):
        onet, _ = make_net(lambda: SecureMlp(64, 8), (1, 8, 8))
        compiled = onet.compile(params, mode="analyze")
        with pytest.raises(RuntimeError):
            compiled.run(SimBackend(params), np.zeros((1, 8, 8)))


class TestCompileDoesEachAnalysisOnce:
    """Work, not wall-clock: the per-compile conv table and the
    polynomial op-count cache are exercised by counting calls."""

    def test_one_key_table_per_conv_geometry_per_compile(self, params, monkeypatch):
        from repro.core.packing import analysis
        from repro.models import relu_act

        built = []
        real = analysis.conv_diagonal_keys

        def counting(weight_shape, in_layout, stride, padding, dilation, groups):
            built.append(
                (tuple(weight_shape), in_layout, tuple(stride), tuple(padding),
                 tuple(dilation), groups)
            )
            return real(weight_shape, in_layout, stride, padding, dilation, groups)

        monkeypatch.setattr(analysis, "conv_diagonal_keys", counting)
        init.seed_init(0)
        onet = OrionNetwork(resnet_cifar(20, act=relu_act()), (3, 32, 32))
        compiled = onet.compile(params, mode="analyze", optimize=True)
        first = list(built)
        # The optimizer's gate, the fused lowering and the emitter all
        # asked; every distinct geometry was still built exactly once.
        assert compiled.graph_opt_report.total > 0
        assert len(first) == len(set(first))
        convs = sum(r.kind == "linear" for r in compiled.layer_reports)
        assert 0 < len(first) < convs  # a stage repeats one geometry
        # No state survives a compile: the next one builds its own.
        onet.compile(params, mode="analyze", optimize=True)
        assert built[len(first):] == first

    def test_each_conv_is_packed_once(self, monkeypatch):
        """The plain-vs-hybrid choice is made on key sets, so a
        materialize compile builds every conv exactly once (resnet8_solo's
        network: 10 convs and pools, every one hybrid-eligible)."""
        from repro.core.packing import matvec

        built = []
        real = matvec.build_conv_packing

        def counting(*args, **kwargs):
            built.append(kwargs.get("name"))
            return real(*args, **kwargs)

        monkeypatch.setattr(matvec, "build_conv_packing", counting)
        monkeypatch.setattr(compiler, "build_conv_packing", counting)
        onet, _ = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8)
        )
        onet.compile(
            toy_parameters(ring_degree=2048, max_level=12, boot_levels=3, scale_bits=24)
        )
        assert len(built) == len(set(built)) == 10

    def test_poly_eval_ops_runs_once_per_degree(self, params, monkeypatch):
        from repro.core import compiler

        calls = []
        real = compiler.poly_eval_ops

        def counting(degree):
            calls.append(degree)
            return real(degree)

        monkeypatch.setattr(compiler, "poly_eval_ops", counting)
        monkeypatch.setattr(compiler, "_POLY_OPS_CACHE", {})
        onet, _ = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8), seed=3
        )
        compiled = onet.compile(params, mode="analyze")
        assert sum(r.kind == "poly" for r in compiled.layer_reports) > 1
        assert calls == [31]
        onet.compile(params, mode="analyze")
        assert calls == [31]

    def test_poly_eval_op_counts_pinned(self):
        from repro.core.approx.evaluator import poly_eval_ops

        assert poly_eval_ops(15) == {"hmult": 6, "hadd": 8, "padd": 5, "rescale": 7, "pmult": 5}
        assert poly_eval_ops(27) == {"hmult": 7, "hadd": 16, "padd": 6, "rescale": 8, "pmult": 12}
        assert poly_eval_ops(31) == {"hmult": 10, "hadd": 18, "padd": 7, "rescale": 11, "pmult": 11}
        assert poly_eval_ops(127) == {"hmult": 20, "hadd": 39, "padd": 13, "rescale": 21, "pmult": 23}


class TestRangeEstimation:
    def test_values_stay_in_unit_range(self, params):
        """After fit(), every bootstrap input is within [-1, 1] — the
        executor would raise otherwise.  Use wide inputs to stress."""
        onet, rng = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4),
            (3, 8, 8), seed=13, calib_scale=2.0,
        )
        compiled = onet.compile(params)
        img = rng.normal(0, 2.0, (3, 8, 8))
        fhe = compiled.run(SimBackend(params, seed=14), img)  # must not raise
        clear = onet.forward_cleartext(img)
        assert np.abs(fhe - clear).max() < 0.2

    def test_without_fit_small_nets_still_compile(self, params):
        init.seed_init(15)
        net = SecureMlp(input_pixels=16, hidden=8)
        onet = OrionNetwork(net, (1, 4, 4))
        compiled = onet.compile(params)  # no calibration
        assert compiled.multiplicative_depth == 5


def _weight_tables(program):
    """The program's artifact payload and every array it stores."""
    arrays = []

    def store(array):
        arrays.append(np.array(array, copy=True))
        return len(arrays) - 1

    return program.to_payload(store), arrays


class TestShapeOnlyCompile:
    """The compiler learns a network's structure from shape rules: no
    leaf forward runs unless calibration data is given, and analyze
    mode never copies a weight."""

    LEAVES = (on.Conv2d, on.Linear, on.AvgPool2d, on.AdaptiveAvgPool2d,
              on.BatchNorm2d, on.Flatten, on.Add, on.SiLU, on.Square)

    def test_no_forward_runs_without_calibration(self, params, monkeypatch):
        def refuse(module, *args):
            raise AssertionError(f"{type(module).__name__}.forward ran")

        for leaf in self.LEAVES:
            monkeypatch.setattr(leaf, "forward", refuse)
        init.seed_init(0)
        for net, shape in (
            (resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8)),
            (SecureMlp(input_pixels=16, hidden=8), (1, 4, 4)),
        ):
            for mode in ("analyze", "materialize"):
                OrionNetwork(net, shape).compile(params, mode=mode)

    def test_analyze_peak_memory_is_a_fraction_of_the_weights(self, params):
        init.seed_init(0)
        net = resnet_imagenet(18, act=silu_act(31))
        onet = OrionNetwork(net, (3, 224, 224))
        onet.compile(params, mode="analyze")  # warm the per-process caches
        weight_bytes = sum(p.data.nbytes for p in net.parameters())
        tracemalloc.start()
        try:
            onet.compile(params, mode="analyze")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A numeric trace plus a folded copy of every weight peaked at
        # 1.34x the weights; the shape-only compile at 0.18x.
        assert peak < 0.25 * weight_bytes, (peak, weight_bytes)

    def test_per_layer_fold_is_bit_identical_to_the_whole_network_fold(
        self, monkeypatch
    ):
        tparams = toy_parameters(ring_degree=2048, max_level=12, boot_levels=3,
                                 scale_bits=24)
        onet, _ = make_net(
            lambda: resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8), seed=3
        )
        payload, arrays = _weight_tables(onet.compile(tparams).program)
        folded = fold_batchnorms(trace_structure(onet.module, (3, 8, 8)))
        assert folded

        def whole_network_fold(builder, node, factor, out_uid):
            module = node.module
            bias = module.bias.data if module.bias is not None else None
            weight, bias = folded.get(node.index, (module.weight.data, bias))
            weight = weight * factor
            if bias is not None:
                bias = np.asarray(bias) / builder.ranges.norm(out_uid)
            return weight, bias

        monkeypatch.setattr(
            compiler._ProgramBuilder, "_effective_linear_params", whole_network_fold
        )
        want_payload, want_arrays = _weight_tables(onet.compile(tparams).program)
        assert payload == want_payload
        assert len(arrays) == len(want_arrays)
        for got, want in zip(arrays, want_arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class _NonSquarePool(on.Module):
    def __init__(self):
        super().__init__()
        self.pool = on.AdaptiveAvgPool2d(1)
        self.flatten = on.Flatten()
        self.fc = on.Linear(2, 2)

    def forward(self, x):
        return self.fc(self.flatten(self.pool(x)))


class TestGlobalPooling:
    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("shape", [(2, 12, 8), (2, 8, 12)])
    def test_non_square_map_is_refused(self, params, shape, optimize):
        init.seed_init(0)
        onet = OrionNetwork(_NonSquarePool(), shape)
        with pytest.raises(ValueError, match="adaptiveavgpool2d_0.*square"):
            onet.compile(params, mode="analyze", optimize=optimize)

    def test_lee_baseline_refuses_a_non_square_map(self, params):
        from repro.core.packing.lee import lee_network_rotations

        init.seed_init(0)
        with pytest.raises(ValueError, match="adaptiveavgpool2d_0.*square"):
            lee_network_rotations(_NonSquarePool(), (2, 12, 8), params.slot_count)
        rotations, depth = lee_network_rotations(
            _NonSquarePool(), (2, 8, 8), params.slot_count
        )
        assert rotations > 0 and depth == 3  # mask-and-collect pool + dense
