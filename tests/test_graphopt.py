"""Graph-level optimizer tests: per-pass bit-exactness and cost parity.

The optimizer's contract (docs/graphopt.md) is that every rewrite is
semantics-preserving on the packed cleartext path — the optimized
program's ``run_cleartext_packed`` output is *bitwise* identical to the
un-optimized program's — and never increases the modeled cost.  The
encrypted outputs are compared with a tolerance instead: placement may
legally choose different execution levels for the restructured chain,
which changes plaintext-encoding rounding without changing semantics.
"""

import json

import numpy as np
import pytest

import repro.orion.nn as on
from repro.backend import ToyBackend
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler
from repro.models import resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork
from repro.trace.graph import LayerGraph, TraceNode


@pytest.fixture(scope="module")
def params():
    return toy_parameters(ring_degree=2048, max_level=6, boot_levels=1,
                          scale_bits=24)


def make_net(builder, shape, seed=0):
    init.seed_init(seed)
    net = builder()
    rng = np.random.default_rng(seed)
    onet = OrionNetwork(net, shape)
    onet.fit([rng.normal(0, 0.5, (4,) + shape)])
    return onet, rng


def compile_both(onet, params, **kwargs):
    return (
        onet.compile(params, optimize=True, **kwargs),
        onet.compile(params, optimize=False, **kwargs),
    )


def assert_equivalent(onet, params, rng, shape):
    """The core contract: bitwise cleartext-packed parity, encrypted
    tolerance, and ledger/report rotation parity."""
    c_on, c_off = compile_both(onet, params)
    img = rng.normal(0, 0.5, shape)
    clear_on = c_on.program.run_cleartext_packed(img)
    clear_off = c_off.program.run_cleartext_packed(img)
    assert np.array_equal(clear_on, clear_off)

    b_on, b_off = ToyBackend(params), ToyBackend(params)
    enc_on = c_on.run(b_on, img)
    enc_off = c_off.run(b_off, img)
    assert np.allclose(enc_on, enc_off, atol=1e-2)
    assert b_on.ledger.rotations == c_on.total_rotations
    assert b_off.ledger.rotations == c_off.total_rotations
    return c_on, c_off


# ---------------------------------------------------------------------------
# networks under test
# ---------------------------------------------------------------------------
class SiblingConvs(on.Module):
    """Two convolutions consuming the same value — the concat-fusion
    target shape (inception-style parallel branches)."""

    def __init__(self):
        super().__init__()
        self.conv1 = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.bn1 = on.BatchNorm2d(2)
        self.act = on.Square()
        self.conv_a = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.conv_b = on.Conv2d(2, 2, 3, padding=1, bias=False)
        self.add = on.Add()
        self.act2 = on.Square()

    def forward(self, x):
        x = self.act(self.bn1(self.conv1(x)))
        x = self.add(self.conv_a(x), self.conv_b(x))
        return self.act2(x)


class SkipBlock(on.Module):
    """ResNet projection block: main-path conv and 1x1 shortcut conv
    share the fork input (both BN-folded)."""

    def __init__(self):
        super().__init__()
        self.conv1 = on.Conv2d(2, 4, 3, 2, 1, bias=False)
        self.bn1 = on.BatchNorm2d(4)
        self.act1 = on.Square()
        self.conv2 = on.Conv2d(4, 4, 3, 1, 1, bias=False)
        self.bn2 = on.BatchNorm2d(4)
        self.short = on.Conv2d(2, 4, 1, 2, 0, bias=False)
        self.bn_s = on.BatchNorm2d(4)
        self.add = on.Add()
        self.act2 = on.Square()

    def forward(self, x):
        out = self.act1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = self.add(out, self.bn_s(self.short(x)))
        return self.act2(out)


class Straight(on.Module):
    """No forks, no rotations: the optimizer must not touch it."""

    def __init__(self):
        super().__init__()
        self.conv = on.Conv2d(2, 2, 3, padding=1)
        self.sq = on.Square()
        self.flat = on.Flatten()
        self.fc = on.Linear(32, 4)

    def forward(self, x):
        return self.fc(self.flat(self.sq(self.conv(x))))


class AllKinds(on.Module):
    """One of every instruction kind the compiler emits: linear layers,
    a ReLU (poly + multjoin), fused sibling convs (slice), their
    residual add (addjoin) and a Square."""

    def __init__(self):
        super().__init__()
        self.conv1 = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.act = on.ReLU(degrees=(3, 3))
        self.conv_a = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.conv_b = on.Conv2d(2, 2, 3, padding=1, bias=False)
        self.add = on.Add()
        self.sq = on.Square()
        self.flat = on.Flatten()
        self.fc = on.Linear(32, 16)

    def forward(self, x):
        x = self.act(self.conv1(x))
        x = self.sq(self.add(self.conv_a(x), self.conv_b(x)))
        return self.fc(self.flat(x))


# ---------------------------------------------------------------------------
# concat-linear fusion
# ---------------------------------------------------------------------------
class TestConcatFusion:
    def test_sibling_convs_fuse_and_stay_bit_exact(self, params):
        onet, rng = make_net(SiblingConvs, (2, 4, 4))
        c_on, c_off = assert_equivalent(onet, params, rng, (2, 4, 4))
        assert c_on.graph_opt_report.rewrites.get("concat_linear_fusion") == 1
        # The fused matvec shares babies/giants across siblings.
        assert c_on.total_rotations < c_off.total_rotations

    def test_skip_block_bit_exact(self, params):
        onet, rng = make_net(SkipBlock, (2, 8, 8), seed=1)
        c_on, c_off = assert_equivalent(onet, params, rng, (2, 8, 8))
        assert c_on.total_rotations <= c_off.total_rotations

    def test_analyze_matches_materialize_counts(self, params):
        onet, _ = make_net(SiblingConvs, (2, 4, 4))
        mat = onet.compile(params, mode="materialize", optimize=True)
        ana = onet.compile(params, mode="analyze", optimize=True)
        assert mat.graph_opt_report.summary() == ana.graph_opt_report.summary()
        assert mat.total_rotations == ana.total_rotations
        assert mat.total_pmults == ana.total_pmults
        assert mat.num_bootstraps == ana.num_bootstraps

    def test_straight_line_graph_untouched(self, params):
        onet, rng = make_net(Straight, (2, 4, 4))
        c_on, c_off = assert_equivalent(onet, params, rng, (2, 4, 4))
        assert c_on.graph_opt_report.total == 0
        assert c_on.total_rotations == c_off.total_rotations
        assert [r.name for r in c_on.layer_reports] == [
            r.name for r in c_off.layer_reports
        ]


# ---------------------------------------------------------------------------
# batch-norm folding into dense layers (satellite: lifted conv-only gate)
# ---------------------------------------------------------------------------
class TestBatchNorm1dFold:
    def test_bn1d_folds_into_linear(self, params):
        def build():
            net = _DenseBn()
            rng = np.random.default_rng(7)
            net.bn.running_mean.data[:] = rng.normal(0, 0.2, 8)
            net.bn.running_var.data[:] = rng.uniform(0.5, 2.0, 8)
            return net

        onet, rng = make_net(build, (1, 4, 4), seed=2)
        compiled = onet.compile(params)
        kinds = [r.kind for r in compiled.layer_reports]
        assert "batchnorm" not in kinds  # folded into the Linear
        img = rng.normal(0, 0.5, (1, 4, 4))
        enc = compiled.run(ToyBackend(params), img)
        clear = onet.forward_cleartext(img)
        assert OrionNetwork.precision_bits(enc[: clear.size], clear) > 6

    def test_bn1d_cleartext_matches_bn2d(self):
        from repro.nn import BatchNorm1d, BatchNorm2d

        rng = np.random.default_rng(0)
        mean = rng.normal(0, 0.3, 6)
        var = rng.uniform(0.5, 2.0, 6)
        bn1, bn2 = BatchNorm1d(6), BatchNorm2d(6)
        for m in (bn1, bn2):
            m.running_mean.data[:] = mean
            m.running_var.data[:] = var
            m.eval()
        from repro.autograd.tensor import Tensor

        x = rng.normal(0, 1, (3, 6))
        out1 = bn1(Tensor(x)).data
        out2 = bn2(Tensor(x.reshape(3, 6, 1, 1))).data.reshape(3, 6)
        np.testing.assert_allclose(out1, out2, rtol=1e-12)


class _DenseBn(on.Module):
    def __init__(self):
        super().__init__()
        self.flat = on.Flatten()
        self.fc = on.Linear(16, 8)
        self.bn = on.BatchNorm1d(8)
        self.sq = on.Square()

    def forward(self, x):
        return self.sq(self.bn(self.fc(self.flat(x))))


# ---------------------------------------------------------------------------
# LayerGraph rewrite API + cache invalidation (satellite)
# ---------------------------------------------------------------------------
class TestGraphCaches:
    def _toy_graph(self):
        graph = LayerGraph()
        graph.input_uid = graph.fresh_uid()
        mod = on.Square()
        n1 = TraceNode(0, mod, (graph.input_uid,), graph.fresh_uid(),
                       ((4,),), (4,))
        n2 = TraceNode(1, mod, (n1.output,), graph.fresh_uid(), ((4,),), (4,))
        graph.nodes = [n1, n2]
        graph.output_uid = n2.output
        return graph, n1, n2

    def test_caches_invalidate_on_remove(self):
        graph, n1, n2 = self._toy_graph()
        assert graph.producers()[n1.output] is n1  # caches built
        graph.remove_nodes([n2])
        assert n2.output not in graph.producers()
        assert graph.consumers().get(n1.output, []) == []

    def test_caches_invalidate_on_insert(self):
        graph, n1, n2 = self._toy_graph()
        graph.producers()  # build
        n3 = TraceNode(graph.fresh_index(), on.Square(), (n1.output,),
                       graph.fresh_uid(), ((4,),), (4,))
        graph.insert_nodes(graph.position_of(n2), [n3])
        assert graph.producers()[n3.output] is n3
        assert graph.fresh_index() == n3.index + 1


# ---------------------------------------------------------------------------
# artifact round-trip + switches
# ---------------------------------------------------------------------------
def _payload(program):
    """The program's artifact payload and every array it stores."""
    arrays = []

    def store(array):
        arrays.append(np.array(array, copy=True))
        return len(arrays) - 1

    return program.to_payload(store), arrays


class TestIntegration:
    def test_optimized_program_round_trips_artifact(self, params, tmp_path):
        onet, rng = make_net(AllKinds, (2, 4, 4))
        compiled = onet.compile(params, optimize=True)
        kinds = {instr.kind for instr in compiled.program.instructions}
        assert kinds == {"linear", "poly", "multjoin", "slice", "addjoin",
                         "square"}
        compiled.export(str(tmp_path / "art"), params)
        from repro.serve import ArtifactMap

        art = ArtifactMap(str(tmp_path / "art")).load()
        payload, arrays = _payload(compiled.program)
        payload_loaded, arrays_loaded = _payload(art.program)
        assert json.dumps(payload_loaded) == json.dumps(payload)
        assert len(arrays_loaded) == len(arrays)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, arrays_loaded))
        img = rng.normal(0, 0.5, (2, 4, 4))
        a = compiled.program.run_cleartext_packed(img)
        b = art.program.run_cleartext_packed(img)
        assert np.array_equal(a, b)

    def test_unknown_instruction_kind_is_rejected(self, params):
        """An entry whose kind no instruction class registers (here the
        retired ``alias``) fails the load instead of building a program."""
        from repro.core.program import FheProgram

        onet, _ = make_net(Straight, (2, 4, 4))
        payload, arrays = _payload(onet.compile(params).program)
        last = payload["instructions"][-1]
        payload["instructions"].append({
            "name": "alias", "out_uid": last["out_uid"] + 1,
            "exec_level": last["exec_level"], "boots_before": 0,
            "kind": "alias", "in_uid": last["out_uid"],
        })
        with pytest.raises(ValueError, match="alias"):
            FheProgram.from_payload(payload, arrays.__getitem__)

    def test_each_kind_registers_its_own_class(self):
        """The decode table holds the six emitted kinds, each under the
        tag its class writes — nothing under the base class's empty tag."""
        from repro.core import program

        classes = (program.LinearInstr, program.PolyInstr, program.SquareInstr,
                   program.MultJoinInstr, program.AddJoinInstr,
                   program.SliceInstr)
        assert program._KINDS == {cls.kind: cls for cls in classes}
        assert len(program._KINDS) == 6

    def test_new_kind_is_only_its_class(self, params, monkeypatch):
        """Defining a subclass is the whole of adding a kind: the program
        encodes, decodes and runs it in the clear with no other change."""
        from dataclasses import dataclass, replace

        from repro.core import program

        monkeypatch.setattr(program, "_KINDS", dict(program._KINDS))

        @dataclass
        class NegateInstr(program.Instruction):
            kind = "negate"

            in_uid: int = 0

            def execute_cleartext(self, values, slots):
                return [-vec for vec in values[self.in_uid]]

        onet, rng = make_net(Straight, (2, 4, 4))
        base = onet.compile(params).program
        last = base.instructions[-1]
        negate = NegateInstr(name="negate", out_uid=last.out_uid + 1,
                             exec_level=last.exec_level, boots_before=0,
                             in_uid=base.output_uid)
        extended = replace(base, instructions=base.instructions + [negate],
                           output_uid=negate.out_uid, _batched={})
        payload, arrays = _payload(extended)
        assert payload["instructions"][-1] == {
            "name": "negate", "out_uid": last.out_uid + 1,
            "exec_level": last.exec_level, "boots_before": 0,
            "kind": "negate", "in_uid": base.output_uid,
        }
        loaded = program.FheProgram.from_payload(payload, arrays.__getitem__)
        assert isinstance(loaded.instructions[-1], NegateInstr)
        assert loaded.instructions[-1] == negate
        img = rng.normal(0, 0.5, (2, 4, 4))
        assert np.array_equal(loaded.run_cleartext_packed(img),
                              -base.run_cleartext_packed(img))

    def test_env_switch_controls_default(self, params, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_OPT", "off")
        assert OrionCompiler(params).optimize is False
        monkeypatch.setenv("REPRO_GRAPH_OPT", "on")
        assert OrionCompiler(params).optimize is True
        monkeypatch.delenv("REPRO_GRAPH_OPT")
        assert OrionCompiler(params).optimize is True
        # Explicit argument beats the environment.
        monkeypatch.setenv("REPRO_GRAPH_OPT", "off")
        assert OrionCompiler(params, optimize=True).optimize is True

    def test_summary_reports_graph_opt_seconds(self, params):
        onet, _ = make_net(Straight, (2, 4, 4))
        compiled = onet.compile(params, optimize=True)
        assert "graph_opt_seconds" in compiled.summary()
        assert compiled.graph_opt_seconds >= 0.0

    def test_resnet8_boot_placement_stable_under_optimizer(self):
        """Table 5 regression: the optimizer must not change resnet-8's
        bootstrap placement (6 boots, entry level 9)."""
        from repro.ckks.params import paper_parameters

        init.seed_init(3)
        net = resnet_cifar(8, act=silu_act(31), width=4)
        rng = np.random.default_rng(3)
        onet = OrionNetwork(net, (3, 8, 8))
        onet.fit([rng.normal(0, 0.5, (8, 3, 8, 8))])
        pp = paper_parameters()
        c_on = onet.compile(pp, mode="analyze", optimize=True)
        c_off = onet.compile(pp, mode="analyze", optimize=False)
        assert c_on.num_bootstraps == c_off.num_bootstraps == 6
        assert c_on.placement.entry_level == 9
