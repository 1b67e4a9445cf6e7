"""Sibling-fusion tests: bit-exactness and cost parity.

The contract (docs/graphopt.md) is that every fusion is
semantics-preserving on the reference run — the optimized program's
output on a noise-free ``SimBackend`` is *bitwise* identical to the
un-optimized program's — and never increases the modeled cost.  The
encrypted outputs are compared with a tolerance instead: placement may
legally choose different execution levels for the restructured chain,
which changes plaintext-encoding rounding without changing semantics.

The bitwise comparison is between block-level forms at the compiled
fold partitions (:func:`uncut`).  A fused program stacks two registers,
so its slot-batch capacity is 1, and its partitions are the compiled
ones; its unfused twin may batch, and then the compiler cuts its
partitions at the slot-batch block, which regroups the fold's float
additions.  The cost is priced on what runs: the compiler fuses only
where the fused program at capacity 1 beats its unfused twin's
capacity view (:meth:`TestConcatFusion.test_a_fusion_that_costs_the_capacity_is_declined`).
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.orion.nn as on
from repro.backend import SimBackend, ToyBackend
from repro.backend.costs import CostModel
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler, _ProgramBuilder
from repro.core.packing.matvec import cut_fold_groups
from repro.core.program import LinearInstr
from repro.models import resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork


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


def uncut(compiled, params):
    """``compiled``'s block-level program with every layer's fold
    partition as placement compiled it, before the cut at the slot-batch
    block — asserting that cut is the only difference."""
    program = compiled.program.block_level()
    block = params.slot_count // program.slot_batch_capacity()
    costs = CostModel(params)
    instructions = []
    for instr in program.instructions:
        if isinstance(instr, LinearInstr):
            shifts = instr.packed.fold_shifts
            groups = costs.fold_partition(instr.exec_level, len(shifts))
            assert instr.packed.fold_groups == cut_fold_groups(shifts, groups, block)
            instr = replace(instr, packed=replace(instr.packed, fold_groups=groups))
        instructions.append(instr)
    return replace(program, instructions=instructions)


def assert_equivalent(onet, params, rng, shape):
    """The core contract: bitwise reference-run parity, both equal to
    the network itself (the x^2 nets here are exact), encrypted
    tolerance, and ledger/report rotation parity."""
    c_on, c_off = compile_both(onet, params)
    img = rng.normal(0, 0.5, shape)
    clear_on = uncut(c_on, params).run(SimBackend(params, noise_free=True), img)
    clear_off = uncut(c_off, params).run(SimBackend(params, noise_free=True), img)
    assert np.array_equal(clear_on, clear_off)
    for compiled in (c_on, c_off):
        clear = compiled.run(SimBackend(params, noise_free=True), img)
        assert np.abs(clear - onet.forward_cleartext(img)).max() < 1e-9

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


class PoolAndConv(on.Module):
    """A downsampling fork whose heads are a strided conv and an average
    pool: the pool has no weights to stack, so the fork stays unfused."""

    def __init__(self):
        super().__init__()
        self.conv0 = on.Conv2d(2, 2, 3, padding=1, bias=True)
        self.act0 = on.Square()
        self.conv = on.Conv2d(2, 2, 3, 2, 1, bias=False)
        self.pool = on.AvgPool2d(2, 2)
        self.add = on.Add()
        self.act1 = on.Square()

    def forward(self, x):
        x = self.act0(self.conv0(x))
        return self.act1(self.add(self.conv(x), self.pool(x)))


class TwoForks(on.Module):
    """Two fusable forks with a ReLU before each: inception-style sibling
    convs, then a projection block whose BN-folded 1x1 shortcut feeds
    the join directly."""

    def __init__(self):
        super().__init__()
        self.conv0 = on.Conv2d(2, 4, 3, padding=1, bias=True)
        self.act0 = on.ReLU(degrees=(3, 3))
        self.conv_a = on.Conv2d(4, 4, 3, padding=1, bias=True)
        self.conv_b = on.Conv2d(4, 4, 3, padding=1, bias=False)
        self.add1 = on.Add()
        self.act1 = on.ReLU(degrees=(3, 3))
        self.conv1 = on.Conv2d(4, 8, 3, 2, 1, bias=False)
        self.bn1 = on.BatchNorm2d(8)
        self.act2 = on.Square()
        self.conv2 = on.Conv2d(8, 8, 3, 1, 1, bias=False)
        self.bn2 = on.BatchNorm2d(8)
        self.short = on.Conv2d(4, 8, 1, 2, 0, bias=False)
        self.bn_s = on.BatchNorm2d(8)
        self.add2 = on.Add()
        self.act3 = on.Square()
        self.flat = on.Flatten()
        self.fc = on.Linear(128, 4)

    def forward(self, x):
        x = self.act0(self.conv0(x))
        x = self.act1(self.add1(self.conv_a(x), self.conv_b(x)))
        out = self.bn2(self.conv2(self.act2(self.bn1(self.conv1(x)))))
        x = self.act3(self.add2(out, self.bn_s(self.short(x))))
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

    def test_fork_with_a_weightless_head_stays_unfused(self, params):
        onet, rng = make_net(PoolAndConv, (2, 8, 8))
        c_on, c_off = assert_equivalent(onet, params, rng, (2, 8, 8))
        assert c_on.graph_opt_report.total == 0
        assert [(i.name, i.kind) for i in c_on.program.instructions] == [
            (i.name, i.kind) for i in c_off.program.instructions
        ]
        assert c_on.chain.layer_names() == [
            "conv2d_0", "square_1", "conv2d_2", "avgpool2d_3", "add_4",
            "square_5",
        ]
        assert c_on.total_rotations == c_off.total_rotations


    def test_two_forks_keep_their_names_order_and_registers(self):
        """The fusion ordinal names the merged layer and its slices
        (fusedlinear_{N+3k}, N = 17 traced nodes); each slice opens its
        branch, a folded BN's slice lands on the BN's output; the ReLU
        sign stages number after both fused outputs (registers 18, 19).
        An artifact's bytes depend on all three.  The 256-slot ring the
        network's tensors fill leaves no slot-batch capacity to lose,
        so both fusions pay."""
        params = toy_parameters(ring_degree=512, max_level=6, boot_levels=1,
                                scale_bits=24)
        onet, rng = make_net(TwoForks, (2, 8, 8))
        chain_names = [
            "conv2d_0", "relu_1_sign0", "relu_1_sign1", "relu_1_mult",
            "fusedlinear_17", "add_4", "relu_5_sign0", "relu_5_sign1",
            "relu_5_mult", "fusedlinear_20", "square_8", "conv2d_9", "add_13",
            "square_14", "linear_16",
        ]
        for mode in ("analyze", "materialize"):
            compiled = onet.compile(params, mode=mode, optimize=True)
            assert compiled.graph_opt_report.summary() == {
                "concat_linear_fusion": 2, "total": 2,
            }
            assert compiled.chain.layer_names() == chain_names
        c_on, c_off = compile_both(onet, params)
        assert [(i.name, i.kind, i.out_uid) for i in c_on.program.instructions] == [
            ("conv2d_0", "linear", 1), ("relu_1_sign0", "poly", 20),
            ("relu_1_sign1", "poly", 21), ("relu_1_mult", "multjoin", 2),
            ("fusedlinear_17", "linear", 18), ("slice_18", "slice", 3),
            ("slice_19", "slice", 4), ("add_4", "addjoin", 5),
            ("relu_5_sign0", "poly", 22), ("relu_5_sign1", "poly", 23),
            ("relu_5_mult", "multjoin", 6), ("fusedlinear_20", "linear", 19),
            ("slice_21", "slice", 8), ("square_8", "square", 9),
            ("conv2d_9", "linear", 11), ("slice_22", "slice", 13),
            ("add_13", "addjoin", 14), ("square_14", "square", 15),
            ("linear_16", "linear", 17),
        ]
        assert c_on.program.slot_batch_capacity() == 1
        assert c_off.program.slot_batch_capacity() == 1
        img = rng.normal(0, 0.5, (2, 8, 8))
        assert np.array_equal(c_on.run(SimBackend(params, noise_free=True), img),
                              c_off.run(SimBackend(params, noise_free=True), img))
        assert c_on.total_rotations < c_off.total_rotations

    def test_a_fusion_that_costs_the_capacity_is_declined(self, params, monkeypatch):
        """On the 1024-slot ring TwoForks' unfused program batches four
        clients, so a lone client folds two shifts fewer per hybrid
        layer (82 rotations).  Fusing stacks two ciphertexts and drops
        the capacity to 1: 87 rotations, though fewer on the block-level
        layers the gate prices (87 against 94).  The compiler prices
        what runs and keeps the siblings apart."""
        onet, rng = make_net(TwoForks, (2, 8, 8))
        c_on, c_off = compile_both(onet, params)
        assert c_on.graph_opt_report.total == 0
        assert [(i.name, i.kind) for i in c_on.program.instructions] == [
            (i.name, i.kind) for i in c_off.program.instructions
        ]
        assert c_on.program.slot_batch_capacity() == 4
        assert c_on.total_rotations <= c_off.total_rotations
        assert c_on.total_rotations == 82

        monkeypatch.setattr(_ProgramBuilder, "fusion_pays", lambda build: True)
        fused = onet.compile(params, optimize=True)
        assert fused.graph_opt_report.total == 2
        assert fused.program.slot_batch_capacity() == 1
        block = [
            sum(i.packed.stats.rotations for i in c.program.block_level().instructions
                if isinstance(i, LinearInstr))
            for c in (fused, c_off)
        ]
        assert block == [87, 94]
        assert fused.total_rotations == 87
        img = rng.normal(0, 0.5, (2, 8, 8))
        assert np.array_equal(
            uncut(fused, params).run(SimBackend(params, noise_free=True), img),
            uncut(c_off, params).run(SimBackend(params, noise_free=True), img),
        )


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
        a = compiled.run(SimBackend(params, noise_free=True), img)
        b = art.program.run(SimBackend(art.manifest.to_params(), noise_free=True), img)
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
        encodes, decodes and runs it with no other change."""
        from dataclasses import dataclass

        from repro.core import program

        monkeypatch.setattr(program, "_KINDS", dict(program._KINDS))

        @dataclass
        class NegateInstr(program.Instruction):
            kind = "negate"

            in_uid: int = 0

            def execute(self, state):
                (cts,) = self.prepare(state, [self.in_uid])
                state.set(self.out_uid, [state.backend.negate(ct) for ct in cts])

        onet, rng = make_net(Straight, (2, 4, 4))
        base = onet.compile(params).program
        block = base.block_level()  # what a payload holds
        last = base.instructions[-1]
        negate = NegateInstr(name="negate", out_uid=last.out_uid + 1,
                             exec_level=last.exec_level, boots_before=0,
                             in_uid=base.output_uid)
        extended = replace(block, instructions=block.instructions + [negate],
                           output_uid=negate.out_uid)
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
        assert np.array_equal(loaded.run(SimBackend(params, noise_free=True), img),
                              -base.run(SimBackend(params, noise_free=True), img))

    def test_optimizer_is_on_unless_the_caller_turns_it_off(self, params, monkeypatch):
        # The environment does not switch it.
        monkeypatch.setenv("REPRO_GRAPH_OPT", "off")
        assert OrionCompiler(params).optimize is True
        assert OrionCompiler(params, optimize=False).optimize is False

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
