"""The fused matvec runs the cheapest priced baby/giant split.

A packed layer's offsets split at a baby modulus ``n1`` into babies
(``offset % n1``, rotations of the input off one shared decomposition)
and giants (``offset - offset % n1``, one key switch per giant of an
output block, on a partial sum whose table rows are pre-rotated).
``PackingStats`` counts every power-of-two split once and prices each
at a level; the compiler fixes the cheapest at the layer's level as
``PackedMatVec.split``.  Unsplit (``None``, or ``n1`` above every
offset) is the walk every offset rotating the input.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from repro.backend import SimBackend, ToyBackend
from repro.backend.costs import CostModel
from repro.ckks.keys import KeyManifest
from repro.ckks.params import paper_parameters, toy_parameters
from repro.core.packing.analysis import OffsetProfile, PackingStats
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import PackedMatVec, build_linear_packing
from repro.core.placement.items import PlacementRegion
from repro.core.program import LinearInstr
from repro.models import SecureMlp, resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve.keys import generate_lane_keys

from reference import conv_analysis_bruteforce as brute

PARAMS = toy_parameters(ring_degree=512, max_level=3, boot_levels=1, scale_bits=24)


def _changes_at(keys, n1):
    """How walking ``keys`` at baby modulus ``n1`` changes the unsplit
    walk's decompositions, inner products and mod-downs, by sets."""
    parts = [(bo, bi, off - off % n1, off % n1) for bo, bi, off in keys]
    babies = {(bi, b) for _, bi, _, b in parts if b}
    giants = {(bo, g) for bo, _, g, _ in parts if g}
    moddowns = {(bo, g) for bo, _, g, b in parts if g and b}
    products = len({(bi, off) for _, bi, off in keys if off})
    inputs = len({bi for _, bi, off in keys if off})
    return (
        len({bi for bi, _ in babies}) + len(giants) - inputs,
        len(babies) + len(giants) - products,
        len(moddowns),
    )


def _price(changes, level, costs, base):
    """``base`` (the unsplit price) plus the priced ``changes``."""
    decompositions, products, moddowns = changes
    return base + (
        decompositions * costs.ks_decompose(level)
        + products * costs.ks_inner_fused(level)
        + moddowns * costs.ks_moddown(level)
    )


def _random_keys(rng, slots):
    """A random (bo, bi, offset) key set over up to 3x3 blocks: a dense
    run, a strided run and scattered offsets."""
    num_in, num_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    offsets = set(range(int(rng.integers(1, 40))))
    offsets |= set(range(0, slots, int(rng.choice([8, 16, 32]))))
    offsets |= set(rng.integers(0, slots, int(rng.integers(0, 30))).tolist())
    keys = {
        (int(rng.integers(num_out)), int(rng.integers(num_in)), off)
        for off in offsets for _ in range(int(rng.integers(1, 3)))
    }
    return sorted(keys), num_in, num_out


class TestSplitPrices:
    def test_counts_and_prices_match_sets(self):
        """Over random key sets, single and multi-block: every count
        matches the by-sets oracle (splits included); at ``n1`` above
        every offset the price is today's unsplit fused price exactly;
        the chosen price is the cheapest split's and never higher."""
        rng = np.random.default_rng(53)
        for params in (
            toy_parameters(ring_degree=512, max_level=2, boot_levels=1),
            toy_parameters(ring_degree=4096, max_level=6, boot_levels=1, ks_alpha=2,
                           num_special_primes=2),
            paper_parameters(),
        ):
            costs, slots, top = CostModel(params), params.slot_count, params.max_level
            for _ in range(10):
                keys, num_in, num_out = _random_keys(rng, slots)
                layout = VectorLayout(slots, slots)
                stats = OffsetProfile(slots, num_in, num_out, tuple(keys), (), layout).stats()
                assert stats == brute.stats_from_keys(keys, num_in, num_out, (), layout, slots)
                above = 1 << max(off for _, _, off in keys).bit_length()
                assert _changes_at(keys, above) == (0, 0, 0)
                changes = {1 << k: _changes_at(keys, 1 << k) for k in range(slots.bit_length())}
                for level in (0, top // 2, top):
                    base = dataclasses.replace(stats, splits=()).cost(level, costs)
                    chosen = stats.cost(level, costs)
                    assert chosen <= base
                    cheapest = min(_price(c, level, costs, base) for c in changes.values())
                    assert chosen == pytest.approx(min(cheapest, base), rel=1e-12)
                    n1 = stats.split(level, costs)
                    if n1 is None:
                        assert chosen == base
                    else:
                        assert chosen == pytest.approx(
                            _price(changes[n1], level, costs, base), rel=1e-12
                        )

    def test_a_dense_128_offset_layer_splits_at_64(self):
        """``mlp_solo``'s 128-diagonal layers: 63 babies and one giant
        (64 offset keys) beat 127 offset rotations at every level."""
        keys = tuple((0, 0, off) for off in range(128))
        layout = VectorLayout(128, 2048)
        stats = OffsetProfile(2048, 1, 1, keys, (), layout).stats()
        costs = CostModel(toy_parameters(ring_degree=4096, max_level=6, boot_levels=1))
        for level in range(7):
            assert stats.split(level, costs) == 64
        assert stats.splits[0] == (64, 64 - 127, 1 + 1 - 1, 1)


def _layer(length, rng, rows=16):
    """A plain ``rows`` x ``length`` dense layer over ``PARAMS``'s slots
    (one input block up to 256, two at 400), its input and the
    cleartext answer."""
    slots = PARAMS.slot_count
    layout = VectorLayout(length, slots)
    matrix = rng.normal(0, 0.1, (rows, length))
    packed = build_linear_packing(matrix, None, layout, force_mode="plain")
    x = rng.normal(0, 0.5, length)
    return packed, layout.pack(x), matrix @ x


def _run(backend, packed, vectors, n1):
    """``packed`` executed at split ``n1`` (its own table store)."""
    level = PARAMS.max_level
    cts = [backend.encrypt(backend.encode(v, level, PARAMS.scale)) for v in vectors]
    split = dataclasses.replace(packed, split=n1)
    return split.execute(backend, cts, Fraction(PARAMS.data_primes[level])), split


class TestSplitWalk:
    @pytest.mark.parametrize("length", [64, 400])
    def test_a_modulus_above_every_offset_is_the_unsplit_walk(self, length):
        packed, vectors, _ = _layer(length, np.random.default_rng(1))
        outs = {}
        for n1 in (None, PARAMS.slot_count):
            backend = ToyBackend(PARAMS, seed=2)
            outs[n1], _ = _run(backend, packed, vectors, n1)
        for a, b in zip(outs[None], outs[PARAMS.slot_count]):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("length", [64, 400])
    def test_a_forced_split_decrypts_within_the_noise_floor(self, length):
        """Any split, one giant or many (giants summing several input
        blocks' partials at 400), decrypts as close to the cleartext as
        the unsplit walk does."""
        packed, vectors, want = _layer(length, np.random.default_rng(2))
        out_layout = VectorLayout(16, PARAMS.slot_count)
        errors = {}
        for n1 in (None, 64, 16, 4, 1):
            backend = ToyBackend(PARAMS, seed=3)
            outs, split = _run(backend, packed, vectors, n1)
            got = out_layout.unpack([backend.decrypt(ct) for ct in outs])
            errors[n1] = np.abs(got - want).max()
            fetched = {
                step for step in range(1, PARAMS.slot_count)
                if backend.encoder.rotation_exponent(step) in backend.context.keys.galois
            }
            assert fetched == set(split.required_rotation_steps())
        assert errors[None] < 1e-3
        for n1, error in errors.items():
            assert error < 2 * errors[None], (n1, errors)

    @pytest.mark.parametrize("length", [64, 400])
    def test_the_noise_free_simulator_sums_the_same_terms(self, length):
        """Noise-free, the split changes no value; noisy, each giant
        adds one key-switch noise term."""
        packed, vectors, _ = _layer(length, np.random.default_rng(3))
        values = {}
        for n1 in (None, 16):
            backend = SimBackend(PARAMS, noise_free=True)
            outs, _ = _run(backend, packed, vectors, n1)
            values[n1] = [ct.values for ct in outs]
        for a, b in zip(values[None], values[16]):
            assert np.array_equal(a, b)
        stds = {}
        for n1 in (None, 16):
            backend = SimBackend(PARAMS, seed=4)
            backend._rescale = lambda ct: ct  # the matvec's own noise only
            outs, _ = _run(backend, packed, vectors, n1)
            stds[n1] = outs[0].noise_std
        assert stds[16] > stds[None]

    def test_the_ledger_books_what_the_compile_priced(self):
        """Run at the split its stats pick, a layer charges the price
        placement saw, and its key-switch shape counts each giant's
        decomposition, inner product and partial mod-down: a 128 x 128
        layer's 255 offsets split at 128."""
        packed, vectors, _ = _layer(128, np.random.default_rng(4), rows=128)
        level = PARAMS.max_level
        costs = CostModel(PARAMS)
        n1 = packed.stats.split(level, costs)
        assert n1 == 128
        backend = SimBackend(PARAMS, noise_free=True)
        _run(backend, packed, vectors, n1)
        assert backend.ledger.seconds == pytest.approx(
            packed.stats.cost(level, costs), rel=1e-12
        )
        offsets = [off for dmap in packed.diags.values() for off in dmap if off]
        babies = {off % n1 for off in offsets} - {0}
        giants = {off - off % n1 for off in offsets} - {0}
        (shape,) = backend.ledger.key_switches
        assert (shape.decompositions, shape.products, shape.moddowns) == (
            1 + len(giants), len(babies) + len(giants),
            1 + len({off - off % n1 for off in offsets if off % n1 and off >= n1}),
        )
        assert backend.ledger.rotations == packed.stats.rotations

    def test_steps_and_payload(self):
        """The layer asks for its babies and giants; an unsplit payload
        writes no split key, a split one round-trips."""
        packed, _, _ = _layer(64, np.random.default_rng(5))
        offsets = {off for dmap in packed.diags.values() for off in dmap}
        split = dataclasses.replace(packed, split=16)
        assert set(split.required_rotation_steps()) == (
            {off % 16 for off in offsets} | {off - off % 16 for off in offsets}
        ) - {0}
        arrays = []

        def store(array):
            arrays.append(array)
            return len(arrays) - 1

        assert "split" not in packed.to_payload(store)
        payload = split.to_payload(store)
        assert payload["split"] == 16
        loaded = PackedMatVec.from_payload(payload, arrays.__getitem__)
        assert loaded.split == 16


def _network(builder, shape, ring_degree, max_level, boot_levels):
    init.seed_init(0)
    onet = OrionNetwork(builder(), shape)
    onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (8,) + shape)])
    params = toy_parameters(
        ring_degree=ring_degree, max_level=max_level, boot_levels=boot_levels,
        scale_bits=24,
    )
    return onet, params


@pytest.fixture(scope="module")
def mlp_solo():
    onet, params = _network(lambda: SecureMlp(input_pixels=784, hidden=128),
                            (1, 28, 28), 4096, 6, 1)
    return onet, params, onet.compile(params)


def _linear(program):
    return [i for i in program.instructions if isinstance(i, LinearInstr)]


def _layer_specs(chain):
    """Every layer item of a placement chain, regions' branches included."""
    for item in chain.items:
        if isinstance(item, PlacementRegion):
            yield from _layer_specs(item.branch_a)
            yield from _layer_specs(item.branch_b)
        else:
            yield item


class TestCompiledSplits:
    def test_mlp_solo_splits_its_dense_layers(self, mlp_solo):
        _, params, compiled = mlp_solo
        assert [i.packed.split for i in _linear(compiled.program)] == [64, 64, None]
        assert [i.packed.split for i in _linear(compiled.program.block_level())] == [
            64, 64, None
        ]
        assert len(compiled.program.required_rotation_step_levels()) == 75

    @pytest.mark.parametrize("network", ["mlp784", "resnet8"])
    def test_analyze_and_materialize_choose_the_same_splits(self, network, mlp_solo):
        if network == "mlp784":
            onet, params, materialized = mlp_solo
        else:
            onet, params = _network(lambda: resnet_cifar(8, act=silu_act(31), width=4),
                                    (3, 8, 8), 2048, 12, 3)
            materialized = onet.compile(params)
        analyzed = onet.compile(params, mode="analyze")
        costs = CostModel(params)
        levels = analyzed.placement.policy_map()
        chosen = {
            item.name: item.cost_obj.split(levels[item.name].exec_level, costs)
            for item in _layer_specs(analyzed.chain)
            if isinstance(item.cost_obj, PackingStats)
        }
        assert chosen == {i.name: i.packed.split for i in _linear(materialized.program)}
        assert any(chosen.values())

    def test_the_manifest_keys_every_view(self, mlp_solo):
        """Keys generated from the manifest cover the capacity view and
        every distinct-client view of a program with split layers: no
        run adds a key (the lazy fetch would generate a missing giant
        silently)."""
        _, params, compiled = mlp_solo
        program = compiled.program
        backend = ToyBackend(params, seed=5)
        generate_lane_keys(backend, KeyManifest.for_program(params, program))
        held = dict(backend.context.keys.galois)
        shape = program.input_layout.tensor_shape
        batch = 1
        while batch <= program.slot_batch_capacity():
            view = program.batched(batch)
            assert any(i.packed.split for i in _linear(view))
            view.run(backend, np.zeros(shape if batch == 1 else (batch,) + shape))
            batch *= 2
        assert backend.context.keys.galois.keys() == held.keys()
        assert all(backend.context.keys.galois[e] is key for e, key in held.items())
