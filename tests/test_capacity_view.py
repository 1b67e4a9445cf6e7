"""A lone client runs its program's slot-batch capacity view.

At capacity C > 1 a program's one-client inference
(``FheProgram.capacity_view``: ``program.run``, a lane's batch of one,
``program.instructions``) packs the client's input into all C blocks of
S = n/C slots.  Each register is then S-periodic, so every linear
layer's scratch pieces are summed into one block-replicated diagonal
and its Gazelle fold stops at the block: log2(C) fewer folds per hybrid
layer than the block-level program, which keeps the whole ladder and
which the distinct-client views derive from.  The compiler prices what
runs, the export pre-encodes its tables, and the key manifest is the
union over the views that run.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.backend import SimBackend, ToyBackend
from repro.ckks.keys import KeyManifest
from repro.ckks.params import toy_parameters
from repro.core.packing.layouts import TiledLayout, VectorLayout
from repro.core.packing.matvec import BlockDiagonals
from repro.core.program import LinearInstr
from repro.models import LolaCnn, SecureMlp, resnet_cifar, silu_act
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap
from repro.serve.artifact import ArtifactSchemaError
from repro.serve.keys import generate_lane_keys

#: name -> (network, input shape, ring degree, slot-batch capacity): the
#: ``serve_mlp_pool`` model, the ``mlp_solo`` model and a conv network.
NETWORKS = {
    "mlp64": (lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8), 2048, 16),
    "mlp784": (lambda: SecureMlp(input_pixels=784, hidden=128), (1, 28, 28), 4096, 2),
    "lola": (lambda: LolaCnn(image_size=8, channels=2), (1, 8, 8), 2048, 16),
}


def _compile(name, mode="materialize"):
    builder, shape, ring_degree, _ = NETWORKS[name]
    init.seed_init(0)
    onet = OrionNetwork(builder(), shape)
    onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (8,) + shape)])
    params = toy_parameters(
        ring_degree=ring_degree, max_level=6, boot_levels=1, scale_bits=24
    )
    return onet, params, onet.compile(params, mode=mode)


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def network(request):
    return (request.param,) + _compile(request.param)


def _images(name, count=3):
    shape = NETWORKS[name][1]
    rng = np.random.default_rng(1)
    return [rng.normal(0.0, 0.5, shape) for _ in range(count)]


def _linear(program):
    return [i for i in program.instructions if isinstance(i, LinearInstr)]


class TestLoneClient:
    def test_what_runs_is_the_capacity_view(self, network):
        name, _, params, compiled = network
        program = compiled.program
        capacity = NETWORKS[name][3]
        assert program.slot_batch_capacity() == capacity
        block_level = program.block_level()
        assert block_level is not program
        assert program.batched(1) is program is block_level.capacity_view()
        assert isinstance(program.input_layout, TiledLayout)
        assert program.input_layout.inner == block_level.input_layout
        block = params.slot_count // capacity
        for lone, layer in zip(_linear(program), _linear(block_level)):
            lone, layer = lone.packed, layer.packed
            assert list(lone.diags) == [(0, 0)] and not lone.gathers
            assert list(lone.diags[(0, 0)]) == list(layer.diags[(0, 0)])
            assert lone.fold_shifts == tuple(s for s in layer.fold_shifts if s < block)
            # The counts placement priced; only the output layout differs.
            assert replace(lone.stats, out_layout=layer.out_layout) == (
                layer.stats.capacity_view(capacity)
            )

    def test_matches_the_block_level_form(self, network):
        """On the noise-free simulator the one-client output is the
        block-level form's, up to the float summation order."""
        name, _, params, compiled = network
        reference = SimBackend(params, noise_free=True)
        program = compiled.program
        for image in _images(name):
            lone = program.run(reference, image)
            block_level = program.block_level().run(reference, image)
            assert np.abs(lone - block_level).max() < 1e-12

    def test_precision_is_no_worse_than_the_block_level_forms(self, network):
        """On the exact backend, fewer folds: the lone client's run
        keeps at least the block-level form's precision (within half a
        bit on average over three inputs)."""
        name, _, params, compiled = network
        program = compiled.program
        reference = SimBackend(params, noise_free=True)
        backend = ToyBackend(params, seed=3)
        generate_lane_keys(backend, KeyManifest.for_program(params, program))
        lone, block_level = [], []
        for image in _images(name):
            want = program.block_level().run(reference, image)
            lone.append(OrionNetwork.precision_bits(program.run(backend, image), want))
            block_level.append(
                OrionNetwork.precision_bits(program.block_level().run(backend, image), want)
            )
        assert np.mean(lone) >= np.mean(block_level) - 0.5, (lone, block_level)

    def test_ledger_rotations_are_the_summarys(self, network):
        """One inference charges exactly the rotations the compile
        summary reports, and the placement priced: the layer reports are
        the capacity view's stats, in both compile modes."""
        name, onet, params, compiled = network
        backend = SimBackend(params, noise_free=True)
        compiled.program.run(backend, _images(name, 1)[0])
        assert backend.ledger.rotations == compiled.summary()["rotations"]
        assert compiled.summary()["rotations"] == sum(
            i.packed.stats.rotations for i in _linear(compiled.program)
        )
        analyzed = onet.compile(params, mode="analyze")
        for key in ("rotations", "pmults", "bootstraps", "modeled_seconds"):
            assert analyzed.summary()[key] == compiled.summary()[key], key

    def test_resnet8_runs_unfused_at_capacity_4(self):
        """Fusing ResNet-8's sibling convs would stack two ciphertexts
        and drop the capacity to 1 (147 rotations); the compiler keeps
        them apart, and a lone client runs the capacity-4 view: 130."""
        init.seed_init(0)
        onet = OrionNetwork(resnet_cifar(8, act=silu_act(31), width=4), (3, 8, 8))
        onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (8, 3, 8, 8))])
        params = toy_parameters(
            ring_degree=2048, max_level=12, boot_levels=3, scale_bits=24
        )
        compiled = onet.compile(params)
        program = compiled.program
        assert compiled.graph_opt_report.total == 0
        assert program.slot_batch_capacity() == 4
        assert program is program.capacity_view() is not program.block_level()
        backend = SimBackend(params, noise_free=True)
        program.run(backend, np.zeros((3, 8, 8)))
        assert backend.ledger.rotations == compiled.summary()["rotations"] == 130

    def test_no_inference_fetches_a_key_outside_the_manifest(self, network):
        """With the lane's keys generated from the manifest and the
        lazy key fetch made to raise instead of generating, a lone
        client and every distinct-client batch run through."""
        name, _, params, compiled = network
        program = compiled.program
        backend = ToyBackend(params, seed=4)
        generate_lane_keys(backend, KeyManifest.for_program(params, program))
        context = backend.context
        fetch = context.galois_key

        def held_only(exponent, max_level=None):
            key = context.keys.galois.get(exponent % (2 * params.ring_degree))
            if key is None or not key.covers(
                params.max_level if max_level is None else max_level
            ):
                raise AssertionError(f"key {exponent} at level {max_level} is not held")
            return fetch(exponent, max_level=max_level)

        context.galois_key = held_only
        shape = NETWORKS[name][1]
        batch = 1
        while batch <= program.slot_batch_capacity():
            view = program.batched(batch)
            view.run(backend, np.zeros(shape if batch == 1 else (batch,) + shape))
            batch *= 2


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        _, params, compiled = _compile("mlp64")
        path = str(tmp_path_factory.mktemp("capacity") / "mlp.npz")
        compiled.export(path, params)
        return params, compiled, path

    def test_tables_are_the_lone_clients(self, exported):
        """The artifact stores the block-level program and pre-encodes
        what a lone client runs; its summary counts that run."""
        params, compiled, path = exported
        artifact = ArtifactMap(path).load()
        program = artifact.program
        assert program.slot_batch_capacity() == 16
        assert artifact.summary["rotations"] == 24
        assert all(section["copies"] == 16 for section in artifact.encoded)
        backend = ToyBackend(artifact.manifest.to_params(), seed=2)
        generate_lane_keys(backend, artifact.manifest)
        assert artifact.preload(backend) == sum(
            len(i.packed.terms()) for i in _linear(program)
        )
        image = _images("mlp64", 1)[0]
        reference = SimBackend(artifact.manifest.to_params(), noise_free=True)
        assert np.array_equal(
            program.run(reference, image), compiled.program.run(reference, image)
        )
        assert np.array_equal(
            program.block_level().run(reference, image),
            compiled.program.block_level().run(reference, image),
        )

    def test_a_preloaded_lane_sums_no_diagonal(self, exported, monkeypatch):
        """A capacity view stores no float diagonal of its own (its maps
        read the block-level arrays), and with its tables preloaded an
        exact-backend inference reads none: a lane holds one float copy
        of the weights, the mapped block-level one."""
        _, _, path = exported
        artifact = ArtifactMap(path).load()
        program = artifact.program
        assert all(
            isinstance(i.packed.diags[(0, 0)], BlockDiagonals) for i in _linear(program)
        )
        backend = ToyBackend(artifact.manifest.to_params(), seed=2)
        generate_lane_keys(backend, artifact.manifest)
        artifact.preload(backend)

        def unread(diagonals, offset):
            raise AssertionError(f"diagonal {offset} was summed")

        monkeypatch.setattr(BlockDiagonals, "__getitem__", unread)
        program.run(backend, _images("mlp64", 1)[0])

    def test_block_level_tables_are_refused(self, exported, tmp_path):
        """Tables encoded without the copy count (the block-level
        layer's, as artifacts held them while a lone client ran the
        block-level program) have the view's shapes but not its values:
        preload refuses them by name."""
        _, _, path = exported
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        doc = json.loads(bytes(arrays.pop("__manifest__")).decode())
        for section in doc["encoded"]:
            del section["copies"]
        stale = str(tmp_path / "stale.npz")
        np.savez(
            stale,
            __manifest__=np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8),
            **arrays,
        )
        artifact = ArtifactMap(stale).load()
        backend = ToyBackend(artifact.manifest.to_params(), seed=2)
        with pytest.raises(ArtifactSchemaError, match="1 copies of a client.*runs 16"):
            artifact.preload(backend)


def test_tiled_layout_round_trip():
    inner = VectorLayout(10, 64)
    layout = TiledLayout(inner, batch=4, slots=64)
    data = np.arange(10, dtype=float)
    (packed,) = layout.pack(data)
    assert np.array_equal(packed.reshape(4, 16)[:, :10], np.tile(data, (4, 1)))
    assert np.array_equal(layout.unpack([packed]), data)
    assert layout.tensor_shape == inner.tensor_shape
