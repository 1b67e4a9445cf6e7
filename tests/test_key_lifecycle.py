"""Tenant-scale key & artifact lifecycle (docs/keys.md).

Covers the PRG-seeded switching keys (expansion bit-exact against the
stored halves, across ``ks_alpha`` groupings and compressed level
bounds), the one resident tensor per key, byte-stable artifact
re-export, the hot reload of a running pool after a re-export in place,
and the telemetry that reports it all (the stats schema gate, the
key-bytes Prometheus gauge).
"""

import json
import shutil

import numpy as np
import pytest

from repro import serve
from repro.backend import ToyBackend
from repro.backend.ledger import LatencyHistogram
from repro.ckks.context import CkksContext
from repro.ckks.keys import (
    KEY_PRG_SEED_BYTES,
    KeyManifest,
    SwitchingKey,
    expand_a_half,
    expand_uniform_row,
)
from repro.ckks.params import toy_parameters
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap, save_artifact
from repro.serve.keys import default_backend_factory
from repro.serve.runtime import InferenceServer
from repro.serve.stats import (
    STATS_SCHEMA_VERSION,
    LaneStats,
    NoiseStats,
    ServerStats,
    StatsSchemaError,
    WorkerStats,
)


def _tiny_params(ks_alpha: int = 1, max_level: int = 4):
    return toy_parameters(
        ring_degree=64,
        max_level=max_level,
        boot_levels=1,
        scale_bits=24,
        num_special_primes=max(1, ks_alpha),
        ks_alpha=ks_alpha,
    )


def _mlp_params():
    return toy_parameters(
        ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24
    )


def _make_net(seed=0, perturb_last=None):
    init.seed_init(seed)
    net = SecureMlp(input_pixels=64, hidden=16)
    if perturb_last is not None:
        rng = np.random.default_rng(perturb_last)
        for p in net.fc3.parameters():
            p.data = p.data + rng.normal(0, 1e-3, p.data.shape)
    onet = OrionNetwork(net, (1, 8, 8))
    calib_rng = np.random.default_rng(seed)
    onet.fit([calib_rng.normal(0, 0.5, (8, 1, 8, 8))])
    return onet


@pytest.fixture(scope="module")
def mlp_deployment(tmp_path_factory):
    """A base artifact — the raw material for the lifecycle tests below."""
    params = _mlp_params()
    base_path = str(tmp_path_factory.mktemp("lifecycle") / "base.npz")
    _make_net(seed=0).export(base_path, params)
    return params, base_path


class TestSeedExpansion:
    @pytest.mark.parametrize("ks_alpha", [1, 2, 3])
    def test_expanded_a_halves_bit_exact(self, ks_alpha):
        """Every key the context generates carries a PRG seed whose
        expansion reproduces the stored uniform halves bit for bit."""
        context = CkksContext(_tiny_params(ks_alpha), seed=5)
        context.generate_rotation_keys([1, 3])
        keys = [context.keys.relin] + list(context.keys.galois.values())
        assert keys and all(k.seed is not None for k in keys)
        for key in keys:
            assert len(key.seed) == KEY_PRG_SEED_BYTES
            rebuilt = SwitchingKey.from_seed(
                key.seed,
                key.tensor[0],
                context.basis,
                exponent=key.exponent,
                max_level=key.max_level,
            )
            assert np.array_equal(rebuilt.tensor, key.tensor)
            for digit, (_, a) in enumerate(key.pairs):
                expanded = expand_a_half(key.seed, digit, context.basis, a.primes)
                assert np.array_equal(a.data, expanded.data)

    @pytest.mark.parametrize("ks_alpha", [1, 2])
    def test_expansion_at_compressed_level_bounds(self, ks_alpha):
        """Compressed keys (per-step level bounds) expand from the same
        seed: rows are keyed by prime *value*, not chain position, so
        restriction composes with seed expansion automatically."""
        params = _tiny_params(ks_alpha)
        context = CkksContext(params, seed=9)
        context.generate_rotation_keys([1], levels={1: params.max_level - 2})
        for key in context.keys.galois.values():
            for digit, (b, a) in enumerate(key.pairs):
                expanded = expand_a_half(
                    key.seed, digit, context.basis, b.primes
                )
                assert np.array_equal(a.data, expanded.data)

    def test_expansion_is_deterministic_and_distinct(self):
        seed = b"\x07" * KEY_PRG_SEED_BYTES
        row = expand_uniform_row(seed, 0, 65537, 64)
        assert np.array_equal(row, expand_uniform_row(seed, 0, 65537, 64))
        assert not np.array_equal(row, expand_uniform_row(seed, 1, 65537, 64))
        assert not np.array_equal(
            row, expand_uniform_row(b"\x08" * KEY_PRG_SEED_BYTES, 0, 65537, 64)
        )
        assert row.min() >= 0 and row.max() < 65537

    def test_seeded_size_at_least_1_8x_smaller(self):
        context = CkksContext(_tiny_params(2), seed=3)
        context.generate_rotation_keys([1, 2, 3])
        stored = seeded = 0
        for key in [context.keys.relin] + list(context.keys.galois.values()):
            stored += key.tensor.nbytes
            seeded += key.size_bytes()
        assert stored / seeded >= 1.8


class TestOneResidentTensor:
    """A switching key is one tensor the hot path slices (docs/keys.md):
    every level reads a prefix view, and nothing key-sized is built on
    the request path."""

    @pytest.mark.parametrize("ks_alpha, num_special", [(1, 1), (1, 2), (3, 3)])
    @pytest.mark.parametrize("bound", [None, 3])
    def test_every_level_is_a_prefix_view(self, ks_alpha, num_special, bound):
        params = toy_parameters(
            ring_degree=64,
            max_level=5,
            scale_bits=20,
            num_special_primes=num_special,
            ks_alpha=ks_alpha,
        )
        context = CkksContext(params, seed=3)
        exponent = context.encoder.rotation_exponent(1)
        if bound is None:
            key = context.galois_key(exponent)
        else:
            key = context.generate_compressed_galois_key(exponent, bound)
        for key in (key, context.keys.relin):
            top = params.max_level if key.max_level is None else key.max_level
            assert key.tensor.dtype == np.uint32
            assert not key.tensor.flags.writeable
            assert key.tensor.shape[2] == num_special + top + 1
            assert key.primes[:num_special] == context.basis.special_primes
            for level in range(top + 1):
                num_digits = context._ks_num_digits(level)
                view = key.chain_view(num_digits, level)
                assert np.shares_memory(view, key.tensor)
                assert view.shape == (
                    2, num_digits, num_special + level + 1, params.ring_degree
                )
                assert (
                    key.primes[num_special : view.shape[2]] + key.primes[:num_special]
                    == context._ks_chain(level)
                )

    def test_request_path_allocates_nothing_key_sized(self):
        import tracemalloc

        params = toy_parameters(ring_degree=1024, max_level=6, scale_bits=24)
        backend = ToyBackend(params, seed=4)
        context = backend.context
        steps = list(range(1, 11))
        context.generate_rotation_keys(steps)
        ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
        low = backend.level_down(ct, 3)
        # An absolute budget, not a share of key bytes (which halved
        # with the residue width): what a call may legitimately hand
        # back is one (2, K, O, N) int64 accumulator — a seventh of
        # these ten keys — and it retains none of it.
        budget = 2 * len(context._ks_chain(ct.level)) * len(steps) * 1024 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for at in (ct, low):
                context.rotate_hoisted_raw(at, steps)
                grown = tracemalloc.get_traced_memory()[0] - before
                assert grown < budget, (grown, budget)
        finally:
            tracemalloc.stop()

    def test_only_a_uint32_tensor_is_a_key(self):
        """No int64 key is constructible, and keygen refuses a chain
        whose residues would not fit 32 bits before touching the rng."""
        context = CkksContext(_tiny_params(), seed=1)
        relin = context.keys.relin
        with pytest.raises(TypeError, match="uint32"):
            SwitchingKey(relin.tensor.astype(np.int64), context.basis)
        with pytest.raises(TypeError, match="uint32"):
            SwitchingKey.from_seed(
                relin.seed, relin.tensor[0].astype(np.int64), context.basis
            )
        state = context.rng.get_state()
        context.basis.primes = context.basis.primes[:-1] + (2**32 + 15,)
        with pytest.raises(ValueError, match="32-bit"):
            context._make_switching_key(context.keys.secret, context.keys.secret)
        assert context.rng.get_state() == state

    def test_mlp_solo_manifest_stores_the_same_bytes(self):
        """The e2e harness's exact ``keys.bytes`` row for ``mlp_solo``
        (SecureMlp(784, 128) at N=4096, L=6): stored bytes — 4-byte b
        rows plus seed; resident bytes are the tensors and nothing
        else."""
        init.seed_init(0)
        onet = OrionNetwork(SecureMlp(input_pixels=784, hidden=128), (1, 28, 28))
        onet.fit([np.random.default_rng(0).normal(0.0, 0.5, (8, 1, 28, 28))])
        params = toy_parameters(
            ring_degree=4096, max_level=6, boot_levels=1, scale_bits=24
        )
        manifest = KeyManifest.for_program(params, onet.compile(params).program)
        context = CkksContext(manifest.to_params(), seed=7)
        context.generate_rotation_keys(
            manifest.rotation_steps, levels=manifest.step_level_map()
        )
        keys = [context.keys.relin] + list(context.keys.galois.values())
        # 142 rotation keys, the single-client set: batched views gather
        # scratch through the layers' own fold steps (269 while they
        # relocated it under new offsets, 318 before that with every
        # shallow ladder fully expanded).
        assert len(context.keys.galois) == 142
        assert sum(key.size_bytes() for key in keys) == 47_452_640
        resident = sum(key.tensor.nbytes for key in keys)
        assert resident == 2 * (47_452_640 - len(keys) * KEY_PRG_SEED_BYTES)


class TestArtifactFiles:
    def test_reexport_is_byte_identical(self, mlp_deployment, tmp_path):
        """Artifact bytes are a function of the compile: no wall-clock
        timing reaches the manifest, so exporting the same network twice
        writes the same file."""
        params, _ = mlp_deployment
        onet = _make_net(seed=0)
        first, again = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        onet.export(first, params)
        onet.export(again, params)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_manifest_with_the_dropped_conjugation_flag(
        self, mlp_deployment, tmp_path
    ):
        """A base exported while the key manifest still carried
        ``needs_conjugation`` (always false) loads as it did."""
        _, base_path = mlp_deployment
        with np.load(base_path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        doc = json.loads(bytes(arrays.pop("__manifest__")).decode())
        manifest = doc["key_manifest"]
        assert "needs_conjugation" not in manifest
        doc["key_manifest"] = {
            "params": manifest["params"],
            "rotation_steps": manifest["rotation_steps"],
            "needs_conjugation": False,
            "rotation_step_levels": manifest["rotation_step_levels"],
        }
        old_base = str(tmp_path / "old_base.npz")
        np.savez(
            old_base,
            __manifest__=np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8),
            **arrays,
        )
        old = ArtifactMap(old_base).load()
        current = ArtifactMap(base_path).load()
        assert old.manifest == current.manifest
        img = np.random.default_rng(9).normal(0, 0.5, (1, 8, 8))
        assert np.array_equal(
            old.program.run(ToyBackend(old.manifest.to_params(), seed=7), img),
            current.program.run(ToyBackend(current.manifest.to_params(), seed=7), img),
        )


class TestHotReload:
    @pytest.mark.usefixtures("fork_deadline")
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_pool_hot_swaps_reexport_bit_exact(
        self, mlp_deployment, tmp_path, mode
    ):
        """Export the retrained network over the served path: the pool
        serves the file it mapped until ``reload()``, then the new one.
        Every result is bit-equal to a solo replay that runs the old
        file, then the new one, on one backend with the pool's key
        seed."""
        params, base_path = mlp_deployment
        served = str(tmp_path / "served.npz")
        shutil.copy(base_path, served)
        images = list(np.random.default_rng(21).normal(0, 0.5, (3, 1, 8, 8)))

        def one(server, image):
            server.submit(image, client_id="alice", now=0.0)
            (result,) = server.drain()
            return result.output

        config = serve.ServerConfig(workers=1, mode=mode, batch_window_seconds=0.0)
        with serve.open(served, config) as server:
            pool = [one(server, images[0])]
            _make_net(seed=0, perturb_last=42).export(served, params)
            pool.append(one(server, images[1]))  # still the old tables
            server.reload()
            pool.append(one(server, images[2]))

        old, new = ArtifactMap(base_path).load(), ArtifactMap(served).load()
        backend = default_backend_factory(old.manifest.to_params(), config.key_seed)
        solo_old = InferenceServer(old, backend, max_wait_seconds=0.0)
        solo = [one(solo_old, images[0]), one(solo_old, images[1])]
        solo.append(one(InferenceServer(new, backend, max_wait_seconds=0.0), images[2]))
        for got, want in zip(pool, solo):
            assert np.array_equal(got, want)
        # The swap took: the retrained weights answer the last request.
        expected = new.program.run_cleartext_packed(images[2])
        assert not np.array_equal(old.program.run_cleartext_packed(images[2]), expected)
        np.testing.assert_allclose(pool[2][: expected.size], expected.ravel(), atol=0.1)

    def test_reload_refuses_undrained_queues(self, mlp_deployment, tmp_path):
        params, base_path = mlp_deployment
        served = str(tmp_path / "served.npz")
        shutil.copy(base_path, served)
        config = serve.ServerConfig(workers=1, batch_window_seconds=0.0)
        with serve.open(served, config) as server:
            img = np.random.default_rng(5).normal(0, 0.5, (1, 8, 8))
            server.submit(img, client_id="alice", now=0.0)
            with pytest.raises(RuntimeError, match="in flight|in-flight"):
                server.reload()
            server.drain()

    def test_reload_refuses_different_key_manifest(
        self, mlp_deployment, tmp_path
    ):
        params, base_path = mlp_deployment
        served = str(tmp_path / "served.npz")
        shutil.copy(base_path, served)
        config = serve.ServerConfig(workers=1, batch_window_seconds=0.0)
        with serve.open(served, config) as server:
            init.seed_init(8)
            other = OrionNetwork(
                SecureMlp(input_pixels=64, hidden=32), (1, 8, 8)
            )
            other.fit(
                [np.random.default_rng(8).normal(0, 0.5, (8, 1, 8, 8))]
            )
            save_artifact(other.compile(params), params, served)
            with pytest.raises(RuntimeError, match="manifest"):
                server.reload()


def _stats(**lane_overrides):
    lane = dict(
        artifact_id="mlp",
        requests_served=1,
        batches_run=1,
        queue_depth=0,
        capacity=8,
        preloaded_plaintexts=0,
        compilations_since_load=0,
        placements_since_load=0,
        mmap_backed=True,
        key_bytes_resident=0,
        modeled_seconds=0.0,
        rotations=0,
        bootstraps=0,
        ops=(),
        noise=NoiseStats(),
        request_latency=LatencyHistogram(),
        queue_wait=LatencyHistogram(),
        phases=(),
    )
    lane.update(lane_overrides)
    return ServerStats(
        schema_version=STATS_SCHEMA_VERSION,
        artifacts=("mlp",),
        requests_submitted=1,
        requests_admitted=1,
        requests_rejected=0,
        requests_completed=1,
        in_flight=0,
        workers=(WorkerStats(0, (LaneStats(**lane),)),),
    )


class TestTelemetry:
    def test_stats_v2_payload_rejected(self):
        payload = _stats().to_payload()
        assert payload["schema_version"] == STATS_SCHEMA_VERSION == 4
        payload["schema_version"] = 2
        with pytest.raises(
            StatsSchemaError, match="schema version 2, but this build reads schema version 4"
        ):
            ServerStats.from_payload(payload)

    def test_stats_roundtrip_carries_key_bytes(self):
        stats = _stats(key_bytes_resident=1024)
        back = ServerStats.from_json(stats.to_json())
        assert back == stats
        assert back.workers[0].key_bytes_resident == 1024

    def test_metrics_expose_key_material_gauges(self, mlp_deployment):
        """A lane reports the rotation-key bytes its own backend holds."""
        params, base_path = mlp_deployment
        config = serve.ServerConfig(workers=1, batch_window_seconds=0.0)
        with serve.open(base_path, config) as server:
            img = np.random.default_rng(6).normal(0, 0.5, (1, 8, 8))
            server.submit(img, client_id="alice", now=0.0)
            server.drain()
            registry = server.metrics()
            stats = server.stats()
        key_bytes = stats.workers[0].key_bytes_resident
        assert key_bytes > 0
        assert registry.gauge_value(
            "repro_key_material_bytes", state="resident", worker="0",
            artifact=stats.artifacts[0],
        ) == key_bytes
