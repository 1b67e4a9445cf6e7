"""Tests for fleet-scale serving: the sharded worker pool behind
``repro.serve.open``.

The correctness gates of the pool PR:

- **routing determinism** — rendezvous hashing pins every
  (artifact, client) to one worker, reproducibly across deployments;
- **per-worker bit-exactness** — each pool worker's outputs are
  bit-identical to a solo ``InferenceServer`` replaying the same
  requests (the pool is pure orchestration; the hot path is untouched);
- **admission conservation** — ``submitted == admitted + rejected`` and
  ``admitted == completed + in_flight`` at every observation point,
  including under overload and after drain;
- **shared mmap tables** — workers serve from read-only mmap-backed
  views of the artifact; no table is ever copied on the request path;
- **typed stats** — ``ServerStats`` round-trips through JSON and
  rejects foreign schema versions;
- **lane keys** — every lane holds its rotation keys from the moment
  the pool opens, and nothing on the serving path adds one;
- **one keygen per artifact** — an inline pool's workers hold the first
  worker's key objects and rng state, a process pool's children key
  themselves, and both equal a solo keygen byte for byte.
"""

import gc
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import serve
from repro.backend.sim import SimBackend
from repro.ckks.context import CkksContext
from repro.ckks.params import toy_parameters
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import (
    AdmissionError,
    ArtifactMap,
    ArtifactSpec,
    ServerConfig,
    ServerStats,
    WorkerLostError,
    WorkerStats,
    is_mmap_backed,
)
from repro.serve.artifact import artifact_from_doc
from repro.serve.keys import (
    KeyDomain,
    KeyDomainError,
    backend_key_bytes,
    default_backend_factory,
    generate_lane_keys,
)
from repro.serve.pool import Worker, WorkerProfile, verify_mmap_tables
from repro.serve.runtime import InferenceServer, ServeResult


def _params():
    return toy_parameters(
        ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24
    )


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    rng = np.random.default_rng(0)
    onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
    params = _params()
    path = str(tmp_path_factory.mktemp("artifacts") / "mlp.npz")
    onet.export(path, params)
    return path


def _images(n, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(n)]


#: The pools here cap batches at 2 unless a test needs more.  The cap
#: does not move a lane's keys (29 at any cap: a batched view rotates by
#: no step the single-client program lacks), only its batch sizes.
POOL_MAX_BATCH = 2


def _pool_config(**overrides):
    base = dict(
        workers=4, batch_window_seconds=0.0, max_queue_depth=8, max_batch=POOL_MAX_BATCH
    )
    base.update(overrides)
    return ServerConfig(**base)


class TestRouting:
    def test_deterministic_across_deployments(self, artifact_path):
        clients = [f"client-{i}" for i in range(32)]
        with serve.open(artifact_path, _pool_config()) as a:
            routes_a = [a.route(c) for c in clients]
            routes_again = [a.route(c) for c in clients]
        with serve.open(artifact_path, _pool_config()) as b:
            routes_b = [b.route(c) for c in clients]
        assert routes_a == routes_again == routes_b
        # Rendezvous hashing over 32 clients should touch every worker.
        assert set(routes_a) == {0, 1, 2, 3}

    def test_routing_seed_reshuffles(self, artifact_path):
        clients = [f"client-{i}" for i in range(32)]
        with serve.open(artifact_path, _pool_config(routing_seed=0)) as a:
            routes_a = [a.route(c) for c in clients]
        with serve.open(artifact_path, _pool_config(routing_seed=1)) as b:
            routes_b = [b.route(c) for c in clients]
        assert routes_a != routes_b

    def test_results_are_stamped_with_route(self, artifact_path):
        with serve.open(artifact_path, _pool_config()) as server:
            for i, image in enumerate(_images(6)):
                server.submit(image, client_id=f"client-{i}")
            results = server.drain()
            for result in results:
                assert result.worker_id == server.route(result.client_id)
                assert result.artifact_id == server.artifact_ids[0]


class TestBitExactness:
    def test_per_worker_matches_solo_server(self, artifact_path):
        """Each pool worker == a solo InferenceServer replaying its
        share of the traffic (same key seed — hence the same lane keys —
        and the same batch cap and batching rule)."""
        images = _images(10)
        clients = [f"client-{i}" for i in range(len(images))]
        with serve.open(artifact_path, _pool_config()) as server:
            for client, image in zip(clients, images):
                server.submit(image, client_id=client)
            pool_results = {r.client_id: r for r in server.drain()}
            shares = {}
            for client, image in zip(clients, images):
                shares.setdefault(server.route(client), []).append(
                    (client, image)
                )
        artifact = ArtifactMap(artifact_path).load()
        for worker_id, share in shares.items():
            solo = InferenceServer(
                artifact,
                default_backend_factory(artifact.manifest.to_params(), 0),
                batching=True,
                max_batch=POOL_MAX_BATCH,
                max_wait_seconds=0.0,
            )
            for client, image in share:
                solo.submit(image, client_id=client)
            for solo_result in solo.step():
                pool_result = pool_results[solo_result.client_id]
                assert pool_result.worker_id == worker_id
                assert pool_result.batch_size == solo_result.batch_size
                assert np.array_equal(pool_result.output, solo_result.output)

    def test_serve_now_matches_solo(self, artifact_path):
        image = _images(1)[0]
        with serve.open(artifact_path, _pool_config()) as server:
            pool_result = server.serve_now(image, client_id="alice")
        artifact = ArtifactMap(artifact_path).load()
        solo = InferenceServer(
            artifact,
            default_backend_factory(artifact.manifest.to_params(), 0),
            batching=True,
            max_batch=POOL_MAX_BATCH,
            max_wait_seconds=0.0,
        )
        solo_result = solo.serve_now(image, client_id="alice")
        assert np.array_equal(pool_result.output, solo_result.output)


class TestAdmission:
    def test_queue_full_rejects_with_retry_hint(self, artifact_path):
        config = _pool_config(max_queue_depth=2)
        with serve.open(artifact_path, config) as server:
            # One client -> one worker; the third submit must bounce.
            images = _images(6)
            admitted, rejections = 0, []
            for image in images:
                try:
                    server.submit(image, client_id="hammer")
                    admitted += 1
                except AdmissionError as exc:
                    rejections.append(exc)
            assert admitted == 2
            assert len(rejections) == 4
            for exc in rejections:
                assert exc.retry_after_ms > 0
                assert exc.worker_id == server.route("hammer")
                assert exc.queue_depth == 2
            server.drain()

    def test_conservation_under_overload(self, artifact_path):
        config = _pool_config(max_queue_depth=2)
        with serve.open(artifact_path, config) as server:
            for i, image in enumerate(_images(16)):
                try:
                    server.submit(image, client_id=f"client-{i % 3}")
                except AdmissionError:
                    pass
                if i == 7:  # conservation holds mid-stream, queues nonempty
                    mid = server.stats()
                    assert mid.requests_submitted == 8
                    assert mid.in_flight > 0
            stats = server.stats()
            assert stats.requests_submitted == 16
            assert stats.requests_rejected > 0
            assert (
                stats.requests_submitted
                == stats.requests_admitted + stats.requests_rejected
            )
            server.drain()
            final = server.stats()
            assert final.in_flight == 0
            assert final.requests_completed == final.requests_admitted
            assert 0.0 < final.reject_rate < 1.0

    def test_latency_budget_rejects(self, artifact_path):
        # Budget sized to one modeled batch: the first request fits,
        # a second on the same worker overflows the backlog estimate.
        probe = serve.open(artifact_path, _pool_config())
        modeled = next(
            iter(probe._workers[0].profiles.values())
        ).modeled_seconds
        probe.close()
        config = _pool_config(
            max_queue_depth=64, admission_budget_seconds=modeled * 1.5
        )
        with serve.open(artifact_path, config) as server:
            server.submit(_images(1)[0], client_id="alice")
            with pytest.raises(AdmissionError) as exc_info:
                server.submit(_images(1)[0], client_id="alice")
            assert "budget" in str(exc_info.value)
            server.drain()

    def test_drain_leaves_zero_in_flight(self, artifact_path):
        with serve.open(artifact_path, _pool_config()) as server:
            tickets = [
                server.submit(image, client_id=f"client-{i}")
                for i, image in enumerate(_images(8))
            ]
            results = server.drain()
            assert sorted(r.ticket for r in results) == sorted(tickets)
            stats = server.stats()
            assert stats.in_flight == 0
            assert stats.requests_completed == len(tickets)


class _StubWorker:
    """A server-facing worker whose batches report a scripted wall."""

    worker_id = 0

    def __init__(self, modeled_seconds, walls, capacity=2):
        self.profiles = {
            "mlp": WorkerProfile(
                capacity=capacity,
                modeled_seconds=modeled_seconds,
                mmap_backed=False,
            )
        }
        self.walls = iter(walls)
        self.queue = []

    def queue_depths(self):
        return {"mlp": len(self.queue)}

    def submit(self, ticket, artifact_id, client_id, payload, now, deadline):
        self.queue.append((ticket, client_id))

    def begin_step(self, now):
        pass

    def finish_step(self, now):
        capacity = self.profiles["mlp"].capacity
        results = []
        while self.queue:
            batch, self.queue = self.queue[:capacity], self.queue[capacity:]
            wall = next(self.walls)
            results.extend(
                ServeResult(
                    ticket=ticket,
                    client_id=client_id,
                    output=None,
                    batch_size=len(batch),
                    reason="full",
                    wall_seconds=wall,
                    modeled_seconds=0.0,
                    artifact_id="mlp",
                    worker_id=self.worker_id,
                )
                for ticket, client_id in batch
            )
        return results

    def stats(self):
        return WorkerStats(self.worker_id, ())


def _stub_server(worker, **config):
    """A :class:`serve.Server` in front of one stub worker."""
    spec = ArtifactSpec("mlp", path="mlp.npz")
    return serve.Server((spec,), [worker], ServerConfig(**config))


def _refusal(server):
    with pytest.raises(AdmissionError) as exc_info:
        server.submit(None, client_id="alice")
    return exc_info.value


class TestMeasuredAdmission:
    """Admission prices a batch at what the lane has *measured*: the
    modeled figure only stands in until the first delivery."""

    MODELED, MEASURED = 0.02, 0.2

    def test_retry_hint_tracks_measured_batch_time(self):
        walls = [0.18, 0.22, 0.21, 0.19, 0.2, 0.2]
        server = _stub_server(_StubWorker(self.MODELED, walls), max_queue_depth=2)
        for round_index in range(len(walls)):
            server.submit(None, client_id="alice")
            server.submit(None, client_id="alice")
            refusal = _refusal(server)  # queue full
            if round_index == 0:  # nothing delivered yet: the model
                assert refusal.retry_after_ms == pytest.approx(self.MODELED * 1e3)
            else:
                assert refusal.retry_after_ms == pytest.approx(
                    self.MEASURED * 1e3, rel=0.25
                )
            assert len(server.step()) == 2
        stats = server.stats()  # ServerStats checks both conservation laws
        assert stats.in_flight == 0
        assert stats.requests_rejected == len(walls)

    def test_mean_observes_batches_not_requests(self):
        server = _stub_server(_StubWorker(self.MODELED, [0.18, 0.22]), max_queue_depth=4)
        for _ in range(4):
            server.submit(None, client_id="alice")
        # A full queue's retry hint is one batch at the lane's price.
        assert _refusal(server).retry_after_ms == pytest.approx(self.MODELED * 1e3)
        server.step()  # two batches of two
        for _ in range(4):
            server.submit(None, client_id="alice")
        # The first measurement replaces the model outright; the second
        # moves the mean a quarter of the way, once.
        assert _refusal(server).retry_after_ms == pytest.approx(
            (0.18 + 0.25 * (0.22 - 0.18)) * 1e3
        )

    def test_budget_rejects_on_measured_backlog(self):
        # 0.1 s of budget holds the modeled backlog (one queued batch +
        # the request's own = 0.04 s) but not the measured one (0.4 s).
        server = _stub_server(
            _StubWorker(self.MODELED, [self.MEASURED] * 4),
            max_queue_depth=64,
            admission_budget_seconds=0.1,
        )
        server.submit(None, client_id="alice")
        server.submit(None, client_id="alice")  # modeled backlog: admitted
        server.step()
        refusal = _refusal(server)
        assert "budget" in str(refusal)
        assert refusal.retry_after_ms == pytest.approx(
            (self.MEASURED - 0.1) * 1e3
        )


class TestLockStepDrain:
    def test_drain_sends_every_step_before_reading_a_reply(self):
        """``drain()`` is one lock-step step: every worker gets its step
        before any reply is read, so process workers drain in parallel."""
        log = []

        class Recording(_StubWorker):
            def begin_step(self, now):
                log.append(("begin", self.worker_id))

            def finish_step(self, now):
                log.append(("finish", self.worker_id))
                return super().finish_step(now)

        workers = [Recording(0.02, [0.2] * 4) for _ in range(2)]
        for worker_id, worker in enumerate(workers):
            worker.worker_id = worker_id
        spec = ArtifactSpec("mlp", path="mlp.npz")
        server = serve.Server((spec,), workers, ServerConfig(workers=2))
        for client in ("alice", "bob", "carol", "dave"):
            server.submit(None, client_id=client)
        assert len(server.drain()) == 4
        assert log == [("begin", 0), ("begin", 1), ("finish", 0), ("finish", 1)]
        assert server.stats().in_flight == 0


class TestWorkConserving:
    def test_window_does_not_change_what_executes(self, artifact_path):
        """One scripted submit/step sequence at the default 50 ms window
        and at 0: same batches, same reasons, same bits.  (The deleted
        deadline rule answered the first two steps with nothing.)"""
        images = _images(9)

        def play(window):
            config = _pool_config(
                workers=2, batch_window_seconds=window, max_batch=4
            )
            log = []
            with serve.open(artifact_path, config) as server:
                for i in range(3):
                    server.submit(images[i], client_id="alice", now=0.0)
                log.extend(server.step(now=0.0))
                server.submit(images[3], client_id="bob", now=0.001)
                log.extend(server.step(now=0.001))
                for i in range(4, 9):
                    server.submit(images[i], client_id=f"client-{i}", now=0.002)
                log.extend(server.step(now=0.002))
                assert server.stats().in_flight == 0
                assert server.drain() == []
            return log

        windowed, immediate = play(0.05), play(0.0)
        assert len(windowed) == len(images)
        assert [(r.ticket, r.batch_size, r.reason, r.worker_id) for r in windowed] == [
            (r.ticket, r.batch_size, r.reason, r.worker_id) for r in immediate
        ]
        assert [r.batch_size for r in windowed[:4]] == [2, 2, 1, 1]
        for a, b in zip(windowed, immediate):
            assert np.array_equal(a.output, b.output)


class TestSharedMmapTables:
    def test_worker_tables_are_mmap_backed(self, artifact_path):
        with serve.open(artifact_path, _pool_config()) as server:
            server.serve_now(_images(1)[0], client_id="alice")
            stats = server.stats()
            assert all(w.mmap_backed for w in stats.workers)
            for worker in server._workers:
                for inner in worker.servers.values():
                    assert verify_mmap_tables(inner, artifact_path)

    def test_mapped_arrays_are_read_only(self, artifact_path):
        amap = ArtifactMap(artifact_path)
        assert sum(array.nbytes for array in amap.arrays.values()) > 0
        for name, array in amap.arrays.items():
            assert is_mmap_backed(array), name
            with pytest.raises((ValueError, TypeError)):
                array[...] = 0

    def test_load_leaks_no_file_handle(self, artifact_path, monkeypatch):
        """The map holds its own descriptor, so the file closes as soon
        as it is mapped: a dropped ``ArtifactMap`` leaves no unclosed
        file for the collector to warn about."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            artifact = ArtifactMap(artifact_path).load()
            gc.collect()
        assert artifact.program.instructions
        assert unraisable == []

    def test_arrays_outlive_close(self, artifact_path):
        amap = ArtifactMap(artifact_path)
        arrays = amap.arrays
        amap.close()
        assert amap.arrays == {}
        with np.load(artifact_path, allow_pickle=False) as data:
            for name, array in arrays.items():
                assert is_mmap_backed(array)
                assert np.array_equal(array, data[name]), name

    def test_verify_rejects_copied_tables(self, artifact_path):
        """A worker built from an artifact whose tables were copied to
        the heap must fail the mmap audit — the guard actually detects
        copies."""
        amap = ArtifactMap(artifact_path)
        artifact = artifact_from_doc(
            amap.manifest_doc(), lambda ref: np.array(amap.arrays[ref])
        )
        solo = InferenceServer(
            artifact,
            default_backend_factory(artifact.manifest.to_params(), 0),
            max_wait_seconds=0.0,
        )
        with pytest.raises(RuntimeError, match="copied off the artifact map"):
            verify_mmap_tables(solo, artifact_path)

    def test_compressed_artifact_is_rejected(self, artifact_path, tmp_path):
        """A deflated member cannot be mapped in place; the one mapping
        path refuses it by name instead of copying it somewhere."""
        compressed = str(tmp_path / "mlp_compressed.npz")
        with np.load(artifact_path) as members:
            np.savez_compressed(compressed, **members)
        with pytest.raises(serve.ArtifactSchemaError, match="re-export uncompressed"):
            ArtifactMap(compressed)
        assert os.listdir(tmp_path) == ["mlp_compressed.npz"]  # nothing extracted


class TestFrontDoor:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)
        with pytest.raises(ValueError):
            ServerConfig(mode="threads")
        with pytest.raises(TypeError):  # one key domain: nothing to choose
            ServerConfig(key_policy="rotating")
        with pytest.raises(TypeError):  # the kernels have nothing to select
            ServerConfig(kernel_backend="numpy")
        with pytest.raises(TypeError):  # a lane holds one backend, no registry
            ServerConfig(key_cache_dir="keycache")
        with pytest.raises(TypeError):
            ServerConfig(max_tenants=4)
        with pytest.raises(ValueError):
            ServerConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServerConfig(admission_budget_seconds=0.0)

    def test_open_accepts_loaded_artifact(self, artifact_path):
        artifact = ArtifactMap(artifact_path).load()
        with serve.open(artifact, ServerConfig(batch_window_seconds=0.0)) as server:
            result = server.serve_now(_images(1)[0], client_id="alice")
            assert result.worker_id == 0
            # In-memory artifacts cannot be mmap-shared; stats say so.
            assert not server.stats().workers[0].mmap_backed

    def test_open_mixed_artifacts(self, artifact_path):
        source = {"mlp-a": artifact_path, "mlp-b": artifact_path}
        with serve.open(source, _pool_config(workers=2)) as server:
            assert server.artifact_ids == ("mlp-a", "mlp-b")
            image = _images(1)[0]
            a = server.serve_now(image, client_id="alice", artifact="mlp-a")
            b = server.serve_now(image, client_id="alice", artifact="mlp-b")
            assert a.artifact_id == "mlp-a" and b.artifact_id == "mlp-b"
            assert np.array_equal(a.output, b.output)
            with pytest.raises(KeyError):
                server.submit(image, artifact="mlp-c")

    def test_unknown_artifact_and_duplicate_ids(self, artifact_path):
        with pytest.raises(ValueError, match="duplicate"):
            serve.open([artifact_path, artifact_path])
        with pytest.raises(TypeError):
            serve.open(123)


class TestStatsSchema:
    def test_one_row_per_worker(self, artifact_path):
        with serve.open(artifact_path, _pool_config()) as server:
            for i, image in enumerate(_images(5)):
                server.submit(image, client_id=f"client-{i}")
            server.drain()
            stats = server.stats()
        assert stats.schema_version == serve.STATS_SCHEMA_VERSION
        assert stats.reject_rate == 0.0
        assert len(stats.workers) == 4

    def test_conservation_enforced_by_schema(self):
        with pytest.raises(ValueError, match="conservation"):
            ServerStats(
                schema_version=serve.STATS_SCHEMA_VERSION,
                artifacts=("mlp",),
                requests_submitted=5,
                requests_admitted=3,
                requests_rejected=1,
                requests_completed=3,
                in_flight=0,
                workers=(),
            )


def _lane_keys(worker):
    """``[(rotation keys, stored key bytes)]`` of a :class:`Worker`'s lanes."""
    return [
        (
            server.backend.context.keys.num_rotation_keys(),
            backend_key_bytes(server.backend),
        )
        for server in worker.servers.values()
    ]


@pytest.mark.usefixtures("fork_deadline")
class TestLaneKeys:
    """A lane generates its rotation keys once, when the pool opens,
    for the batch views it can run: warming it, serving every batch size
    up to its capacity and reloading it generate none."""

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_keys_are_fixed_from_open(self, artifact_path, mode, monkeypatch):
        # Forked children inherit the patched class, so both transports
        # can be asked what their lanes hold.
        monkeypatch.setattr(Worker, "lane_keys", _lane_keys, raising=False)
        config = _pool_config(workers=2, mode=mode, max_batch=4)
        with serve.open(artifact_path, config) as server:
            workers = server._workers

            def observe():
                held = [
                    w.lane_keys() if mode == "inline" else w._call("lane_keys")
                    for w in workers
                ]
                reported = [
                    [lane.key_bytes_resident for lane in w.lanes]
                    for w in server.stats().workers
                ]
                assert reported == [[b for _, b in lanes] for lanes in held]
                return held

            at_open = observe()
            manifest = ArtifactMap(artifact_path).load().manifest
            expected = len(manifest.rotation_steps)
            assert at_open == [[(expected, at_open[0][0][1])]] * 2
            assert expected > 0 and at_open[0][0][1] > 0

            server.warm()
            assert observe() == at_open
            with pytest.raises(ValueError, match="at most 4"):
                server.warm(batch_sizes=(8,))  # no keys for it: refused
            clients = {server.route(f"client-{i}"): f"client-{i}" for i in range(16)}
            images = iter(_images(14))
            for size in (1, 2, 4):
                for worker_id in range(2):
                    for _ in range(size):
                        server.submit(next(images), client_id=clients[worker_id])
                results = server.step()
                assert sorted(r.batch_size for r in results) == [size] * 2 * size
                assert observe() == at_open
            server.reload()
            assert observe() == at_open


def _key_census(backend):
    """sha256 over every rotation key of a backend, in ``keys.galois``
    order, and its rng state."""
    digest = hashlib.sha256()
    for exponent, key in backend.context.keys.galois.items():
        digest.update(exponent.to_bytes(8, "big") + key.seed + key.tensor.tobytes())
    digest.update(repr(backend.context.rng.get_state()).encode())
    return digest.hexdigest()


@pytest.fixture
def fills(monkeypatch):
    """Every ``_fill_switching_key`` call from here on (forked children
    inherit the spy and count their own)."""
    calls = []
    fill = CkksContext._fill_switching_key

    def spy(self, *args):
        calls.append(args[0].exponent)
        return fill(self, *args)

    monkeypatch.setattr(CkksContext, "_fill_switching_key", spy)
    return calls


@pytest.mark.usefixtures("fork_deadline")
class TestSharedKeyDomain:
    """An inline pool generates each artifact's rotation keys once, on
    its first worker; every other worker holds those very key objects
    and the rng state keygen left, so it is still bit-exact to a solo
    replay.  A process pool keys every child on its own."""

    ARTIFACTS = ("mlp-a", "mlp-b")

    def _solo(self, artifact, fills):
        """A solo lane's backend with its keys: ``(backend, relin fills,
        rotation fills)``."""
        before = len(fills)
        backend = default_backend_factory(artifact.manifest.to_params(), 0)
        relin = len(fills) - before
        generate_lane_keys(backend, artifact.manifest)
        return backend, relin, len(fills) - before - relin

    def test_one_keygen_per_artifact(self, artifact_path, fills):
        source = {artifact_id: artifact_path for artifact_id in self.ARTIFACTS}
        config = _pool_config(workers=3)
        fills.clear()
        with serve.open(source, config) as server:
            pool_fills = len(fills)
            workers = server._workers
            artifact = ArtifactMap(artifact_path).load()
            solo, relin, rotation = self._solo(artifact, fills)
            assert rotation > 0 and relin == 1
            # Every backend makes its own relin key; the rotation keys
            # are generated once per artifact, not once per worker.
            assert pool_fills == len(workers) * len(source) * relin + len(source) * rotation
            image = _images(1)[0]
            for artifact_id in self.ARTIFACTS:
                donor = workers[0].servers[artifact_id].backend.context.keys.galois
                assert list(donor) == list(solo.context.keys.galois)
                replay = InferenceServer(
                    artifact,
                    default_backend_factory(artifact.manifest.to_params(), 0),
                    max_batch=POOL_MAX_BATCH,
                    max_wait_seconds=0.0,
                )
                expected = replay.serve_now(image, client_id="alice")
                for ticket, worker in enumerate(workers):
                    backend = worker.servers[artifact_id].backend
                    galois = backend.context.keys.galois
                    assert list(galois) == list(donor)
                    assert all(galois[e] is donor[e] for e in donor)
                    assert backend.context.rng.get_state() == solo.context.rng.get_state()
                    assert _key_census(backend) == _key_census(solo)
                    result = worker.serve_now(ticket, artifact_id, "alice", image)
                    assert np.array_equal(result.output, expected.output)

    def test_process_children_key_themselves(self, artifact_path, fills, monkeypatch):
        monkeypatch.setattr(
            Worker,
            "key_census",
            lambda worker: (
                len(fills),
                [_key_census(s.backend) for s in worker.servers.values()],
            ),
            raising=False,
        )
        artifact = ArtifactMap(artifact_path).load()
        solo, relin, rotation = self._solo(artifact, fills)
        fills.clear()
        config = _pool_config(workers=2, mode="process")
        with serve.open(artifact_path, config) as server:
            censuses = [w._call("key_census") for w in server._workers]
        assert fills == []  # the parent generated nothing
        assert censuses == [(relin + rotation, [_key_census(solo)])] * 2

    def test_foreign_backend_is_refused(self, artifact_path):
        artifact = ArtifactMap(artifact_path).load()
        params = artifact.manifest.to_params()
        donor = default_backend_factory(params, 0)
        generate_lane_keys(donor, artifact.manifest)
        domain = KeyDomain.of(donor)
        other_params = toy_parameters(
            ring_degree=1024, max_level=5, boot_levels=1, scale_bits=24
        )
        for recipient in (
            default_backend_factory(params, 1),  # another secret
            default_backend_factory(other_params, 0),  # another parameter set
        ):
            context = recipient.context
            state = context.rng.get_state()
            params_fp, secret_fp = KeyDomain._fingerprints(context)
            assert (params_fp, secret_fp) != (
                domain.params_fingerprint,
                domain.secret_fingerprint,
            )
            with pytest.raises(KeyDomainError) as refused:
                domain.install(recipient)
            message = str(refused.value)
            for name in (domain.params_fingerprint, domain.secret_fingerprint, params_fp, secret_fp):
                assert name in message
            assert context.keys.galois == {}
            assert context.rng.get_state() == state

    def test_keyless_lanes_share_nothing(self, artifact_path):
        def functional(params, seed):
            return SimBackend(params, seed=seed)

        assert KeyDomain.of(functional(_params(), 0)) is None
        domains = {}
        spec = ArtifactSpec("mlp", path=artifact_path)
        opts = dict(
            key_seed=0,
            batching=True,
            max_batch=POOL_MAX_BATCH,
            batch_window_seconds=0.0,
            backend_factory=functional,
            shared_keys=domains,
        )
        workers = [Worker(worker_id, (spec,), **opts) for worker_id in range(2)]
        assert domains == {"mlp": None}
        image = _images(1)[0]
        outputs = [w.serve_now(0, "mlp", "alice", image).output for w in workers]
        assert np.array_equal(outputs[0], outputs[1])


@pytest.mark.usefixtures("fork_deadline")
class TestProcessMode:
    #: call scripts the contract test plays through both transports;
    #: ("submit", n) enqueues n requests from n distinct clients.
    SCRIPTS = {
        "submit-drain": [("submit", 6), ("drain",)],
        "whole-surface": [
            ("submit", 5),
            ("step",),
            ("serve_now",),
            ("serve_now",),
            ("warm",),
            ("telemetry",),
            ("reload",),
            ("submit", 3),
            ("drain",),
        ],
    }

    @staticmethod
    def _play(artifact_path, mode, script):
        """Run ``script`` on a 2-worker pool; returns every observable:
        the per-call log (what the call returned + every worker's queue
        depths right after it) and the final typed stats."""
        config = _pool_config(workers=2, mode=mode, max_queue_depth=16)
        images = iter(_images(16))
        log = []
        server = serve.open(artifact_path, config)
        try:
            workers = server._workers
            submitted = 0
            for call, *args in script:
                if call == "submit":
                    returned = []
                    for _ in range(args[0]):
                        returned.append(
                            server.submit(
                                next(images), client_id=f"client-{submitted}"
                            )
                        )
                        submitted += 1
                elif call == "serve_now":
                    returned = [server.serve_now(next(images), client_id="alice")]
                elif call == "telemetry":
                    returned = [
                        (b["stats"].requests_served, b["stats"].queue_depth)
                        for b in (worker.telemetry() for worker in workers)
                    ]
                else:  # step / warm / reload / drain
                    returned = getattr(server, call)()
                log.append((call, returned, [w.queue_depths() for w in workers]))
            stats = server.stats()
        finally:
            server.close()
        # A closed process pool answers from the child's last bundle.
        assert server.stats() == stats
        return log, stats

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_process_transport_has_no_behaviour_of_its_own(
        self, artifact_path, script
    ):
        """The same call script through ``mode="inline"`` and
        ``mode="process"``: equal tickets, batches, bits, typed stats —
        and equal queue depths after **every** call (the parent's depth
        mirror used to go to -1 per ``serve_now``)."""
        calls = self.SCRIPTS[script]

        def stamp(r):
            return r.ticket, r.client_id, r.batch_size, r.reason, r.worker_id

        inline_log, inline_stats = self._play(artifact_path, "inline", calls)
        process_log, process_stats = self._play(artifact_path, "process", calls)
        for (call, want, want_depths), (_, got, got_depths) in zip(
            inline_log, process_log
        ):
            assert got_depths == want_depths, f"queue depths after {call}"
            if not (want and isinstance(want[0], ServeResult)):
                assert got == want, call  # tickets, telemetry counters, None
                continue
            assert [stamp(r) for r in got] == [stamp(r) for r in want], call
            for a, b in zip(got, want):
                assert np.array_equal(a.output, b.output), call
        assert all(d == {"mlp": 0} for d in inline_log[-1][2])
        for a, b in zip(inline_stats.workers, process_stats.workers):
            assert (a.requests_served, a.batches_run, a.rotations, a.queue_depth) == (
                b.requests_served, b.batches_run, b.rotations, b.queue_depth
            )
            assert a.mmap_backed and b.mmap_backed
        assert process_stats.in_flight == inline_stats.in_flight == 0
        assert (
            process_stats.requests_completed
            == inline_stats.requests_completed
            == sum(
                len(returned)
                for call, returned, _ in inline_log
                if call in ("step", "drain", "serve_now")
            )
        )

    def test_fork_after_kernels_ran_in_the_parent(self, artifact_path, monkeypatch):
        """The parent has already run a hoisted rotation, an NTT and a
        lane's keygen on the fill pool when the pool forks.  A kernel
        thread pool in the parent used to deadlock the child here; the
        kernels hold no threads, and keygen joins its pool before
        returning."""
        backend = default_backend_factory(_params(), 0)
        ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
        backend.rotate_hoisted(ct, [1, 2, 3])
        ct.c0.to_coeff()  # an inverse NTT over the whole chain
        artifact = ArtifactMap(artifact_path).load()
        lane = default_backend_factory(artifact.manifest.to_params(), 0)
        threads = threading.active_count()
        # Two fill workers even on a one-CPU runner.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        generate_lane_keys(lane, artifact.manifest)
        monkeypatch.undo()
        assert len(lane.context.keys.galois) > 2
        assert threading.active_count() == threads
        config = _pool_config(workers=1, mode="process")
        image = _images(1)[0]
        with serve.open(artifact_path, config) as server:
            forked = server.serve_now(image, client_id="alice")
        with serve.open(artifact_path, _pool_config(workers=1, mode="inline")) as server:
            inline = server.serve_now(image, client_id="alice")
        assert np.array_equal(forked.output, inline.output)

    def test_killed_worker_is_a_typed_error_not_a_hang(self, artifact_path):
        """A child that dies without posting "error" (SIGKILL, OOM)
        surfaces as WorkerLostError on the next wait, and close() still
        returns."""
        config = _pool_config(workers=1, mode="process")
        server = serve.open(artifact_path, config)
        try:
            server.warm()
            worker = server._workers[0]
            server.submit(_images(1)[0], client_id="alice")
            os.kill(worker._process.pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerLostError, match="exited with code"):
                server.drain()
            assert time.monotonic() - start < 5.0
        finally:
            server.close()
        assert not worker._process.is_alive()

    #: The two ways a caller shuts a pool down after losing its worker:
    #: by hand, and by leaving a ``with`` block, whose drain raises.
    SHUTDOWNS = {
        "close": """
server = serve.open(sys.argv[1], config)
lose_the_worker(server)
try:
    server.drain()
except serve.WorkerLostError:
    pass
else:
    sys.exit("drain() on a lost worker did not raise WorkerLostError")
server.close()
""",
        "with": """
try:
    with serve.open(sys.argv[1], config) as server:
        lose_the_worker(server)
except serve.WorkerLostError:
    pass
else:
    sys.exit("leaving the block on a lost worker did not raise WorkerLostError")
""",
    }

    @pytest.mark.parametrize("shutdown", sorted(SHUTDOWNS))
    def test_lost_worker_cannot_wedge_interpreter_exit(self, artifact_path, shutdown):
        """More than a pipe's worth (64 KB) of requests queued to a
        SIGKILLed child: ``drain()`` raises, the pool still closes —
        by hand, or on leaving the ``with`` block although its drain
        raised — and the interpreter then exits.  The queue's feeder
        thread, blocked on a pipe nobody reads, used to hold it forever
        (and still does if ``close()`` is skipped)."""
        script = """
import os, signal, sys, time
import numpy as np
from repro import serve

config = serve.ServerConfig(
    workers=1, mode="process", batch_window_seconds=0.0, max_queue_depth=1000
)

def lose_the_worker(server):
    child = server._workers[0]._process
    os.kill(child.pid, signal.SIGKILL)
    child.join(5.0)
    for _ in range(400):  # 400 x 512-byte images
        server.submit(np.zeros((1, 8, 8)), client_id="alice")
""" + self.SHUTDOWNS[shutdown] + """
print("closed", time.time(), flush=True)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        process = subprocess.Popen(
            [sys.executable, "-c", script, artifact_path],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            stdout, _ = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            pytest.fail(f"the interpreter did not exit after the pool shut down ({shutdown})")
        exited = time.time()
        assert process.returncode == 0, stdout
        marker, closed_at = stdout.split()
        assert marker == "closed"
        assert exited - float(closed_at) < 10.0
