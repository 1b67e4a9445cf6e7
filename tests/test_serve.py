"""Tests for the compile-once / serve-many runtime (repro.serve).

Covers the artifact store (bit-exact round-trips, loud schema
failures), cross-request SIMD slot batching (bit-exact against
sequential execution on the cleartext-packed path, precision-equal on
the exact backend), the scheduler's cost/deadline decision rule, the
key manifest and a lane's eagerly generated keys, the inference
server's zero-compilation serve path, and the serve-many stale-cache
regression.
"""

import numpy as np
import pytest
from fractions import Fraction

from repro import serve
from repro.backend import SimBackend, ToyBackend
from repro.ckks.keys import KeyManifest
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler
from repro.core.packing.layouts import BlockReplicatedLayout, VectorLayout
from repro.core.packing.matvec import build_linear_packing
from repro.core.placement.planner import solve_placement
from repro.models import LolaCnn, SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap, ArtifactSchemaError, LaneStats
from repro.serve.keys import backend_key_bytes, generate_lane_keys
from repro.serve.runtime import InferenceServer
from repro.serve.scheduler import SlotBatchingScheduler


def _toy_params(ks_alpha: int = 1):
    return toy_parameters(
        ring_degree=2048,
        max_level=6,
        boot_levels=1,
        scale_bits=24,
        num_special_primes=2 if ks_alpha > 1 else 1,
        ks_alpha=ks_alpha,
    )


def _make_net(builder, shape, seed=0):
    init.seed_init(seed)
    net = builder()
    rng = np.random.default_rng(seed)
    onet = OrionNetwork(net, shape)
    onet.fit([rng.normal(0, 0.5, (8,) + shape)])
    return onet, rng


@pytest.fixture(scope="module")
def mlp_artifact(tmp_path_factory):
    onet, rng = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    params = _toy_params()
    path = str(tmp_path_factory.mktemp("artifacts") / "mlp.npz")
    compiled = onet.compile(params)
    compiled.export(path, params)
    return onet, rng, params, path, compiled


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("ks_alpha", [1, 2])
    def test_mlp_round_trip_bit_exact(self, tmp_path, ks_alpha):
        onet, rng = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        params = _toy_params(ks_alpha)
        path = str(tmp_path / f"mlp_a{ks_alpha}.npz")
        compiled = onet.compile(params)
        compiled.export(path, params)
        loaded = ArtifactMap(path).load()
        img = rng.normal(0, 0.5, (1, 8, 8))
        # Cleartext-packed execution is deterministic: bit-exact or bust.
        assert np.array_equal(
            loaded.program.run_cleartext_packed(img),
            compiled.program.run_cleartext_packed(img),
        )
        # Exact backend with the same seed: identical ciphertext math.
        assert np.array_equal(
            loaded.program.run(ToyBackend(loaded.manifest.to_params(), seed=7), img),
            compiled.program.run(ToyBackend(loaded.manifest.to_params(), seed=7), img),
        )

    @pytest.mark.parametrize("ks_alpha", [1, 2])
    def test_conv_round_trip_bit_exact(self, tmp_path, ks_alpha):
        onet, rng = _make_net(
            lambda: LolaCnn(image_size=8, channels=2), (1, 8, 8), seed=1
        )
        params = _toy_params(ks_alpha)
        path = str(tmp_path / f"cnn_a{ks_alpha}.npz")
        compiled = onet.compile(params)
        compiled.export(path, params)
        loaded = ArtifactMap(path).load()
        img = rng.normal(0, 0.5, (1, 8, 8))
        assert np.array_equal(
            loaded.program.run_cleartext_packed(img),
            compiled.program.run_cleartext_packed(img),
        )
        assert np.array_equal(
            loaded.program.run(ToyBackend(loaded.manifest.to_params(), seed=11), img),
            compiled.program.run(ToyBackend(loaded.manifest.to_params(), seed=11), img),
        )

    def test_manifest_reconstructs_exact_params(self, mlp_artifact):
        _, _, params, path, _ = mlp_artifact
        loaded = ArtifactMap(path).load()
        assert loaded.manifest.to_params() == params
        assert loaded.manifest.rotation_steps  # a real manifest, not empty

    @staticmethod
    def _rewrite_manifest(path, bad_path, **fields):
        """Copy the artifact at ``path`` to ``bad_path`` with ``fields``
        overwritten in its manifest document."""
        import json

        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        doc = json.loads(bytes(arrays.pop("__manifest__")).decode())
        doc.update(fields)
        np.savez(
            bad_path,
            __manifest__=np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8),
            **arrays,
        )
        return bad_path

    @pytest.mark.parametrize("version", [99, 3, 4, 5, 6])
    def test_schema_version_mismatch_fails_loudly(
        self, tmp_path, mlp_artifact, version
    ):
        """Any other version — the previous ones (3: per-term int64
        plaintexts; 4: diagonals pre-rolled by their giant step; 5: no
        compiled fold form; 6: an expanded-or-sequential fold depth, not
        a partition) included — is one loud rejection, never a
        compatibility branch."""
        bad_path = self._rewrite_manifest(
            mlp_artifact[3], str(tmp_path / "bad.npz"), schema_version=version
        )
        with pytest.raises(ArtifactSchemaError, match="schema version.*re-export"):
            ArtifactMap(bad_path).load()

    @pytest.mark.parametrize("kind", ["delta", "weights"])
    def test_only_full_artifacts_open(self, tmp_path, mlp_artifact, kind):
        """The retired weight-delta kind, like any unknown kind, is
        refused by name by the reader and by the front door alike."""
        bad_path = self._rewrite_manifest(
            mlp_artifact[3], str(tmp_path / "bad.npz"), kind=kind
        )
        match = f"artifact kind '{kind}'.*re-export"
        with pytest.raises(ArtifactSchemaError, match=match):
            ArtifactMap(bad_path).load()
        with pytest.raises(ArtifactSchemaError, match=match):
            serve.open(bad_path)

    def test_non_artifact_fails_loudly(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ArtifactSchemaError, match="not a serving artifact"):
            ArtifactMap(path).load()

    def test_header_gate_reports_first_mismatch_in_callers_error(self):
        """Artifacts and stats payloads share one header gate: it raises
        the caller's error type, naming the source, the value found, the
        value this build reads and the remedy."""
        from repro.serve.artifact import check_header

        expected = (("format", "format", "fmt"), ("version", "version", 2))
        check_header({"format": "fmt", "version": 2}, expected, KeyError, "src", "fix")

        class GateError(ValueError):
            pass

        with pytest.raises(GateError) as raised:
            check_header({"format": "other", "version": 1}, expected, GateError,
                         "a/b.npz", "re-export")
        assert str(raised.value) == (
            "a/b.npz: format 'other', but this build reads format 'fmt'; re-export"
        )
        with pytest.raises(GateError, match="version None, but this build reads version 2"):
            check_header({"format": "fmt"}, expected, GateError, "a/b.npz", "re-export")

    def test_manifest_covers_every_runtime_rotation(self, mlp_artifact):
        """Lane keys generated at full capacity must suffice — no lazy
        keygen on the request path, single-shot or slot-batched."""
        _, rng, params, path, _ = mlp_artifact
        loaded = ArtifactMap(path).load()
        backend = ToyBackend(loaded.manifest.to_params(), seed=0)
        generate_lane_keys(backend, loaded.manifest)
        keys_before = backend.context.keys.num_rotation_keys()
        loaded.program.run(backend, rng.normal(0, 0.5, (1, 8, 8)))
        loaded.program.batched(4).run(backend, rng.normal(0, 0.5, (4, 1, 8, 8)))
        assert backend.context.keys.num_rotation_keys() == keys_before

    def test_preload_skips_every_weight_encode(self, mlp_artifact):
        _, rng, params, path, _ = mlp_artifact
        loaded = ArtifactMap(path).load()
        backend = ToyBackend(loaded.manifest.to_params(), seed=2)
        installed = loaded.preload(backend)
        assert installed > 0
        img = rng.normal(0, 0.5, (1, 8, 8))
        out = loaded.program.run(backend, img)
        # A second backend without preload produces identical results.
        cold = ToyBackend(loaded.manifest.to_params(), seed=2)
        assert np.array_equal(out, loaded.program.run(cold, img))


class TestSlotBatching:
    @pytest.mark.parametrize(
        "builder,shape",
        [
            (lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8)),
            (lambda: LolaCnn(image_size=8, channels=2), (1, 8, 8)),
        ],
        ids=["mlp", "conv"],
    )
    def test_batched_cleartext_bit_exact_vs_sequential(self, builder, shape):
        onet, rng = _make_net(builder, shape, seed=2)
        params = _toy_params()
        compiled = onet.compile(params)
        program = compiled.program
        capacity = program.slot_batch_capacity()
        batch = min(4, capacity)
        assert batch >= 4, f"expected capacity >= 4, got {capacity}"
        imgs = [rng.normal(0, 0.5, shape) for _ in range(batch)]
        sequential = np.stack([program.run_cleartext_packed(im) for im in imgs])
        batched = program.batched(batch).run_cleartext_packed(np.stack(imgs))
        assert np.array_equal(batched, sequential)

    def test_batched_encrypted_matches_sequential_precision(self):
        onet, rng = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        params = _toy_params()
        compiled = onet.compile(params)
        program = compiled.program
        imgs = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(4)]
        packed = np.stack([program.run_cleartext_packed(im) for im in imgs])
        outs = program.batched(4).run(ToyBackend(params, seed=5), np.stack(imgs))
        for j in range(4):
            bits = OrionNetwork.precision_bits(outs[j], packed[j])
            assert bits > 5, f"client {j}: only {bits:.2f} bits"

    def test_batched_program_charges_one_execution(self):
        """The throughput win: 4 clients cost one program execution —
        the same ciphertext count as a single request."""
        onet, _ = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        params = _toy_params()
        program = onet.compile(params).program
        rng = np.random.default_rng(0)
        single_backend = SimBackend(params, seed=1)
        program.run(single_backend, rng.normal(0, 0.5, (1, 8, 8)))
        batch_backend = SimBackend(params, seed=1)
        program.batched(4).run(
            batch_backend, rng.normal(0, 0.5, (4, 1, 8, 8))
        )
        # Same op counts within a small factor (batched hybrid layers
        # gather wrap rows with one block-shift rotation) — never 4x.
        single_ops = single_backend.ledger.multiplies
        batch_ops = batch_backend.ledger.multiplies
        assert batch_ops < 2 * single_ops

    def test_capacity_and_overflow(self):
        onet, _ = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        program = onet.compile(_toy_params()).program
        capacity = program.slot_batch_capacity()
        assert capacity >= 4
        with pytest.raises(ValueError, match="capacity"):
            program.batched(2 * capacity)

    def test_block_replicated_layout_round_trip(self):
        inner = VectorLayout(10, 64)
        layout = BlockReplicatedLayout(inner, batch=4, slots=64)
        data = np.arange(40, dtype=float).reshape(4, 10)
        assert np.array_equal(layout.unpack(layout.pack(data)), data)

    def test_block_replicated_layout_rejects_oversize(self):
        with pytest.raises(ValueError, match="block"):
            BlockReplicatedLayout(VectorLayout(40, 64), batch=4, slots=64)


class TestStaleCacheRegression:
    """Serve-many cache hazard: one pt_cache dict shared across scales
    and levels (exactly what artifact preloading does) must never serve
    a stale encode.  Before the fingerprinted cache keys this silently
    corrupted the second request's output by the scale ratio."""

    def test_shared_pt_cache_across_scales_and_levels(self):
        params = toy_parameters(ring_degree=64, max_level=6, scale_bits=20)
        backend = ToyBackend(params)
        n = params.slot_count
        rng = np.random.default_rng(1)
        vec = rng.normal(size=n) * 0.1
        terms = {(0, 0, 1): vec}
        x = rng.normal(size=n) * 0.1
        reference = vec * np.roll(x, -1)
        shared_cache = {}
        for level, scale_mult in ((5, 1), (5, 2), (3, 1), (5, 1)):
            ct = backend.encrypt(backend.encode(x, level, params.scale))
            pt_scale = Fraction(params.data_primes[level]) * scale_mult
            outs = backend.matvec_fused(
                [ct], terms, 1, pt_scale, pt_cache=shared_cache
            )
            got = backend.decrypt(backend.rescale(outs[0]))
            assert np.max(np.abs(got - reference)) < 1e-3, (
                f"stale encode served at level {level}, scale x{scale_mult}"
            )
        # One entry per distinct (level, scale) fingerprint, re-used on
        # the repeat — not one entry total, not one per call.
        assert len(shared_cache) == 3

    def test_packed_matvec_across_levels_on_one_backend(self):
        params = toy_parameters(ring_degree=64, max_level=6, scale_bits=20)
        backend = ToyBackend(params)
        n = params.slot_count
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(8, 16))
        layout = VectorLayout(16, n)
        packed = build_linear_packing(matrix, None, layout, name="fc")
        x = rng.normal(size=16) * 0.1
        reference = packed.execute_cleartext(layout.pack(x))
        for level in (5, 3, 5):
            cts = [
                backend.encrypt(backend.encode(v, level, params.scale))
                for v in layout.pack(x)
            ]
            outs = packed.execute(
                backend, cts, Fraction(params.data_primes[level])
            )
            got = np.array([backend.decrypt(c)[:n] for c in outs])
            assert np.max(np.abs(got - np.array(reference))) < 1e-2


def _simulate_open_loop(sched, arrivals, service_seconds):
    """One worker over ``sched`` on a fake clock: submit what has come
    due, run one batch (``service_seconds`` each), repeat.  Returns
    ``[(start, batch), ...]``."""
    arrivals = list(arrivals)
    runs, clock, sent = [], 0.0, 0
    while sent < len(arrivals) or len(sched):
        while sent < len(arrivals) and arrivals[sent] <= clock:
            sched.submit(f"c{sent}", sent, now=arrivals[sent])
            sent += 1
        batch = sched.next_batch()
        if batch is None:
            clock = arrivals[sent]  # idle until the next arrival
            continue
        runs.append((clock, batch))
        clock += service_seconds
    return runs


class TestScheduler:
    """The work-conserving rule.  Three tests that pinned the deleted
    hold are gone: ``test_waits_below_capacity_before_deadline`` (now
    ``test_idle_worker_never_waits_out_the_window``, which asserts the
    opposite), the "one left, deadline far away" half of
    ``test_full_queue_flushes_immediately`` (the one left now runs) and
    ``test_deadline_forces_partial_batch`` (a partial batch needs
    backlog, not a deadline: ``test_backlog_forms_partial_batch`` and
    the property test)."""

    def test_full_queue_flushes_immediately(self):
        sched = SlotBatchingScheduler(capacity=4, max_wait_seconds=100.0)
        for i in range(5):
            sched.submit(f"c{i}", i, now=0.0)
        batch = sched.next_batch()
        assert batch.size == 4 and batch.reason == "full"
        # The one left runs too, deadline far away or not.
        batch = sched.next_batch()
        assert batch.size == 1 and batch.reason == "single"
        assert sched.next_batch() is None

    def test_backlog_forms_partial_batch(self):
        sched = SlotBatchingScheduler(capacity=8, max_wait_seconds=1.0)
        for i in range(3):
            sched.submit(f"c{i}", i, now=0.0)
        batch = sched.next_batch()  # no clock: nothing to wait for
        assert batch.size == 2 and batch.reason == "partial"
        assert [r.ticket for r in batch.requests] == [0, 1]

    @pytest.mark.parametrize("backlog", range(2, 10))
    def test_a_backlog_always_batches(self, backlog):
        """Any backlog of two or more leaves as the largest power of two
        it holds, up to capacity: a batched run costs what a single run
        costs, so there is no "not worthwhile" arm."""
        sched = SlotBatchingScheduler(capacity=8, max_wait_seconds=0.0)
        for i in range(backlog):
            sched.submit(f"c{i}", i, now=0.0)
        batch = sched.next_batch()
        expected = min(8, 1 << (backlog.bit_length() - 1))
        assert batch.size == expected
        assert batch.reason == ("full" if expected == 8 else "partial")

    def test_backlog_drains_into_power_of_two_batches(self):
        sched = SlotBatchingScheduler(capacity=4, max_wait_seconds=100.0)
        for i in range(7):
            sched.submit(f"c{i}", i, now=0.0)
        sizes = []
        while (batch := sched.next_batch()) is not None:
            sizes.append(batch.size)
        assert sizes == [4, 2, 1]
        assert len(sched) == 0

    def test_ticket_never_touches_the_queue(self):
        sched = SlotBatchingScheduler(capacity=4)
        queued = sched.submit("a", 1, now=0.0)
        loose = sched.ticket("b", 2, now=0.0)
        assert (queued.ticket, loose.ticket) == (0, 1)
        assert sched.queue == [queued]
        assert sched.submit("c", 3, now=0.0).ticket == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_conserve_and_order(self, seed):
        """Random submit/take interleavings on a fake clock: a
        non-empty queue always yields a batch, sizes are powers of two
        within capacity, requests leave earliest-deadline-first, and
        every ticket is served exactly once."""
        rng = np.random.default_rng(seed)
        capacity = int(2 ** rng.integers(0, 5))
        sched = SlotBatchingScheduler(capacity=capacity, max_wait_seconds=0.05)
        clock, submitted, served = 0.0, [], []

        def take():
            queued = sorted(sched.queue, key=lambda r: (r.deadline, r.ticket))
            batch = sched.next_batch()
            if not queued:
                assert batch is None
                return
            assert batch is not None
            assert batch.size <= capacity and batch.size & (batch.size - 1) == 0
            assert batch.size == min(capacity, 1 << (len(queued).bit_length() - 1))
            assert batch.reason == (
                "single" if batch.size == 1
                else "full" if batch.size == capacity else "partial"
            )
            assert batch.requests == queued[: batch.size]
            served.extend(r.ticket for r in batch.requests)

        for _ in range(200):
            clock += float(rng.exponential(0.01))
            if rng.random() < 0.6:
                deadline = None
                if rng.random() < 0.3:  # explicit, possibly out of order
                    deadline = clock + float(rng.uniform(-0.1, 0.1))
                submitted.append(
                    sched.submit("c", None, now=clock, deadline=deadline).ticket
                )
            else:
                take()
        while len(sched):
            take()
        assert sorted(served) == submitted == list(range(len(submitted)))

    def test_idle_worker_never_waits_out_the_window(self):
        """Open loop, arrivals slower than the service time, default
        50 ms window: every request starts the instant it arrives.  The
        deleted deadline rule held each one for window - modeled run
        (28.8 ms on ``serve_mlp_pool``) while its worker idled."""
        service = 0.02
        sched = SlotBatchingScheduler(capacity=8)  # default window
        arrivals = [k * 0.03 for k in range(40)]
        runs = _simulate_open_loop(sched, arrivals, service)
        assert len(runs) == len(arrivals)
        for start, batch in runs:
            assert batch.size == 1
            assert start - batch.requests[0].enqueued_at == 0.0

    def test_backlog_fills_batches_to_capacity(self):
        """Arrivals faster than service/capacity: after the first run
        the backlog always holds a full batch."""
        service, capacity = 0.08, 4
        sched = SlotBatchingScheduler(capacity=capacity)
        arrivals = [k * 0.01 for k in range(200)]  # < service / capacity
        runs = _simulate_open_loop(sched, arrivals, service)
        sizes = [batch.size for _, batch in runs]
        assert sizes[0] == 1  # nothing had queued behind the first arrival
        # While arrivals last every batch is full; the tail drains.
        loaded = [
            batch.size for start, batch in runs[1:] if start <= arrivals[-1]
        ]
        assert loaded and all(size == capacity for size in loaded)
        assert sum(sizes) == len(arrivals)


class TestKeyManifest:
    @pytest.fixture(scope="class")
    def compiled(self):
        onet, _ = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        params = _toy_params()
        return params, onet.compile(params).program

    @pytest.fixture(scope="class")
    def manifest(self, compiled):
        return KeyManifest.for_program(*compiled)

    def test_manifest_keys_pregenerated(self, manifest):
        """A lane holds exactly the manifest's keys, each at its recorded
        level."""
        backend = ToyBackend(manifest.to_params(), seed=0)
        generate_lane_keys(backend, manifest)
        context = backend.context
        assert set(context.keys.galois) == {
            context.encoder.rotation_exponent(step)
            for step in manifest.rotation_steps
        }
        top = manifest.to_params().max_level
        for step, level in manifest.step_level_map().items():
            key = context.keys.galois[context.encoder.rotation_exponent(step)]
            assert key.max_level == (None if level >= top else level)

    def test_fingerprint_distinguishes_manifests(self, manifest):
        other = KeyManifest(
            params_dict=manifest.params_dict,
            rotation_steps=manifest.rotation_steps + (999,),
        )
        assert other.fingerprint() != manifest.fingerprint()


class TestLaneKeyGeneration:
    """``generate_lane_keys`` is the one way a serving lane gets rotation
    keys: the steps of its artifact's key manifest, which every batch
    view of the program runs within, in step order, each compressed to
    the level it key-switches at."""

    @pytest.fixture(scope="class")
    def artifact(self, mlp_artifact):
        return ArtifactMap(mlp_artifact[3]).load()

    @staticmethod
    def _lane(artifact, seed=0):
        backend = ToyBackend(artifact.manifest.to_params(), seed=seed)
        generate_lane_keys(backend, artifact.manifest)
        return backend

    @staticmethod
    def _holds_exactly(backend, snapshot):
        """The backend's keys are the very objects of ``snapshot``: none
        added, none regenerated."""
        held = backend.context.keys.galois
        return list(held) == list(snapshot) and all(
            held[exponent] is key for exponent, key in snapshot.items()
        )

    @staticmethod
    def _same_key_material(a, b):
        keys_a, keys_b = a.context.keys.galois, b.context.keys.galois
        return list(keys_a) == list(keys_b) and all(
            keys_a[e].seed == keys_b[e].seed
            and keys_a[e].max_level == keys_b[e].max_level
            and np.array_equal(keys_a[e].tensor, keys_b[e].tensor)
            for e in keys_a
        )

    def test_the_manifest_is_the_programs_step_levels(self, artifact):
        levels = artifact.program.required_rotation_step_levels()
        assert levels == artifact.manifest.step_level_map()

    def test_the_loaded_program_batches_up_to_sixteen_clients(self, artifact):
        assert artifact.program.slot_batch_capacity() == 16

    @pytest.mark.parametrize("batch", [2, 4, 8, 16])
    def test_every_loaded_view_keys_within_the_stored_manifest(
        self, artifact, batch
    ):
        """A lane keys the manifest the file stores, not its program's
        views: every view the loaded program builds, up to its capacity,
        rotates only by stored steps at no higher level."""
        program, stored = artifact.program, artifact.manifest.step_level_map()
        levels = program.batched(batch).required_rotation_step_levels()
        assert levels
        for step, level in levels.items():
            assert step in stored and level <= stored[step], (batch, step)

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_capped_lane_runs_every_view_it_admits_without_keygen(
        self, artifact, cap
    ):
        backend = self._lane(artifact)
        snapshot = dict(backend.context.keys.galois)
        rng = np.random.default_rng(cap)
        artifact.program.run(backend, rng.normal(0, 0.5, (1, 8, 8)))
        size = 2
        while size <= cap:
            artifact.program.batched(size).run(
                backend, rng.normal(0, 0.5, (size, 1, 8, 8))
            )
            size *= 2
        assert self._holds_exactly(backend, snapshot)

    def test_keys_are_generated_in_step_order_at_their_levels(self, artifact):
        backend = self._lane(artifact)
        levels = artifact.manifest.step_level_map()
        context = backend.context
        assert list(context.keys.galois) == [
            context.encoder.rotation_exponent(step) for step in sorted(levels)
        ]
        top = backend.params.max_level
        for step, level in levels.items():
            key = context.keys.galois[context.encoder.rotation_exponent(step)]
            assert key.max_level == (None if level >= top else level)

    def test_keyless_backend_is_left_untouched(self, artifact):
        backend = SimBackend(artifact.manifest.to_params(), seed=0)
        generate_lane_keys(backend, artifact.manifest)
        assert not hasattr(backend, "context")
        assert backend_key_bytes(backend) == 0

    def test_a_second_call_draws_no_randomness(self, artifact):
        backend = self._lane(artifact)
        snapshot = dict(backend.context.keys.galois)
        state = backend.context.rng.get_state()
        generate_lane_keys(backend, artifact.manifest)
        assert backend.context.rng.get_state() == state
        assert self._holds_exactly(backend, snapshot)

    def test_same_seed_same_keys(self, artifact):
        first, again = (self._lane(artifact, seed=3) for _ in range(2))
        assert self._same_key_material(first, again)
        assert backend_key_bytes(first) == backend_key_bytes(again) > 0

    @pytest.mark.parametrize(
        "batching, max_batch, cap",
        [(False, None, 1), (True, 1, 1), (True, 3, 2), (True, None, None)],
    )
    def test_server_keys_are_the_functions_at_any_capacity(
        self, artifact, batching, max_batch, cap
    ):
        server = InferenceServer(
            artifact,
            ToyBackend(artifact.manifest.to_params(), seed=5),
            batching=batching,
            max_batch=max_batch,
        )
        expected_capacity = (
            artifact.program.slot_batch_capacity() if cap is None else cap
        )
        assert server.scheduler.capacity == expected_capacity
        assert self._same_key_material(
            server.backend, self._lane(artifact, seed=5)
        )

    def test_warm_adds_no_keys_and_refuses_sizes_above_capacity(self, artifact):
        server = InferenceServer(
            artifact,
            ToyBackend(artifact.manifest.to_params(), seed=6),
            max_batch=2,
        )
        snapshot = dict(server.backend.context.keys.galois)
        server.warm()
        with pytest.raises(ValueError, match="at most 2"):
            server.warm(batch_sizes=(1, 4))
        assert self._holds_exactly(server.backend, snapshot)

class TestInferenceServer:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        onet, rng = _make_net(lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        params = _toy_params()
        path = str(tmp_path_factory.mktemp("serve") / "mlp.npz")
        onet.export(path, params)
        artifact = ArtifactMap(path).load()
        backend = ToyBackend(artifact.manifest.to_params(), seed=9)
        server = InferenceServer(artifact, backend, max_wait_seconds=0.0)
        return onet, rng, params, artifact, server

    def test_batched_serving_end_to_end(self, served):
        onet, rng, params, artifact, server = served
        compilations_before = OrionCompiler.invocations
        placements_before = solve_placement.invocations
        imgs = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(4)]
        tickets = [
            server.submit(im, client_id=f"c{i}", now=0.0)
            for i, im in enumerate(imgs)
        ]
        results = {r.ticket: r for r in server.step(now=10.0)}
        assert sorted(results) == sorted(tickets)
        assert all(r.batch_size == 4 for r in results.values())
        packed = [artifact.program.run_cleartext_packed(im) for im in imgs]
        for ticket, im, ref in zip(tickets, imgs, packed):
            bits = OrionNetwork.precision_bits(results[ticket].output, ref)
            assert bits > 5
        # The serve path never compiles or plans.
        assert OrionCompiler.invocations == compilations_before
        assert solve_placement.invocations == placements_before
        assert server.compilations_since_load == 0
        assert server.placements_since_load == 0

    def test_serve_now_single(self, served):
        _, rng, _, artifact, server = served
        img = rng.normal(0, 0.5, (1, 8, 8))
        result = server.serve_now(img)
        ref = artifact.program.run_cleartext_packed(img)
        assert OrionNetwork.precision_bits(result.output, ref) > 5
        assert result.batch_size == 1

    def test_telemetry_accumulates(self, served):
        *_, server = served
        stats = LaneStats.from_server("mlp", server, mmap_backed=False)
        assert stats.requests_served >= 5
        assert stats.request_latency.count >= 5
        assert stats.modeled_seconds > 0
        assert stats.rotations > 0
        assert dict(stats.ops)["pmult"] > 0
        assert "linear" in dict(stats.phases)
        assert stats.preloaded_plaintexts > 0

    def test_max_batch_floored_to_power_of_two(self, served):
        """A non-power-of-two cap must not produce an unexecutable
        batch size (block replication divides the slot count)."""
        _, _, params, artifact, _ = served
        server = InferenceServer(
            artifact, ToyBackend(artifact.manifest.to_params(), seed=1), max_batch=3
        )
        assert server.scheduler.capacity == 2
        with pytest.raises(ValueError, match="max_batch"):
            InferenceServer(
                artifact, ToyBackend(artifact.manifest.to_params(), seed=1), max_batch=0
            )

    def test_step_flushes_queue(self, served):
        _, rng, *_ , server = served
        for i in range(3):
            server.submit(rng.normal(0, 0.5, (1, 8, 8)), now=0.0)
        results = server.step()
        assert len(results) == 3
        assert sorted(r.batch_size for r in results) == [1, 2, 2]
