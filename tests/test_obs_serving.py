"""Integration tests: observability across compile -> serve -> bootstrap.

The acceptance gates of the observability PR:

- **trace coverage** — a pool-served request produces a Chrome-trace
  span tree whose nested children account for >= 95% of the batch's
  wall-clock;
- **exact op reconciliation** — per-span op counts are ledger deltas,
  so they sum *exactly* to the worker's ``OpLedger`` totals (no
  sampling noise, no double counting);
- **observe-only tracing** — pool outputs are bit-identical with
  tracing on and off, inline and fork mode;
- **metrics endpoint** — ``Server.metrics()`` renders the same lane
  snapshots ``Server.stats()`` returns (pickled over the pipe in fork
  mode) plus the server's admission counters as Prometheus text;
- **exact aggregation** — a worker's histograms are bucket merges of
  its lanes', so its quantiles are those of one histogram fed every
  observation;
- **fork-mode flush** — telemetry recorded by the last batches before
  ``close()`` survives the child;
- **schema** — ``ServerStats`` round-trips through JSON, histograms and
  noise included, and rejects foreign versions loudly;
- **compile/bootstrap spans** — the compiler and the real bootstrap
  pipeline produce their own span trees.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import serve
from repro.backend.ledger import LatencyHistogram
from repro.ckks.params import bootstrap_parameters, toy_parameters
from repro.models import SecureMlp
from repro.nn import init
from repro.obs import Tracer, use_tracer
from repro.orion import OrionNetwork
from repro.serve import (
    STATS_SCHEMA_VERSION,
    LaneStats,
    NoiseStats,
    ServerConfig,
    WorkerStats,
)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    rng = np.random.default_rng(0)
    onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
    params = toy_parameters(
        ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24
    )
    path = str(tmp_path_factory.mktemp("artifacts") / "mlp.npz")
    onet.export(path, params)
    return path


def _images(n, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(n)]


def _config(**overrides):
    base = dict(workers=2, batch_window_seconds=0.0, max_queue_depth=8)
    base.update(overrides)
    return ServerConfig(**base)


def _serve_all(server, images):
    outputs = {}
    for i, image in enumerate(images):
        server.submit(image, client_id=f"client-{i}")
    for result in server.drain():
        outputs[result.client_id] = result.output
    return outputs


def _walk(span):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


@pytest.fixture(scope="module")
def traced_run(artifact_path):
    """One shared traced pool run: outputs, tracks, stats, and the
    per-worker cumulative ledgers (the expensive part)."""
    server = serve.open(artifact_path, _config(tracing=True))
    try:
        outputs = _serve_all(server, _images(4))
        tracks = server.trace()
        stats = server.stats()
        metrics_text = server.metrics_text()
        ledgers = {
            worker.worker_id: {
                artifact_id: dict(srv.ledger.counts)
                for artifact_id, srv in worker.servers.items()
            }
            for worker in server._workers
        }
    finally:
        server.close()
    return outputs, tracks, stats, metrics_text, ledgers


class TestTraceTree:
    def test_every_batch_has_the_span_pipeline(self, traced_run):
        _, tracks, stats, _, _ = traced_run
        batches = [
            root
            for track in tracks
            for root in track["spans"]
            if root["name"] == "serve.batch"
        ]
        assert len(batches) == sum(w.batches_run for w in stats.workers)
        # every request gets its own enqueue->complete root span, on the
        # same track as the batch that served it
        requests = [
            root
            for track in tracks
            for root in track["spans"]
            if root["name"] == "serve.request"
        ]
        assert len(requests) == sum(w.requests_served for w in stats.workers)
        for batch in batches:
            names = [c["name"] for c in batch["children"]]
            assert names == ["encrypt", "execute", "decrypt"]
            execute = batch["children"][1]
            # per-instruction spans carry level/scale telemetry
            layer_spans = execute.get("children", ())
            assert layer_spans, "execute span has no per-layer children"
            assert any(
                c["name"].startswith("linear/") for c in layer_spans
            )
            for child in layer_spans:
                if "level_out" in child["attrs"]:
                    assert child["attrs"]["level_out"] >= 0

    def test_nested_spans_cover_95pct_of_wallclock(self, traced_run):
        _, tracks, _, _, _ = traced_run
        checked = 0
        for track in tracks:
            for root in track["spans"]:
                if root["name"] != "serve.batch":
                    continue
                wall = root["end"] - root["start"]
                covered = sum(
                    c["end"] - c["start"]
                    for c in root["children"]
                    if c["name"] in ("encrypt", "execute", "decrypt")
                )
                assert covered >= 0.95 * wall, (
                    f"span tree covers {covered / wall:.1%} of the batch"
                )
                checked += 1
        assert checked > 0

    def test_span_ops_reconcile_exactly_with_ledger(self, traced_run):
        _, tracks, _, _, ledgers = traced_run
        for track in tracks:
            totals = {}
            for root in track["spans"]:
                if root["name"] != "serve.batch":
                    continue
                for op, count in root.get("ops", {}).items():
                    totals[op] = totals.get(op, 0) + count
            worker_ledger = {}
            for counts in ledgers[track["tid"]].values():
                for op, count in counts.items():
                    worker_ledger[op] = worker_ledger.get(op, 0) + count
            # exact equality, not approximate: span ops are ledger deltas
            assert totals == {op: c for op, c in worker_ledger.items() if c}

    def test_execute_children_sum_to_execute_ops(self, traced_run):
        _, tracks, _, _, _ = traced_run
        for track in tracks:
            for root in track["spans"]:
                if root["name"] != "serve.batch":
                    continue
                execute = root["children"][1]
                child_ops = {}
                for child in execute.get("children", ()):
                    for op, count in child.get("ops", {}).items():
                        child_ops[op] = child_ops.get(op, 0) + count
                assert child_ops == execute.get("ops", {})

    def test_chrome_export_loads(self, traced_run, tmp_path):
        _, tracks, _, _, _ = traced_run
        from repro.obs import chrome_trace

        doc = chrome_trace(tracks)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        # one Perfetto lane per pool shard
        assert thread_names == {0: "worker-0", 1: "worker-1"}
        json.dumps(doc)  # JSON-serializable end to end


class TestBitExactness:
    def test_outputs_identical_tracing_on_off(self, artifact_path):
        images = _images(4)
        with serve.open(artifact_path, _config()) as plain:
            base = _serve_all(plain, images)
        with serve.open(artifact_path, _config(tracing=True)) as traced:
            observed = _serve_all(traced, images)
        assert base.keys() == observed.keys()
        for client, output in base.items():
            assert np.array_equal(output, observed[client])

    def test_sampled_tracing_is_also_observe_only(self, artifact_path):
        images = _images(4)
        with serve.open(artifact_path, _config()) as plain:
            base = _serve_all(plain, images)
        config = _config(tracing=True, trace_sample_rate=0.5)
        with serve.open(artifact_path, config) as sampled:
            observed = _serve_all(sampled, images)
        for client, output in base.items():
            assert np.array_equal(output, observed[client])


class TestMetricsEndpoint:
    def test_inline_metrics_aggregate(self, traced_run):
        _, _, stats, text, _ = traced_run
        total = sum(w.requests_served for w in stats.workers)
        assert total == 4
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_admission_requests_total{outcome="admitted"} 4' in text
        assert "repro_requests_completed_total 4" in text
        assert "repro_in_flight_requests 0" in text
        # noise telemetry rides the same endpoint
        assert 'repro_noise_boundary_total' in text
        # the work counter is per FHE op
        assert "# TYPE repro_fhe_ops_total counter" in text

    def test_metrics_without_tracing(self, artifact_path):
        with serve.open(artifact_path, _config()) as server:
            _serve_all(server, _images(2))
            registry = server.metrics()
            total = sum(
                registry.counter_value(
                    "repro_serve_requests_total", worker=str(w), artifact="mlp"
                )
                for w in range(2)
            )
            assert total == 2

    def test_queue_wait_histogram(self, artifact_path):
        """Queue wait (enqueue -> start of the batch that ran the
        request, on the injected clock) is its own family, beside the
        batch-execution wall ``repro_request_latency_seconds`` reports."""
        with serve.open(artifact_path, _config(workers=1)) as server:
            for i, image in enumerate(_images(3)):
                server.submit(image, client_id="alice", now=10.0 + 0.1 * i)
            assert len(server.step(now=10.25)) == 3
            registry = server.metrics()
            wait = registry.histogram_value(
                "repro_serve_queue_wait_seconds", worker="0", artifact="mlp"
            )
            assert wait.count == 3
            assert wait.total == pytest.approx(0.25 + 0.15 + 0.05)
            text = registry.to_prometheus_text()
            assert "# TYPE repro_serve_queue_wait_seconds histogram" in text
            assert "excludes queue wait" in text  # the corrected help text


@pytest.mark.usefixtures("fork_deadline")
class TestForkModeTelemetry:
    def test_metrics_and_trace_over_the_pipe(self, artifact_path):
        config = _config(mode="process", tracing=True)
        server = serve.open(artifact_path, config)
        try:
            outputs = _serve_all(server, _images(4))
            assert len(outputs) == 4
            registry = server.metrics()
            total = sum(
                registry.counter_value(
                    "repro_serve_requests_total", worker=str(w), artifact="mlp"
                )
                for w in range(2)
            )
            assert total == 4
            tracks = server.trace()
            batches = [
                root
                for track in tracks
                for root in track["spans"]
                if root["name"] == "serve.batch"
            ]
            assert batches, "no trace spans crossed the pipe"
            for track in tracks:
                assert track["clock_offset"] > 0  # child epoch alignment
        finally:
            server.close()

    def test_drain_flushes_last_step_telemetry(self, artifact_path):
        """Satellite regression: metrics/trace recorded by drain-time
        batches must survive the fork — before the flush they only
        existed in the child."""
        config = _config(mode="process", tracing=True)
        server = serve.open(artifact_path, config)
        try:
            for i, image in enumerate(_images(4)):
                server.submit(image, client_id=f"client-{i}")
            # no step() in between: every batch runs inside drain()
            results = server.drain()
            assert len(results) == 4
        finally:
            server.close()
        # the forks are gone; everything must come from the flushed caches
        stats = server.stats()
        assert sum(w.requests_served for w in stats.workers) == 4
        assert sum(w.noise.rescales for w in stats.workers) > 0
        registry = server.metrics()
        total = sum(
            registry.counter_value(
                "repro_serve_requests_total", worker=str(w), artifact="mlp"
            )
            for w in range(2)
        )
        assert total == 4
        spans = [
            root for track in server.trace() for root in track["spans"]
        ]
        assert any(root["name"] == "serve.batch" for root in spans)

    def test_fork_stats_match_inline(self, artifact_path):
        images = _images(4)
        with serve.open(artifact_path, _config()) as inline:
            _serve_all(inline, images)
            inline_stats = inline.stats()
        fork = serve.open(artifact_path, _config(mode="process"))
        try:
            _serve_all(fork, images)
            fork_stats = fork.stats()
        finally:
            fork.close()
        # Field for field, except the two wall-clock histograms.
        wall = dict(request_latency=None, queue_wait=None)
        for a, b in zip(inline_stats.workers, fork_stats.workers):
            assert a.worker_id == b.worker_id
            assert [dataclasses.replace(lane, **wall) for lane in a.lanes] == [
                dataclasses.replace(lane, **wall) for lane in b.lanes
            ]
            assert a.request_latency.count == b.request_latency.count
        assert dataclasses.replace(inline_stats, workers=()) == dataclasses.replace(
            fork_stats, workers=()
        )

    def test_fork_metrics_text_matches_inline(self, artifact_path):
        """Both modes render the same lane snapshots through one
        function, so on an injected clock the exposition is identical —
        except the wall-clock latency histogram's buckets and sum."""

        def exposition(mode):
            images = _images(4)
            with serve.open(artifact_path, _config(mode=mode)) as server:
                for i, image in enumerate(images):
                    server.submit(image, client_id=f"c{i}", now=1.0 + 0.01 * i)
                server.step(now=1.5)
                text = server.metrics_text()
            wall = ("repro_request_latency_seconds_bucket",
                    "repro_request_latency_seconds_sum")
            return [line for line in text.splitlines() if not line.startswith(wall)]

        inline = exposition("inline")
        assert any(
            line.startswith("repro_request_latency_seconds_count") for line in inline
        )
        assert any(line.startswith("repro_serve_queue_wait_seconds_sum") for line in inline)
        assert exposition("process") == inline


class TestStatsSchema:
    def test_stats_carry_histograms_and_noise(self, traced_run):
        _, _, stats, _, _ = traced_run
        assert stats.schema_version == STATS_SCHEMA_VERSION
        worker = stats.workers[0]
        assert worker.noise.rescales > 0
        assert worker.noise.min_level is not None
        lane = worker.lanes[0]
        assert isinstance(lane.request_latency, LatencyHistogram)
        assert dict(lane.phases)["linear"].count > 0


def _lane(artifact_id, latencies, noise=NoiseStats()):
    request_latency = LatencyHistogram()
    for seconds in latencies:
        request_latency.observe(seconds)
    return LaneStats(
        artifact_id=artifact_id,
        requests_served=len(latencies),
        batches_run=len(latencies),
        queue_depth=0,
        capacity=1,
        preloaded_plaintexts=0,
        compilations_since_load=0,
        placements_since_load=0,
        mmap_backed=True,
        key_bytes_resident=0,
        modeled_seconds=0.0,
        rotations=0,
        bootstraps=0,
        ops=(),
        noise=noise,
        request_latency=request_latency,
        queue_wait=LatencyHistogram(),
        phases=(),
    )


class TestLaneAggregation:
    def test_quantiles_are_those_of_every_observation(self):
        """Three fast requests on one artifact, one slow on the other:
        the worker's p50 is a fast bucket.  Taking the larger of the
        lanes' p50s would report the slow one."""
        fast, slow = [1e-3, 1e-3, 1e-3], [1.0]
        worker = WorkerStats(0, (_lane("a", fast), _lane("b", slow)))
        every = _lane("all", fast + slow).request_latency
        assert worker.request_latency == every
        assert worker.request_latency.quantile(0.5) == every.quantile(0.5) < 0.01
        assert worker.requests_served == 4

    def test_two_artifacts_on_one_worker_merge_exactly(self, artifact_path):
        source = {"mlp-a": artifact_path, "mlp-b": artifact_path}
        every = LatencyHistogram()
        with serve.open(source, _config(workers=1)) as server:
            for i, image in enumerate(_images(5)):
                server.submit(image, client_id=f"c{i}", artifact=f"mlp-{'ab'[i % 2]}")
            results = server.drain()
            results.append(server.serve_now(_images(1)[0], artifact="mlp-b"))
            worker = server.stats().workers[0]
        for result in results:
            every.observe(result.wall_seconds)
        assert [lane.artifact_id for lane in worker.lanes] == ["mlp-a", "mlp-b"]
        latency = worker.request_latency
        assert latency.count == every.count == 6
        assert latency.buckets == every.buckets
        assert latency.total == pytest.approx(every.total)
        for q in (0.5, 0.9, 0.99):
            assert latency.quantile(q) == every.quantile(q)

    def test_noise_aggregates_over_lanes(self):
        a = NoiseStats(rescales=2, mod_downs=1, min_level=3, max_scale_drift_log2=0.25)
        b = NoiseStats(rescales=1, bootstraps=1, min_level=1, max_scale_drift_log2=0.5)
        worker = WorkerStats(0, (_lane("a", [], a), _lane("b", [], b), _lane("c", [])))
        assert worker.noise == NoiseStats(
            rescales=3, mod_downs=1, bootstraps=1, min_level=1, max_scale_drift_log2=0.5
        )
        assert WorkerStats(0, (_lane("c", []),)).noise.min_level is None


class TestCompileSpans:
    def test_compile_produces_span_tree(self):
        init.seed_init(0)
        onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        rng = np.random.default_rng(0)
        onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
        params = toy_parameters(
            ring_degree=1024, max_level=6, boot_levels=1, scale_bits=24
        )
        tracer = Tracer()
        with use_tracer(tracer):
            compiled = onet.compile(params)
        compile_spans = [r for r in tracer.roots if r.name == "compile"]
        assert len(compile_spans) == 1
        span = compile_spans[0]
        child_names = [c.name for c in span.children]
        assert "placement" in child_names
        assert span.attrs["rotations"] == compiled.total_rotations
        assert span.attrs["bootstraps"] == compiled.num_bootstraps
        assert span.attrs["depth"] == compiled.multiplicative_depth


class TestBootstrapSpans:
    def test_real_bootstrap_span_pipeline(self):
        from repro.backend.toy import ToyBackend

        backend = ToyBackend(bootstrap_parameters(), seed=7, real_bootstrap=True)
        message = np.random.default_rng(3).uniform(
            -0.9, 0.9, backend.params.slot_count
        )
        ct = backend.encode_encrypt(message, level=0)
        tracer = Tracer()
        with use_tracer(tracer):
            out = backend.bootstrap(ct)
        boot_spans = [r for r in tracer.roots if r.name == "bootstrap"]
        assert len(boot_spans) == 1
        span = boot_spans[0]
        assert [c.name for c in span.children] == [
            "mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff",
        ]
        assert span.attrs["level_in"] == 0
        assert span.attrs["level_out"] == out.level
        # ledger-bound children attribute their op deltas
        assert any(c.ops for c in span.children)
