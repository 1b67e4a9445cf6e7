"""Fleet-scale serving: open-loop load over the sharded worker pool.

The acceptance benchmark of the ``repro.serve.open`` front door
(docs/serving.md): two MNIST-MLP artifacts are compiled once, exported
uncompressed, and a **4-worker pool** serves mixed open-loop traffic
over the shared mmapped tables —

- **steady phase**: every tick, each client submits one request to its
  artifact and the pool runs every due batch; rendezvous routing pins
  clients to workers, so each worker slot-batches its own clientele;
- **overload burst**: one client then hammers its routed worker with
  more requests than the admission queue admits, producing a
  deterministic reject count (backpressure, not queue growth).

Correctness is asserted before the numbers are believed: every pool
output is **bit-exact** against a solo ``InferenceServer`` replaying
the same per-worker traffic (same key seed, same batching rule), the
conservation law holds at the end (admitted == completed, zero
in-flight), every worker reports mmap-backed tables, and the serve path
never compiles.

Results merge into ``BENCH_serving.json`` (section ``serving_pool``):
request-latency p50/p99, open-loop throughput, and the reject rate of
the overload burst, validated by the ``bench-gate`` CI step.

Set ``SERVING_QUICK=1`` (or ``HOTPATH_QUICK=1``) for the CI-sized run.
"""

import os
import time

import numpy as np
import pytest
from bench_json_util import JSON_PATH, merge_json as _merge_json

from repro import serve
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve.keys import default_backend_factory
from repro.serve.runtime import InferenceServer

QUICK = bool(
    int(os.environ.get("SERVING_QUICK", os.environ.get("HOTPATH_QUICK", "0")))
)
RING_DEGREE = 1024 if QUICK else 2048
MAX_LEVEL = 6
WORKERS = 4
CLIENTS = 8
TICKS = 2 if QUICK else 4
MAX_QUEUE_DEPTH = 8
BURST = 16  # overload submissions; exactly BURST - MAX_QUEUE_DEPTH reject

SERVING_JSON_PATH = os.path.join(os.path.dirname(JSON_PATH), "BENCH_serving.json")
CONFIG_KEY = (
    f"N{RING_DEGREE}_L{MAX_LEVEL}_alpha1_{'quick' if QUICK else 'full'}"
)


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    params = toy_parameters(
        ring_degree=RING_DEGREE, max_level=MAX_LEVEL, boot_levels=1, scale_bits=24
    )
    root = tmp_path_factory.mktemp("artifacts")
    paths = {}
    for index, name in enumerate(("mlp_a", "mlp_b")):
        init.seed_init(index)
        onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
        rng = np.random.default_rng(index)
        onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
        path = str(root / f"{name}.npz")
        onet.export(path, params)
        paths[name] = path

    compilations = OrionCompiler.invocations
    config = serve.ServerConfig(
        workers=WORKERS,
        batch_window_seconds=0.0,
        max_queue_depth=MAX_QUEUE_DEPTH,
    )
    server = serve.open(paths, config)
    server.warm()
    assert OrionCompiler.invocations == compilations, "serve path compiled!"
    return server, paths


def test_serving_pool_open_loop(deployment, record_table):
    server, paths = deployment
    rng = np.random.default_rng(42)
    artifacts = server.artifact_ids
    clients = [
        (f"client-{i}", artifacts[i % len(artifacts)]) for i in range(CLIENTS)
    ]

    # -- steady open-loop phase -----------------------------------------
    traffic = []  # (tick, client, artifact, image) in submission order
    for tick in range(TICKS):
        for client, artifact in clients:
            traffic.append(
                (tick, client, artifact, rng.normal(0, 0.5, (1, 8, 8)))
            )
    results = {}
    start = time.perf_counter()
    for tick in range(TICKS):
        for t, client, artifact, image in traffic:
            if t != tick:
                continue
            server.submit(image, client_id=client, artifact=artifact, now=0.0)
        for result in server.step(now=1e9):
            results[result.ticket] = result
    steady_seconds = time.perf_counter() - start
    steady_requests = len(traffic)
    assert len(results) == steady_requests

    # -- deterministic overload burst ------------------------------------
    hammer, hammer_artifact = clients[0]
    burst_images = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(BURST)]
    admitted_burst, rejections = [], []
    for image in burst_images:
        try:
            server.submit(image, client_id=hammer, artifact=hammer_artifact, now=0.0)
            admitted_burst.append(image)
        except serve.AdmissionError as exc:
            rejections.append(exc)
    assert len(admitted_burst) == MAX_QUEUE_DEPTH
    assert len(rejections) == BURST - MAX_QUEUE_DEPTH
    assert all(exc.retry_after_ms > 0 for exc in rejections)
    for result in server.drain():
        results[result.ticket] = result

    # -- correctness gates before the numbers ----------------------------
    stats = server.stats()
    assert stats.in_flight == 0
    assert stats.requests_rejected == len(rejections)
    assert stats.requests_completed == steady_requests + len(admitted_burst)
    assert all(w.mmap_backed for w in stats.workers)
    assert all(w.compilations_since_load == 0 for w in stats.workers)
    assert len(stats.workers) == WORKERS

    # Bit-exactness: replay each worker's share of the traffic on a solo
    # InferenceServer (same key seed, same batching sequence) and demand
    # identical bytes from the pool's outputs.
    bit_exact = _assert_bit_exact_vs_solo(
        server, paths, traffic, admitted_burst, hammer, hammer_artifact, results
    )

    # -- report ----------------------------------------------------------
    latencies_ms = np.array(
        [r.wall_seconds * 1e3 for r in results.values()]
    )
    p50_ms = float(np.percentile(latencies_ms, 50))
    p99_ms = float(np.percentile(latencies_ms, 99))
    open_loop_rps = steady_requests / steady_seconds
    reject_rate = stats.reject_rate

    record_table(
        "serving_pool",
        f"Fleet-scale pool, {WORKERS} workers x {len(artifacts)} artifacts, "
        f"open-loop (N={RING_DEGREE}, L={MAX_LEVEL}, exact backend)",
        ("metric", "value"),
        [
            ("workers", WORKERS),
            ("requests completed", stats.requests_completed),
            ("requests rejected", stats.requests_rejected),
            ("reject rate", f"{reject_rate:.3f}"),
            ("request p50 ms", f"{p50_ms:.1f}"),
            ("request p99 ms", f"{p99_ms:.1f}"),
            ("open-loop requests/sec", f"{open_loop_rps:.2f}"),
            ("bit-exact vs solo", bit_exact),
        ],
    )
    _merge_json(
        CONFIG_KEY,
        "serving_pool",
        {
            "workers": WORKERS,
            "artifacts": len(artifacts),
            "clients": CLIENTS,
            "requests_submitted": stats.requests_submitted,
            "requests_completed": stats.requests_completed,
            "requests_rejected": stats.requests_rejected,
            "reject_rate": round(reject_rate, 4),
            "p50_ms": round(p50_ms, 3),
            "p99_ms": round(p99_ms, 3),
            "open_loop_requests_per_sec": round(open_loop_rps, 3),
            "bit_exact_vs_solo": bit_exact,
            "mmap_backed": all(w.mmap_backed for w in stats.workers),
        },
        ring_degree=RING_DEGREE,
        max_level=MAX_LEVEL,
        ks_alpha=1,
        quick=QUICK,
        json_path=SERVING_JSON_PATH,
    )


def _assert_bit_exact_vs_solo(
    server, paths, traffic, admitted_burst, hammer, hammer_artifact, results
):
    """Replay each (worker, artifact) lane solo and compare every byte."""
    by_client = {}
    for result in results.values():
        by_client.setdefault(
            (result.client_id, result.artifact_id), []
        ).append(result)
    for lane in by_client.values():
        lane.sort(key=lambda r: r.ticket)

    lanes = {}  # (worker, artifact) -> per-tick submission lists
    for tick, client, artifact, image in traffic:
        worker = server.route(client, artifact)
        lanes.setdefault((worker, artifact), {}).setdefault(tick, []).append(
            (client, image)
        )
    hammer_worker = server.route(hammer, hammer_artifact)
    burst_tick = max(t for t, *_ in traffic) + 1
    lanes.setdefault((hammer_worker, hammer_artifact), {})[burst_tick] = [
        (hammer, image) for image in admitted_burst
    ]

    consumed = {key: 0 for key in by_client}
    for (worker, artifact), ticks in sorted(lanes.items()):
        solo_artifact = serve.ArtifactMap(paths[artifact]).load()
        solo = InferenceServer(
            solo_artifact,
            default_backend_factory(solo_artifact.manifest.to_params(), 0),
            batching=True,
            max_wait_seconds=0.0,
        )
        solo.warm()  # the pool warmed its workers; match the RNG stream
        for tick in sorted(ticks):
            for client, image in ticks[tick]:
                solo.submit(image, client_id=client, now=0.0)
            for solo_result in solo.step(now=1e9):
                key = (solo_result.client_id, artifact)
                pool_result = by_client[key][consumed[key]]
                consumed[key] += 1
                assert pool_result.worker_id == worker
                assert pool_result.batch_size == solo_result.batch_size
                assert np.array_equal(
                    pool_result.output, solo_result.output
                ), f"worker {worker} diverged from solo replay for {key}"
    assert all(
        consumed[key] == len(lane) for key, lane in by_client.items()
    ), "solo replay did not cover every pool result"
    return True


def test_pool_serve_path_never_compiles(deployment):
    """Load-and-serve purity, re-checked after all the traffic above."""
    server, _ = deployment
    stats = server.stats()
    assert all(w.compilations_since_load == 0 for w in stats.workers)
    assert all(w.placements_since_load == 0 for w in stats.workers)
