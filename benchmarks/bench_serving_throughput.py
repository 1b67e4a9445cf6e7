"""Serving throughput: sequential single requests vs slot-batched.

The compile-once / serve-many acceptance benchmark (docs/serving.md):
an MNIST MLP is compiled once, exported to a serving artifact, loaded
back (zero compiler/planner invocations asserted), and then serves the
same requests two ways on the exact toy backend —

- **sequential**: one request per program execution;
- **batched**: ``BATCH`` concurrent clients coalesced into one
  ciphertext by the slot-batching scheduler, one program execution for
  all of them.

Correctness is asserted before timing is believed: batched per-client
outputs are **bit-exact** against sequential execution on the
deterministic noise-free simulator, and within the usual precision
bound of the noisy exact backend.  The batched path must then clear a
requests/sec floor of 2x over sequential (wall-clock; the modeled
speedup is also recorded).

Medians merge into ``BENCH_serving.json`` at the repo root (same
machine-readable format as ``BENCH_ckks_hotpath.json``), validated by
the ``bench-gate`` CI step (``benchmarks/check_bench_json.py``).

Set ``HOTPATH_QUICK=1`` (or ``SERVING_QUICK=1``) for the CI-sized run.
"""

import os
import statistics
import time

import numpy as np
import pytest
from json_util import JSON_PATH, merge_json as _merge_json

from repro.backend import SimBackend, ToyBackend
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler
from repro.core.placement.planner import solve_placement
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork
from repro.serve import ArtifactMap
from repro.serve.runtime import InferenceServer

QUICK = bool(
    int(os.environ.get("SERVING_QUICK", os.environ.get("HOTPATH_QUICK", "0")))
)
RING_DEGREE = 1024 if QUICK else 2048
MAX_LEVEL = 6
BATCH = 4
REPS = 2 if QUICK else 5
SPEEDUP_FLOOR = 2.0
PRECISION_FLOOR = 3.5  # sanity bound; bit-exactness is asserted on the packed path

SERVING_JSON_PATH = os.path.join(os.path.dirname(JSON_PATH), "BENCH_serving.json")
CONFIG_KEY = (
    f"N{RING_DEGREE}_L{MAX_LEVEL}_alpha1_{'quick' if QUICK else 'full'}"
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    params = toy_parameters(
        ring_degree=RING_DEGREE, max_level=MAX_LEVEL, boot_levels=1, scale_bits=24
    )
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    rng = np.random.default_rng(0)
    onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
    path = str(tmp_path_factory.mktemp("artifact") / "mlp.npz")
    onet.export(path, params)

    compilations = OrionCompiler.invocations
    placements = solve_placement.invocations
    artifact = ArtifactMap(path).load()
    backend = ToyBackend(artifact.manifest.to_params(), seed=3)
    server = InferenceServer(artifact, backend, max_wait_seconds=0.0)
    # Warm both execution shapes once: key material and weight-plaintext
    # caches are a one-time per-worker cost, not a per-request one.
    warm = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(BATCH)]
    server.serve_now(0, warm[0])
    for ticket, image in enumerate(warm):
        server.submit(ticket, image, now=0.0)
    server.step(now=1e9)
    assert OrionCompiler.invocations == compilations, "serve path compiled!"
    assert solve_placement.invocations == placements, "serve path planned!"
    return artifact, server, rng


def test_serving_throughput(served, record_table):
    artifact, server, rng = served
    program = artifact.program
    images = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(BATCH)]

    # -- correctness first: batched == sequential, per client ------------
    # (a lone client runs the capacity view, whose folds stop at the
    # block; distinct clients derive from the block-level program, so
    # that is the sequential form they match bit for bit)
    reference = SimBackend(artifact.manifest.to_params(), noise_free=True)
    block_level = program.block_level()
    sequential_packed = np.stack([block_level.run(reference, image) for image in images])
    batched_packed = program.batched(BATCH).run(reference, np.stack(images))
    assert np.array_equal(batched_packed, sequential_packed), (
        "batched noise-free simulator outputs are not bit-exact vs sequential"
    )

    sequential_outputs = {}
    single_times = []
    for _ in range(REPS):
        start = time.perf_counter()
        for index, image in enumerate(images):
            result = server.serve_now(index, image, client_id=f"c{index}")
            sequential_outputs[index] = result.output
        single_times.append((time.perf_counter() - start) / BATCH)

    batched_outputs = {}
    batched_times = []
    for _ in range(REPS):
        start = time.perf_counter()
        for index, image in enumerate(images):
            server.submit(index, image, client_id=f"c{index}", now=0.0)
        results = server.step(now=1e9)
        batched_times.append((time.perf_counter() - start) / BATCH)
        assert len(results) == BATCH
        assert all(result.batch_size == BATCH for result in results)
        for result in results:
            batched_outputs[result.ticket] = result.output

    for index in range(BATCH):
        bits = OrionNetwork.precision_bits(
            batched_outputs[index], sequential_packed[index]
        )
        assert bits > PRECISION_FLOOR, (
            f"client {index}: batched output off ({bits:.2f} bits)"
        )
        bits_seq = OrionNetwork.precision_bits(
            sequential_outputs[index], sequential_packed[index]
        )
        assert bits_seq > PRECISION_FLOOR

    # -- throughput ------------------------------------------------------
    single_ms = statistics.median(single_times) * 1e3
    batched_ms = statistics.median(batched_times) * 1e3
    single_rps = 1e3 / single_ms
    batched_rps = 1e3 / batched_ms
    speedup = batched_rps / single_rps

    record_table(
        "serving_throughput",
        f"Serving throughput, {BATCH} concurrent MNIST requests "
        f"(N={RING_DEGREE}, L={MAX_LEVEL}, exact backend)",
        ("mode", "per-request ms", "requests/sec", "speedup"),
        [
            ("sequential", f"{single_ms:.1f}", f"{single_rps:.2f}", "1.00x"),
            (
                f"slot-batched x{BATCH}",
                f"{batched_ms:.1f}",
                f"{batched_rps:.2f}",
                f"{speedup:.2f}x",
            ),
        ],
    )
    _merge_json(
        CONFIG_KEY,
        "serving",
        {
            "batch_size": BATCH,
            "capacity": server.scheduler.capacity,
            "preloaded_plaintexts": server.preloaded_plaintexts,
            "single_request_median_ms": round(single_ms, 3),
            "batched_request_median_ms": round(batched_ms, 3),
            "requests_per_sec_single": round(single_rps, 3),
            "requests_per_sec_batched": round(batched_rps, 3),
            "speedup_batched_vs_single": round(speedup, 3),
        },
        ring_degree=RING_DEGREE,
        max_level=MAX_LEVEL,
        ks_alpha=1,
        quick=QUICK,
        json_path=SERVING_JSON_PATH,
    )
    assert speedup > SPEEDUP_FLOOR, (
        f"batched serving only {speedup:.2f}x over sequential "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_serve_path_never_compiles(served):
    """Load-and-serve purity, re-checked after all the traffic above."""
    _, server, _ = served
    assert server.compilations_since_load == 0
    assert server.placements_since_load == 0
