"""Serving walkthrough: compile once, export, open a pool, slot-batch.

The full compile-once / serve-many story of docs/serving.md in one
script, through the fleet front door (``repro.serve.open``):

1. fit + compile an MNIST MLP and **export** it to a serving artifact
   (uncompressed, so workers can map the tables in place);
2. **open** a pool of 2 forked worker processes over the artifact (zero
   compiler invocations — asserted; the weight tables are mmapped,
   shared by every worker, never copied);
3. serve four clients **sequentially**, then the same four **batched**
   through the pool's slot-batching workers, verifying per-client
   outputs match;
4. print the typed, schema-versioned pool telemetry and the span
   tracks the forked workers recorded;
5. **hot-reload**: re-export retrained weights over the served path,
   ``reload()`` the running pool, and check that the same clients now
   get the new network's answers.

Run:  python examples/serve_mnist.py
"""

import os
import tempfile
import time

import numpy as np

from repro import serve
from repro.backend.ledger import LatencyHistogram
from repro.ckks.params import toy_parameters
from repro.core.compiler import OrionCompiler
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork


def main():
    rng = np.random.default_rng(0)

    # -- offline: compile once, export the artifact ---------------------
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    calibration = rng.normal(0, 0.5, (8, 1, 8, 8))
    onet.fit([calibration])
    params = toy_parameters(
        ring_degree=2048, max_level=6, boot_levels=1, scale_bits=24
    )
    path = os.path.join(tempfile.mkdtemp(), "mnist_mlp.npz")
    print("Compiling and exporting the serving artifact ...")
    onet.export(path, params)
    print(f"  wrote {path} ({os.path.getsize(path) // 1024} KiB)")

    # -- online: open a pool over the artifact (no compiler, ever) ------
    compilations = OrionCompiler.invocations
    config = serve.ServerConfig(
        workers=2, mode="process", max_queue_depth=8, tracing=True
    )
    with serve.open(path, config) as server:
        artifact_id = server.artifact_ids[0]
        print(
            f"  pool of {server.workers} workers serving {artifact_id!r}; "
            "tables mmapped in place, shared by every worker"
        )
        server.warm(batch_sizes=(1, 4))

        images = [rng.normal(0, 0.5, (1, 8, 8)) for _ in range(4)]
        reference = [
            serve.ArtifactMap(path).load().program.run_cleartext_packed(im)
            for im in images
        ]

        # -- sequential serving -----------------------------------------
        start = time.perf_counter()
        for index, image in enumerate(images):
            result = server.serve_now(image, client_id=f"client-{index}")
            bits = OrionNetwork.precision_bits(result.output, reference[index])
            print(
                f"  sequential client-{index}: {bits:.1f} bits of precision "
                f"(worker {result.worker_id})"
            )
        sequential_s = time.perf_counter() - start

        # -- slot-batched serving: clients coalesce per worker ----------
        start = time.perf_counter()
        tickets = {
            server.submit(image, client_id=f"client-{index}"): index
            for index, image in enumerate(images)
        }
        results = server.step()
        batched_s = time.perf_counter() - start
        for result in results:
            index = tickets[result.ticket]
            bits = OrionNetwork.precision_bits(result.output, reference[index])
            print(
                f"  batched    client-{index}: {bits:.1f} bits "
                f"(worker {result.worker_id}, batch of {result.batch_size})"
            )

        print(
            f"\n4 requests: sequential {sequential_s:.2f}s, "
            f"slot-batched {batched_s:.2f}s "
            f"({sequential_s / batched_s:.1f}x requests/sec)"
        )
        assert OrionCompiler.invocations == compilations, "serve path compiled!"
        print("serve path compiled nothing (as promised)")

        stats = server.stats()
        total_batches = sum(w.batches_run for w in stats.workers)
        latency = LatencyHistogram()
        for worker in stats.workers:
            latency.merge(worker.request_latency)
        p50 = latency.quantile(0.5)
        modeled = sum(w.modeled_seconds for w in stats.workers)
        print(
            f"telemetry (schema v{stats.schema_version}): "
            f"{stats.requests_completed} requests in {total_batches} runs "
            f"across {len(stats.workers)} workers, request p50 "
            f"{p50 * 1e3:.0f} ms, modeled {modeled:.1f}s of FHE work, "
            f"mmap-backed={all(w.mmap_backed for w in stats.workers)}"
        )
        tracks = server.trace()
        batches = sum(
            span["name"] == "serve.batch" for track in tracks for span in track["spans"]
        )
        print(f"trace: {batches} serve.batch spans on {len(tracks)} worker tracks")

        # -- hot reload: retrained weights over the served path ----------
        # A small update to the last layer keeps the key manifest, so
        # every worker rebuilds its lane around the new tables with the
        # keys it already holds.  The export publishes atomically; the
        # pool serves the old file until reload().
        weights = np.random.default_rng(1)
        for param in onet.module.fc3.parameters():
            param.data = param.data + weights.normal(0, 0.2, param.data.shape)
        onet.fit([calibration])
        onet.export(path, params)
        server.reload()
        retrained = [
            serve.ArtifactMap(path).load().program.run_cleartext_packed(im)
            for im in images
        ]
        tickets = {
            server.submit(image, client_id=f"client-{index}"): index
            for index, image in enumerate(images)
        }
        for result in server.drain():
            index = tickets[result.ticket]
            bits = OrionNetwork.precision_bits(result.output, retrained[index])
            stale = OrionNetwork.precision_bits(result.output, reference[index])
            assert bits > stale, f"client-{index} did not get the reloaded weights"
            print(
                f"  reloaded   client-{index}: {bits:.1f} bits against the "
                f"retrained network, {stale:.1f} against the old one "
                f"(worker {result.worker_id})"
            )


if __name__ == "__main__":
    main()
