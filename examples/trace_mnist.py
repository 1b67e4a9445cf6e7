"""Observability walkthrough: trace a pool-served MNIST batch.

The repro.obs story of docs/observability.md in one script:

1. compile + export an MNIST MLP serving artifact (as in
   ``examples/serve_mnist.py``);
2. open a **2-worker pool with tracing on** — each worker carries its
   own :class:`repro.obs.Tracer` and noise monitor;
3. slot-batch four client requests through the pool;
4. print the span tree each worker recorded (``serve.batch`` with
   encrypt / execute / decrypt children, per-layer ciphertext levels,
   FHE op counts) and the noise-budget telemetry;
5. write ``trace.json`` — load it at https://ui.perfetto.dev (or
   ``chrome://tracing``) to see one timeline track per worker;
6. dump the Prometheus text exposition of the pool metrics.

Run:  python examples/trace_mnist.py [trace.json]
"""

import os
import sys
import tempfile

import numpy as np

from repro import serve
from repro.ckks.params import toy_parameters
from repro.models import SecureMlp
from repro.nn import init
from repro.orion import OrionNetwork


def print_span(span, indent="  "):
    duration_ms = (span["end"] - span["start"]) * 1e3
    ops = sum(span.get("ops", {}).values())
    attrs = span.get("attrs", {})
    level = attrs.get("level_out", attrs.get("level_in"))
    detail = f" level={level}" if level is not None else ""
    print(
        f"{indent}{span['name']:<24} {duration_ms:7.1f} ms"
        f"  {ops:4d} ops{detail}"
    )
    for child in span.get("children", []):
        print_span(child, indent + "  ")


def main():
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    rng = np.random.default_rng(0)

    # -- offline: compile once, export the artifact ---------------------
    init.seed_init(0)
    onet = OrionNetwork(SecureMlp(input_pixels=64, hidden=16), (1, 8, 8))
    onet.fit([rng.normal(0, 0.5, (8, 1, 8, 8))])
    params = toy_parameters(
        ring_degree=2048, max_level=6, boot_levels=1, scale_bits=24
    )
    path = os.path.join(tempfile.mkdtemp(), "mnist_mlp.npz")
    print("Compiling and exporting the serving artifact ...")
    onet.export(path, params)

    # -- online: a traced 2-worker pool ---------------------------------
    config = serve.ServerConfig(workers=2, max_queue_depth=8, tracing=True)
    with serve.open(path, config) as server:
        print(f"  pool of {server.workers} workers, tracing on\n")
        for index in range(4):
            server.submit(rng.normal(0, 0.5, (1, 8, 8)), client_id=f"client-{index}")
        results = server.step()
        print(f"served {len(results)} requests; spans recorded per worker:\n")

        for track in server.trace():
            batches = [s for s in track["spans"] if s["name"] == "serve.batch"]
            requests = [
                s for s in track["spans"] if s["name"] == "serve.request"
            ]
            if not batches and not requests:
                continue
            print(f"{track['name']}:")
            for span in batches:
                print_span(span)
            for span in requests:
                print(
                    f"  {span['name']:<24} "
                    f"{(span['end'] - span['start']) * 1e3:7.1f} ms  "
                    f"(queue + batch, client "
                    f"{span['attrs'].get('client_id')!r})"
                )
            print()

        stats = server.stats()
        for worker in stats.workers:
            noise = worker.noise
            print(
                f"noise telemetry worker {worker.worker_id}: "
                f"{noise.rescales} rescales, {noise.mod_downs} mod-downs, "
                f"{noise.bootstraps} bootstraps, min level "
                f"{noise.min_level}, max scale drift "
                f"{noise.max_scale_drift_log2:.3f} bits"
            )

        server.export_chrome_trace(trace_path)
        print(
            f"\nwrote {trace_path} — load it at https://ui.perfetto.dev "
            "(one track per worker)"
        )

        print("\nPrometheus exposition (repro_* families):")
        for line in server.metrics_text().splitlines():
            if line.startswith(("repro_serve", "repro_noise")):
                print(f"  {line}")


if __name__ == "__main__":
    main()
