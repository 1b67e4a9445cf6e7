"""``serve_mlp_pool``: a 2-worker inline pool under open-loop load.

A ``SecureMlp(64,16)`` artifact at N=2048, L=6 is exported by a child
process (the offline/online split); this process only ever loads it::

    serve.open(path, ServerConfig(workers=2, mode="inline", max_batch=2,
               batch_window_seconds=0.05, max_queue_depth=16)); server.warm()

Eight tenants then arrive on a schedule: a *steady* phase at 3 req/s
(~65% of the pool's unbatched capacity, batches of one) and an
*overload* phase at 10 req/s (twice it, so slot batching engages and
goodput reads the pool's capacity, not the offered rate), then
``drain()``.  Crypto per request is small and fixed, so queueing, the
batch window, the lock-step ``Dispatcher.step`` and routing skew do the
work here -- the two phases are reported separately because a
percentile over both measures the benchmark's own hammer.

``max_batch=2`` because ``server.warm()`` warms batch sizes 1 and the
cap only: the first batch of any other size generates that view's
rotation keys and encodes its plaintexts on the request path (1.5-5 s
per worker), and which sizes form depends on wall-clock timing.  With
the cap at 2 every size that can form is warm; warming 1..16 instead
would add ~25 s of set-up per worker to every run.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import export_child
from common import OutputChain, OutputChecker, RunRecord
from loadgen import LoadReport, run_open_loop, schedule
from probes import timed
from stats import median, tail

ARTIFACT_ID = "mlp"
TENANTS = 8
WORKERS = 2
MAX_BATCH = 2
# One request executes in ~0.21 s on the numpy kernels and the inline
# workers take turns, so the pool serves ~4.7 req/s unbatched and about
# twice that in batches of two.
STEADY_RATE = 3.0  # requests per second: ~65% of unbatched capacity
OVERLOAD_RATE = 10.0  # ~2x unbatched capacity: batching must engage, and saturates
STEADY_SHARE = 0.7  # of the measured seconds; the rest is overload
FLOOR_BITS = 3.0
EXPORT_TIMEOUT_SECONDS = 120


def _phases(seconds: float) -> List[tuple]:
    steady = seconds * STEADY_SHARE
    return [("steady", STEADY_RATE, steady), ("overload", OVERLOAD_RATE, seconds - steady)]


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str, rec, started: float) -> RunRecord:
    from repro import serve

    record = RunRecord(name)
    rng = np.random.default_rng(seed)

    # -- set-up: child export, open, warm --------------------------------------
    with contextlib.ExitStack() as cleanup:
        with rec.span("setup"):
            path = os.path.join(scratch, f"{ARTIFACT_ID}.npz")
            exported, _ = timed(
                rec,
                "artifact.export_child",
                lambda: subprocess.run(
                    [sys.executable, os.path.abspath(export_child.__file__), path],
                    check=True,
                    capture_output=True,
                    text=True,
                    timeout=EXPORT_TIMEOUT_SECONDS,
                ),
            )
            offline = json.loads(exported.stdout.strip().splitlines()[-1])
            config = serve.ServerConfig(
                workers=WORKERS,
                mode="inline",
                batch_window_seconds=0.05,
                max_queue_depth=16,
                max_batch=MAX_BATCH,
                key_seed=seed,
            )
            server, open_s = timed(rec, "serve.open", lambda: serve.open({ARTIFACT_ID: path}, config))
            cleanup.enter_context(server)  # drains and closes the pool on the way out
            _, warm_s = timed(rec, "serve.warm", server.warm)
        setup_s = time.perf_counter() - started

        checker = OutputChecker(record, export_child.build_network(), FLOOR_BITS)
        chain = OutputChain()
        tenants = [(f"tenant-{i}", ARTIFACT_ID) for i in range(TENANTS)]

        def draw_image() -> np.ndarray:
            return rng.normal(0.0, 0.5, (1, 8, 8))

        # One immediate request per worker before any load: batch size and
        # order are fixed, so these outputs repeat bit for bit under one seed
        # (the phases' outputs depend on how wall-clock timing forms batches).
        by_worker = {server.route(tenant, ARTIFACT_ID): tenant for tenant, _ in reversed(tenants)}
        for worker_id in sorted(by_worker):
            image = draw_image()
            result = server.serve_now(image, client_id=by_worker[worker_id], artifact=ARTIFACT_ID)
            checker.check(result.output, image, f"probe on worker {worker_id}", operation=False)
            chain.add(result.output)

        def load_pass(span) -> LoadReport:
            arrivals = schedule(_phases(seconds), tenants, draw_image)
            for arrival in arrivals:
                chain.add(f"{arrival.due:.6f}/{arrival.tenant}".encode())
                chain.add(arrival.image)
            report = run_open_loop(server, arrivals, serve.AdmissionError, span=span)
            for d in report.deliveries:
                checker.check(d.output, d.image, f"{d.phase} request of {d.tenant}")
            record.attempted += len(arrivals)
            for refusal in report.refusals:
                record.check(
                    False,
                    f"{refusal.phase} request of {refusal.tenant} refused "
                    f"(retry after {refusal.retry_after_ms:.0f} ms)",
                    operation=True,
                )
            return report

        plain = load_pass(None)
        traced = load_pass(rec.span) if trace else None
        stats = server.stats()

    # -- conservation laws, read off the pool's own counters --------------------
    record.check(
        stats.requests_submitted == stats.requests_admitted + stats.requests_rejected,
        f"submitted {stats.requests_submitted} != admitted {stats.requests_admitted} "
        f"+ rejected {stats.requests_rejected}",
    )
    record.check(
        stats.requests_admitted == stats.requests_completed and stats.in_flight == 0,
        f"admitted {stats.requests_admitted}, completed {stats.requests_completed}, "
        f"in flight {stats.in_flight}",
    )
    record.check(
        all(w.compilations_since_load == 0 for w in stats.workers), "the serve path compiled"
    )

    record.output_chain = chain.links
    steady = [d.latency for d in plain.deliveries if d.phase == "steady"]
    overload = [d.latency for d in plain.deliveries if d.phase == "overload"]
    capacity = stats.workers[0].capacity
    key_bytes = sum(w.key_bytes_resident for w in stats.workers)
    record.info = {
        "steady_requests": len(steady),
        "overload_requests": len(overload),
        "overload_latency_ms_p50": median(overload) * 1e3,
        "precision_bits": checker.pooled_bits(),
        "artifact_bytes": os.path.getsize(path),
        "key_bytes": key_bytes,
        "capacity": capacity,
        "requests_per_worker": [w.requests_served for w in stats.workers],
    }
    if not trace:
        overload_wall = plain.phase_wall_seconds("overload", start=seconds * STEADY_SHARE)
        record.report_end_to_end(
            setup_s,
            steady,
            len(overload) / overload_wall,
            offline["summary"]["rotations"],
            offline["summary"]["modeled_seconds"],
        )
        record.samples["overload_latency_s"] = overload
        return record

    _request_spans(rec, traced)
    traced_steady = [d.latency for d in traced.deliveries if d.phase == "steady"]
    metrics = {
        "serve.open_s": open_s,
        "serve.warm_s": warm_s,
        "artifact.export_s": offline["export_s"],
        "artifact.bytes": record.info["artifact_bytes"],
        "artifact.preloaded_plaintexts": sum(w.preloaded_plaintexts for w in stats.workers),
        "keys.bytes": key_bytes,
        "compiler.total_s": offline["compile_s"],
        "compiler.instructions": offline["instructions"],
        "compiler.depth": offline["summary"]["depth"],
        "placement.bootstraps": offline["summary"]["bootstraps"],
        "program.precision_bits": record.info["precision_bits"],
        "trace.overhead_pct": (median(traced_steady) / median(steady) - 1.0) * 100.0,
    }
    for phase in ("steady", "overload"):
        metrics.update(_phase_layers(traced, phase, capacity))
    record.metrics = metrics
    return record


def _phase_layers(report: LoadReport, phase: str, capacity: int) -> Dict[str, float]:
    """``serve.<phase>.*``: where a request's time went in one phase."""
    delivered = [d for d in report.deliveries if d.phase == phase]
    refused = [r for r in report.refusals if r.phase == phase]
    sent = len(delivered) + len(refused)
    waits = [d.wait for d in delivered]
    batches = sum(1.0 / d.batch_size for d in delivered)
    per_worker: Dict[int, int] = {}
    for d in delivered:
        per_worker[d.worker_id] = per_worker.get(d.worker_id, 0) + 1
    shares = [per_worker.get(w, 0) for w in range(WORKERS)]
    prefix = f"serve.{phase}."
    return {
        prefix + "submit_us_p50": median(report.submit_seconds[phase]) * 1e6,
        prefix + "step_ms_p50": median(report.step_seconds[phase]) * 1e3,
        prefix + "exec_ms_p50": median([d.exec_seconds for d in delivered]) * 1e3,
        prefix + "wait_ms_p50": median(waits) * 1e3,
        prefix + "wait_ms_tail": tail(waits)[1] * 1e3,
        prefix + "batch_size_mean": len(delivered) / batches,
        prefix + "batch_fill": len(delivered) / batches / capacity,
        prefix + "batches_run": batches,
        prefix + "reject_share": len(refused) / sent,
        prefix + "retry_after_ms_p50": median([r.retry_after_ms for r in refused]) if refused else 0.0,
        prefix + "worker_imbalance": max(shares) / (sum(shares) / WORKERS),
        prefix + "generator_lag_ms_max": max(report.lag_seconds[phase]) * 1e3,
        prefix + "sent": sent,
        prefix + "completed": len(delivered),
        prefix + "rejected": len(refused),
    }


def _request_spans(rec, report: LoadReport) -> None:
    """Per-request lanes for the Chrome trace: each request from its due
    time to its delivery, split into wait and exec (wait + exec ==
    latency by construction).  Exec is drawn at the end of the interval;
    inside a lock-step ``step()`` it may in fact have run earlier, with
    the other worker's batch after it."""
    lanes: Dict[str, int] = {}
    for d in report.deliveries:
        lane = lanes.setdefault(d.tenant, 100 + len(lanes))
        due, done = report.origin + d.due, report.origin + d.done
        request = rec.add(
            "serve.request", due, done, lane=lane, phase=d.phase, tenant=d.tenant,
            batch_size=d.batch_size, worker=d.worker_id,
        )
        rec.add("serve.request.wait", due, done - d.exec_seconds, parent=request, lane=lane)
        rec.add("serve.request.exec", done - d.exec_seconds, done, parent=request, lane=lane)
