"""One workload, one pass, one process.

``run.py`` starts this file as a child with a hard timeout, so a hang
is a failed run rather than a stuck benchmark, every workload starts
from a cold interpreter, and ``ru_maxrss`` is that workload's own peak.
The run record goes to ``--out`` as JSON; with ``--trace 1`` the spans
go next to it as Chrome ``trace_event`` JSON.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import dataclasses
import json
import os
import sys

import checkout

WORKLOADS = {
    "mlp_solo": "solo",
    "resnet8_solo": "solo",
    "serve_mlp_pool": "serve_pool",
    "compile_paper": "compile_paper",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="where to write the run record")
    parser.add_argument("--scratch", required=True, help="directory for artifacts")
    args = parser.parse_args(argv)

    checkout.use_src()
    import importlib

    from common import environment
    from spans import SpanRecorder

    # repro.obs tracing stays off in both passes: the traced pass uses
    # this harness's own recorder, from outside.
    from repro.obs.tracing import get_tracer

    if get_tracer().enabled:
        sys.exit("repro.obs tracing is on; the benchmark measures with it off")

    module = importlib.import_module(WORKLOADS[args.workload])
    recorder = SpanRecorder(args.workload, enabled=bool(args.trace))
    seed = args.seed % 2**32  # numpy's generators and the key seeds take non-negative integers
    record = module.run(
        args.workload, seed, args.seconds, bool(args.trace), args.scratch, recorder, STARTED
    )
    record.info.update(environment())
    record.info["wall_s"] = time.perf_counter() - STARTED
    if args.trace:
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"
        record.info["trace_file"] = recorder.write_chrome_trace(trace_path)
        record.info["spans"] = len(recorder.spans)
    with open(args.out, "w") as f:
        json.dump(dataclasses.asdict(record), f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
