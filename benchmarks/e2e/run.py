"""The repo's end-to-end benchmark: absolute compile -> serve numbers on
four workloads, with per-layer rows that sum back to the total.

Two ways to run it (see README.md next to this file):

``python3 benchmarks/e2e/run.py --seed S``
    The whole table: every workload, three plain passes each
    (round-robin, so a slow minute of the machine does not land on one
    workload) and one traced pass, printed by name with units, written
    to ``results/`` and appended to ``results/history.jsonl``.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload, one pass, as BENCHMARK.json's contract runs it: the
    last line of stdout is the result object.

Either way each pass runs in a child process under a watchdog, and the
exit code is non-zero if any correctness check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Dict, List, Optional

import checkout
from compare import EXACT_BOUND, chains_agree
from stats import median, tail

#: A hung workload is a failed run, not a stuck benchmark (seconds).
WATCHDOG_SECONDS = 170
#: Plain passes per workload in table mode.  Fixed: history entries are
#: compared by the spread of their rounds, which means something else at
#: another count.
ROUNDS = 3
#: The caller's switches that would change what is measured are cleared ...
CLEARED_ENV = ("REPRO_KERNELS", "REPRO_GRAPH_OPT", "REPRO_TRACE")
#: ... and every pass (the artifact-export grandchild too) runs with these,
#: which is NOT what a default process gets; README.md, "The pinned
#: environment", has what each one buys and what the defaults cost.
PINNED_ENV = {
    # The capability probe picks ``threaded`` on 2 cores: 1.2-2.0x slower
    # here and +-20% from run to run, wider than any usable bound.
    "REPRO_KERNELS": "numpy",
    # glibc hands freed multi-megabyte numpy temporaries back to the kernel
    # and faults them in again on the next allocation (775 k minor faults
    # in three compile_paper pairs, 58 k with these two), and how long the
    # VM takes over a fault varies 3x.
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
}


def load_contract() -> Dict:
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(workload: str, seed: int, seconds: float, trace: int, tag: str) -> Optional[Dict]:
    """Run one pass in a child; its run record, or None if it died or hung."""
    os.makedirs(checkout.RESULTS, exist_ok=True)
    out = os.path.join(checkout.RESULTS, f"{tag}.json")
    scratch = os.path.join(checkout.RESULTS, f"scratch-{os.getpid()}-{tag}")
    os.makedirs(scratch, exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    command = [
        sys.executable, os.path.join(checkout.HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out, "--scratch", scratch,
    ]
    # Its own session, so the watchdog can stop the artifact-export
    # grandchild along with the workload.
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=WATCHDOG_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result after {WATCHDOG_SECONDS} s, stopping it", file=sys.stderr)
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        print(f"{workload}: child exited with {code} and no usable record", file=sys.stderr)
        return None
    with open(out) as f:
        record = json.load(f)
    os.remove(out)
    return record


def print_metrics(title: str, values: Dict[str, float], declared: List[Dict]) -> None:
    print(title)
    for metric in declared:
        if metric["name"] in values:
            print(f"  {metric['name']:<44} {values[metric['name']]:>16.6g} {metric['unit']}")


# -- contract mode: one workload, one pass ------------------------------------
def run_one(args, contract: Dict) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    declared = contract[kind]
    record = run_child(
        args.workload, args.seed, args.seconds, args.trace,
        f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'plain'}",
    )
    if record is None:
        return 1
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if args.trace == 0 and missing:
        print(f"{args.workload}: no value for {missing}", file=sys.stderr)
        return 1
    print_metrics(f"{args.workload} ({kind}, seed {args.seed}, {args.seconds:g} s)", record["metrics"], declared)
    for key, value in sorted(record["info"].items()):
        print(f"  [{key}] {value}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    # A layer the workload does not exercise reads 0 (serve.* on a solo workload).
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"].get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- table mode: every workload, rounds, traced pass, history ------------------
def git_commit() -> str:
    try:
        head = subprocess.run(
            ["git", "-C", checkout.ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", checkout.ROOT, "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        return head + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


ENVIRONMENT_KEYS = (
    "kernel_backend", "kernel_backend_probed", "pinned_env", "nproc", "python", "numpy", "machine",
)


def summarize_workload(plain: List[Dict], traced: Optional[Dict], contract: Dict) -> Dict:
    """Fold one workload's rounds and traced pass into its table row."""
    problems = [p for record in plain for p in record["problems"]]
    end_to_end = {}
    for metric in contract["end_to_end"]:
        rounds = [record["metrics"][metric["name"]] for record in plain]
        end_to_end[metric["name"]] = {"value": median(rounds), "unit": metric["unit"], "rounds": rounds}
        if metric["bound"] <= EXACT_BOUND and len(set(rounds)) > 1:
            problems.append(f"{metric['name']} differs between same-seed rounds: {rounds}")
    # The headline latency is the median over every round's samples.
    pooled = [s for record in plain for s in record["samples"]["latency_s"]]
    end_to_end["latency_ms_p50"]["value"] = median(pooled) * 1e3
    tail_pct, tail_value = tail(pooled)
    # Every pass ran on one seed, so their outputs must agree.
    chains = [record["output_chain"] for record in plain + ([traced] if traced else [])]
    if not chains_agree(chains):
        problems.append("outputs differ between same-seed passes")
    info = {key: value for key, value in plain[-1]["info"].items() if key not in ENVIRONMENT_KEYS}
    if "precision_bits" in info:
        info["precision_bits"] = min(record["info"]["precision_bits"] for record in plain)
    info.update({
        "latency_samples": len(pooled),
        "latency_ms_tail": tail_value * 1e3,
        "tail_pct": tail_pct,
        "attempted_rounds": [r["attempted"] for r in plain],
    })
    row = {
        "end_to_end": end_to_end,
        "per_layer": {},
        "info": info,
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "output_chain": max(chains, key=len),
        "problems": problems,
    }
    if traced:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        row["per_layer"] = {
            key: {"value": value, "unit": units[key]} for key, value in traced["metrics"].items()
        }
        row["problems"] += traced["problems"]
        info["trace_file"] = os.path.relpath(traced["info"]["trace_file"], checkout.ROOT)
    return row


def print_row(name: str, row: Dict, contract: Dict) -> None:
    def line(key: str, value: float, note: str) -> None:
        print(f"  {key:<44} {value:>16.6g} {note}")

    info = row["info"]
    print_metrics(f"\n== {name} ==", {k: v["value"] for k, v in row["end_to_end"].items()}, contract["end_to_end"])
    line("latency_ms_tail", info["latency_ms_tail"], f"ms (p{info['tail_pct']}, n={info['latency_samples']})")
    line("failed_share", row["failed"] / row["attempted"], f"ratio ({row['failed']}/{row['attempted']})")
    for key, unit in (("precision_bits", "bits"), ("artifact_bytes", "bytes"), ("key_bytes", "bytes")):
        if key in info:
            line(key, info[key], unit)
    print(f"  {'output_sha256':<44} {row['output_chain'][-1]:>16} (over {len(row['output_chain'])} outputs)")
    print_metrics("  -- per layer (traced pass) --", {k: v["value"] for k, v in row["per_layer"].items()}, contract["per_layer"])
    for problem in row["problems"]:
        print(f"  FAILED: {problem}")


def run_table(args, contract: Dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    plain: Dict[str, List[Dict]] = {name: [] for name in names}
    traced: Dict[str, Optional[Dict]] = {}
    dead: List[str] = []
    # Round-robin, so a slow minute of the machine does not land on one workload.
    for round_index in range(ROUNDS):
        for name in names:
            print(f"round {round_index + 1}/{ROUNDS}: {name} ...", file=sys.stderr)
            record = run_child(name, args.seed, args.seconds, 0, f"{name}-round{round_index}")
            if record is None:
                dead.append(f"{name} round {round_index + 1}")
            else:
                plain[name].append(record)
    for name in names:
        print(f"traced pass: {name} ...", file=sys.stderr)
        traced[name] = run_child(name, args.seed, args.seconds, 1, f"{name}-traced")
        if traced[name] is None:
            dead.append(f"{name} traced pass")

    records = [r for rounds in plain.values() for r in rounds]
    rows = {
        name: summarize_workload(plain[name], traced[name], contract) for name in names if plain[name]
    }
    document = {
        "schema": 1,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "environment": {key: records[0]["info"][key] for key in ENVIRONMENT_KEYS} if records else {},
        "workloads": rows,
        "dead_runs": dead,
        "correct": not dead and all(not row["problems"] for row in rows.values()),
    }
    for name, row in rows.items():
        print_row(name, row, contract)

    stamp = document["date"].replace(":", "").replace("-", "")[:15]
    path = os.path.join(checkout.RESULTS, f"run-{stamp}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
    with open(os.path.join(checkout.RESULTS, "history.jsonl"), "a") as f:
        f.write(json.dumps(document) + "\n")
    print(f"\n{document['environment']}")
    print(f"wrote {os.path.relpath(path, checkout.ROOT)} and appended it to results/history.jsonl")
    for run in dead:
        print(f"FAILED: {run} died or hung")
    print("correct" if document["correct"] else "NOT CORRECT")
    return 0 if document["correct"] else 1


def main(argv=None) -> int:
    checkout.use_src()  # exits non-zero outside a full checkout
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="how long each pass measures (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, contract)
    return run_table(args, contract)


if __name__ == "__main__":
    sys.exit(main())
