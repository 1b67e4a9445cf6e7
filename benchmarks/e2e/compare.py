"""``compare.py A B``: per-(metric, workload) verdicts between two runs.

``A`` and ``B`` are result files written by ``run.py`` (table mode), or
``history.jsonl`` (its last entry) or ``history.jsonl:N`` (entry N,
negative counts from the end).  ``A`` is the parent, ``B`` the change.

Verdicts for end-to-end metrics use the bounds in BENCHMARK.json:

``worse`` / ``better``
    B's median moved by more than the bound, and the two runs' rounds
    do not blur it (see ``unresolved``).
``within-bound``
    the medians differ by no more than the bound.
``unresolved``
    the rounds of either run spread (first to third quartile, as a
    share of the median) wider than the bound: no verdict, unless every
    round of B reads better than every round of A (``better``), or every
    round reads worse and the medians differ by more than the bound
    (``worse``).

Exact metrics -- end-to-end counts, and per-layer counts and bytes that
are properties of the compiled program -- must be equal.  Other
per-layer rows are listed with their change and carry no verdict.

Correctness is judged too, and never ``unresolved``: ``failed_share``
(failed / attempted) must not rise, ``precision_bits`` may drop by at
most 0.5, and a workload of B that failed a check (``correct``), a pass
of B that died or hung (``dead_runs``) and a workload A has and B lacks
are all ``worse``.

Exit code 1 if anything is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import checkout
from stats import quartile_spread

#: Bounds at or below this mean "must be equal".
EXACT_BOUND = 0.001
#: ``precision_bits`` may drop by this many bits before it is ``worse``.
PRECISION_BITS_BOUND = 0.5
#: Per-layer rows that are exact properties of the compiled program.
EXACT_PER_LAYER = (
    "compiler.instructions", "compiler.depth", "graphopt.rewrites", "graphopt.rotations_saved",
    "placement.chain_items", "placement.bootstraps", "artifact.preloaded_plaintexts",
    "keys.rotation_keys", "keys.bytes", "backend.rotations", "backend.bootstraps",
    "backend.multiplies", "ckks.bytes_per_rotate",
)


def load(spec: str) -> Dict:
    if ".jsonl" not in spec:
        with open(spec) as f:
            return json.load(f)
    path, _, entry = spec.partition(".jsonl")
    with open(path + ".jsonl") as f:
        lines = [line for line in f if line.strip()]
    return json.loads(lines[int(entry.lstrip(":")) if entry else -1])


def chains_agree(chains: Sequence[Sequence[str]]) -> bool:
    """Passes are time-boxed, so same-seed passes complete different
    numbers of operations; their outputs agree when every shorter
    output chain is a prefix of the longest."""
    longest = max(chains, key=len)
    return all(list(chain) == list(longest[: len(chain)]) for chain in chains)


def relative_change(a: float, b: float, better: str) -> float:
    """B relative to A, signed so that positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    if a == b:
        return 0.0
    return sign * (b - a) / abs(a) if a else sign * float("inf")


def verdict(
    a: float, b: float, better: str, bound: float,
    a_rounds: Sequence[float] = (), b_rounds: Sequence[float] = (),
) -> Tuple[str, float]:
    """``(verdict, change)``; change is B relative to A, positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = relative_change(a, b, better)
    if bound <= EXACT_BOUND:
        return ("within-bound" if a == b else "worse" if change > 0 else "better"), change
    spread = max(quartile_spread(a_rounds), quartile_spread(b_rounds))
    if spread > bound:
        # Too noisy for the bound -- unless the rounds separate completely.
        if a_rounds and b_rounds:
            if all(sign * y < sign * x for x in a_rounds for y in b_rounds):
                return "better", change
            if change > bound and all(sign * y > sign * x for x in a_rounds for y in b_rounds):
                return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def correctness_rows(workload: str, row_a: Dict, row_b: Dict) -> List[Tuple[str, str, str, float, float, float]]:
    """``correct``, ``failed_share`` and ``precision_bits`` of one workload."""
    failed_checks = len(row_b["problems"])
    rows = [(workload, "correct", "worse" if failed_checks else "within-bound",
             float(len(row_a["problems"])), float(failed_checks), 0.0)]
    share_a, share_b = (row["failed"] / row["attempted"] for row in (row_a, row_b))
    outcome, change = verdict(share_a, share_b, "lower", 0.0)
    rows.append((workload, "failed_share", outcome, share_a, share_b, change))
    bits_a, bits_b = row_a["info"].get("precision_bits"), row_b["info"].get("precision_bits")
    if bits_a is not None and bits_b is not None:
        lost = bits_a - bits_b
        outcome = "worse" if lost > PRECISION_BITS_BOUND else "better" if lost < -PRECISION_BITS_BOUND else "within-bound"
        rows.append((workload, "precision_bits", outcome, bits_a, bits_b, relative_change(bits_a, bits_b, "higher")))
    return rows


def compare(a: Dict, b: Dict, contract: Dict) -> List[Tuple[str, str, str, float, float, float]]:
    """Rows of ``(workload, metric, verdict, a, b, change)``."""
    rows = []
    if b["dead_runs"]:
        rows.append(("*", "dead_runs", "worse", float(len(a["dead_runs"])), float(len(b["dead_runs"])), 0.0))
    for workload in [w["name"] for w in contract["workloads"]]:
        row_a, row_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if not row_a or not row_b:
            # A workload A has and B lacks died in every pass of B: a failure, not noise.
            outcome = "worse" if row_a else "unresolved"
            rows.append((workload, "*", outcome, float("nan"), float("nan"), 0.0))
            continue
        for metric in contract["end_to_end"]:
            ma, mb = row_a["end_to_end"][metric["name"]], row_b["end_to_end"][metric["name"]]
            outcome, change = verdict(
                ma["value"], mb["value"], metric["better"], metric["bound"], ma["rounds"], mb["rounds"]
            )
            rows.append((workload, metric["name"], outcome, ma["value"], mb["value"], change))
        rows += correctness_rows(workload, row_a, row_b)
        for metric in contract["per_layer"]:
            name = metric["name"]
            if name not in row_a["per_layer"] or name not in row_b["per_layer"]:
                continue
            va, vb = row_a["per_layer"][name]["value"], row_b["per_layer"][name]["value"]
            if name in EXACT_PER_LAYER:
                outcome, change = verdict(va, vb, metric["better"], 0.0)
            else:
                outcome, change = "info", relative_change(va, vb, metric["better"])
            rows.append((workload, name, outcome, va, vb, change))
        if a["seed"] == b["seed"]:
            same = chains_agree([row_a["output_chain"], row_b["output_chain"]])
            rows.append((workload, "output_sha256", "within-bound" if same else "worse", 0.0, 0.0, 0.0))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    a, b = load(argv[0]), load(argv[1])
    rows = compare(a, b, contract)
    print(f"A: {a['commit']} seed {a['seed']} ({a['date']})   B: {b['commit']} seed {b['seed']} ({b['date']})")
    for workload, metric, outcome, va, vb, change in rows:
        print(f"{workload:<16} {metric:<44} {outcome:<13} {va:>14.6g} -> {vb:<14.6g} {change:+8.1%}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    print(", ".join(f"{n} {name}" for name, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
