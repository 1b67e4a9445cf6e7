#!/usr/bin/env python
"""CI bench-gate: validate the benchmark JSONs and enforce floors.

Runs as a dedicated workflow step (after the quick-mode benchmarks have
merged their medians) so a perf regression fails the build *loudly* on
its own line instead of deep inside a pytest trace:

    python benchmarks/check_bench_json.py [json ...]

With no arguments it checks ``BENCH_ckks_hotpath.json`` (always) and
``BENCH_serving.json`` (when present).  Which sections a file *must*
carry is keyed by its basename, so the hot-path file is not required to
record serving medians and vice versa.

Checks two things:

1. **Schema** — every config carries its parameter fingerprint
   (ring_degree / max_level / ks_alpha / quick) and every recorded
   section has the expected numeric fields (medians > 0, speedups
   finite), so a half-written or hand-mangled JSON cannot pass.
2. **Floors** — every recorded speedup median (and the bootstrap's
   refreshed precision) must clear its floor.
   Floors are quick/full aware (quick CI rings are smaller and
   noisier).  A section missing from a config is fine — only numbers
   that were recorded are gated — but at least one config must carry
   each gated section so the gate cannot be green by running nothing.

Exit code 0 = gate passed; 1 = schema violation or a floor breach.
"""

import json
import math
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATH = os.path.join(REPO_ROOT, "BENCH_ckks_hotpath.json")
SERVING_PATH = os.path.join(REPO_ROOT, "BENCH_serving.json")

META_FIELDS = {
    "ring_degree": int,
    "max_level": int,
    "ks_alpha": int,
    "quick": bool,
}

# section -> metric -> (quick_floor, full_floor).  Keep in sync with the
# asserts inside the benchmarks themselves; the gate re-checks the
# *recorded medians* so a regression can't hide behind a stale JSON.
FLOORS = {
    "ops": {
        "rotate_x8_hoisted.speedup": (1.5, 4.0),
        "keyswitch.speedup": (1.2, 1.2),
        "rotate.speedup": (1.2, 1.2),
    },
    # Stacked key-switch inner products vs the per-offset loop (both
    # double-hoisted; the stack removes per-offset Python overhead).
    "stacked_keyswitch": {
        "speedup_stacked_vs_loop": (1.15, 1.15),
    },
    # End-to-end bootstrap: the whole ModRaise -> CoeffToSlot -> EvalMod
    # -> SlotToCoeff pipeline, recorded as absolutes (median, "# Rots",
    # refreshed precision in bits — the one floor here).  The 1.1x
    # speedup floor that used to sit here guarded against "the
    # conjugation falling back to its standalone key switch"; that
    # fallback no longer exists (a backend without the fused primitives
    # fails at construction), so the regression is impossible by
    # construction and the benchmark asserts hrot == 0 instead.
    "bootstrap_e2e": {
        "precision_bits": (7.0, 7.0),
    },
    "serving": {
        "speedup_batched_vs_single": (2.0, 2.0),
    },
    # Fleet-scale pool (no speedup floor — single-core CI cannot measure
    # parallel speedup honestly; the section is gated on its correctness
    # flags and latency schema by _check_serving_pool instead).
    "serving_pool": {},
    # Trace-level graph optimizer (concat-linear fusion + rotation
    # passes) end to end on a branchy sibling-conv network vs the
    # un-optimized reference compilation of the same network.
    "graph_opt": {
        "speedup_optimized_vs_unoptimized": (1.2, 1.2),
    },
}

# section -> metric -> (quick_ceiling, full_ceiling).  The mirror image
# of FLOORS for metrics that must stay *small*: the observability layer
# records its hot-path overhead percentages, and the gate fails if they
# creep above the ceiling.  A value of exactly the ceiling passes.
CEILINGS = {
    # Disabled tracing is gated at 2% where runs are long enough to
    # resolve it; the quick ring's few-ms runs put the A/A noise floor
    # itself near 2%, hence the quick headroom.
    "tracing_overhead": {
        "disabled_overhead_pct": (5.0, 2.0),
        "enabled_overhead_pct": (15.0, 10.0),
    },
}

# Which gated sections each benchmark JSON is responsible for carrying
# (in at least one config) — so the gate cannot be green by running
# nothing, without demanding serving medians of the hot-path file.
REQUIRED_SECTIONS = {
    "BENCH_ckks_hotpath.json": (
        "ops",
        "stacked_keyswitch",
        "bootstrap_e2e",
        "graph_opt",
        "tracing_overhead",
    ),
    "BENCH_serving.json": ("serving", "serving_pool"),
}

# Numeric fields every section entry must carry (besides the speedups).
SECTION_MEDIANS = {
    "ops": ("median_ms", "baseline_median_ms"),
    "stacked_keyswitch": ("stacked_median_ms", "loop_median_ms"),
    "bootstrap_e2e": ("median_ms", "rotations"),
    "serving": ("single_request_median_ms", "batched_request_median_ms"),
    "serving_pool": ("p50_ms", "p99_ms"),
    "graph_opt": ("optimized_median_ms", "unoptimized_median_ms"),
    # Overhead *percentages* are deliberately absent: a clean run clips
    # them to 0.0, which is a pass, not a schema violation.
    "tracing_overhead": (
        "baseline_median_ms",
        "disabled_median_ms",
        "enabled_median_ms",
    ),
}


def _lookup(section_data, dotted):
    node = section_data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _check_medians(errors, config_key, section, data):
    entries = data.values() if section == "ops" else [data]
    labels = list(data) if section == "ops" else [section]
    for label, entry in zip(labels, entries):
        if not isinstance(entry, dict):
            errors.append(f"{config_key}/{section}/{label}: not an object")
            continue
        for field in SECTION_MEDIANS[section]:
            value = entry.get(field)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                errors.append(
                    f"{config_key}/{section}/{label}.{field}: "
                    f"expected a positive number, got {value!r}"
                )


def _check_serving_pool(errors, config_key, data):
    """Correctness gates for the fleet-pool section: the benchmark must
    have proved bit-exactness and exercised admission control, and the
    latency percentiles must be ordered sanely."""
    prefix = f"{config_key}/serving_pool"
    if data.get("bit_exact_vs_solo") is not True:
        errors.append(
            f"{prefix}.bit_exact_vs_solo: must be true "
            f"(got {data.get('bit_exact_vs_solo')!r}) — pool outputs were "
            "not proven bit-exact against a solo server replay"
        )
    workers = data.get("workers")
    if not isinstance(workers, int) or workers < 4:
        errors.append(
            f"{prefix}.workers: expected >= 4, got {workers!r}"
        )
    rate = data.get("reject_rate")
    if not isinstance(rate, (int, float)) or not (0.0 < rate < 1.0):
        errors.append(
            f"{prefix}.reject_rate: expected a rate in (0, 1) — the "
            f"overload burst must produce some (not all) rejects, "
            f"got {rate!r}"
        )
    p50, p99 = data.get("p50_ms"), data.get("p99_ms")
    if (
        isinstance(p50, (int, float))
        and isinstance(p99, (int, float))
        and p99 < p50
    ):
        errors.append(f"{prefix}: p99_ms ({p99}) below p50_ms ({p50})")


def check(path):
    errors = []
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    configs = data.get("configs")
    if not isinstance(configs, dict) or not configs:
        return [f"{path}: no 'configs' object"]

    seen_sections = set()
    for config_key, config in sorted(configs.items()):
        if not isinstance(config, dict):
            errors.append(f"{config_key}: not an object")
            continue
        for field, kind in META_FIELDS.items():
            if not isinstance(config.get(field), kind):
                errors.append(
                    f"{config_key}.{field}: expected {kind.__name__}, "
                    f"got {config.get(field)!r}"
                )
        quick = bool(config.get("quick"))
        for section, metrics in FLOORS.items():
            section_data = config.get(section)
            if section_data is None:
                continue
            seen_sections.add(section)
            _check_medians(errors, config_key, section, section_data)
            if section == "serving_pool":
                _check_serving_pool(errors, config_key, section_data)
            for dotted, (quick_floor, full_floor) in metrics.items():
                floor = quick_floor if quick else full_floor
                value = _lookup(section_data, dotted)
                if value is None:
                    errors.append(
                        f"{config_key}/{section}.{dotted}: missing (floor {floor})"
                    )
                elif not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(
                        f"{config_key}/{section}.{dotted}: not a number: {value!r}"
                    )
                elif value < floor:
                    errors.append(
                        f"PERF REGRESSION {config_key}/{section}.{dotted}: "
                        f"{value} is below the {floor} floor"
                    )
        for section, metrics in CEILINGS.items():
            section_data = config.get(section)
            if section_data is None:
                continue
            seen_sections.add(section)
            if section not in FLOORS:  # avoid double-reporting medians
                _check_medians(errors, config_key, section, section_data)
            for dotted, (quick_ceiling, full_ceiling) in metrics.items():
                ceiling = quick_ceiling if quick else full_ceiling
                value = _lookup(section_data, dotted)
                if value is None:
                    errors.append(
                        f"{config_key}/{section}.{dotted}: missing "
                        f"(ceiling {ceiling})"
                    )
                elif not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(
                        f"{config_key}/{section}.{dotted}: not a number: {value!r}"
                    )
                elif value > ceiling:
                    errors.append(
                        f"PERF REGRESSION {config_key}/{section}.{dotted}: "
                        f"{value} is above the {ceiling} ceiling"
                    )
    required = REQUIRED_SECTIONS.get(os.path.basename(path), tuple(FLOORS) + tuple(CEILINGS))
    for section in required:
        if section not in seen_sections:
            errors.append(
                f"no config records section '{section}' — the benchmark that "
                "produces it did not run"
            )
    return errors


def main(argv):
    if len(argv) > 1:
        paths = argv[1:]
    else:
        paths = [DEFAULT_PATH]
        if os.path.exists(SERVING_PATH):
            paths.append(SERVING_PATH)
    failed = False
    for path in paths:
        errors = check(path)
        if errors:
            failed = True
            print(f"bench-gate FAILED for {path}:")
            for error in errors:
                print(f"  - {error}")
            continue
        with open(path) as f:
            num_configs = len(json.load(f)["configs"])
        print(f"bench-gate OK: {num_configs} configs in {path} clear all floors")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
