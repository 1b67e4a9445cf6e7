"""Layer probes of the traced pass: timed calls into public functions of
the compiler, the graph optimizer, the placement planner and the CKKS
backend.  Each returns ``{metric name: value}`` for BENCHMARK.json's
``per_layer`` list; a workload that compiles two networks sums them."""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from stats import median

#: Timed calls of each op in the ``ckks.*`` table.
CKKS_CALLS = 20


def timed(rec, name: str, fn: Callable) -> Tuple[object, float]:
    """``(fn(), seconds)`` under a span (free when ``rec`` is disabled)."""
    start = time.perf_counter()
    with rec.span(name):
        result = fn()
    return result, time.perf_counter() - start


def summary_counts(compiled: Sequence) -> Dict[str, float]:
    """The compiler's own table row (``compiled.summary()``), summed."""
    rows = [c.summary() for c in compiled]
    return {
        "rotations": sum(r["rotations"] for r in rows),
        "modeled_latency": sum(r["modeled_seconds"] for r in rows),
    }


def compiler_layers(
    rec, nets: Sequence, params, mode: str, optimized: Sequence, total_s: float
) -> Dict[str, float]:
    """``compiler.*``, ``graphopt.*`` and ``placement.*``.

    ``optimized`` are the nets compiled at ``mode`` with the graph
    optimizer on and ``total_s`` the warm wall time that took; the
    optimizer's cost is the difference to the same compile with it off,
    and materialisation's (weight packing and encoding) the difference
    to ``mode="analyze"``.
    """
    from repro.backend.costs import CostModel
    from repro.core.placement.planner import solve_placement

    unoptimized, unoptimized_s = timed(
        rec,
        "graphopt.compile_unoptimized",
        lambda: [net.compile(params, mode=mode, optimize=False) for net in nets],
    )
    if mode == "analyze":
        analyze_s = total_s
    else:
        _, analyze_s = timed(
            rec,
            "compiler.compile_analyze",
            lambda: [net.compile(params, mode="analyze", optimize=True) for net in nets],
        )
    boot_cost = CostModel(params).bootstrap()
    placements, solve_s = timed(
        rec,
        "placement.solve",
        lambda: [solve_placement(c.chain, params.effective_level, boot_cost) for c in optimized],
    )
    return {
        "compiler.total_s": total_s,
        "compiler.analyze_s": analyze_s,
        "compiler.materialize_extra_s": total_s - analyze_s,
        # analyze mode builds no program; its layer reports stand in
        "compiler.instructions": sum(
            len(c.program.instructions) if c.program else len(c.layer_reports) for c in optimized
        ),
        "compiler.depth": sum(c.multiplicative_depth for c in optimized),
        "graphopt.extra_s": total_s - unoptimized_s,
        "graphopt.rewrites": sum(c.graph_opt_report.total for c in optimized),
        "graphopt.rotations_saved": sum(c.total_rotations for c in unoptimized)
        - sum(c.total_rotations for c in optimized),
        "placement.solve_s": solve_s,
        "placement.chain_items": sum(len(c.chain.layer_names()) for c in optimized),
        "placement.bootstraps": sum(p.num_bootstraps for p in placements),
    }


def ckks_op_table(rec, params, seed: int) -> Dict[str, float]:
    """``ckks.*``: median milliseconds of each public ``ToyBackend`` op on
    fresh top-level ciphertexts, plus the *computed* bytes one rotation's
    key switch streams (N x limbs x dnum int64 words) and the rate that
    implies -- PAPERS.md's cache studies call these gathers memory-bound.
    """
    from repro.backend.toy import ToyBackend

    backend = ToyBackend(params, seed=seed)
    level = params.max_level
    values = np.random.default_rng(seed).normal(0, 0.5, backend.slot_count)
    plain = backend.encode(values, level, params.scale)
    ct, other = backend.encrypt(plain), backend.encrypt(plain)
    product = backend.mul(ct, other)
    steps = list(range(1, 9))
    ops = {
        "encode": lambda: backend.encode(values, level, params.scale),
        "encrypt": lambda: backend.encrypt(plain),
        "decrypt": lambda: backend.decrypt(ct),
        "mul_plain": lambda: backend.mul_plain(ct, plain),
        "mul_relin": lambda: backend.mul(ct, other),
        "rescale": lambda: backend.rescale(product),
        "rotate": lambda: backend.rotate(ct, 1),
        "rotate_hoisted8": lambda: backend.rotate_hoisted(ct, steps),
    }
    table: Dict[str, float] = {}
    for name, op in ops.items():
        op()  # rotation keys are generated on first use
        samples: List[float] = []
        with rec.span(f"ckks.{name}", calls=CKKS_CALLS, level=level):
            for _ in range(CKKS_CALLS):
                start = time.perf_counter()
                op()
                samples.append(time.perf_counter() - start)
        table[f"ckks.{name}_ms"] = median(samples) * 1e3
    limbs = level + 1 + params.num_special_primes
    digits = math.ceil((level + 1) / params.ks_alpha)
    table["ckks.bytes_per_rotate"] = params.ring_degree * limbs * digits * 8
    table["ckks.rotate_gbps"] = table["ckks.bytes_per_rotate"] / (table["ckks.rotate_ms"] * 1e6)
    return table
