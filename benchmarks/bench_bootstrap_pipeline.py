"""Ablation + end-to-end latency of the real bootstrapping pipeline.

The repository substitutes the paper's Lattigo bootstrap with an oracle
refresh (docs/substitutions.md) whose external contract (level reset to
L_eff, L_boot levels consumed, bounded error, large modeled latency)
matches the primitive the compiler reasons about.  This bench validates that substitution by
running the *real* ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff
pipeline (repro.ckks.bootstrap) on the exact toy arithmetic and
comparing both flavours on every contract clause.

``test_bootstrap_e2e_latency`` additionally times the *whole* pipeline
as it runs in production: the CoeffToSlot conjugation rides the
transforms' shared digit decomposition as composed Galois elements,
both CoeffToSlot halves come from ONE fused call, and the transform
tables and EvalMod constant plaintexts are cached across refreshes.
There is no second pipeline to race (docs/hoisting.md), so the numbers
are absolutes: the median merges into ``BENCH_ckks_hotpath.json``
(section ``bootstrap_e2e``, with "# Rots" and the refreshed precision)
and CI's bench-gate checks the section's schema and precision floor.
``HOTPATH_QUICK=1`` shrinks repetitions; ``HOTPATH_ALPHA=k`` benchmarks
grouped digit decomposition.
"""

import os
import time

import numpy as np
import pytest
from bench_json_util import merge_json

from repro.backend.toy import ToyBackend
from repro.ckks.bootstrap import CkksBootstrapper
from repro.ckks.params import (
    bootstrap_parameters,
    double_angle_bootstrap_parameters,
    toy_parameters,
)

QUICK = bool(int(os.environ.get("HOTPATH_QUICK", "0")))
ALPHA = int(os.environ.get("HOTPATH_ALPHA", "1"))
E2E_REPS = 3 if QUICK else 7
E2E_PARAMS = bootstrap_parameters(ks_alpha=ALPHA)
E2E_CONFIG_KEY = (
    f"N{E2E_PARAMS.ring_degree}_L{E2E_PARAMS.max_level}_alpha{ALPHA}_"
    f"{'quick' if QUICK else 'full'}"
)


def _precision_bits(got, want):
    return float(-np.log2(np.abs(got - want).mean()))


def _time_stats(fn, reps=E2E_REPS):
    """(min, median) wall clock in ms."""
    fn()  # warm every cache the pipeline owns
    times = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, float(np.median(times)) * 1e3


def test_bootstrap_e2e_latency(record_table):
    """Full bootstrap latency, gated on correctness before any timing:
    the bootstrap contract (level reset, exact Delta scale, usable
    precision), "# Rots" equal to the transform plans' BSGS accounting
    (the shared conjugation counts as a rotation even though it pays no
    standalone key switch), and no standalone key switch at all.
    """
    backend = ToyBackend(E2E_PARAMS, seed=7)
    bootstrapper = CkksBootstrapper(backend)
    rng = np.random.default_rng(3)
    message = rng.uniform(-0.9, 0.9, E2E_PARAMS.slot_count)
    ct = backend.encode_encrypt(message, level=0)

    backend.ledger.reset()
    out = bootstrapper.bootstrap(ct)
    rotations = backend.ledger.rotations
    planned = sum(plan["rot_count"] for plan in (
        bootstrapper._shared_cts_plan(), bootstrapper._plans["stc"]
    ))
    assert rotations == planned
    assert backend.ledger.counts["hrot"] == 0
    assert out.level == E2E_PARAMS.effective_level
    assert out.scale == E2E_PARAMS.scale
    precision = _precision_bits(backend.decrypt(out), message)
    assert precision > 7.0

    best_ms, median_ms = _time_stats(lambda: bootstrapper.bootstrap(ct))

    record_table(
        "ckks_bootstrap_e2e",
        f"End-to-end bootstrap latency (N={E2E_PARAMS.ring_degree}, "
        f"L={E2E_PARAMS.max_level}, alpha={ALPHA}, "
        f"{'quick' if QUICK else 'full'} mode)",
        ("rotations", "precision (b)", "min (ms)", "median (ms)"),
        [(rotations, f"{precision:.1f}", f"{best_ms:.1f}", f"{median_ms:.1f}")],
    )
    merge_json(
        E2E_CONFIG_KEY,
        "bootstrap_e2e",
        {
            "rotations": rotations,
            "precision_bits": round(precision, 2),
            "median_ms": round(median_ms, 3),
        },
        ring_degree=E2E_PARAMS.ring_degree,
        max_level=E2E_PARAMS.max_level,
        ks_alpha=ALPHA,
        quick=QUICK,
    )


def test_real_vs_oracle_bootstrap(record_table, benchmark):
    real_params = bootstrap_parameters()
    oracle_params = toy_parameters(
        ring_degree=real_params.ring_degree,
        max_level=real_params.max_level,
        scale_bits=real_params.scale_bits,
        boot_levels=real_params.boot_levels,
    )
    message = np.random.default_rng(0).uniform(-0.9, 0.9, real_params.slot_count)

    rows = []
    refreshed = {}
    da_params = double_angle_bootstrap_parameters()
    da_backend = ToyBackend(da_params, seed=3)
    da_backend._bootstrapper = CkksBootstrapper(
        da_backend, eval_degree=23, double_angles=2
    )
    flavours = (
        ("oracle", ToyBackend(oracle_params, seed=3), oracle_params),
        ("real (sine-63)", ToyBackend(real_params, seed=3, real_bootstrap=True), real_params),
        ("real (cos-23, 2x double-angle)", da_backend, da_params),
    )
    for name, backend, params in flavours:
        ct = backend.encode_encrypt(message, level=0)
        out = backend.bootstrap(ct)
        refreshed[name] = (backend, out)
        rows.append(
            (
                name,
                out.level,
                params.boot_levels,
                str(out.scale == params.scale),
                f"{_precision_bits(backend.decrypt(out), message):.1f}",
                backend.ledger.counts["hrot"] + backend.ledger.counts["hrot_hoisted"],
                backend.ledger.counts["hmult"],
            )
        )
    record_table(
        "ablation_bootstrap",
        "Real CKKS bootstrap pipeline vs oracle substitution (toy backend)",
        ("flavour", "out level", "L_boot", "scale==Delta", "precision (b)", "rots", "hmults"),
        rows,
    )
    # Contract clauses: identical level reset, exact scale, usable precision.
    assert rows[0][1] == rows[1][1] == rows[2][1]
    assert all(r[3] == "True" for r in rows)
    assert float(rows[1][4]) > 7.0 and float(rows[2][4]) > 7.0
    # The real pipelines do actual work (rotations + multiplications),
    # and the double-angle variant needs fewer ct-ct multiplications.
    assert rows[1][5] > 20 and rows[1][6] > 10
    assert rows[2][6] < rows[1][6]

    backend, out = refreshed["real (sine-63)"]
    squared = backend.rescale(backend.mul(out, out))
    assert _precision_bits(backend.decrypt(squared), message**2) > 6.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("chain_length", [2])
def test_chained_real_bootstraps(chain_length, record_table, benchmark):
    """Noise stays bounded across repeated refreshes (the FHE property)."""
    params = bootstrap_parameters()
    backend = ToyBackend(params, seed=5, real_bootstrap=True)
    message = np.random.default_rng(1).uniform(-0.8, 0.8, params.slot_count)
    ct = backend.encode_encrypt(message, level=0)
    rows = []
    for i in range(chain_length):
        ct = backend.bootstrap(ct)
        rows.append((i + 1, f"{_precision_bits(backend.decrypt(ct), message):.1f}"))
        ct = backend.level_down(ct, 0)
    record_table(
        "ablation_bootstrap_chain",
        "Precision across chained real bootstraps",
        ("refresh #", "precision (b)"),
        rows,
    )
    assert float(rows[-1][1]) > 6.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
