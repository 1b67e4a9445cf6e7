"""Sibling fusion: end-to-end speedup on a branchy network.

A ResNet/inception-style network of fork blocks — two sibling 3x3
convolutions consuming the same value, joined by an Add — is compiled
twice, with ``optimize`` on and off, and executed on the exact toy
backend.  Concat-linear fusion merges each sibling pair
into one stacked BSGS matvec that shares a single digit decomposition
and de-duplicates the siblings' common (input block, offset) inner
products, so the optimized program performs strictly fewer rotations.

Correctness is asserted before timing is believed: the optimized
program's noise-free simulator run is **bit-exact** against the
un-optimized program (fusion's core contract, docs/graphopt.md),
and each encrypted output decrypts to that reference within toy-backend
precision.

Medians merge into ``BENCH_ckks_hotpath.json`` (section ``graph_opt``)
and the CI bench-gate (``check_bench_json.py``) enforces the 1.2x
end-to-end speedup floor.

Set ``HOTPATH_QUICK=1`` for the CI-sized run.
"""

import os
import statistics
import time

import numpy as np
import pytest
from json_util import merge_json as _merge_json

import repro.orion.nn as on
from repro.backend import SimBackend, ToyBackend
from repro.ckks.params import toy_parameters
from repro.nn import init
from repro.orion import OrionNetwork

QUICK = bool(int(os.environ.get("HOTPATH_QUICK", "0")))
RING_DEGREE = 1024 if QUICK else 2048
MAX_LEVEL = 6
CHANNELS = 8
BLOCKS = 2 if QUICK else 3
REPS = 3 if QUICK else 5
SPEEDUP_FLOOR = 1.2
# Bits of agreement each exact run keeps with the noise-free simulator,
# relative to the output's peak: both programs read 11.9 quick and 9.4
# full (the full network adds a fork block and a bootstrap).
PRECISION_FLOOR_BITS = 11.5 if QUICK else 9

CONFIG_KEY = f"N{RING_DEGREE}_L{MAX_LEVEL}_alpha1_{'quick' if QUICK else 'full'}"


class ForkBlock(on.Module):
    """Two sibling convolutions over one value, joined by Add."""

    def __init__(self, channels):
        super().__init__()
        self.conv_a = on.Conv2d(channels, channels, 3, padding=1, bias=True)
        self.conv_b = on.Conv2d(channels, channels, 3, padding=1, bias=False)
        self.add = on.Add()
        self.act = on.Square()

    def forward(self, x):
        return self.act(self.add(self.conv_a(x), self.conv_b(x)))


class BranchyNet(on.Module):
    def __init__(self, channels=CHANNELS, blocks=BLOCKS):
        super().__init__()
        self.act = on.Square()
        self.blocks = on.Sequential(*[ForkBlock(channels) for _ in range(blocks)])

    def forward(self, x):
        return self.blocks(self.act(x))


@pytest.fixture(scope="module")
def compiled_pair():
    params = toy_parameters(
        ring_degree=RING_DEGREE, max_level=MAX_LEVEL, boot_levels=1, scale_bits=24
    )
    init.seed_init(0)
    shape = (CHANNELS, 8, 8)
    onet = OrionNetwork(BranchyNet(), shape)
    rng = np.random.default_rng(0)
    onet.fit([rng.normal(0, 0.5, (4,) + shape)])
    optimized = onet.compile(params, optimize=True)
    baseline = onet.compile(params, optimize=False)
    return params, shape, optimized, baseline, rng


def test_graphopt_speedup(compiled_pair, record_table):
    params, shape, optimized, baseline, rng = compiled_pair

    # -- correctness first ------------------------------------------------
    report = optimized.graph_opt_report
    assert report is not None and report.rewrites.get("concat_linear_fusion") == BLOCKS
    image = rng.normal(0, 0.5, shape)
    # Fusion stacks registers, so the optimized program cannot slot-batch
    # while the baseline can: the bitwise contract is between the two
    # block-level forms (a lone client of the baseline runs its capacity
    # view, whose folds stop at the block).
    clear_opt = optimized.program.block_level().run(SimBackend(params, noise_free=True), image)
    clear_base = baseline.program.block_level().run(SimBackend(params, noise_free=True), image)
    assert np.array_equal(clear_opt, clear_base), (
        "optimized noise-free simulator output is not bit-exact vs un-optimized"
    )
    assert optimized.total_rotations < baseline.total_rotations

    backend_opt = ToyBackend(params, seed=1)
    backend_base = ToyBackend(params, seed=1)
    out_opt = optimized.run(backend_opt, image)
    baseline.run(backend_base, image)
    out_base = baseline.program.block_level().run(ToyBackend(params, seed=1), image)
    # Each program runs the baby/giant split priced cheapest for its own
    # layers (a merged layer's key set is not its siblings'), so the two
    # exact runs draw different keys and noise and need not match each
    # other bit for bit: each must decrypt to the noise-free reference.
    peak = float(np.max(np.abs(clear_base)))
    for out in (out_opt, out_base):
        bits = OrionNetwork.precision_bits(out / peak, clear_base / peak)
        assert bits > PRECISION_FLOOR_BITS
    # The ledger sees exactly the rotations the reports promise.
    assert backend_opt.ledger.rotations == optimized.total_rotations
    assert backend_base.ledger.rotations == baseline.total_rotations

    # -- timing (the correctness runs above double as warmup: weight
    # plaintexts and key material are cached per backend) ----------------
    def median_seconds(compiled, backend):
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            compiled.run(backend, image)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    opt_s = median_seconds(optimized, backend_opt)
    base_s = median_seconds(baseline, backend_base)
    speedup = base_s / opt_s

    record_table(
        "graphopt_e2e",
        f"Graph optimizer end-to-end, {BLOCKS} sibling-conv fork blocks "
        f"(N={RING_DEGREE}, L={MAX_LEVEL}, exact backend)",
        ("pipeline", "median ms", "rotations", "speedup"),
        [
            ("un-optimized", f"{base_s * 1e3:.1f}",
             baseline.total_rotations, "1.00x"),
            ("graph-optimized", f"{opt_s * 1e3:.1f}",
             optimized.total_rotations, f"{speedup:.2f}x"),
        ],
    )
    _merge_json(
        CONFIG_KEY,
        "graph_opt",
        {
            "blocks": BLOCKS,
            "rewrites": report.summary(),
            "rotations_optimized": optimized.total_rotations,
            "rotations_unoptimized": baseline.total_rotations,
            "optimized_median_ms": round(opt_s * 1e3, 3),
            "unoptimized_median_ms": round(base_s * 1e3, 3),
            "speedup_optimized_vs_unoptimized": round(speedup, 3),
        },
        ring_degree=RING_DEGREE,
        max_level=MAX_LEVEL,
        ks_alpha=1,
        quick=QUICK,
    )
    assert speedup > SPEEDUP_FLOOR, (
        f"graph optimizer only {speedup:.2f}x end-to-end (floor {SPEEDUP_FLOOR}x)"
    )
