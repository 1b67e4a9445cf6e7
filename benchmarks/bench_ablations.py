"""Ablations for the design choices the paper calls out.

1. Hoisting (none / single / double) on matvec cost — Table 4's conv
   speedup source.
2. Activation choice (ReLU vs SiLU) — Section 8.2's latency/depth
   trade-off (paper: ~1.77x average speedup from SiLU).
3. Errorless scale management vs EVA-style waterline — Section 6.
4. Placement policy (planner vs lazy vs DaCapo-style) — Section 5.
"""

import numpy as np

from repro.backend import SimBackend
from repro.backend.costs import CostModel
from repro.ckks.params import paper_parameters
from repro.core.placement.baselines import dacapo_style_placement, lazy_placement
from repro.core.scale import (
    ErrorlessScalePolicy,
    WaterlineScalePolicy,
    run_pmult_chain,
)
from repro.models import resnet_cifar, relu_act, silu_act
from repro.nn import init
from repro.orion import OrionNetwork

PARAMS = paper_parameters()
COSTS = CostModel(PARAMS)


def test_ablation_hoisting(record_table, benchmark):
    rows = []
    level = PARAMS.effective_level
    for diags, baby, giant in ((64, 8, 8), (256, 16, 16), (1024, 32, 32)):
        none = COSTS.matvec_cost(level, diags, baby, giant, "none")
        single = COSTS.matvec_cost(level, diags, baby, giant, "single")
        double = COSTS.matvec_cost(level, diags, baby, giant, "double")
        rows.append(
            (f"{diags} diags", f"{none:.2f}", f"{single:.2f}", f"{double:.2f}",
             f"{none / double:.2f}x")
        )
        assert double < single < none
    record_table(
        "ablation_hoisting",
        "Ablation: matvec latency (s) by hoisting strategy",
        ("matvec", "none", "single", "double", "none/double"),
        rows,
    )
    benchmark.pedantic(
        lambda: COSTS.matvec_cost(level, 256, 16, 16, "double"),
        rounds=100, iterations=10,
    )


def test_ablation_activation(record_table, benchmark):
    """SiLU halves activation depth -> fewer bootstraps -> lower latency
    (paper Section 8.2)."""
    rows = []
    stats = {}
    for act_name, act in (("ReLU[15,15,27]", relu_act()), ("SiLU-127", silu_act(127))):
        init.seed_init(0)
        net = resnet_cifar(20, act=act)
        compiled = OrionNetwork(net, (3, 32, 32)).compile(PARAMS, mode="analyze")
        stats[act_name] = compiled
        rows.append(
            (act_name, compiled.multiplicative_depth, compiled.num_bootstraps,
             f"{compiled.modeled_seconds:.1f}")
        )
    relu = stats["ReLU[15,15,27]"]
    silu = stats["SiLU-127"]
    speedup = relu.modeled_seconds / silu.modeled_seconds
    rows.append(("SiLU speedup", "-", "-", f"{speedup:.2f}x"))
    record_table(
        "ablation_activation",
        "Ablation: ResNet-20 with ReLU vs SiLU (paper ~1.77x average speedup)",
        ("activation", "depth", "#boots", "modeled time (s)"),
        rows,
    )
    assert silu.multiplicative_depth < relu.multiplicative_depth
    assert silu.num_bootstraps < relu.num_bootstraps
    assert speedup > 1.2
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_scale_management(record_table, benchmark):
    """Errorless policy holds scale at exactly Delta; waterline drifts
    and a Delta-assuming decode inherits the drift as value error."""
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, 64)
    weights = [rng.uniform(0.5, 1.0, 64) for _ in range(8)]
    expected = values.copy()
    for w in weights:
        expected = expected * w
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


    rows = []
    for policy in (ErrorlessScalePolicy(), WaterlineScalePolicy()):
        backend = SimBackend(PARAMS, seed=1, noise_free=True)
        decoded, final_scale = run_pmult_chain(backend, values, weights, policy)
        err = np.abs(decoded[:64] - expected).max()
        exact = final_scale == PARAMS.scale
        rows.append((policy.name, "yes" if exact else "no", f"{err:.2e}"))
    record_table(
        "ablation_scale",
        "Ablation: scale policy after an 8-deep PMult chain (noise-free)",
        ("policy", "final scale == Delta", "max value error"),
        rows,
    )
    errorless_err = float(rows[0][2])
    waterline_err = float(rows[1][2])
    assert errorless_err < 1e-12
    assert waterline_err > 100 * max(errorless_err, 1e-300)


def test_ablation_placement_policy(record_table, benchmark):
    init.seed_init(0)
    net = resnet_cifar(32, act=silu_act(127))
    compiled = OrionNetwork(net, (3, 32, 32)).compile(PARAMS, mode="analyze")
    boot_cost = COSTS.bootstrap()
    lazy = lazy_placement(compiled.chain, PARAMS.effective_level, boot_cost)
    dacapo = dacapo_style_placement(compiled.chain, PARAMS.effective_level, boot_cost)
    rows = [
        ("Orion planner", compiled.num_bootstraps,
         f"{compiled.modeled_seconds:.1f}", f"{compiled.placement.solve_seconds*1e3:.1f}"),
        ("lazy", lazy.num_bootstraps, f"{lazy.modeled_seconds:.1f}",
         f"{lazy.solve_seconds*1e3:.1f}"),
        ("DaCapo-style", dacapo.num_bootstraps, f"{dacapo.modeled_seconds:.1f}",
         f"{dacapo.solve_seconds*1e3:.1f}"),
    ]
    record_table(
        "ablation_placement",
        "Ablation: placement policy on ResNet-32 (SiLU)",
        ("policy", "#boots", "network latency (s)", "solve time (ms)"),
        rows,
    )
    assert compiled.modeled_seconds <= lazy.modeled_seconds
    assert compiled.modeled_seconds <= dacapo.modeled_seconds * 1.001
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


