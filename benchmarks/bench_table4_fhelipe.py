"""Table 4: sources of improvement over Fhelipe [46] on ResNet-20.

Paper: #rots 1428 -> 836 (1.71x), #boots 58 -> 37 (1.58x), conv time
334.5s -> 29.9s (11.2x), end-to-end 1468s -> 618s (2.38x).  The
Fhelipe baseline model reproduces its three documented disadvantages:
no hoisting (each rotation pays a full key switch), lazy bootstrap
placement (Fig. 10 of their paper), and on-the-fly plaintext encoding
during every convolution (paper Section 8.2's discussion).
"""

from repro.backend.costs import CostModel
from repro.ckks.params import paper_parameters
from repro.core.placement.baselines import lazy_placement
from repro.models import resnet_cifar, relu_act
from repro.nn import init
from repro.orion import OrionNetwork

PARAMS = paper_parameters()
COSTS = CostModel(PARAMS)


def _latency_breakdown(chain, placement, costs, hoisting, encode_on_the_fly):
    """Re-price a placement with a given backend strategy."""
    from repro.core.placement.items import PlacementRegion

    def walk(c):
        for item in c.items:
            if isinstance(item, PlacementRegion):
                yield from walk(item.branch_a)
                yield from walk(item.branch_b)
                yield item.join
            else:
                yield item

    items = {item.name: item for item in walk(chain)}
    conv_seconds = 0.0
    act_seconds = 0.0
    boot_seconds = 0.0
    rotations = 0
    for policy in placement.policies:
        item = items[policy.name]
        boot_seconds += policy.bootstrap_before * costs.bootstrap()
        level = policy.exec_level
        stats = item.cost_obj  # a packed layer's PackingStats
        if stats is not None:
            conv_seconds += stats.cost(level, costs, hoisting=hoisting)
            if encode_on_the_fly:
                conv_seconds += stats.pmults * costs.encode(level)
            rotations += stats.rotations
        else:
            act_seconds += item.cost_fn(level)
    return conv_seconds, act_seconds, boot_seconds, rotations


def test_table4_vs_fhelipe(record_table, benchmark):
    init.seed_init(0)
    net = resnet_cifar(20, act=relu_act())
    compiled = OrionNetwork(net, (3, 32, 32)).compile(PARAMS, mode="analyze")

    boot_cost = COSTS.bootstrap()

    orion_place = compiled.placement
    fhelipe_place = lazy_placement(compiled.chain, PARAMS.effective_level, boot_cost)

    o_conv, o_act, o_boot, o_rots = _latency_breakdown(
        compiled.chain, orion_place, COSTS, hoisting="double", encode_on_the_fly=False
    )
    f_conv, f_act, f_boot, _ = _latency_breakdown(
        compiled.chain, fhelipe_place, COSTS, hoisting="none", encode_on_the_fly=True
    )
    # Fhelipe's diagonal method without BSGS: one rotation per diagonal.
    f_rots = compiled.total_pmults

    o_total = o_conv + o_act + o_boot
    f_total = f_conv + f_act + f_boot
    rows = [
        ("Fhelipe (model)", f_rots, fhelipe_place.num_bootstraps,
         f"{f_conv:.1f}", f"{f_total:.1f}"),
        ("Orion (us)", o_rots, orion_place.num_bootstraps,
         f"{o_conv:.1f}", f"{o_total:.1f}"),
        ("improvement", f"{f_rots / o_rots:.2f}x",
         f"{fhelipe_place.num_bootstraps / max(1, orion_place.num_bootstraps):.2f}x",
         f"{f_conv / o_conv:.2f}x", f"{f_total / o_total:.2f}x"),
    ]
    record_table(
        "table4_fhelipe",
        "Table 4: ResNet-20 improvement over the Fhelipe baseline model",
        ("work", "#rots", "#boots", "convs (s)", "latency (s)"),
        rows,
    )
    assert o_rots < f_rots
    assert orion_place.num_bootstraps <= fhelipe_place.num_bootstraps
    assert o_conv < f_conv / 2  # hoisting + precompute dominate conv time
    assert o_total < f_total
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
