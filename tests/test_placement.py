"""Tests for automatic bootstrap placement (paper Section 5, Figure 6)."""

import pytest

from repro.core.placement import (
    JoinSpec,
    LayerSpec,
    PlacementChain,
    PlacementRegion,
    dacapo_style_placement,
    lazy_placement,
    solve_placement,
)

BOOT = 100.0


def flat_cost(level):
    return 1.0 + 0.1 * level


def layer(name, depth=1, cost=flat_cost, boot_units=1):
    return LayerSpec(name, depth, cost, boot_units)


class TestPaperFigure6:
    def test_skipless_network_zero_bootstraps(self):
        """Fig. 6a/6b: 3 FC layers, L_eff = 3 -> no bootstrap needed."""
        chain = PlacementChain([layer(f"fc{i}") for i in (1, 2, 3)])
        result = solve_placement(chain, l_eff=3, boot_cost=BOOT)
        assert result.num_bootstraps == 0
        assert result.entry_level == 3
        levels = [p.exec_level for p in result.policies]
        assert levels == [3, 2, 1]

    def test_residual_network_needs_one(self):
        """Fig. 6c: backbone fc1-fc2-ax^2 with a residual -> >= 1 boot."""
        backbone = PlacementChain([layer("fc1"), layer("fc2"), layer("ax2")])
        region = PlacementRegion(
            backbone, PlacementChain(),
            JoinSpec("add", 0, lambda l: 0.0, boot_units=2),
        )
        chain = PlacementChain([region, layer("fc3")])
        result = solve_placement(chain, l_eff=3, boot_cost=BOOT)
        assert result.num_bootstraps == 1

    def test_run_below_leff_after_boot(self):
        """Fig. 6b note: a layer may execute below L_eff even right
        after a bootstrap when lower levels are cheaper."""
        expensive_at_high_levels = lambda l: 1.0 + 100.0 * l
        chain = PlacementChain(
            [layer(f"l{i}", depth=2, cost=expensive_at_high_levels) for i in range(4)]
        )
        result = solve_placement(chain, l_eff=6, boot_cost=BOOT)
        for policy in result.policies:
            # Never executes above its depth: cost model pushes it down.
            assert policy.exec_level == 2


class TestPlannerProperties:
    def test_infeasible_depth_raises(self):
        chain = PlacementChain([layer("deep", depth=9)])
        with pytest.raises(ValueError):
            solve_placement(chain, l_eff=5, boot_cost=BOOT)

    def test_policy_levels_are_consistent(self):
        """Simulate the policy: levels never go negative; bootstraps
        occur exactly where declared."""
        chain = PlacementChain([layer(f"l{i}", depth=3) for i in range(10)])
        result = solve_placement(chain, l_eff=7, boot_cost=BOOT)
        level = result.entry_level
        for policy in result.policies:
            if policy.bootstrap_before:
                level = 7
            assert policy.exec_level <= level
            level = policy.exec_level - 3
            assert level >= 0

    def test_boot_units_multiply(self):
        chain = PlacementChain(
            [layer("big", depth=4, boot_units=5), layer("big2", depth=4, boot_units=5)]
        )
        result = solve_placement(chain, l_eff=5, boot_cost=1.0)
        assert result.num_bootstraps == 5  # one refresh of 5 ciphertexts

    def test_total_depth(self):
        backbone = PlacementChain([layer("a", depth=3), layer("b", depth=2)])
        region = PlacementRegion(
            backbone, PlacementChain(), JoinSpec("add", 0, flat_cost, boot_units=2)
        )
        chain = PlacementChain([region, layer("c", depth=4)])
        assert chain.total_depth() == 9

    def test_linear_scaling_with_depth(self):
        """Paper Table 5: placement time grows ~linearly with layers."""
        import gc
        import time

        def solve_n(n):
            # Best of a few runs with the collector paused, as timeit does:
            # one full collection of the suite's heap outlasts a 400-layer solve.
            chain = PlacementChain([layer(f"l{i}", depth=2) for i in range(n)])
            best = float("inf")
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    start = time.perf_counter()
                    solve_placement(chain, l_eff=10, boot_cost=BOOT)
                    best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
            return best

        t_small = max(solve_n(50), 1e-4)
        t_large = solve_n(400)
        assert t_large < 30 * t_small  # linear-ish, not quadratic


class TestBaselines:
    def _deep_chain(self):
        return PlacementChain([layer(f"l{i}", depth=2) for i in range(30)])

    def test_lazy_feasible(self):
        result = lazy_placement(self._deep_chain(), l_eff=5, boot_cost=BOOT)
        level = 5
        for policy in result.policies:
            if policy.bootstrap_before:
                level = 5
            assert level >= 2
            level -= 2

    def test_planner_never_worse_than_lazy(self):
        chain = self._deep_chain()
        opt = solve_placement(chain, l_eff=5, boot_cost=BOOT)
        lazy = lazy_placement(chain, l_eff=5, boot_cost=BOOT)
        assert opt.modeled_seconds <= lazy.modeled_seconds + 1e-9

    def test_planner_beats_lazy_on_residuals(self):
        """Residual joins punish lazy placement (paper Section 5.1)."""
        blocks = []
        for i in range(6):
            backbone = PlacementChain(
                [layer(f"b{i}a", depth=3), layer(f"b{i}b", depth=3)]
            )
            blocks.append(
                PlacementRegion(
                    backbone, PlacementChain(),
                    JoinSpec(f"add{i}", 0, lambda l: 0.0, boot_units=2),
                )
            )
        chain = PlacementChain(blocks)
        opt = solve_placement(chain, l_eff=7, boot_cost=BOOT)
        lazy = lazy_placement(chain, l_eff=7, boot_cost=BOOT)
        assert opt.num_bootstraps <= lazy.num_bootstraps
        assert opt.modeled_seconds < lazy.modeled_seconds

    def test_dacapo_close_to_planner_but_slower_logic(self):
        chain = self._deep_chain()
        opt = solve_placement(chain, l_eff=5, boot_cost=BOOT)
        dacapo = dacapo_style_placement(chain, l_eff=5, boot_cost=BOOT)
        assert dacapo.modeled_seconds <= 1.2 * opt.modeled_seconds + 1e-9
        assert dacapo.num_bootstraps >= opt.num_bootstraps - 1


class TestBootCountsPinnedUnderCalibratedCosts:
    """Table 5 regression pins: cost-model recalibration (c_inner /
    c_decompose refit against BENCH_ckks_hotpath.json) must not move
    bootstrap counts or entry levels — the fit constrains the total
    keyswitch price precisely so placement economics stay put.
    """

    @pytest.fixture(scope="class")
    def compile_net(self):
        import numpy as np

        from repro.ckks.params import paper_parameters
        from repro.nn import init
        from repro.orion import OrionNetwork

        def compile_net(builder, shape, seed=3):
            init.seed_init(seed)
            onet = OrionNetwork(builder(), shape)
            rng = np.random.default_rng(seed)
            onet.fit([rng.normal(0, 0.5, (8,) + shape)])
            return onet.compile(paper_parameters(), mode="analyze")

        return compile_net

    def test_resnet_boot_counts_unchanged(self, compile_net):
        from repro.models import resnet_cifar, silu_act

        expected = {8: 6, 14: 12, 20: 18}
        for depth, boots in expected.items():
            compiled = compile_net(
                lambda d=depth: resnet_cifar(d, act=silu_act(31), width=4),
                (3, 8, 8),
            )
            assert compiled.num_bootstraps == boots
            assert compiled.placement.entry_level == 9

    def test_mlp_stays_bootstrap_free(self, compile_net):
        from repro.models import SecureMlp

        compiled = compile_net(
            lambda: SecureMlp(input_pixels=64, hidden=16), (1, 8, 8)
        )
        assert compiled.num_bootstraps == 0
        assert compiled.placement.entry_level == 5
