"""Baseline bootstrap-placement strategies.

- ``lazy_placement``: bootstrap only when the next layer cannot run.
  Region-aware: a residual join requires both operands at one level, so
  when the joined value must be refreshed, *both* operands bootstrap —
  the effect that makes lazy placement expensive in residual networks
  (paper Section 5.1, Fhelipe Fig. 10).
- ``dacapo_style_placement``: a DaCapo-like [17] search — enumerate
  candidate bootstrap locations and iteratively improve the selected
  combination by local moves, evaluating every candidate configuration
  with a full latency pass over the region tree.  Similar quality to
  the level-digraph planner, far slower at scale (paper Section 5.2).
"""

from __future__ import annotations

import time
from typing import List

from repro.core.placement.items import (
    LayerSpec,
    PlacementChain,
    PlacementRegion,
)
from repro.core.placement.planner import INF, LevelPolicy, PlacementResult

#: Cap on the DaCapo-style search's improvement rounds (it stops early
#: once a round finds no cheaper configuration).
_DACAPO_ROUNDS = 200


def _flatten(chain: PlacementChain) -> List[LayerSpec]:
    flat: List[LayerSpec] = []
    for item in chain.items:
        if isinstance(item, PlacementRegion):
            flat.extend(_flatten(item.branch_a))
            flat.extend(_flatten(item.branch_b))
            flat.append(item.join)
        else:
            flat.append(item)
    return flat


class _Walk:
    """Evaluate a bootstrap policy over the region tree.

    ``should_boot(name, level, depth)`` decides whether the value is
    refreshed before a layer; infeasible layers force a bootstrap when
    ``force_feasible`` (the lazy rule) or poison the cost otherwise.
    """

    def __init__(self, l_eff: int, boot_cost: float, should_boot, force_feasible: bool):
        self.l_eff = l_eff
        self.boot_cost = boot_cost
        self.should_boot = should_boot
        self.force_feasible = force_feasible
        self.cost = 0.0
        self.boots = 0
        self.policies: List[LevelPolicy] = []
        self.feasible = True

    def run_layer(self, layer: LayerSpec, level: int) -> int:
        inserted = 0
        wants = self.should_boot(layer.name, level, layer.depth)
        if level < layer.depth and not wants:
            if self.force_feasible:
                wants = True
            else:
                self.feasible = False
                return 0
        if wants:
            inserted = layer.boot_units
            self.boots += inserted
            self.cost += inserted * self.boot_cost
            level = self.l_eff
        self.cost += layer.cost_fn(level)
        self.policies.append(
            LevelPolicy(layer.name, exec_level=level, bootstrap_before=inserted)
        )
        return level - layer.depth

    def run_chain(self, chain: PlacementChain, level: int) -> int:
        for item in chain.items:
            if not self.feasible:
                return 0
            if isinstance(item, PlacementRegion):
                exit_a = self.run_chain(item.branch_a, level)
                exit_b = self.run_chain(item.branch_b, level)
                # Both operands must meet at one level (free mod-down).
                level = self.run_layer(item.join, min(exit_a, exit_b))
            else:
                level = self.run_layer(item, level)
        return level


def lazy_placement(
    chain: PlacementChain, l_eff: int, boot_cost: float
) -> PlacementResult:
    """Bootstrap only when the next layer cannot run; refresh to L_eff."""
    start = time.perf_counter()
    walk = _Walk(l_eff, boot_cost, lambda name, level, depth: False, True)
    exit_level = walk.run_chain(chain, l_eff)
    return PlacementResult(
        policies=walk.policies,
        num_bootstraps=walk.boots,
        modeled_seconds=walk.cost,
        entry_level=l_eff,
        exit_level=exit_level,
        solve_seconds=time.perf_counter() - start,
    )


def _evaluate_configuration(
    chain: PlacementChain,
    boot_names: frozenset,
    l_eff: int,
    boot_cost: float,
) -> float:
    walk = _Walk(l_eff, boot_cost, lambda name, level, depth: name in boot_names, False)
    walk.run_chain(chain, l_eff)
    return walk.cost if walk.feasible else INF


def dacapo_style_placement(
    chain: PlacementChain,
    l_eff: int,
    boot_cost: float,
) -> PlacementResult:
    """Candidate-combination search in the spirit of DaCapo [17]."""
    start = time.perf_counter()
    names = [layer.name for layer in _flatten(chain)]
    lazy = lazy_placement(chain, l_eff, boot_cost)
    current = frozenset(p.name for p in lazy.policies if p.bootstrap_before)
    current_cost = _evaluate_configuration(chain, current, l_eff, boot_cost)

    for _ in range(_DACAPO_ROUNDS):
        improved = False
        candidates = []
        for index, name in enumerate(names):
            if name in current:
                candidates.append(current - {name})
                for shift in (-2, -1, 1, 2):
                    target = index + shift
                    if 0 <= target < len(names) and names[target] not in current:
                        candidates.append(current - {name} | {names[target]})
            else:
                candidates.append(current | {name})
        for candidate in candidates:
            cost = _evaluate_configuration(chain, candidate, l_eff, boot_cost)
            if cost < current_cost:
                current, current_cost = frozenset(candidate), cost
                improved = True
        if not improved:
            break

    walk = _Walk(l_eff, boot_cost, lambda name, level, depth: name in current, True)
    exit_level = walk.run_chain(chain, l_eff)
    return PlacementResult(
        policies=walk.policies,
        num_bootstraps=walk.boots,
        modeled_seconds=walk.cost,
        entry_level=l_eff,
        exit_level=exit_level,
        solve_seconds=time.perf_counter() - start,
    )
