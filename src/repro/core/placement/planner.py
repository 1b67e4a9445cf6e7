"""The level-digraph shortest-path planner (paper Section 5.2).

Every item becomes an (L_eff+1) x (L_eff+1) transition matrix over
"available level before" x "available level after"; chains compose with
(min, +) products and regions collapse via joint per-(entry, exit)
shortest paths.  Argmins are recorded at every composition so the full
level management policy — the execution level of every layer and the
position of every bootstrap — is reconstructed exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.placement.items import (
    LayerSpec,
    PlacementChain,
    PlacementRegion,
)

INF = float("inf")


@dataclass
class LevelPolicy:
    """The planner's decision for one layer."""

    name: str
    exec_level: int
    bootstrap_before: int  # number of bootstrap ops inserted before


@dataclass
class PlacementResult:
    """Full placement solution.

    Attributes:
        policies: per-layer decisions in execution order.
        num_bootstraps: total bootstrap operations inserted.
        modeled_seconds: shortest-path total latency (cost model units).
        entry_level: chosen level for the (fresh or bootstrapped) input.
        exit_level: level of the network output.
        solve_seconds: wall-clock time of the planner itself (Table 5).
    """

    policies: List[LevelPolicy]
    num_bootstraps: int
    modeled_seconds: float
    entry_level: int
    exit_level: int
    solve_seconds: float

    def policy_map(self) -> Dict[str, LevelPolicy]:
        return {p.name: p for p in self.policies}


class _Solved:
    """A transition matrix plus a reconstructor for the chosen paths."""

    def __init__(self, matrix: np.ndarray, reconstruct):
        self.matrix = matrix  # (L+1, L+1): [available_in, available_out]
        self.reconstruct = reconstruct  # (a, o) -> List[LevelPolicy]


def _solve_layer(item: LayerSpec, l_eff: int, boot_cost: float) -> _Solved:
    """Matrix for a single layer.

    Entry [a][o]: run the layer with input level x = o + depth.  Without
    a bootstrap this needs x <= a (mod-down is free); with one (or, for
    joins, ``boot_multiplier``) bootstrap first, any x <= L_eff works.
    """
    size = l_eff + 1
    matrix = np.full((size, size), INF)
    boots_needed = item.boot_units
    choice = np.zeros((size, size), dtype=np.int8)  # 1 = bootstrap first
    for o in range(size):
        x = o + item.depth
        if x > l_eff:
            continue
        run_cost = item.cost_fn(x)
        for a in range(size):
            best = INF
            chose_boot = 0
            if x <= a:
                best = run_cost
            with_boot = boots_needed * boot_cost + run_cost
            if with_boot < best:
                best = with_boot
                chose_boot = 1
            matrix[a, o] = best
            choice[a, o] = chose_boot

    def reconstruct(a: int, o: int) -> List[LevelPolicy]:
        boots = boots_needed if choice[a, o] else 0
        return [LevelPolicy(item.name, exec_level=o + item.depth, bootstrap_before=boots)]

    return _Solved(matrix, reconstruct)


def _compose(first: _Solved, second: _Solved) -> _Solved:
    """(min, +) product of two transition matrices with argmin capture."""
    stacked = first.matrix[:, :, None] + second.matrix[None, :, :]  # (a, m, o)
    best_m = np.argmin(stacked, axis=1)  # (a, o)
    matrix = np.min(stacked, axis=1)

    def reconstruct(a: int, o: int) -> List[LevelPolicy]:
        m = int(best_m[a, o])
        return first.reconstruct(a, m) + second.reconstruct(m, o)

    return _Solved(matrix, reconstruct)


def _solve_region(region: PlacementRegion, l_eff: int, boot_cost: float) -> _Solved:
    """Black-box a SESE region into an aggregate matrix (paper Fig. 6d).

    Both branches run from the fork level a to a common pre-join level
    m (the residual constraint of Section 8.3), then the join executes.
    """
    branch_a = _solve_chain(region.branch_a, l_eff, boot_cost)
    branch_b = _solve_chain(region.branch_b, l_eff, boot_cost)
    join = _solve_layer(region.join, l_eff, boot_cost)

    joint = branch_a.matrix + branch_b.matrix  # (a, m): both branches to m
    combined = joint[:, :, None] + join.matrix[None, :, :]  # (a, m, o)
    best_m = np.argmin(combined, axis=1)
    matrix = np.min(combined, axis=1)

    def reconstruct(a: int, o: int) -> List[LevelPolicy]:
        m = int(best_m[a, o])
        return (
            branch_a.reconstruct(a, m)
            + branch_b.reconstruct(a, m)
            + join.reconstruct(m, o)
        )

    return _Solved(matrix, reconstruct)


def _solve_chain(chain: PlacementChain, l_eff: int, boot_cost: float) -> _Solved:
    size = l_eff + 1
    identity = np.full((size, size), INF)
    for a in range(size):
        identity[a, : a + 1] = 0.0  # free mod-down

    solved = _Solved(identity, lambda a, o: [])
    for item in chain.items:
        if isinstance(item, PlacementRegion):
            part = _solve_region(item, l_eff, boot_cost)
        else:
            part = _solve_layer(item, l_eff, boot_cost)
        solved = _compose(solved, part)
    return solved


def solve_placement(
    chain: PlacementChain,
    l_eff: int,
    boot_cost: float,
) -> PlacementResult:
    """Solve bootstrap placement and level management for a network.

    The input and output levels are chosen, not given: the cheapest
    (entry, exit) pair over every level is taken (paper Fig. 6b
    considers every input node), and the result records both.

    Args:
        chain: the network as a nested placement chain.
        l_eff: effective level after bootstrapping (paper Table 1).
        boot_cost: modeled bootstrap latency (paper Fig. 1c).
    """
    solve_placement.invocations += 1
    start = time.perf_counter()
    solved = _solve_chain(chain, l_eff, boot_cost)
    matrix = solved.matrix

    cost, a_star, o_star = min(
        (
            (matrix[a, o], a, o)
            for a in range(l_eff + 1)
            for o in range(l_eff + 1)
        ),
        key=lambda t: t[0],
    )
    if cost == INF:
        raise ValueError(
            "no feasible level policy: some layer needs more depth than "
            f"L_eff={l_eff} provides"
        )
    policies = solved.reconstruct(a_star, o_star)
    boots = sum(p.bootstrap_before for p in policies)
    elapsed = time.perf_counter() - start
    return PlacementResult(
        policies=policies,
        num_bootstraps=boots,
        modeled_seconds=float(cost),
        entry_level=a_star,
        exit_level=o_star,
        solve_seconds=elapsed,
    )


# Planner-invocation counter: the serving runtime's "zero planner calls
# on the serve path" contract is asserted against this (see
# OrionCompiler.invocations for the compiler-level counter).
solve_placement.invocations = 0
