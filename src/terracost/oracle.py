"""Exhaustive reference solver for small stage grids.

Enumerates every stage-to-stage path, pricing each with the exact
prefix-threaded cost (same quadrature and same floating-point accumulation
order as the forward sweep, so differences measure the algorithm, not the
integration).  The sweep's scalar labels are provably optimal only when the
delivery rate is identically zero; this module supplies the ground truth to
check that case exactly and to quantify the gap otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp
from .cost import segment_cost_batch

__all__ = ["EnumerationResult", "enumerate_paths"]

DEFAULT_CAP = 10**6


@dataclass
class EnumerationResult:
    """Outcome of a full enumeration.

    ``best_path`` holds one ordinate index per stage (0 at the endpoint
    singletons); ties in cost resolve to the lexicographically smallest
    index sequence.  ``additive`` is True when every arc of the grid has a
    prefix slope of exactly 0 (no delivery cost), the case in which the
    forward sweep is exact.
    """

    best_path: list[int]
    best_cost: float
    paths_evaluated: int
    additive: bool


def enumerate_paths(
    grid: dp.StageGrid, spec: dp.ProblemSpec, cap: int = DEFAULT_CAP
) -> EnumerationResult:
    """Evaluate every grid path and return the true discrete minimum.

    Refuses (with the computed count) when the path count exceeds ``cap``.
    """
    sizes = [stage.size for stage in grid.stages]
    total = 1
    for size in sizes[1:-1]:
        total *= size
    if total > cap:
        raise ValueError(
            f"enumeration of {total} paths exceeds the cap of {cap}; "
            "shrink the grid or raise the cap"
        )

    # Prefixes expand stage by stage in row-major (lexicographic) order, so
    # a flat prefix id decomposes into per-stage indices by divmod and the
    # first minimum is the lexicographically smallest tie.
    costs = np.zeros(1)
    lengths = np.zeros(1)
    last = np.zeros(1, dtype=int)
    additive = True
    for i in range(grid.n):
        tau_i = grid.xs[i + 1] - grid.xs[i]
        tab = segment_cost_batch(
            spec.model, grid.xs[i], tau_i, grid.stages[i], grid.stages[i + 1]
        )
        additive = additive and not tab.prefix_slope.any()
        # Same accumulation order as the forward sweep: (cost + fixed) + len*slope.
        new_costs = costs[:, None] + tab.fixed_cost[last] + lengths[:, None] * tab.prefix_slope[last]
        new_lengths = lengths[:, None] + tab.delta_len[last]
        k_next = grid.stages[i + 1].size
        costs = new_costs.reshape(-1)
        lengths = new_lengths.reshape(-1)
        last = np.tile(np.arange(k_next), new_costs.shape[0])

    best_flat = int(np.argmin(costs))
    best_cost = float(costs[best_flat])
    path = [0] * (grid.n + 1)
    flat = best_flat
    for i in range(grid.n, 0, -1):
        flat, path[i] = divmod(flat, sizes[i])
    return EnumerationResult(
        best_path=path,
        best_cost=best_cost,
        paths_evaluated=costs.size,
        additive=additive,
    )
