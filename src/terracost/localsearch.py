"""Iterated truncated-grid descent around an incumbent polyline.

Instead of sweeping the full ordinate lattice, each iteration restricts
every interior stage to a window of ordinates within m lattice steps of the
incumbent knot (at most 2m+1 nodes), re-runs the forward sweep on that
truncated grid, and adopts the result as the next incumbent.  The incumbent
always lies inside its own windows, so the cost never increases; iteration
stops at the first fixed point (identical polyline) or at ``max_iter``.
The fixed point is a local optimum with respect to single-window moves; for
a window spanning the whole lattice one step reproduces the global sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dp
from .cost import path_cost

__all__ = ["Incumbent", "initial_incumbent", "run", "step"]


@dataclass
class Incumbent:
    """Current polyline as per-stage ordinate indices, with its cost.

    ``evaluations`` counts the segment-cost evaluations spent producing this
    incumbent (grid sweep or initial path pricing).
    """

    indices: list[int]
    cost: float
    iteration: int = 0
    evaluations: int = 0


def initial_incumbent(grid: dp.StageGrid, spec: dp.ProblemSpec) -> Incumbent:
    """Straight chord between the endpoints, snapped onto the grid.

    Each interior knot takes the nearest feasible ordinate of its stage;
    exact midpoints snap to the lower ordinate.
    """
    chord_slope = spec.y_l / spec.l
    indices = []
    for i, stage in enumerate(grid.stages):
        target = chord_slope * grid.xs[i]
        indices.append(int(np.argmin(np.abs(stage - target))))
    ys = np.array([grid.stages[i][k] for i, k in enumerate(indices)])
    cost = path_cost(spec.model, grid.xs, ys)
    return Incumbent(indices=indices, cost=cost, iteration=0, evaluations=grid.n)


def step(
    incumbent: Incumbent,
    m: int,
    grid: dp.StageGrid,
    spec: dp.ProblemSpec,
    threads: int = 1,
) -> Incumbent:
    """One truncated sweep around the incumbent; never returns a costlier one.

    Windows keep the ordinates within m lattice steps of the incumbent knot
    (endpoint stages stay singletons).  Should the scalar-label sweep ever
    price its polyline above the incumbent - possible in principle when the
    delivery rate couples segments - the incumbent is kept unchanged, which
    the driver treats as convergence.
    """
    if m < 1:
        raise ValueError(f"window radius m must be >= 1, got {m}")
    # (m + 0.5)*delta tolerates rounding in the lattice ordinates while
    # admitting exactly m steps on each side.
    reach = (m + 0.5) * grid.delta
    windows = []
    for i, stage in enumerate(grid.stages):
        y_inc = stage[incumbent.indices[i]]
        windows.append(stage[np.abs(stage - y_inc) <= reach])
    sub_grid = dp.StageGrid(
        tau=grid.tau, delta=grid.delta, n=grid.n, xs=grid.xs, stages=windows
    )
    traj = dp.solve(sub_grid, spec, threads=threads)
    evaluations = traj.diagnostics.segment_cost_evaluations
    if traj.cost > incumbent.cost + 1e-12:
        return Incumbent(
            indices=list(incumbent.indices),
            cost=incumbent.cost,
            iteration=incumbent.iteration + 1,
            evaluations=evaluations,
        )
    indices = []
    for i, stage in enumerate(grid.stages):
        k = int(np.searchsorted(stage, traj.ys[i]))
        indices.append(k)
    return Incumbent(
        indices=indices,
        cost=traj.cost,
        iteration=incumbent.iteration + 1,
        evaluations=evaluations,
    )


def run(
    spec: dp.ProblemSpec,
    grid: dp.StageGrid,
    m: int = 1,
    max_iter: int | None = None,
    threads: int = 1,
) -> tuple[dp.Trajectory, int]:
    """Iterate :func:`step` from the snapped chord to a fixed point.

    Returns the final trajectory and the iteration count, where every
    truncated sweep counts (including the final one that detects the fixed
    point).  Hitting ``max_iter`` (default 4N/m for an N-node lattice) is
    flagged in the diagnostics, not raised.
    """
    if max_iter is None:
        lattice = dp.lattice_size(spec.corridor, grid.delta)
        max_iter = max(1, math.ceil(4 * lattice / m))
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    t0 = time.perf_counter()
    incumbent = initial_incumbent(grid, spec)
    evaluations = incumbent.evaluations
    cost_history: list[float] = []
    evals_history: list[int] = []
    iterations = 0
    converged = False
    while iterations < max_iter:
        nxt = step(incumbent, m, grid, spec, threads=threads)
        iterations += 1
        evaluations += nxt.evaluations
        cost_history.append(nxt.cost)
        evals_history.append(nxt.evaluations)
        if nxt.indices == incumbent.indices:
            incumbent = nxt
            converged = True
            break
        incumbent = nxt
    ys = np.array([grid.stages[i][k] for i, k in enumerate(incumbent.indices)])
    zs = dp._heights(spec.model, grid.xs, ys)
    diag = dp.SolveDiagnostics(
        segment_cost_evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
        method="local",
        iterations=iterations,
        hit_max_iter=not converged,
        cost_per_iteration=cost_history,
        evaluations_per_iteration=evals_history,
    )
    traj = dp.Trajectory(
        xs=grid.xs, ys=ys, zs=zs, cost=incumbent.cost, diagnostics=diag
    )
    return traj, iterations
