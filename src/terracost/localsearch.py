"""Iterated truncated-grid descent around an incumbent polyline.

Instead of sweeping the full ordinate lattice, each iteration restricts
every interior stage to a window of ordinates within m lattice steps of the
incumbent knot (at most 2m+1 nodes), re-runs the forward sweep on that
truncated grid, and adopts the result as the next incumbent.  The incumbent
always lies inside its own windows, so the cost never increases; iteration
stops at the first fixed point (identical polyline) or at ``max_iter``.
The fixed point is a local optimum with respect to single-window moves; for
a window spanning the whole lattice one step reproduces the global sweep.

The incumbent is kept as its knot ordinates, which are lattice ordinates
of their stages, so windows are cut from the stages by distance alone.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import dp
from .cost import path_cost

__all__ = ["Incumbent", "initial_incumbent", "run", "step"]


@dataclasses.dataclass
class Incumbent:
    """Current polyline as one ordinate per stage, with its cost.

    ``evaluations`` counts the segment-cost evaluations spent producing this
    incumbent (grid sweep or initial path pricing).
    """

    ys: np.ndarray
    cost: float
    evaluations: int


def initial_incumbent(grid: dp.StageGrid, spec: dp.ProblemSpec) -> Incumbent:
    """Straight chord between the endpoints, snapped onto the grid.

    Each interior knot takes the nearest feasible ordinate of its stage;
    exact midpoints snap to the lower ordinate.
    """
    chord = spec.y_l / spec.l * grid.xs
    ys = np.array([stage[np.argmin(np.abs(stage - y))] for stage, y in zip(grid.stages, chord)])
    return Incumbent(ys, path_cost(spec.model, grid.xs, ys), grid.n)


def step(incumbent: Incumbent, m: int, grid: dp.StageGrid, spec: dp.ProblemSpec) -> Incumbent:
    """One truncated sweep around the incumbent; never returns a costlier one.

    Windows keep the ordinates within m lattice steps of the incumbent knot
    (endpoint stages stay singletons).  A window transition holds at most
    (2m+1)^2 arcs, so it is relaxed inline, without threads.  Should the
    scalar-label sweep ever price its polyline above the incumbent - possible
    in principle when the delivery rate couples segments - the incumbent's
    ordinates are kept, which :func:`run` treats as convergence.
    """
    if m < 1:
        raise ValueError(f"window radius m must be >= 1, got {m}")
    # (m + 0.5)*delta tolerates rounding in the lattice ordinates while
    # admitting exactly m steps on each side.
    reach = (m + 0.5) * grid.delta
    windows = [stage[np.abs(stage - y) <= reach] for stage, y in zip(grid.stages, incumbent.ys)]
    traj = dp.solve(dataclasses.replace(grid, stages=windows), spec)
    evaluations = traj.diagnostics.segment_cost_evaluations
    if traj.cost > incumbent.cost + 1e-12:
        return Incumbent(incumbent.ys, incumbent.cost, evaluations)
    return Incumbent(traj.ys, traj.cost, evaluations)


def run(
    spec: dp.ProblemSpec,
    grid: dp.StageGrid,
    m: int = 1,
    max_iter: int | None = None,
) -> dp.Trajectory:
    """Iterate :func:`step` from the snapped chord to a fixed point.

    Returns the final trajectory.  ``diagnostics.iterations`` counts every
    truncated sweep, including the final one that detects the fixed point;
    hitting ``max_iter`` (default 4N/m for an N-node lattice) is flagged in
    the diagnostics, not raised.
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
    converged = False
    while len(cost_history) < max_iter:
        nxt = step(incumbent, m, grid, spec)
        evaluations += nxt.evaluations
        cost_history.append(nxt.cost)
        evals_history.append(nxt.evaluations)
        converged = np.array_equal(nxt.ys, incumbent.ys)
        incumbent = nxt
        if converged:
            break
    diag = dp.SolveDiagnostics(
        segment_cost_evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
        iterations=len(cost_history),
        hit_max_iter=not converged,
        cost_per_iteration=cost_history,
        evaluations_per_iteration=evals_history,
    )
    return dp.Trajectory(xs=grid.xs, ys=incumbent.ys, cost=incumbent.cost, diagnostics=diag)
