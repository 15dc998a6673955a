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

A descent keeps a :class:`DescentCache` over its steps.  It holds the
tableau of every window arc a step has priced, so each step samples and
integrates only the arcs new to the descent: the tau = 1/64 heightmap
benchmark relaxes 39,480 arcs over 70 steps, 12,291 of them distinct.
The cost kernel gives an arc the same bits in a batch of any shape, so the
descent's path, costs and counts are those of the chain of steps each
pricing all of its arcs, bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import dp
from .cost import path_cost

__all__ = ["DescentCache", "Incumbent", "initial_incumbent", "run", "step"]


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


class DescentCache:
    """What :func:`run` keeps between the steps of a descent over one grid.

    Nodes and arcs are keyed by lattice index, the k of the ordinate
    y_lo + k*delta nearest them: node (i, k) by i*width + k - k_min, so in
    stage order, and the arc from it to node (i + 1, k') by its node's key
    times width plus k' - k_min.  A step finds every stage's window with
    two ``searchsorted`` calls on the sorted node keys.  The tableau of
    every arc a step has priced is kept under its key, so each step samples
    and integrates only the arcs new to the descent; the keys are held
    sorted, with a sentinel past the last, each beside its column in a
    (3, arcs) array of values that grows at its end.  The cost kernel gives
    an arc the same bits in a batch of any shape, so a kept tableau is the
    one pricing the arc again would give.  A grid with a stage whose
    ordinates share a lattice index keeps no tableaux.
    """

    def __init__(self, stages, y_lo: float, delta: float):
        self._stages = stages
        sizes = np.array([stage.size for stage in stages])
        self._ordinates = np.concatenate(stages)
        self._first = np.cumsum(sizes) - sizes
        self._stop = self._first + sizes
        k = np.rint((self._ordinates - y_lo) / delta).astype(np.int64)
        low, width = int(k.min()), int(k.max() - k.min()) + 1
        self._lattice = (y_lo, delta, low, width)
        self._offset = np.arange(sizes.size) * width - low
        self._keys = np.repeat(self._offset, sizes) + k
        self._distinct = bool(np.all(np.diff(self._keys) > 0))
        self._arcs = np.array([np.iinfo(np.int64).max])
        self._columns = np.zeros(1, dtype=np.intp)
        self._values = np.empty((3, 0))

    def tableau(self, stage, y_from, y_to, price):
        """Arcs' tableaux, one arc per entry, as rows fixed_cost, prefix_slope, delta_len.

        Arc j runs from ordinate ``y_from[j]`` of stage ``stage[j]`` to
        ``y_to[j]`` of the next stage, and the arcs' keys increase, as a
        sweep's do.  ``price(pick)`` is called once, for the arcs not kept
        yet, which ``pick`` indexes; it returns their tableaux the same way,
        or None when their samples are refused, and then so does this.
        """
        if not self._distinct:
            return price(slice(None))
        y_lo, delta, low, width = self._lattice
        k, s = (np.rint((y - y_lo) / delta).astype(np.int64) - low for y in (y_from, y_to))
        keys = (stage * width + k) * width + s
        at = np.searchsorted(self._arcs, keys)
        new = self._arcs[at] != keys
        columns = self._columns[at]
        if new.any():
            values = price(new)
            if values is None:
                return None
            columns[new] = self._values.shape[1] + np.arange(values.shape[1])
            self._arcs = np.insert(self._arcs, at[new], keys[new])
            self._columns = np.insert(self._columns, at[new], columns[new])
            self._values = np.concatenate([self._values, values], axis=1)
        return self._values[:, columns]

    def windows(self, ys, m: int) -> list[np.ndarray]:
        """Each stage cut to its ordinates within (m + 0.5)*delta of ``ys``.

        A stage is sorted, so they are one slice of it.  Ordinate and knot
        each lie within delta/2 of the lattice ordinate of their index, so
        an ordinate within that distance has an index within m + 1 of the
        knot's: the slice lies among the nodes the keys bound, where the
        distance is tested as ``np.abs(stage - y) <= (m + 0.5)*delta``.
        """
        y_lo, delta = self._lattice[:2]
        # (m + 0.5)*delta tolerates rounding in the lattice ordinates while
        # admitting exactly m steps on each side.
        reach = (m + 0.5) * delta
        k = np.rint((ys - y_lo) / delta) + self._offset
        lo = np.searchsorted(self._keys, k - (m + 1)).clip(self._first, self._stop)
        hi = np.searchsorted(self._keys, k + (m + 1), "right").clip(self._first, self._stop)
        band = lo[:, None] + np.arange(max(1, (hi - lo).max()))
        inside = band < hi[:, None]
        ordinates = self._ordinates[np.minimum(band, self._ordinates.size - 1)]
        inside &= np.abs(ordinates - ys[:, None]) <= reach
        starts = lo + inside.argmax(1) - self._first
        stops = starts + np.count_nonzero(inside, axis=1)
        return [stage[a:b] for stage, a, b in zip(self._stages, starts.tolist(), stops.tolist())]


def step(
    incumbent: Incumbent,
    m: int,
    grid: dp.StageGrid,
    spec: dp.ProblemSpec,
    cache: DescentCache | None = None,
) -> Incumbent:
    """One truncated sweep around the incumbent; never returns a costlier one.

    Windows keep the ordinates within m lattice steps of the incumbent knot
    (endpoint stages stay singletons).  A window transition holds at most
    (2m+1)^2 arcs, so it is relaxed in one block, from its share of the
    sweep's one lookup in ``cache``, the :class:`DescentCache` of ``grid``
    that :func:`run` keeps: the sweep samples and integrates only the arcs
    no earlier step priced, up to 8,192 (one relaxation block) per kernel
    call.  Without ``cache``, the step starts one.  Should the scalar-label
    sweep ever price its polyline above the incumbent - possible in
    principle when the delivery rate couples segments - the incumbent's
    ordinates are kept, which :func:`run` treats as convergence.
    """
    if m < 1:
        raise ValueError(f"window radius m must be >= 1, got {m}")
    if cache is None:
        cache = DescentCache(grid.stages, spec.corridor[0], grid.delta)
    windows = cache.windows(incumbent.ys, m)
    traj = dp.solve(dataclasses.replace(grid, stages=windows), spec, cache)
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
    cache = DescentCache(grid.stages, spec.corridor[0], grid.delta)
    cost_history: list[float] = []
    evals_history: list[int] = []
    converged = False
    while len(cost_history) < max_iter:
        nxt = step(incumbent, m, grid, spec, cache)
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
