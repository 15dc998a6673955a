"""Stage-grid construction and the forward sweep that solves it.

The corridor is discretized into stages: abscissae x_i = i*l/n (step tau)
and, at each interior stage, the feasible subset of the ordinate lattice
y_lo + k*delta.  The first and last stages are the fixed endpoints.  A
forward sweep labels every node with the cheapest cost-to-come d, choosing
for each node of stage i+1 the best predecessor in stage i; backtracking
the stored predecessor indices from the terminal node yields the optimal
polyline over the grid.  Only the current stage's labels are kept.

Because the delivery term makes segment costs depend on the arc length of
the path prefix, each label also carries the accumulated arc length of its
own chosen prefix, and candidate arcs are priced with the predecessor's
stored length.  This keeps the recursion well-defined; it is exact when the
delivery rate is identically zero and a scalar-label approximation
otherwise (the exhaustive reference solver in :mod:`terracost.oracle`
measures the gap).

A stage transition is relaxed in blocks of to-nodes of at most 8,192
candidate arcs, so its memory no longer grows as N^2*q with the lattice
size N.  A to-node's minimum reads only its own column of candidates, so
results are bit-identical for any block split and any thread count (blocks
are mapped over a thread pool).  A label that is not finite (singular or
overflowing fields) stops the sweep with an error naming its stage, so it
can never pick a path.

Refinement follows the coupling delta_k = gamma * tau_k^(1+eps): halving
tau while shrinking delta strictly faster is what makes the refined optima
converge; eps = 0 is accepted but warns, since convergence is then no
longer guaranteed.
"""

from __future__ import annotations

import functools
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .cost import CostModel, segment_cost_batch
from .terrain import ScalarField2D, feasible

__all__ = [
    "BlockedCorridorError",
    "ProblemSpec",
    "SolveDiagnostics",
    "StageGrid",
    "Trajectory",
    "build_grid",
    "default_corridor",
    "lattice_size",
    "refinement_schedule",
    "solve",
    "solve_refined",
]

# Candidate arcs per relaxation block: a transition holds O(_BLOCK_ARCS * q)
# floats whatever the lattice size.
_BLOCK_ARCS = 8192


class BlockedCorridorError(ValueError):
    """The feasibility mask leaves an interior stage without ordinates.

    A property of the problem and its discretization, not a solver failure.
    """


def default_corridor(l: float, y_l: float) -> tuple[float, float]:
    """Bounding interval of {0, y_l} widened by 50% of its width per side.

    Degenerates for y_l = 0, where [-l/2, l/2] is used instead.
    """
    lo, hi = min(0.0, y_l), max(0.0, y_l)
    width = hi - lo
    if width == 0.0:
        return (-0.5 * l, 0.5 * l)
    return (lo - 0.5 * width, hi + 0.5 * width)


@dataclass(frozen=True)
class ProblemSpec:
    """A fixed-endpoint corridor problem: span, terminal ordinate, fields."""

    l: float
    y_l: float
    corridor: tuple[float, float]
    model: CostModel
    mask: ScalarField2D | None = None

    def __post_init__(self):
        if self.l <= 0:
            raise ValueError(f"span length must be positive, got {self.l}")
        y_lo, y_hi = self.corridor
        if y_lo >= y_hi:
            raise ValueError(f"corridor must be a proper interval, got {self.corridor}")
        if not (y_lo <= 0.0 <= y_hi):
            raise ValueError("corridor must contain the start ordinate 0")
        if not (y_lo <= self.y_l <= y_hi):
            raise ValueError(
                f"terminal ordinate {self.y_l} outside corridor {self.corridor}"
            )
        if not feasible(self.mask, 0.0, 0.0):
            raise ValueError("start point (0, 0) is infeasible under the mask")
        if not feasible(self.mask, self.l, self.y_l):
            raise ValueError(
                f"terminal point ({self.l}, {self.y_l}) is infeasible under the mask"
            )


@dataclass(frozen=True)
class StageGrid:
    """Discretization of the corridor: stage abscissae and feasible ordinates.

    ``stages[0]`` and ``stages[n]`` are the endpoint singletons; interior
    stages hold the sorted feasible ordinates of the delta-lattice.
    """

    tau: float
    delta: float
    n: int
    xs: np.ndarray
    stages: list[np.ndarray]


def lattice_size(corridor: tuple[float, float], delta: float) -> int:
    """Number of ordinate lattice nodes y_lo + k*delta inside the corridor."""
    y_lo, y_hi = corridor
    return int(np.floor((y_hi - y_lo) / delta + 1e-9)) + 1


@dataclass
class SolveDiagnostics:
    segment_cost_evaluations: int = 0
    wall_time: float = 0.0
    iterations: int | None = None
    hit_max_iter: bool = False
    cost_per_iteration: list[float] | None = None
    evaluations_per_iteration: list[int] | None = None


@dataclass
class Trajectory:
    """A solved polyline: knots, functional value, run stats."""

    xs: np.ndarray
    ys: np.ndarray
    cost: float
    diagnostics: SolveDiagnostics = field(default_factory=SolveDiagnostics)


def build_grid(spec: ProblemSpec, tau: float, delta: float) -> StageGrid:
    """Discretize the corridor with steps tau (x) and delta (y).

    Stage abscissae are exactly equidistant: n = round(l/tau), x_i = i*l/n.
    Interior ordinates are y_lo + k*delta filtered by the feasibility mask;
    an interior stage left empty by the mask raises BlockedCorridorError.
    """
    if not (0 < tau <= spec.l):
        raise ValueError(f"tau must be in (0, l], got {tau}")
    y_lo, y_hi = spec.corridor
    if not (0 < delta <= y_hi - y_lo):
        raise ValueError(f"delta must be in (0, corridor height], got {delta}")
    n = max(1, round(spec.l / tau))
    xs = np.arange(n + 1) * (spec.l / n)
    xs[n] = spec.l  # guard the terminal node against rounding drift
    lattice = y_lo + delta * np.arange(lattice_size(spec.corridor, delta))
    stages: list[np.ndarray] = [np.array([0.0])]
    for i in range(1, n):
        keep = feasible(spec.mask, np.full(lattice.shape, xs[i]), lattice)
        stage = lattice[keep]
        if stage.size == 0:
            raise BlockedCorridorError(
                f"stage {i} (x = {xs[i]}) has no feasible ordinates; corridor is blocked"
            )
        stages.append(stage)
    stages.append(np.array([spec.y_l]))
    return StageGrid(tau=tau, delta=delta, n=n, xs=xs, stages=stages)


def _relax(model: CostModel, x_start, tau, y_from, d, length, y_to):
    """Best predecessor, cost-to-come and prefix length for a block of to-nodes.

    Ties pick the smallest predecessor index (argmin returns the first minimum).
    """
    tab = segment_cost_batch(model, x_start, tau, y_from, y_to)
    candidates = d[:, None] + tab.fixed_cost + length[:, None] * tab.prefix_slope
    best = np.argmin(candidates, axis=0)
    cols = np.arange(y_to.size)
    return best, candidates[best, cols], length[best] + tab.delta_len[best, cols]


def _sweep(grid: StageGrid, spec: ProblemSpec, executor=None):
    """Forward pass over all stages.

    Every transition is relaxed in blocks of at most ``_BLOCK_ARCS``
    candidate arcs (at least one to-node each), mapped serially or over the
    executor's threads.  Returns the predecessor arrays of stages 1..n, the
    terminal cost-to-come labels and the evaluation count.
    """
    d = np.zeros(1)
    length = np.zeros(1)
    preds: list[np.ndarray] = []
    evaluations = 0
    for i in range(grid.n):
        y_from = grid.stages[i]
        y_to = grid.stages[i + 1]
        relax = functools.partial(
            _relax, spec.model, grid.xs[i], grid.xs[i + 1] - grid.xs[i], y_from, d, length
        )
        width = max(1, _BLOCK_ARCS // y_from.size)
        if y_to.size <= width:
            best, d, length = relax(y_to)
        else:
            blocks = [y_to[s : s + width] for s in range(0, y_to.size, width)]
            mapper = map if executor is None else executor.map
            best, d, length = map(np.concatenate, zip(*mapper(relax, blocks)))
        evaluations += y_from.size * y_to.size
        if not np.all(np.isfinite(d)):
            x = float(grid.xs[i + 1])
            raise ValueError(
                f"non-finite cost-to-come at stage {i + 1} (x = {x!r}): "
                "fields are singular or overflow there"
            )
        preds.append(best)
    return preds, d, evaluations


def solve(grid: StageGrid, spec: ProblemSpec, threads: int = 1) -> Trajectory:
    """Run the forward sweep and backtrack the optimal polyline.

    The blocks of one stage transition may be relaxed in parallel
    (``threads`` > 1); results are independent of the thread count and of
    the block split, bit for bit.  The returned trajectory's cost is the
    terminal label, which by construction of the prefix threading equals
    the polyline's path cost.
    """
    t0 = time.perf_counter()
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with pool as executor:
        preds, terminal_d, evaluations = _sweep(grid, spec, executor)
    idx = [0]
    for best in reversed(preds):
        idx.append(int(best[idx[-1]]))
    idx.reverse()
    ys = np.array([grid.stages[i][idx[i]] for i in range(grid.n + 1)])
    diag = SolveDiagnostics(
        segment_cost_evaluations=evaluations, wall_time=time.perf_counter() - t0
    )
    return Trajectory(xs=grid.xs, ys=ys, cost=float(terminal_d[0]), diagnostics=diag)


def refinement_schedule(
    tau_0: float, gamma: float, epsilon: float, k_max: int
) -> list[tuple[float, float]]:
    """Halving schedule [(tau_k, delta_k)] with delta_k = gamma*tau_k^(1+eps).

    eps must be positive for guaranteed convergence of the refined optima;
    eps = 0 is accepted with a warning.
    """
    if tau_0 <= 0:
        raise ValueError(f"tau_0 must be positive, got {tau_0}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    if epsilon == 0:
        warnings.warn(
            "epsilon = 0 couples delta proportionally to tau; convergence of the "
            "refined solutions is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    schedule = []
    for k in range(k_max + 1):
        tau_k = tau_0 / 2**k
        schedule.append((tau_k, gamma * tau_k ** (1.0 + epsilon)))
    return schedule


def solve_refined(
    spec: ProblemSpec,
    schedule: list[tuple[float, float]],
    threads: int = 1,
) -> list[Trajectory]:
    """One solve per schedule level, finest last.

    Each level's evaluation count is checked against the worst-case bound
    N^2 * n (N = corridor lattice size, one unit per candidate arc).
    """
    if not schedule:
        raise ValueError("schedule must contain at least one (tau, delta) level")
    results = []
    for tau, delta in schedule:
        grid = build_grid(spec, tau, delta)
        traj = solve(grid, spec, threads=threads)
        bound = lattice_size(spec.corridor, delta) ** 2 * grid.n
        used = traj.diagnostics.segment_cost_evaluations
        if used > bound:
            raise RuntimeError(f"evaluation count {used} exceeded the N^2*n bound {bound}")
        results.append(traj)
    return results
