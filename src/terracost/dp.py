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
priced arcs, so its memory no longer grows as N^2*q with the lattice
size N.  A to-node's minimum reads only its own column of candidates, so
results are bit-identical for any block split; blocks run one after another
on the calling thread.  A label that is not finite (singular or overflowing
fields) stops the sweep with an error naming its stage, so it can never pick
a path.

A block of a stage-lattice transition prices only the from-rows that can
win one of its columns.  The lattice bounds every candidate
d + fixed_cost + L*slope of a row from its extreme alpha, beta and relief
slopes; one vectorised pass over (from-nodes x blocks) leaves out a row
whose lower bound, at its nearest to-ordinate in the block, exceeds
1 + 1e-9 times the least upper bound of a row, at that row's farthest
ordinate.  The block prices the contiguous run of rows from the first kept
to the last, as one strided block, so every argmin, label and predecessor
keeps its bits; a NaN bound keeps every row.  On ridge2d at tau 1/48 this
leaves 2.73 M of 5.10 M arcs to price.  The solve's
``segment_cost_evaluations`` counts the arcs priced.

Where each transition's field samples come from (a stage lattice sampled
once, a windowed descent's cache of the grid's arc tableaux, which it
hands through :func:`solve`, or the arcs' own points) is decided by
:func:`terracost.cost.sample_transitions`.  The sweep prices each
transition by its own ``segment_cost_batch`` calls, one per block, and
checks its labels before the next one's, so results and errors are those
of sampling transition by transition.
Labels are carried as Python floats.  A transition of at most
``_SCALAR_ARCS`` arcs, such as a descent's 3x3 windows, is relaxed on
them directly: each candidate is the same sum and product in the same
double arithmetic, so it keeps its bits, and numpy's cost per call, which
exceeds the arithmetic of so small a block, is not paid.

Refinement follows the coupling delta_k = gamma * tau_k^(1+eps): halving
tau while shrinking delta strictly faster is what makes the refined optima
converge; eps = 0 is accepted but warns, since convergence is then no
longer guaranteed.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cost import CostModel, _Lattice, sample_transitions, segment_cost_batch
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
# A from-row is left out of a block when the lower bound of its candidates
# exceeds this factor times the least upper bound of a row's candidates: 1 plus
# far more than the rounding of bounds and candidates (about q ulps).
_PRUNE_MARGIN = 1.0 + 1e-9
# Candidate arcs up to which a one-block transition is relaxed on Python
# floats: a 3x3 window transition takes about 3 us that way and 9 us in
# numpy (2-vCPU host), and a 5x5 one about the same both ways.
_SCALAR_ARCS = 32


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
        self.check_geometry(self.l, self.y_l, self.corridor)
        if not feasible(self.mask, 0.0, 0.0):
            raise ValueError("start point (0, 0) is infeasible under the mask")
        if not feasible(self.mask, self.l, self.y_l):
            raise ValueError(
                f"terminal point ({self.l}, {self.y_l}) is infeasible under the mask"
            )

    @staticmethod
    def check_geometry(l: float, y_l: float, corridor: tuple[float, float]) -> None:
        """Raise ValueError unless span, terminal ordinate and corridor fit.

        Needs no field, so a caller can check a problem before it builds one.
        """
        if l <= 0:
            raise ValueError(f"span length must be positive, got {l}")
        y_lo, y_hi = corridor
        if y_lo >= y_hi:
            raise ValueError(f"corridor must be a proper interval, got {corridor}")
        if not (y_lo <= 0.0 <= y_hi):
            raise ValueError("corridor must contain the start ordinate 0")
        if not (y_lo <= y_l <= y_hi):
            raise ValueError(f"terminal ordinate {y_l} outside corridor {corridor}")

    @staticmethod
    def check_steps(l: float, corridor: tuple[float, float], tau: float, delta: float) -> None:
        """Raise ValueError unless tau is in (0, l] and delta in (0, corridor height]."""
        if not 0 < tau <= l:
            raise ValueError(f"tau must be in (0, l = {l}], got {tau}")
        height = corridor[1] - corridor[0]
        if not 0 < delta <= height:
            raise ValueError(f"grid step delta = {delta} must be in (0, corridor height {height}]")


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
    spec.check_steps(spec.l, spec.corridor, tau, delta)
    n = max(1, round(spec.l / tau))
    xs = np.arange(n + 1) * (spec.l / n)
    xs[n] = spec.l  # guard the terminal node against rounding drift
    lattice = spec.corridor[0] + delta * np.arange(lattice_size(spec.corridor, delta))
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


def _relax(d, length, tab):
    """Best predecessor, cost-to-come and prefix length for a block of to-nodes.

    ``tab`` prices the arcs from the nodes labelled (d, length) to the block's nodes.
    Ties pick the smallest predecessor index (argmin returns the first minimum).
    """
    candidates = d[:, None] + tab.fixed_cost + length[:, None] * tab.prefix_slope
    best = np.argmin(candidates, axis=0)
    cols = np.arange(best.size)
    return best, candidates[best, cols], length[best] + tab.delta_len[best, cols]


def _relax_scalars(d, length, tab):
    """:func:`_relax` on Python floats, for a small block; labels as lists.

    Each candidate is (d + fixed_cost) + length * prefix_slope, as there,
    in the same double arithmetic, so it has the same bits, and the choice
    is argmin's: the first minimum, or the first NaN.
    """
    fixed, slope, grow = tab.fixed_cost.tolist(), tab.prefix_slope.tolist(), tab.delta_len.tolist()
    best, d_to, length_to = [], [], []
    for s in range(len(fixed[0])):
        k = None
        for j in range(len(d)):
            c = d[j] + fixed[j][s] + length[j] * slope[j][s]
            if k is None or c < low or (c != c and low == low):
                k, low = j, c
        best.append(k)
        d_to.append(low)
        length_to.append(length[k] + grow[k][s])
    return best, d_to, length_to


def _kept_rows(samples, tau, y_from, y_to, width, d, length):
    """The from-rows ``lo:hi`` that each block of ``width`` to-nodes prices.

    Only a stage lattice's transition leaves rows out (its
    ``candidate_bounds``); others price every row.  For each block, U is the
    least over rows of the upper bound of the row's candidates, taken at its
    farthest to-ordinate in the block, so no column's minimum exceeds U.  A
    row whose lower bound, taken at its nearest ordinate, exceeds
    ``_PRUNE_MARGIN`` * U can neither hold a column's minimum nor tie it.
    The block prices the rows from its first kept one to its last, so its
    argmins, labels and predecessors keep their bits.  A NaN bound keeps
    every row.
    """
    starts = np.arange(0, y_to.size, width)
    if not isinstance(samples, _Lattice):
        return [(0, y_from.size)] * starts.size
    # One row per block, one column per from-node.
    t_lo, t_hi = y_to[starts, None], y_to[np.minimum(starts + width, y_to.size) - 1, None]
    near = np.maximum(np.maximum(t_lo - y_from, y_from - t_hi), 0.0)
    far = np.maximum(y_from - t_lo, t_hi - y_from)
    lower, upper = samples.candidate_bounds(tau, near, far, d, length)
    keep = ~(lower > _PRUNE_MARGIN * upper.min(axis=1, keepdims=True))
    lo = keep.argmax(axis=1)
    hi = y_from.size - keep[:, ::-1].argmax(axis=1)
    return zip(lo.tolist(), hi.tolist())


def _sweep(grid: StageGrid, spec: ProblemSpec, tableaux):
    """Forward pass over all stages.

    Every transition is relaxed in blocks of ``_BLOCK_ARCS // len(y_from)``
    to-nodes (at least one), one after another, each pricing only the
    from-rows :func:`_kept_rows` keeps; a transition whose tableau a
    descent's cache holds fits in one block.  A transition of at most
    ``_SCALAR_ARCS`` arcs that fits in one block is relaxed on Python
    floats.  Labels are carried as lists.  Returns the predecessors of
    stages 1..n, the terminal cost-to-come labels and the number of arcs
    priced.
    """
    model = spec.model
    d, length = [0.0], [0.0]
    preds = []
    evaluations = 0
    xs = grid.xs.tolist()
    transitions = list(zip(xs, np.diff(grid.xs).tolist(), grid.stages, grid.stages[1:]))
    entries = sample_transitions(
        model, transitions, spec.corridor[0], grid.delta, _BLOCK_ARCS, tableaux
    )
    scalar_arcs = min(_SCALAR_ARCS, _BLOCK_ARCS)
    for i, ((x_start, tau, y_from, y_to), samples) in enumerate(zip(transitions, entries)):
        if y_from.size * y_to.size <= scalar_arcs:
            tab = segment_cost_batch(model, x_start, tau, y_from, y_to, samples=samples)
            best, d, length = _relax_scalars(d, length, tab)
            evaluations += tab.fixed_cost.size
        else:
            d, length = np.array(d), np.array(length)
            best = np.empty(y_to.size, dtype=np.intp)
            d_to, length_to = np.empty(y_to.size), np.empty(y_to.size)
            width = max(1, _BLOCK_ARCS // y_from.size)
            rows = _kept_rows(samples, tau, y_from, y_to, width, d, length)
            for s, (lo, hi) in zip(range(0, y_to.size, width), rows):
                block = slice(s, s + width)
                tab = segment_cost_batch(
                    model, x_start, tau, y_from[lo:hi], y_to[block], samples=samples
                )
                best[block], d_to[block], length_to[block] = _relax(d[lo:hi], length[lo:hi], tab)
                best[block] += lo
                evaluations += tab.fixed_cost.size
                # Freed before the next block's is priced, which then reuses
                # its memory; held over, it slowed a full sweep by about 4 %.
                del tab
            d, length = d_to.tolist(), length_to.tolist()
        if not all(map(math.isfinite, d)):
            raise ValueError(
                f"non-finite cost-to-come at stage {i + 1} (x = {xs[i + 1]!r}): "
                "fields are singular or overflow there"
            )
        preds.append(best)
    return preds, d, evaluations


def solve(grid: StageGrid, spec: ProblemSpec, tableaux=None) -> Trajectory:
    """Run the forward sweep and backtrack the optimal polyline.

    Results are independent of the block split, bit for bit.  The returned
    trajectory's cost is the terminal label, which by construction of the
    prefix threading equals the polyline's path cost (to rounding where
    arcs gather their samples from a stage lattice).  ``tableaux``, the
    :class:`~terracost.localsearch.DescentCache` of the grid that
    ``grid``'s stages are cut from, gives the sweep the tableaux of arcs an
    earlier sweep priced, which have the same bits.
    """
    t0 = time.perf_counter()
    preds, terminal_d, evaluations = _sweep(grid, spec, tableaux)
    idx = [0]
    for best in reversed(preds):
        idx.append(int(best[idx[-1]]))
    ys = np.array([stage[i] for stage, i in zip(grid.stages, reversed(idx))])
    diag = SolveDiagnostics(
        segment_cost_evaluations=evaluations, wall_time=time.perf_counter() - t0
    )
    return Trajectory(xs=grid.xs, ys=ys, cost=terminal_d[0], diagnostics=diag)


def refinement_schedule(
    tau_0: float, gamma: float, epsilon: float, k_max: int
) -> list[tuple[float, float]]:
    """Halving schedule [(tau_k, delta_k)] with delta_k = gamma*tau_k^(1+eps).

    eps must be positive for guaranteed convergence of the refined optima;
    eps = 0 is accepted with a warning.
    """
    for name, value in (("tau_0", tau_0), ("gamma", gamma), ("epsilon", epsilon)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    taus = [tau_0 / 2**k for k in range(k_max + 1)]
    return [(tau, gamma * tau ** (1.0 + epsilon)) for tau in taus]


def solve_refined(spec: ProblemSpec, schedule: list[tuple[float, float]]) -> list[Trajectory]:
    """One solve per schedule level, finest last.

    Every stage is a subset of the N-point ordinate lattice, so a level
    evaluates at most N^2 * n candidate arcs.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one (tau, delta) level")
    return [solve(build_grid(spec, tau, delta), spec) for tau, delta in schedule]
