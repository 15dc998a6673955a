"""The trajectory cost functional and its quadrature.

A path y(x) over span [0, l] lies on the relief z = phi(x, y(x)), so its
3-D arc-length density per unit x is

    Phi(x) = sqrt(1 + y'(x)^2 + z'(x)^2),
    z'(x)  = phi_x(x, y(x)) + phi_y(x, y(x)) * y'(x).

The total cost charges two rates along the path: a construction rate
beta(x, y) per unit built length, and a delivery rate alpha(x, y) per unit
built length times the length of road already completed between the origin
and the working point (materials travel over the finished prefix).  That
prefix length is the inner integral of Phi from 0 to x, which makes the
functional non-additive over segments: every segment cost depends on the
arc length accumulated before it.

In the flattened 2-D mode z' is dropped entirely and the relief is ignored.

Two kernels integrate.  :func:`_integrate_straight` prices straight flat
2-D pieces, whose arc-length density is the same at every sample: a flat
2-D stage-lattice block's rows, and the straight segments of a flat 2-D
batch, which :func:`_integrate` hands to it.  :func:`_integrate` prices
every other piece: full 3-D segments (stage-lattice blocks among them) and
the mesh cells of a smooth curve.  Either prices a batch of pieces
(segments or mesh cells), each with q + 1 samples, as the affine split
delta_j = fixed_cost + prefix_slope * len_start plus the piece's own arc
length, and leaves the ``len_start`` threading to its callers:

* :func:`segment_cost_batch` - every from/to pair of one stage transition;
* :func:`sample_transitions` - the new arcs of a descent's window sweep;
* :func:`path_cost_profile`  - all segments of one polyline at once;
* :func:`smooth_path_cost`   - the mesh cells of a smooth candidate curve,
  sampled on a :func:`smooth_mesh`.

:func:`smooth_path_gradient` differentiates :func:`smooth_path_cost` by one
reverse pass of its own, beside the kernels.

Every batch of samples is laid out with the sample axis first: shape
(q + 1, ...), where row j holds sample j of every piece.  Each step of
either kernel is then one numpy operation over whole rows of pieces rather
than a (q + 1)-long loop per piece, and its sums over samples run in a
fixed order, so a piece gets the same bits in a batch of any shape: the
within-piece prefix by running sums, a trapezoid's interior rows by one
reduction over rows, which numpy adds in row order (a batch of single
samples keeps a running sum there too).  In :func:`_integrate_straight`
the density sqrt(1 + y'^2) scales each sum once and the interior rates
are summed from j = q - 1 down to 1; :func:`_integrate` takes full rows,
summed in index order.

The kernels read field values, not fields.  This module is the only one
that samples fields, and :func:`sample_transitions` holds the one rule for
where a stage transition's samples come from.  There are three sources:

* the arcs' own sample points, evaluated per call (:func:`segment_cost_batch`
  without ``samples``, :func:`path_cost_profile`, :func:`smooth_path_cost`).
  A caller that samples the same abscissae again and again (``ritz`` on its
  mesh) binds the model to them once with :func:`at_abscissae`, so each call
  evaluates only the parts of its expression fields that read y;
* the fine lattice of a stage transition, sampled once when it has fewer
  ordinates than the transition has arcs (a full stage to a full stage).
  A stage ordinate is y_lo + k*delta, so sample j of the arc from ordinate
  k to ordinate s lies at entry (j, k*(q - j) + s*j) of the (q + 1, m)
  lattice (x_start + j*tau/q, y_lo + r*delta/q), one row per sample
  abscissa.  That entry is affine in (k, s), so a block of arcs reads its
  sample j as a strided view of lattice row j, with strides q - j and j
  (picking the block's ordinates where a mask leaves gaps).  In flat 2-D
  a block sums these views in place; in full 3-D it stacks them into one
  (q + 1, from, to) batch for :func:`_integrate`.  Either way its memory
  is bounded by the block's arcs, not the stage's.  Only exact lattice
  ordinates gather; an off-lattice start or terminal ordinate is priced
  directly.  The lattice's ordinates round differently from the arcs' own,
  so gathered values agree with direct ones to rounding only.  A lattice
  also keeps the extremes of its samples (least and largest alpha and
  beta, largest |phi_x| and |phi_y|), found in one min and one max pass
  over its stacked fields.  Every arc it prices has its arc length between
  that of its chord and, in full 3-D, of the chord climbing the steepest
  relief, and its rates between those extremes, so
  ``_Lattice.candidate_bounds`` bounds the sweep's candidate
  d + fixed_cost + L*prefix_slope of any arc from the arc's rise alone;
  the sweep then prices only the from-rows that can win a block;
* a windowed descent's cache of its grid's arc tableaux
  (:class:`~terracost.localsearch.DescentCache`).  A sweep looks up every
  arc of its other transitions there at once, and only the arcs no earlier
  sweep priced are sampled at their own points and integrated, a budget of
  them per kernel call, as a (q + 1, arcs) batch with each arc's own slope
  and spacing; each transition then gets its share of the tableau.  These
  are the direct points and the kernel's steps act on each arc alone, so a
  kept entry has the bits pricing its arc again would give.

A lattice and a cached pricing are shared: several arcs read each lattice
sample, some lattice points may be read by no arc at all, and a pricing
serves many transitions.  One helper, :func:`_shared_samples`, samples
both, and a shared source is used only when every field accepts all of its
points and none of its alpha or beta samples is negative.  Otherwise its
arcs sample their own points, so a shared source never changes a price or
an error.  A negative rate is refused by one check, :func:`_check_rates`,
at the samples some piece reads, and named at the piece's own sample
point: (x_start + j*tau/q, y_from + (y_to - y_from)*j/q) for sample j of
an arc.  Errors come in stage order.

Quadrature is a composite trapezoid rule with ``q`` subintervals per
piece; the inner prefix integral uses trapezoid prefix sums over the same
sample points, so inner and outer sampling stay aligned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .expr import ExprDomainError
from .terrain import ExpressionField, FieldDomainError, ScalarField2D

__all__ = [
    "CostMode",
    "CostModel",
    "NegativeRateError",
    "NonFiniteCostError",
    "REFUSALS",
    "SegmentTableau",
    "at_abscissae",
    "path_cost",
    "path_cost_profile",
    "sample_transitions",
    "segment_cost_batch",
    "smooth_mesh",
    "smooth_path_cost",
    "smooth_path_gradient",
]


class CostMode(enum.Enum):
    FULL_3D = "full3d"
    FLAT_2D = "flat2d"


@dataclass(frozen=True)
class CostModel:
    """Field bundle plus evaluation settings for the cost functional.

    ``quadrature_subdivisions`` must be even and >= 2 (composite scheme).
    In FLAT_2D mode ``phi`` is ignored by cost evaluation and may be None.
    """

    alpha: ScalarField2D
    beta: ScalarField2D
    phi: ScalarField2D | None = None
    mode: CostMode = CostMode.FULL_3D
    quadrature_subdivisions: int = 16

    def __post_init__(self):
        q = self.quadrature_subdivisions
        if q < 2 or q % 2 != 0:
            raise ValueError(f"quadrature_subdivisions must be even and >= 2, got {q}")
        if self.mode is CostMode.FULL_3D and self.phi is None:
            raise ValueError("full 3-D mode requires a relief field phi")


class NegativeRateError(ValueError):
    """A rate field is negative at a sample: a longer road could be cheaper."""


class NonFiniteCostError(ValueError):
    """A path's cost is not finite: its fields are singular along it."""


# The errors by which pricing refuses a path, the fault of its fields and not
# of the program: a negative rate, a point outside a field's domain, a cost
# that is not finite.
REFUSALS = (NegativeRateError, ExprDomainError, FieldDomainError, NonFiniteCostError)


def _finite(total: float) -> float:
    # A path's total cost, refused when it is not finite.
    if not np.isfinite(total):
        raise NonFiniteCostError("non-finite path cost: fields are singular along the path")
    return total


class SegmentTableau(NamedTuple):
    """Per-piece costs split by their dependence on the prefix.

    A piece's added cost is affine in the arc length already built before
    it: delta_j = fixed_cost + prefix_slope * len_start, where prefix_slope
    is the integral of alpha * Phi over the piece.  ``delta_len`` is the
    integral of Phi (the piece's own arc length).
    """

    fixed_cost: np.ndarray
    prefix_slope: np.ndarray
    delta_len: np.ndarray


def _running_sum(rows: np.ndarray) -> np.ndarray:
    # Running sums along axis 0, in place and strictly in index order, so a
    # piece's sums have the same bits whatever the trailing shape of its
    # batch (ndarray.sum(axis=0) goes pairwise when that shape is (1,)).
    # rows[j, ...] is a view even when a row is a single element.
    for j in range(1, len(rows)):
        np.add(rows[j - 1], rows[j], out=rows[j, ...])
    return rows


def _trapezoid(first, interior, last, h):
    # The composite trapezoid end rule, from a piece's end samples and the
    # sum of its interior ones.
    return h * (0.5 * (first + last) + interior)


def _trapz(g: np.ndarray, h) -> np.ndarray:
    # Composite trapezoid along axis 0, which may overwrite g; h broadcasts
    # against a row.  Reducing axis 0 of a C-ordered batch adds whole rows
    # in order, the bits of a running sum's last row; rows of one element
    # keep the running sum, since numpy sums a lone contiguous axis pairwise.
    interior = g[1:-1]
    if interior[0].size > 1 and interior.flags.c_contiguous:
        total = np.add.reduce(interior, axis=0)
    else:
        total = _running_sum(interior)[-1]
    return _trapezoid(g[0], total, g[-1], h)


class _Samples(NamedTuple):
    # The field values the kernel reads at a batch's quadrature samples; the
    # relief partials are None in flat 2-D mode.
    alpha: np.ndarray
    beta: np.ndarray
    phi_x: np.ndarray | None = None
    phi_y: np.ndarray | None = None


def at_abscissae(model: CostModel, xs) -> CostModel:
    """The model with its expression fields bound to the abscissae ``xs``.

    Each :class:`~terracost.terrain.ExpressionField` the cost samples (phi
    in full 3-D, then alpha, then beta) evaluates its y-free parts once,
    here (see :meth:`~terracost.expr.Expression.at_x`); heightmap fields
    pass through.  The bound model prices only samples at these ``xs``, to
    the bits of ``model``.
    """

    def bound(field):
        if isinstance(field, ExpressionField):
            return ExpressionField(field.expression.at_x(xs))
        return field

    phi = bound(model.phi) if model.mode is CostMode.FULL_3D else model.phi
    return replace(model, phi=phi, alpha=bound(model.alpha), beta=bound(model.beta))


def _sample(model: CostModel, xs, ys) -> _Samples:
    # Evaluate the fields at the points (xs, ys), broadcast against each other.
    partials = ()
    if model.mode is CostMode.FULL_3D:
        partials = model.phi.value_and_partials(xs, ys)[1:]
    rates = (np.asarray(model.alpha.value(xs, ys)), np.asarray(model.beta.value(xs, ys)))
    return _Samples(*rates, *partials)


def _shared_samples(model: CostModel, xs, ys) -> _Samples | None:
    # The fields at points that several arcs read, or None when a field
    # refuses a point or an alpha or beta sample is negative: those arcs then
    # sample their own points, so a shared source never changes a price or
    # an error.
    try:
        samples = _sample(model, xs, ys)
    except (ExprDomainError, FieldDomainError):
        return None
    return None if any((rate < 0).any() for rate in samples[:2]) else samples


def _check_rates(samples: _Samples, xs, ys) -> None:
    # Refuse a negative rate at any sample of a batch taken at the points
    # (xs, ys), alpha before beta, named at its first negative sample in
    # index order; the points are broadcast only to name that sample.
    for name in ("alpha", "beta"):
        values = getattr(samples, name)
        if (values < 0).any():
            shape = np.broadcast(xs, ys).shape
            values = np.broadcast_to(values, shape)
            k = np.unravel_index(np.argmax(values < 0), shape)
            x, y = (np.broadcast_to(p, shape)[k] for p in (xs, ys))
            raise NegativeRateError(
                f"rate field '{name}' is negative ({float(values[k])!r}) "
                f"at (x, y) = ({float(x)!r}, {float(y)!r})"
            )


def _integrate_straight(rows, yp, h) -> SegmentTableau:
    """Integrate straight flat 2-D pieces of slope ``yp`` from their sample rows.

    ``rows`` holds the q + 1 rows in order, each the stacked (alpha, beta)
    of one sample of every piece: a stage-lattice block's views, or a batch
    stacked on axis 1.  The density sqrt(1 + yp^2) is the same at every
    sample, so it scales each sum once.  Interior rows are summed from
    j = q - 1 down to 1, so the running alpha sums add up to the sum of
    j * alpha_j; besides the rows, only those sums are kept.
    """
    q = len(rows) - 1
    sums = rows[q - 1].copy()
    spread = sums[0].copy()
    for row in rows[q - 2 : 0 : -1]:
        sums += row
        spread += sums[0]
    step = h * np.sqrt(1.0 + yp * yp)
    slope, build = _trapezoid(rows[0], sums, rows[q], step)
    delivery = step * step * (0.5 * q * rows[q][0] + spread)
    return SegmentTableau(delivery + build, slope, q * step)


def _integrate(samples: _Samples, yp, h, shape) -> SegmentTableau:
    """The quadrature kernel: integrate one batch of pieces from its samples.

    The batch has the sample ``shape`` (q + 1, ...): row j holds sample j of
    every piece, so each step is one operation over whole rows.  The field
    ``samples``, the path slope ``yp`` at them and the sample spacing ``h``
    of each piece broadcast against it.  A ``yp`` without a sample axis
    marks straight pieces, which in flat 2-D go to :func:`_integrate_straight`.
    """
    if samples.phi_x is None and np.ndim(yp) < len(shape):
        rates = np.stack([np.broadcast_to(v, shape) for v in samples[:2]], axis=1)
        return _integrate_straight(rates, yp, h)

    if samples.phi_x is None:
        phi_arc = np.sqrt(1.0 + yp * yp)
    else:
        zp = np.multiply(samples.phi_y, yp, out=np.empty(shape))
        zp += samples.phi_x
        zp *= zp
        zp += 1.0 + yp * yp
        phi_arc = np.sqrt(zp, out=zp)

    # Within-piece arc-length prefix (trapezoid prefix sums).
    prefix = np.empty(shape)
    prefix[0] = 0.0
    np.add(phi_arc[:-1], phi_arc[1:], out=prefix[1:])
    prefix[1:] *= 0.5 * h
    _running_sum(prefix[1:])
    delta_len = prefix[-1].copy()

    delivery = samples.alpha * phi_arc
    build = samples.beta * phi_arc
    prefix *= delivery
    slope = _trapz(delivery, h)
    return SegmentTableau(_trapz(prefix, h) + _trapz(build, h), slope, delta_len)


def _linear_points(q: int, x_start, tau, y_from, y_to):
    # Sample points of the straight segments (x_start, y_from) ->
    # (x_start + tau, y_to), with a new leading sample axis; the arguments
    # broadcast against each other and x_start, tau against the ordinates.
    rise = np.subtract(y_to, y_from)
    ts = (np.arange(q + 1) / q).reshape((-1,) + (1,) * rise.ndim)
    return x_start + tau * ts, y_from + rise * ts


class _Lattice(NamedTuple):
    # The fields sampled once on the fine lattice of one stage transition,
    # stacked as (fields, q + 1, m): alpha, beta (and phi_x, phi_y in full
    # 3-D), sample axis next, entry (j, r) at
    # (x_start + j*tau/q, y_lo + delta*(k_lo*q + r)/q).  ``extremes`` holds
    # the least and largest alpha and beta sample and the largest |phi_x|
    # and |phi_y| (zero in flat 2-D), NaN when a sample is.
    y_lo: float
    delta: float
    k_lo: int
    fields: np.ndarray
    extremes: tuple[float, float, float, float, float, float]

    def candidate_bounds(self, tau, near, far, d, length):
        # Bounds on the candidate d + fixed_cost + length * prefix_slope of
        # every arc of width tau on this lattice whose rise is at least
        # ``near`` and at most ``far`` in size, for labels (d, length); the
        # arguments broadcast.  A sample's rates lie between the extremes,
        # and its arc-length density between that of the chord and, in full
        # 3-D, of the chord climbing the steepest relief, so the arc length
        # lies between ``short`` and ``long``, prefix_slope between the least
        # and largest alpha times it, and fixed_cost, term by term of the
        # trapezoid sums (the prefix at sample j lies within j*h times the
        # density's bounds), between beta times it plus alpha times half its
        # square.  Rounding moves either bound by about q ulps.
        a_lo, a_hi, b_lo, b_hi, p_x, p_y = self.extremes
        short = np.sqrt(tau * tau + near * near)
        long = np.sqrt(tau * tau + far * far + (p_x * tau + p_y * far) ** 2)
        lower = d + short * ((b_lo + a_lo * length) + (0.5 * a_lo) * short)
        upper = d + long * ((b_hi + a_hi * length) + (0.5 * a_hi) * long)
        return lower, upper

    def rows(self, y_from, y_to):
        # The samples of the arcs from the column y_from to the row y_to of
        # sorted lattice ordinates, one (fields, F, T) view per row j in order.
        # Sample j of the arc from ordinate k_lo + k to k_lo + s is entry
        # (j, k*(q - j) + s*j), affine in (k, s): a view of lattice row j
        # with strides q - j and j, picked at the block's ordinates on an
        # axis where a mask leaves gaps.
        nf, rows, m = self.fields.shape
        q = rows - 1
        kf, kt = (
            np.rint((y - self.y_lo) / self.delta).astype(np.intp).ravel() - self.k_lo
            for y in (y_from, y_to)
        )
        f0, t0 = kf.min(), kt.min()
        span = (nf, kf.max() - f0 + 1, kt.max() - t0 + 1)
        pf = None if span[1] == kf.size else kf - f0
        pt = None if span[2] == kt.size else kt - t0
        step, item = self.fields.strides[0], self.fields.itemsize
        for j in range(rows):
            offset = (j * m + f0 * (q - j) + t0 * j) * item
            strides = (step, (q - j) * item, j * item)
            view = np.ndarray(span, self.fields.dtype, self.fields, offset, strides)
            if pf is not None:
                view = view[:, pf]
            if pt is not None:
                view = view[:, :, pt]
            yield view


def _linear_tableau(model: CostModel, x_start, tau, y_from, y_to, lattice=None):
    # Price the straight arcs (x_start, y_from) -> (x_start + tau, y_to),
    # whose arguments broadcast as in _linear_points: from a _Lattice's rows
    # (stacked into one (q + 1, F, T) batch in full 3-D), or else from field
    # samples taken and checked at the arcs' own points.
    q = model.quadrature_subdivisions
    yp = (y_to - y_from) / tau
    if lattice is not None:
        rows = list(lattice.rows(y_from, y_to))
        if model.mode is CostMode.FLAT_2D:
            return _integrate_straight(rows, yp, tau / q)
        samples = _Samples(*np.stack(rows, axis=1))
        return _integrate(samples, yp, tau / q, samples.alpha.shape)
    xs, ys = _linear_points(q, x_start, tau, y_from, y_to)
    samples = _sample(model, xs, ys)
    _check_rates(samples, xs, ys)
    return _integrate(samples, yp, tau / q, ys.shape)


def _arc_axes(y_from, y_to):
    # From-ordinates along axis 0, to-ordinates along axis 1: the arcs of the
    # (q + 1, len(y_from), len(y_to)) sample shape.
    return np.asarray(y_from, dtype=float)[:, None], np.asarray(y_to, dtype=float)[None, :]


def _sample_lattice(model: CostModel, y_lo, delta, x_start, tau, y_from, y_to):
    # The _Lattice of one transition, or None when an ordinate is not a
    # lattice ordinate y_lo + delta*k exactly, for k = rint((y - y_lo)/delta),
    # or when _shared_samples refuses the lattice's samples.
    y = np.append(y_from, y_to).astype(float)
    k = np.rint((y - y_lo) / delta)
    if not np.array_equal(y_lo + delta * k, y):
        return None
    q = model.quadrature_subdivisions
    k_lo, k_hi = int(k.min()), int(k.max())
    xs = x_start + tau * (np.arange(q + 1) / q)
    ys = y_lo + delta * (np.arange(k_lo * q, k_hi * q + 1) / q)
    fields = _shared_samples(model, xs[:, None], ys)
    if fields is None:
        return None
    fields = np.stack([np.broadcast_to(v, (q + 1, ys.size)) for v in fields if v is not None])
    low, high = fields.min(axis=(1, 2)), fields.max(axis=(1, 2))
    steep = np.maximum(high[2:], -low[2:]) if len(fields) > 2 else (0.0, 0.0)
    extremes = (low[0], high[0], low[1], high[1], *steep)
    return _Lattice(y_lo, delta, k_lo, fields, tuple(map(float, extremes)))


def _arcs(transitions):
    # Every arc of the transitions, each transition's in (from, to) order, as
    # (owner, x_start, tau, y_from, y_to) arrays, where owner is the arc's
    # transition in the list.
    x_start, tau, y_from, y_to = zip(*transitions)
    rows = np.array([len(y) for y in y_from])
    cols = np.array([len(y) for y in y_to])
    arcs = rows * cols
    owner = np.repeat(np.arange(len(transitions)), arcs)
    first = np.cumsum(arcs) - arcs
    k, s = np.divmod(np.arange(arcs.sum()) - first[owner], cols[owner])
    k += (np.cumsum(rows) - rows)[owner]
    s += (np.cumsum(cols) - cols)[owner]
    points = (np.array(x_start)[owner], np.array(tau)[owner])
    return owner, *points, np.concatenate(y_from)[k], np.concatenate(y_to)[s]


def _cached_entries(model: CostModel, transitions, stages, budget: int, tableaux) -> dict:
    # The tableaux of the transitions leaving ``stages``, by stage, as views
    # into one lookup of all their arcs in ``tableaux``, which prices those it
    # lacks from their own points, at most ``budget`` arcs per kernel call.
    # Empty when _shared_samples refuses the samples of an arc to price; that
    # costs a descent nothing, since the arc's transition then prices those
    # same points directly, refuses them again and ends the descent.
    picked = [transitions[i] for i in stages]
    owner, *arcs = _arcs(picked)
    q = model.quadrature_subdivisions

    def price(pick):
        new = [arc[pick] for arc in arcs]
        values = []
        for start in range(0, new[0].size, budget):
            x_start, tau, y_from, y_to = (arc[start : start + budget] for arc in new)
            xs, ys = _linear_points(q, x_start, tau, y_from, y_to)
            fields = _shared_samples(model, xs, ys)
            if fields is None:
                return None
            values.append(np.stack(_integrate(fields, (y_to - y_from) / tau, tau / q, ys.shape)))
        return np.concatenate(values, axis=1)

    values = tableaux.tableau(np.array(stages)[owner], *arcs[2:], price)
    if values is None:
        return {}
    out, stop = {}, 0
    for i, (_, _, y_from, y_to) in zip(stages, picked):
        start, stop = stop, stop + len(y_from) * len(y_to)
        out[i] = SegmentTableau(*values[:, start:stop].reshape(3, len(y_from), len(y_to)))
    return out


def sample_transitions(
    model: CostModel,
    transitions,
    y_lo: float,
    delta: float,
    budget: int,
    tableaux=None,
):
    """Each stage transition's field samples, in stage order.

    ``transitions`` lists one (x_start, tau, y_from, y_to) per transition,
    with sorted stage ordinates, the first leaving stage 0.  Each gets the
    ``samples`` entry of its :func:`segment_cost_batch` call, chosen by one
    rule:

    * a stage lattice, when the transition's fine lattice has fewer
      ordinates than the transition has arcs (a full stage to a full stage)
      and all its ordinates are lattice ordinates y_lo + k*delta.  It is
      sampled only once the transitions ahead of it are consumed;
    * otherwise, with ``tableaux``, the
      :class:`~terracost.localsearch.DescentCache` of the grid the stages
      are cut from, the transition's tableau, when it has at most
      ``budget`` arcs.  All such transitions are looked up there at once,
      before the first entry, and only the arcs no earlier sweep priced are
      sampled and integrated, at most ``budget`` per kernel call;
    * None, to sample the arcs' own points: every other transition, and a
      lattice's or the cache's transitions when a field refuses one of
      their points or one of their alpha or beta samples is negative.
    """
    q = model.quadrature_subdivisions
    gathers, stages = [], []
    for i, (_, _, y_from, y_to) in enumerate(transitions):
        arcs = len(y_from) * len(y_to)
        span = max(y_from[-1], y_to[-1]) - min(y_from[0], y_to[0])
        gathers.append(span / delta * q + 1 < arcs)
        if tableaux is not None and not gathers[-1] and arcs <= budget:
            stages.append(i)
    cached = _cached_entries(model, transitions, stages, budget, tableaux) if stages else {}
    for i, (transition, gather) in enumerate(zip(transitions, gathers)):
        yield _sample_lattice(model, y_lo, delta, *transition) if gather else cached.get(i)


def segment_cost_batch(
    model: CostModel,
    x_start: float,
    tau: float,
    y_from,
    y_to,
    *,
    samples: _Lattice | SegmentTableau | None = None,
) -> SegmentTableau:
    """Evaluate all from x to pairs of one stage transition in one call.

    Returns arrays of shape (len(y_from), len(y_to)).  Each pair is the
    linear segment from (x_start, y_from[k]) to (x_start + tau, y_to[s]).
    Without ``samples`` the fields are evaluated at the pairs' samples;
    with this transition's :func:`sample_transitions` entry they are taken
    from there, or, for a transition a descent's cache holds, the entry is
    the whole transition's tableau, already integrated.  The integration is
    the same either way, and a negative rate is refused at any sample an arc
    reads.
    """
    if tau <= 0:
        raise ValueError(f"segment width must be positive, got {tau}")
    if isinstance(samples, SegmentTableau):
        return samples
    return _linear_tableau(model, x_start, tau, *_arc_axes(y_from, y_to), samples)


def path_cost_profile(model: CostModel, xs, ys):
    """Cost of a polyline plus its cumulative length/cost per knot.

    Returns (total_cost, cum_length, cum_cost).  All segments are priced in
    one kernel call, and the prefix length is carried through them in the stage
    sweep's (total + fixed) + length * slope order.  A solver that prices
    each arc from its own samples therefore reports the cost this evaluation
    gives its knots bit for bit: a sweep whose transitions all price their
    arcs directly, and every windowed descent.  A sweep whose arcs gather
    their samples from a stage lattice agrees only to rounding (1e-12
    relative), since the lattice's sample ordinates round differently.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("polyline needs matching 1-D x and y knots (>= 2)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("polyline x-knots must be strictly increasing")
    if abs(xs[0]) > 1e-12:
        raise ValueError(f"polyline must start at x = 0, got {xs[0]}")
    tab = _linear_tableau(model, xs[:-1], np.diff(xs), ys[:-1], ys[1:])
    cum_len = np.concatenate([[0.0], np.cumsum(tab.delta_len)])
    # cumsum is sequential: over 0, fixed_0, len_0*slope_0, fixed_1, ... its
    # even entries are the running totals in the sweep's association order.
    terms = np.stack([tab.fixed_cost, cum_len[:-1] * tab.prefix_slope], axis=-1)
    cum_cost = np.cumsum(np.concatenate([[0.0], terms.ravel()]))[::2]
    return _finite(float(cum_cost[-1])), cum_len, cum_cost


def path_cost(model: CostModel, xs, ys) -> float:
    """Functional value of a piecewise-linear trajectory given by its knots."""
    total, _, _ = path_cost_profile(model, xs, ys)
    return total


def smooth_mesh(mesh_points: int, length: float, q: int):
    """Quadrature samples of a smooth curve's mesh on [0, length].

    The span is split into ``mesh_points`` - 1 cells of q + 1 samples each.
    Returns (xs, h): the (q + 1, cells) sample abscissae, sample axis first,
    and their spacing, ready for :func:`smooth_path_cost`.
    """
    if mesh_points < 64:
        raise ValueError(f"mesh_points must be >= 64, got {mesh_points}")
    if length <= 0:
        raise ValueError(f"span length must be positive, got {length}")
    mesh = np.linspace(0.0, length, mesh_points)
    cell = length / (mesh_points - 1)
    return mesh[:-1] + cell * (np.arange(q + 1) / q)[:, None], cell / q


def smooth_path_cost(model: CostModel, xs, ys, yp, h) -> float:
    """Functional value of a smooth candidate sampled on a :func:`smooth_mesh`.

    ``ys`` and ``yp`` are the exact curve y(x) and its slope at the mesh
    samples ``xs`` (no chord approximation); each cell is integrated by the
    composite trapezoid scheme and the prefix length is carried across cells.
    """
    samples = _sample(model, xs, ys)
    _check_rates(samples, xs, ys)
    tab = _integrate(samples, yp, h, ys.shape)
    len_start = np.concatenate([[0.0], np.cumsum(tab.delta_len)[:-1]])
    return _finite(float(np.sum(tab.fixed_cost + len_start * tab.prefix_slope)))


# Central-difference step in y relative to max(1, |y|): the cube root of the
# rounding unit balances truncation against cancellation.
_Y_STEP = float(np.finfo(float).eps ** (1 / 3))


def _y_partials(model: CostModel, xs, ys, samples: _Samples):
    # d/dy of each field sampled at (xs, ys), by central differences at
    # ys +- step.  Where the fields refuse one side, every sample takes the
    # other side's second-order difference (4 f(y + s) - 3 f(y) - f(y + 2s))
    # / 2s against ``samples``, as accurate as the central one; a refusal of
    # both sides, or of y + 2s, is raised.  The curve's end samples (x = 0
    # and x = l on a smooth_mesh) are not shifted, and get partial 0.
    step = _Y_STEP * np.maximum(1.0, np.abs(ys))
    step[0, 0] = step[-1, -1] = 0.0

    def shifted(points):
        try:
            return _sample(model, xs, points)
        except (ExprDomainError, FieldDomainError) as exc:
            return exc

    above, below = ys + step, ys - step
    upper, lower = shifted(above), shifted(below)
    if isinstance(upper, Exception) or isinstance(lower, Exception):
        near, span = (lower, below - ys) if isinstance(upper, Exception) else (upper, above - ys)
        if isinstance(near, Exception):
            raise near
        far = _sample(model, xs, ys + 2.0 * span)
        scale = np.divide(0.5, span, out=np.zeros_like(span), where=span != 0.0)
        return [
            f if f is None else (4.0 * n - 3.0 * f - r) * scale
            for f, n, r in zip(samples, near, far)
        ]
    span = above - below
    scale = np.divide(1.0, span, out=np.zeros_like(span), where=span != 0.0)
    return [u if u is None else (u - v) * scale for u, v in zip(upper, lower)]


def smooth_path_gradient(model: CostModel, xs, ys, yp, h):
    """dJ/dys and dJ/dyp of :func:`smooth_path_cost` at the same curve.

    One reverse pass through the quadrature: the trapezoid sums, each
    cell's arc-length prefix and the ``len_start`` threading between cells,
    the last two as reverse cumulative sums.  The fields' y-partials come
    from differences of their samples (see :func:`_y_partials`), so a
    refusal of the shifted samples on both sides is raised.  The
    curve's end samples are fixed, and their dJ/dys is 0.  The result
    agrees with differences of :func:`smooth_path_cost` to rounding, not
    bit for bit.
    """
    samples = _sample(model, xs, ys)
    d_fields = _y_partials(model, xs, ys, samples)
    q = len(ys) - 1
    weight = np.full((q + 1, 1), h)
    weight[0] = weight[q] = 0.5 * h
    zp = 0.0 if samples.phi_x is None else samples.phi_x + samples.phi_y * yp
    arc = np.sqrt(1.0 + yp * yp + zp * zp)

    # Forward: each cell's prefix length at its samples, its length, its slope.
    prefix = np.zeros_like(arc)
    prefix[1:] = np.cumsum(0.5 * h * (arc[:-1] + arc[1:]), axis=0)
    delivery = samples.alpha * arc
    slope = np.sum(weight * delivery, axis=0)
    len_start = np.cumsum(prefix[-1]) - prefix[-1]
    later = np.cumsum(slope[::-1])[::-1] - slope  # slope of the later cells

    # Reverse: J = sum over cells of trapz((prefix + len_start) * delivery
    # + beta * arc), and prefix[-1] feeds every later cell's len_start.
    d_delivery = weight * (prefix + len_start)
    d_prefix = weight * delivery
    d_prefix[-1] += later
    d_steps = 0.5 * h * np.cumsum(d_prefix[:0:-1], axis=0)[::-1]  # (q, cells)
    d_arc = samples.alpha * d_delivery + samples.beta * weight
    d_arc[:-1] += d_steps
    d_arc[1:] += d_steps
    d_ys = (d_delivery * arc) * d_fields[0] + (weight * arc) * d_fields[1]
    # The density sqrt(1 + y'^2 + z'^2) has d/dy' = y'/arc and d/dz' = z'/arc,
    # and z' = phi_x + phi_y * y'.
    d_arc /= arc
    if samples.phi_x is None:
        return d_ys, d_arc * yp
    d_zp = d_arc * zp
    d_ys += d_zp * d_fields[2] + (d_zp * yp) * d_fields[3]
    return d_ys, d_arc * yp + d_zp * samples.phi_y
