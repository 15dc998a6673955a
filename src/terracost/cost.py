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

One kernel, :func:`_integrate`, integrates.  It prices a batch of pieces
(segments or mesh cells), each with q + 1 samples, as the affine split
delta_j = fixed_cost + prefix_slope * len_start plus the piece's own arc
length, and leaves the ``len_start`` threading to its callers:

* :func:`segment_cost_batch` - every from/to pair of one stage transition;
* :func:`sample_transitions` - every arc of a run of stage transitions;
* :func:`path_cost_profile`  - all segments of one polyline at once;
* :func:`smooth_path_cost`   - the mesh cells of a smooth candidate curve,
  sampled on a :func:`smooth_mesh`.

Every batch of samples is laid out with the sample axis first: shape
(q + 1, ...), where row j holds sample j of every piece.  Each step of the
kernel is then one numpy operation over whole rows of pieces rather than a
(q + 1)-long loop per piece, and its sums over samples run in a fixed
order, so a piece gets the same bits in a batch of any shape: the
within-piece prefix by running sums, a trapezoid's interior rows by one
reduction over rows, which numpy adds in row order (a batch of single
samples keeps a running sum there too).  Straight
flat 2-D pieces take :func:`_integrate_straight`, from a whole batch's
stacked rows and a stage-lattice block's rows alike: their density
sqrt(1 + y'^2) is the same at every sample and scales each sum once, and
their interior rates are summed from j = q - 1 down to 1.  Other pieces
take full rows, summed in index order; :func:`_integrate_rows` takes the
same steps with the rows fed one at a time, for full 3-D lattice blocks.

The kernel reads field values, not fields.  This module is the only one
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
  (picking the block's ordinates where a mask leaves gaps), and integrates
  it in place row after row, keeping only a few arrays of the block's
  shape.  Only exact lattice ordinates gather; an off-lattice start or
  terminal ordinate is priced directly.  The lattice's ordinates round
  differently from the arcs' own, so gathered values agree with direct
  ones to rounding only;
* a run of consecutive other transitions whose arcs fit in one budget,
  sampled at all its arcs' own points in one call and integrated in one
  kernel call, as a (q + 1, arcs) batch with each arc's own slope and
  spacing; each transition's call then hands back its share of the
  tableau.  These are the direct points and the kernel's steps act on each
  arc alone, so the tableau is the direct one, bit for bit.  A windowed
  descent keeps the run tableaux of its grid's arcs from one sweep to the
  next (:class:`~terracost.localsearch.DescentCache`), so each run samples
  and integrates only the arcs no earlier sweep priced; for the same
  reason a kept entry has the bits pricing its arc again would give.

A lattice and a run are shared: several arcs read each of their samples,
and some of their points may be read by no arc at all.  One helper,
:func:`_shared_samples`, samples both, and a shared source is used only
when every field accepts all of its points and none of its alpha or beta
samples is negative.  Otherwise its arcs sample their own points, so a
shared source never changes a price or an error.  A negative rate is
refused by one check, :func:`_check_rates`, at the samples some piece
reads, and named at the piece's own sample point: (x_start + j*tau/q,
y_from + (y_to - y_from)*j/q) for sample j of an arc.  Errors come in
stage order.

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
    "SegmentTableau",
    "at_abscissae",
    "path_cost",
    "path_cost_profile",
    "sample_transitions",
    "segment_cost_batch",
    "smooth_mesh",
    "smooth_path_cost",
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


def _integrate_rows(rows, yp, h) -> SegmentTableau:
    """:func:`_integrate` for straight full 3-D pieces, their rows fed one at a time.

    ``rows`` holds the batch's rows in order, each the stacked fields of
    one sample of every piece, with the pieces' shape, which ``yp`` has too.
    The steps are _integrate's, in its order, so every piece gets the same
    bits, but the batch keeps only a few arrays of that shape: the prefix
    length, the interior sums of delivery, prefix * delivery and build, and
    row 0's terms.
    """
    q = len(rows) - 1
    half = 0.5 * h
    run = 1.0 + yp * yp
    phi = spare = inc = work = None
    for j, (alpha, beta, phi_x, phi_y) in enumerate(rows):
        phi, spare = np.multiply(phi_y, yp, out=spare), phi
        phi += phi_x
        phi *= phi
        phi += run
        np.sqrt(phi, out=phi)
        if j:
            inc = np.add(spare, phi, out=inc)
            inc *= half
        if j == 1:
            length = inc.copy()
        elif j:
            length += inc
        out = work or (None, None, None)
        delivery = np.multiply(alpha, phi, out=out[0])
        terms = (
            delivery,
            np.multiply(length if j else 0.0, delivery, out=out[1]),
            np.multiply(beta, phi, out=out[2]),
        )
        if j == 0:
            first = terms
        elif j == 1:
            sums = terms
            work = tuple(np.empty_like(t) for t in terms)
        elif j < q:
            for total, term in zip(sums, terms):
                total += term
    # terms are row q's.
    ends = [_trapezoid(*args, h) for args in zip(first, sums, terms)]
    return SegmentTableau(ends[1] + ends[2], ends[0], length)


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
    # (x_start + j*tau/q, y_lo + delta*(k_lo*q + r)/q).
    y_lo: float
    delta: float
    k_lo: int
    fields: np.ndarray

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
    # whose arguments broadcast as in _linear_points: from a _Lattice's rows,
    # read one after another, or else from field samples taken and checked
    # at the arcs' own points.
    q = model.quadrature_subdivisions
    yp = (y_to - y_from) / tau
    if lattice is not None:
        rows = list(lattice.rows(y_from, y_to))
        flat = model.mode is CostMode.FLAT_2D
        return (_integrate_straight if flat else _integrate_rows)(rows, yp, tau / q)
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
    return _Lattice(y_lo, delta, k_lo, fields)


def _run_arcs(run):
    # Every arc of a run of transitions on one axis, each transition's in
    # (from, to) order, as (owner, x_start, tau, y_from, y_to) arrays, where
    # owner is the arc's transition within the run.
    x_start, tau, y_from, y_to = zip(*run)
    rows = np.array([len(y) for y in y_from])
    cols = np.array([len(y) for y in y_to])
    arcs = rows * cols
    owner = np.repeat(np.arange(len(run)), arcs)
    first = np.cumsum(arcs) - arcs
    k, s = np.divmod(np.arange(arcs.sum()) - first[owner], cols[owner])
    k += (np.cumsum(rows) - rows)[owner]
    s += (np.cumsum(cols) - cols)[owner]
    points = (np.array(x_start)[owner], np.array(tau)[owner])
    return owner, *points, np.concatenate(y_from)[k], np.concatenate(y_to)[s]


def _shared_tableau(model: CostModel, x_start, tau, y_from, y_to):
    # The tableau of straight arcs given one per entry, stacked as rows
    # (fixed_cost, prefix_slope, delta_len): their fields sampled at all their
    # own points in one call and integrated in one kernel call, or None when
    # _shared_samples refuses those samples.
    q = model.quadrature_subdivisions
    xs, ys = _linear_points(q, x_start, tau, y_from, y_to)
    fields = _shared_samples(model, xs, ys)
    if fields is None:
        return None
    return np.stack(_integrate(fields, (y_to - y_from) / tau, tau / q, ys.shape))


def _run_entries(model: CostModel, run, first: int, tableaux) -> list:
    # One entry per transition of a run, whose first transition leaves stage
    # ``first``: the run's arcs are priced in one call, or looked up in
    # ``tableaux``, which prices only those it lacks, and each transition
    # gets its share of the tableau as views.  A lone transition without a
    # cache, or a run whose samples _shared_samples refuses, gets None.
    if not run or (len(run) < 2 and tableaux is None):
        return [None] * len(run)
    owner, *arcs = _run_arcs(run)
    if tableaux is None:
        values = _shared_tableau(model, *arcs)
    else:

        def price(pick):
            return _shared_tableau(model, *(arc[pick] for arc in arcs))

        values = tableaux.tableau(first + owner, *arcs[2:], price)
    if values is None:
        return [None] * len(run)
    out, stop = [], 0
    for _, _, y_from, y_to in run:
        start, stop = stop, stop + len(y_from) * len(y_to)
        out.append(SegmentTableau(*values[:, start:stop].reshape(3, len(y_from), len(y_to))))
    return out


def sample_transitions(
    model: CostModel,
    transitions,
    y_lo: float,
    delta: float,
    budget: int,
    tableaux=None,
):
    """Each stage transition's field samples, lazily and in stage order.

    ``transitions`` yields one (x_start, tau, y_from, y_to) per transition,
    with sorted stage ordinates, the first leaving stage 0.  Each gets the
    ``samples`` entry of its :func:`segment_cost_batch` call, chosen by one
    rule:

    * a stage lattice, when the transition's fine lattice has fewer
      ordinates than the transition has arcs (a full stage to a full stage)
      and all its ordinates are lattice ordinates y_lo + k*delta;
    * otherwise the transition joins a run of consecutive such transitions
      whose arcs together number at most ``budget``.  A run of two or more
      is sampled at all its arcs and integrated in one call, and each of
      its transitions gets its share of the tableau.  With ``tableaux``,
      the :class:`~terracost.localsearch.DescentCache` of the grid the
      stages are cut from, every run looks its arcs up there and prices
      only the new ones;
    * None, to sample the arcs directly: a transition of more than
      ``budget`` arcs, a lone one without ``tableaux``, an off-lattice one,
      and a lattice's or a run's transitions when a field refuses one of
      its points or one of its alpha or beta samples is negative.

    Nothing is sampled before the transitions ahead of it are consumed.
    """
    q = model.quadrature_subdivisions
    run, run_arcs, first = [], 0, 0
    for i, transition in enumerate(transitions):
        x_start, tau, y_from, y_to = transition
        arcs = len(y_from) * len(y_to)
        span = max(y_from[-1], y_to[-1]) - min(y_from[0], y_to[0])
        gathers = span / delta * q + 1 < arcs
        if run and (gathers or run_arcs + arcs > budget):
            yield from _run_entries(model, run, first, tableaux)
            run, run_arcs = [], 0
        if gathers:
            yield _sample_lattice(model, y_lo, delta, *transition)
        elif arcs > budget:
            yield None
        else:
            if not run:
                first = i
            run.append(transition)
            run_arcs += arcs
    yield from _run_entries(model, run, first, tableaux)


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
    from there, or, for a run's transition, the entry is the whole
    transition's tableau, already integrated.  The integration is the same
    either way, and a negative rate is refused at any sample an arc reads.
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
    total = float(cum_cost[-1])
    if not np.isfinite(total):
        raise ValueError("non-finite path cost: fields are singular along the path")
    return total, cum_len, cum_cost


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
    total = float(np.sum(tab.fixed_cost + len_start * tab.prefix_slope))
    if not np.isfinite(total):
        raise ValueError("non-finite path cost: fields are singular along the path")
    return total
