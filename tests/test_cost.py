"""Cost functional: arc element, segment pricing, path and smooth costs.

Every evaluator shares one quadrature kernel, so the arc element and the
segment prices are checked through ``segment_cost_batch`` and ``path_cost``.

Closed-form checks anchor the quadrature: on flat terrain with constant
rates every integral here has an exact value.  The frozen series
coefficients in conftest probe the two benchmark problems end to end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    NegativeRateError,
    build_grid,
    field_from_expression,
    path_cost,
    path_cost_profile,
    segment_cost_batch,
    smooth_mesh,
    smooth_path_cost,
)
from terracost import cost, localsearch
from terracost.cost import sample_transitions
from terracost.expr import ExprDomainError
from terracost.ritz import RitzCandidate, candidate_eval

from conftest import (
    SERIES_COEFFS_RELIEF,
    SERIES_COEFFS_RIDGE,
    make_masked_heightmap_spec,
    make_relief3d_spec,
    make_ridge2d_spec,
)

SQRT2 = float(np.sqrt(2.0))


def flat_model(alpha="0", beta="1", q=16):
    return CostModel(
        alpha=field_from_expression(alpha),
        beta=field_from_expression(beta),
        mode=CostMode.FLAT_2D,
        quadrature_subdivisions=q,
    )


def full3d_model(phi, alpha="0", beta="1", q=16):
    return CostModel(
        alpha=field_from_expression(alpha),
        beta=field_from_expression(beta),
        phi=field_from_expression(phi),
        mode=CostMode.FULL_3D,
        quadrature_subdivisions=q,
    )


# ---------------------------------------------------------------------------
# model validation


@pytest.mark.parametrize("q", [0, 1, 3, 7])
def test_quadrature_subdivisions_must_be_even(q):
    with pytest.raises(ValueError, match="even"):
        flat_model(q=q)


def test_full3d_requires_phi():
    with pytest.raises(ValueError, match="phi"):
        CostModel(
            alpha=field_from_expression("0"),
            beta=field_from_expression("1"),
            mode=CostMode.FULL_3D,
        )


# ---------------------------------------------------------------------------
# z' and the arc element, seen through a segment's own length delta_len


def segment(model, x0, y0, y1, tau):
    """Tableau entries of one segment as plain floats."""
    tab = segment_cost_batch(model, x0, tau, [y0], [y1])
    return tuple(float(v[0, 0]) for v in tab)


def test_z_prime_linear_ramp():
    # phi = x: z' = 1 on a level segment, so the arc element is sqrt(2).
    _, _, delta_len = segment(full3d_model("x"), 0.2, 0.3, 0.3, 0.25)
    assert delta_len == pytest.approx(0.25 * SQRT2, abs=1e-15)


def test_z_prime_vanishes_at_origin():
    # z' = 5cos(5x)sin(y) + sin(5x)cos(y)y' is 0 at the origin: a short
    # segment there along y = x has the flat arc element sqrt(2).
    tau = 1e-6
    _, _, delta_len = segment(full3d_model("sin(5*x)*sin(y)"), 0.0, 0.0, tau, tau)
    assert delta_len / tau == pytest.approx(SQRT2, abs=1e-9)


def test_z_prime_flat_mode_is_zero():
    # Flattened mode ignores a steep relief entirely.
    model = CostModel(
        alpha=field_from_expression("0"),
        beta=field_from_expression("1"),
        phi=field_from_expression("10*x+7*y"),
        mode=CostMode.FLAT_2D,
    )
    _, _, delta_len = segment(model, 0.4, -0.7, -0.1, 0.2)  # slope 3
    assert delta_len == pytest.approx(0.2 * np.sqrt(10.0), abs=1e-15)


def test_arc_element_unit_slope():
    _, _, delta_len = segment(flat_model(), 0.0, 0.0, 1.0, 1.0)
    assert delta_len == pytest.approx(SQRT2, abs=1e-15)


def test_arc_element_zero_slope():
    _, _, delta_len = segment(flat_model(), 0.25, 0.3, 0.3, 0.5)
    assert delta_len == 0.5


def test_arc_element_ramp_terrain():
    _, _, delta_len = segment(full3d_model("x"), 0.0, 0.1, 0.1, 1.0)
    assert delta_len == pytest.approx(SQRT2, abs=1e-15)


# ---------------------------------------------------------------------------
# segment cost


def test_constant_beta_segment():
    fixed, slope, delta_len = segment(flat_model(alpha="0", beta="2"), 0.0, 0.0, 0.0, 1.0)
    assert fixed == pytest.approx(2.0, abs=1e-12)
    assert slope == 0.0
    assert delta_len == pytest.approx(1.0, abs=1e-12)


def test_delivery_only_diagonal_segment():
    # alpha = 1, beta = 0 on the unit diagonal: integral of sqrt2 * (sqrt2 x).
    fixed, _, delta_len = segment(flat_model(alpha="1", beta="0"), 0.0, 0.0, 1.0, 1.0)
    assert fixed == pytest.approx(1.0, abs=1e-9)
    assert delta_len == pytest.approx(SQRT2, abs=1e-12)


def test_prefix_length_multiplies_through():
    # A prefix of length 3 adds 3 * integral(alpha * Phi) = 3 * sqrt2.
    fixed, slope, _ = segment(flat_model(alpha="1", beta="0"), 0.0, 0.0, 1.0, 1.0)
    assert slope == pytest.approx(SQRT2, abs=1e-12)
    assert fixed + 3.0 * slope == pytest.approx(1.0 + 3.0 * SQRT2, abs=1e-9)


def test_delta_len_never_below_horizontal_run():
    model = full3d_model("sin(5*x)*sin(y)", alpha="0.1", beta="0.5")
    rng = np.random.default_rng(41)
    for _ in range(50):
        x0 = rng.uniform(0.0, 0.8)
        tau = rng.uniform(0.05, 0.2)
        y0, y1 = rng.uniform(0.0, 1.0, size=2)
        fixed, slope, delta_len = segment(model, x0, y0, y1, tau)
        assert delta_len >= tau - 1e-12
        assert np.isfinite(fixed + rng.uniform(0.0, 2.0) * slope)


def test_segment_cost_is_affine_in_prefix():
    # Inside path_cost a segment adds fixed + L * slope for the arc length L
    # built before it: two prefixes ending at the same knot change the
    # second segment's cost by (L1 - L0) * slope.
    model = make_ridge2d_spec().model
    fixed, slope, _ = segment(model, 0.25, 0.3, 0.45, 0.125)
    assert slope >= 0.0  # alpha >= 0 on the corridor
    xs = [0.0, 0.25, 0.375]
    added = []
    lengths = []
    for y0 in (0.3, 0.0):  # a level and a climbing first segment
        ys = [y0, 0.3, 0.45]
        total, cum_len, cum_cost = path_cost_profile(model, xs, ys)
        assert total == (cum_cost[1] + fixed) + cum_len[1] * slope
        added.append(total - cum_cost[1])
        lengths.append(cum_len[1])
    assert lengths[1] > lengths[0]
    assert added[1] - added[0] == pytest.approx((lengths[1] - lengths[0]) * slope, abs=1e-12)
    assert added[1] >= added[0]


def test_batch_matches_scalar_segment_cost():
    # The stage outer product and the polyline pricer share one kernel:
    # each pair of the batch equals the single segment priced by path_cost.
    model = make_relief3d_spec().model
    y_from = np.array([0.0, 0.25, 0.5])
    y_to = np.array([0.125, 0.375])
    tab = segment_cost_batch(model, 0.0, 0.0625, y_from, y_to)
    for k, yf in enumerate(y_from):
        for s, yt in enumerate(y_to):
            total, cum_len, _ = path_cost_profile(model, [0.0, 0.0625], [yf, yt])
            assert total == tab.fixed_cost[k, s]
            assert cum_len[-1] == tab.delta_len[k, s]


def test_segment_preconditions():
    model = flat_model()
    for tau in (0.0, -0.5):
        with pytest.raises(ValueError, match="positive"):
            segment_cost_batch(model, 0.0, tau, [0.0], [1.0])
    # A polyline has no zero-width segments, and its prefix starts at 0.
    with pytest.raises(ValueError, match="strictly increasing"):
        path_cost(model, [0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="start at x = 0"):
        path_cost(model, [0.5, 1.0], [0.0, 1.0])


def transition_samples(model, x_start, tau, y_lo, delta, y_from, y_to):
    """The samples entry that sample_transitions gives one transition."""
    transition = (x_start, tau, np.asarray(y_from, dtype=float), np.asarray(y_to, dtype=float))
    (entry,) = sample_transitions(model, [transition], y_lo, delta, budget=8192)
    return entry


@pytest.mark.parametrize(
    "alpha, beta, name",
    [("-1", "1", "alpha"), ("0", "x-0.5", "beta"), ("0.1", "1-2*y", "beta")],
)
def test_negative_rate_is_refused(alpha, beta, name):
    # Direct arcs, a polyline's segments and a smooth candidate's mesh each
    # refuse a rate that is negative at any of their samples, and name the
    # field and the first such sample in index order, at its own (x, y).
    model = flat_model(alpha=alpha, beta=beta)
    rate = model.alpha if name == "alpha" else model.beta
    stage = np.arange(17) / 16
    knots_x, knots_y = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.75, 1.0])
    mesh, h = smooth_mesh(64, 1.0, 16)
    cases = (
        (
            lambda: segment_cost_batch(model, 0.0, 0.25, stage, stage),
            cost._linear_points(16, 0.0, 0.25, *cost._arc_axes(stage, stage)),
        ),
        (
            lambda: path_cost(model, knots_x, knots_y),
            cost._linear_points(16, knots_x[:-1], 0.5, knots_y[:-1], knots_y[1:]),
        ),
        (lambda: smooth_path_cost(model, mesh, mesh * mesh, 2.0 * mesh, h), (mesh, mesh * mesh)),
    )
    for call, points in cases:
        with pytest.raises(NegativeRateError, match=f"rate field '{name}'") as err:
            call()
        xs, ys = np.broadcast_arrays(*points)
        negative = np.broadcast_to(rate.value(xs, ys), xs.shape) < 0
        k = np.unravel_index(np.argmax(negative), xs.shape)
        assert str(err.value).endswith(f"at (x, y) = ({float(xs[k])!r}, {float(ys[k])!r})")


def refused_source(name):
    """(y_lo, delta, transitions) of a shared sample source.

    ``dyadic``, ``off-dyadic`` and ``corner`` are one transition between
    two stages that gather from their lattice, on dyadic steps, on steps
    whose lattice ordinates round differently from the arcs' own, and with
    a lattice corner (0, 79/64) that no arc from the lower 40 ordinates to
    the upper 40 samples (y - x stays below 40/64 on every arc).
    ``windows`` is a descent's window transitions, priced through its cache.
    """
    delta = 1 / 64
    if name == "dyadic":
        return 0.0, delta, [(0.25, 0.5, delta * np.arange(1, 57), delta * np.arange(2, 58))]
    if name == "off-dyadic":
        stage = -0.37 + np.arange(40) / 30
        return -0.37, 1 / 30, [(0.4, 0.1, stage, stage)]
    if name == "corner":
        return 0.0, delta, [(0.0, 1.0, delta * np.arange(40), delta * np.arange(40, 80))]
    return 0.0, delta, window_transitions()


def window_cache(transitions, y_lo=0.0, delta=1 / 64):
    """A descent's cache of the grid whose stages the transitions join."""
    stages = [transition[2] for transition in transitions] + [transitions[-1][3]]
    return localsearch.DescentCache(stages, y_lo, delta)


def pricing_outcome(model, transition, samples):
    """A transition's tableau, or the type and message of its error."""
    try:
        return segment_cost_batch(model, *transition, samples=samples)
    except (NegativeRateError, ExprDomainError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "alpha, beta, phi, source, error",
    [
        ("(x-0.5)^2+(y-0.5)^2-0.001", "1", None, "dyadic", NegativeRateError),
        ("0", "(x-0.5)^2+(y-0.4375)^2-0.001", None, "dyadic", NegativeRateError),
        ("(x-0.5)^2+(y-0.5)^2-0.001", "1", "sin(5*x)*sin(y)", "dyadic", NegativeRateError),
        ("1-2*exp(-400*((x-0.5)^2+(y-0.5)^2))", "1", None, "off-dyadic", NegativeRateError),
        ("0", "1+sqrt(x-0.5)", None, "dyadic", ExprDomainError),
        ("x+0.9-y", "1", None, "corner", None),
        ("0", "1+sqrt(x+0.9-y)", None, "corner", None),
        ("0.1", "1", "sqrt(x+0.9-y)", "corner", None),
        ("0.92-x", "1", None, "windows", NegativeRateError),
        ("0", "0.5+sqrt(0.95-x)", None, "windows", ExprDomainError),
    ],
    ids=[
        "alpha",
        "beta",
        "full3d",
        "alpha-off-dyadic",
        "sqrt-read",
        "alpha-unread",
        "sqrt-unread",
        "phi-unread",
        "run-alpha",
        "run-sqrt",
    ],
)
def test_a_refused_shared_source_prices_its_arcs_directly(alpha, beta, phi, source, error):
    # A stage lattice or a descent cache's pricing holding a negative rate
    # sample or a point a field refuses is not shared: its transitions get
    # None and price their arcs from their own points, which gives direct
    # pricing's tableau where no arc reads the refused samples and direct
    # pricing's error, in stage order, where one does.
    if phi is None:
        model = flat_model(alpha=alpha, beta=beta)
    else:
        model = full3d_model(phi, alpha=alpha, beta=beta)
    y_lo, delta, transitions = refused_source(source)
    tableaux = window_cache(transitions) if source == "windows" else None
    entries = list(sample_transitions(model, transitions, y_lo, delta, 8192, tableaux))
    assert entries == [None] * len(transitions)
    outcomes = []
    for transition, entry in zip(transitions, entries):
        outcome = pricing_outcome(model, transition, entry)
        direct = pricing_outcome(model, transition, None)
        if isinstance(outcome, cost.SegmentTableau):
            for got, want in zip(outcome, direct):
                assert np.array_equal(got, want) and np.all(np.isfinite(got))
        else:
            assert outcome == direct
        outcomes.append(outcome)
    errors = [outcome for outcome in outcomes if not isinstance(outcome, cost.SegmentTableau)]
    assert [kind for kind, _ in errors[:1]] == ([error] if error else [])
    if error is NegativeRateError:
        name, x, y = re.search(r"'(\w+)' .* = \((.+), (.+)\)$", errors[0][1]).groups()
        assert getattr(model, name).value(float(x), float(y)) < 0


# ---------------------------------------------------------------------------
# summation order


def test_running_sum_branches_give_the_same_bits():
    # Row adds in index order give np.add.accumulate's bits on narrow rows,
    # on ritz's (16, 511) prefix and on wide rows alike.
    rng = np.random.default_rng(7)
    for shape in ((17,), (17, 1), (17, 5), (16, 511), (17, 1024), (17, 3, 4)):
        rows = rng.normal(size=shape)
        summed = cost._running_sum(rows.copy())
        assert summed.tobytes() == np.add.accumulate(rows, axis=0).tobytes()


@pytest.mark.parametrize(
    "shape",
    [(15, 1), (15, 2), (15, 3, 1), (15, 1, 7), (15, 511), (15, 8192), "F(15, 511)"],
    ids=str,
)
def test_trapz_sums_interior_rows_in_index_order(monkeypatch, shape):
    # A first interior row of 2^53 absorbs each later row below 1 added
    # alone, but not their sum, so summing them first (pairwise) shows.
    fortran = isinstance(shape, str)
    shape = (15, 511) if fortran else shape
    g = np.random.default_rng(3).uniform(0.25, 0.75, (shape[0] + 2, *shape[1:]))
    g[1] = 2.0**53
    if fortran:
        g = np.asfortranarray(g)
    total = g[1].copy()
    for row in g[2:-1]:
        total = total + row
    seen = []
    monkeypatch.setattr(cost, "_trapezoid", lambda first, interior, last, h: seen.append(interior))
    cost._trapz(g.copy(order="A"), 0.5)
    assert seen[0].shape == total.shape and seen[0].tobytes() == total.tobytes()


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_an_arc_prices_the_same_bits_in_any_batch(make_spec):
    # A one-segment polyline, the one-arc batch and the same arc inside a
    # 1,200-arc batch give equal entries.
    model = make_spec().model
    tau, y0, y1 = 0.0625, 0.3, 0.41
    total, cum_len, _ = path_cost_profile(model, [0.0, tau], [y0, y1])
    single = segment_cost_batch(model, 0.0, tau, [y0], [y1])
    assert total == single.fixed_cost[0, 0]
    assert cum_len[-1] == single.delta_len[0, 0]
    y_from, y_to = np.linspace(0.0, 1.0, 40), np.linspace(0.0, 1.0, 30)
    y_from[17], y_to[11] = y0, y1
    wide = segment_cost_batch(model, 0.0, tau, y_from, y_to)
    for got, want in zip(wide, single):
        assert got[17, 11] == want[0, 0]


# ---------------------------------------------------------------------------
# stage samples on the fine lattice


def assert_tableaux_close(a, b, rel):
    for got, want in zip(a, b):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= rel * np.abs(want))


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_gathered_tableau_equals_direct_pricing(make_spec):
    # Whole 65-node stages, and blocks whose ordinates start off the lowest
    # lattice row, price the same from the stage lattice as directly.
    model = make_spec().model
    delta, tau, x0 = 1 / 64, 1 / 16, 0.3125
    stage = delta * np.arange(65)
    for y_from, y_to in ((stage, stage), (stage[5:40], stage[20:])):
        samples = transition_samples(model, x0, tau, 0.0, delta, y_from, y_to)
        assert samples.fields.shape[1:] == (17, (y_to[-1] - y_from[0]) / delta * 16 + 1)
        direct = segment_cost_batch(model, x0, tau, y_from, y_to)
        for block in (y_to, y_to[7:19]):
            gathered = segment_cost_batch(model, x0, tau, y_from, block, samples=samples)
            reference = segment_cost_batch(model, x0, tau, y_from, block)
            assert_tableaux_close(gathered, reference, 1e-13)
        assert_tableaux_close(
            segment_cost_batch(model, x0, tau, y_from, y_to, samples=samples), direct, 1e-13
        )


def reference_gather(lattice, y_from, y_to):
    """Each field's samples of the arcs y_from x y_to, taken by flat index."""
    _, rows, m = lattice.fields.shape
    q = rows - 1
    j = np.arange(rows)[:, None, None]
    kf, kt = (
        np.rint((y - lattice.y_lo) / lattice.delta).astype(np.intp) - lattice.k_lo
        for y in (np.reshape(y_from, (-1, 1)), np.reshape(y_to, (1, -1)))
    )
    flat = j * m + kf * (q - j) + kt * j
    return [field.take(flat) for field in lattice.fields]


def lattice_cases():
    """Stage pairs on the lattice k/64, k >= 3, with blocks of to-nodes.

    Block ordinates are consecutive, leave a hole, are a single ordinate
    or start above the lattice's lowest ordinate.
    """
    stage = np.arange(3, 68) / 64
    holed = np.delete(stage, np.s_[20:31])
    return [
        # dense stages, and blocks that start above the lowest ordinate
        (stage, stage, [(stage, stage), (stage, stage[7:19]), (stage[2:50], stage[40:41])]),
        # stages with a hole
        (holed, holed, [(holed, holed), (holed, holed[15:30]), (holed[10:], holed[:1])]),
        # a single-ordinate stage on either side
        (stage, stage[30:31], [(stage, stage[30:31]), (stage[9:], stage[30:31])]),
        (stage[30:31], stage, [(stage[30:31], stage), (stage[30:31], stage[5:9])]),
    ]


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_gather_reads_each_arcs_lattice_entries(make_spec):
    # Sample j of the arc from ordinate k_lo + k to k_lo + s is lattice
    # entry (j, k*(q - j) + s*j), bit for bit, in every streamed row.
    model = make_spec().model
    delta, tau, x0 = 1 / 64, 1 / 16, 0.3125
    for y_from, y_to, blocks in lattice_cases():
        lattice = cost._sample_lattice(model, 0.0, delta, x0, tau, y_from, y_to)
        assert lattice.k_lo == 3
        assert lattice.fields.shape[0] == (2 if model.mode is CostMode.FLAT_2D else 4)
        for block_from, block_to in blocks:
            rows = list(lattice.rows(*cost._arc_axes(block_from, block_to)))
            reference = reference_gather(lattice, block_from, block_to)
            assert len(rows) == 17
            for j, row in enumerate(rows):
                fields = [v for v in row if v is not None]
                assert len(fields) == len(reference)
                for got, want in zip(fields, reference):
                    assert got.shape == (block_from.size, block_to.size)
                    assert np.array_equal(got, want[j])


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_a_lattice_block_has_the_bits_of_integrate_on_its_gathered_samples(make_spec, q):
    # A block priced from the stage lattice, as the sweep prices it, has the
    # bits of the whole-batch kernel fed the same samples as one
    # (q + 1, F, T) batch, in flat 2-D and in full 3-D alike.
    model = make_spec(q).model
    delta, tau, x0 = 1 / 64, 1 / 16, 0.3125
    for y_from, y_to, blocks in lattice_cases():
        lattice = cost._sample_lattice(model, 0.0, delta, x0, tau, y_from, y_to)
        for block_from, block_to in blocks:
            y_f, y_t = cost._arc_axes(block_from, block_to)
            shape = (q + 1, block_from.size, block_to.size)
            gathered = cost._Samples(*reference_gather(lattice, block_from, block_to))
            whole = cost._integrate(gathered, (y_t - y_f) / tau, tau / q, shape)
            priced = segment_cost_batch(model, x0, tau, block_from, block_to, samples=lattice)
            for got, want in zip(priced, whole):
                assert got.shape == want.shape == shape[1:]
                assert np.array_equal(got, want)


def exact_straight_tableau(samples, yp, h, shape):
    """Each piece's (fixed, slope, delta_len) as Fractions, flattened.

    The trapezoid sums of the piece's float samples, scaled by its float
    step h * phi with phi = sqrt(1 + yp^2) as the kernel rounds it: the
    prefix length at sample j is j * h * phi.
    """
    q = shape[0] - 1
    alpha, beta = (np.broadcast_to(v, shape).reshape(q + 1, -1) for v in samples[:2])
    phi = np.broadcast_to(np.sqrt(1.0 + yp * yp), shape[1:]).ravel()
    h = np.broadcast_to(h, shape[1:]).ravel()
    half = Fraction(1, 2)
    entries = []
    for p in range(alpha.shape[1]):
        a, b = ([Fraction(float(v)) for v in rate[:, p]] for rate in (alpha, beta))
        step = Fraction(float(h[p])) * Fraction(float(phi[p]))
        slope = step * (half * (a[0] + a[q]) + sum(a[1:q]))
        build = step * (half * (b[0] + b[q]) + sum(b[1:q]))
        delivery = step * step * (half * q * a[q] + sum(j * a[j] for j in range(1, q)))
        entries.append((delivery + build, slope, q * step))
    return entries


def straight_flat_cases():
    """(samples, yp, h, shape) of straight flat pieces.

    ridge2d's own samples of one arc, a row of arcs and a block of arcs;
    then, for q = 2, 4 and 16, hand-built samples whose alpha is non-zero
    at one interior sample only, a different one in each piece: the worst
    case for the weighted sum of j * alpha_j.
    """
    model = make_ridge2d_spec().model
    q, tau, x0 = model.quadrature_subdivisions, 0.0625, 0.25
    cases = []
    for y_from, y_to in (
        (0.3, 0.41),
        (np.array([0.0, 0.2, 0.5]), np.array([0.1, 0.3, 0.45])),
        cost._arc_axes(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)),
    ):
        shape = (q + 1,) + np.broadcast(y_from, y_to).shape
        samples = cost._sample(model, *cost._linear_points(q, x0, tau, y_from, y_to))
        cases.append((samples, np.subtract(y_to, y_from) / tau, tau / q, shape))
    rng = np.random.default_rng(3)
    for q in (2, 4, 16):
        alpha = np.zeros((q + 1, q - 1))
        alpha[np.arange(1, q), np.arange(q - 1)] = rng.uniform(0.1, 1.0, q - 1)
        beta = rng.uniform(0.5, 1.5, (q + 1, q - 1))
        yp = rng.uniform(-3.0, 3.0, q - 1)
        cases.append((cost._Samples(alpha, beta), yp, tau / q, (q + 1, q - 1)))
    return cases


@pytest.mark.parametrize(
    "samples, yp, h, shape",
    straight_flat_cases(),
    ids=["single-arc", "one-row", "block", "spike-q2", "spike-q4", "spike-q16"],
)
def test_flat_straight_tableau_matches_exact_trapezoid(samples, yp, h, shape):
    # A straight flat piece's density is the same at every sample, so it is
    # factored out of the sums, whether the rows come as one batch or one at
    # a time; the full-row branch, which a slope broadcast to the sample
    # shape takes, multiplies it in on every row.  All three round the same
    # trapezoid sums, to within 4 eps relative.
    q = shape[0] - 1
    rows = [np.stack([np.broadcast_to(v, shape)[j] for v in samples[:2]]) for j in range(q + 1)]
    tableaux = (
        cost._integrate(samples, yp, h, shape),
        cost._integrate_straight(rows, yp, h),
        cost._integrate(samples, np.broadcast_to(yp, shape), h, shape),
    )
    exact = exact_straight_tableau(samples, yp, h, shape)
    bound = 4 * Fraction(float(np.finfo(float).eps))
    for tableau in tableaux:
        for entry, got in enumerate(tableau):
            assert np.shape(got) == shape[1:]
            for p, value in enumerate(np.ravel(got)):
                want = exact[p][entry]
                assert abs(Fraction(float(value)) - want) <= bound * abs(want)


def test_off_lattice_ordinates_are_not_sampled():
    # On the lattice -0.37 + k/64, neither 0 nor 1 is an ordinate: the
    # transitions holding them are priced directly although they have
    # more arcs than fine lattice rows.
    model = make_ridge2d_spec().model
    stage = -0.37 + np.arange(101) / 64
    transitions = [
        (0.0, 1 / 16, stage, stage),
        (0.0, 1 / 16, np.sort(np.append(stage, 0.0)), stage),
        (0.0, 1 / 16, stage, np.sort(np.append(stage, 1.0))),
    ]
    entries = list(sample_transitions(model, transitions, -0.37, 1 / 64, budget=8192))
    assert isinstance(entries[0], cost._Lattice)
    assert entries[1:] == [None, None]


def window_transitions(n=12, delta=1 / 64):
    """A descent's window transitions on the lattice k * delta.

    Fans from the start and into the terminal, three-node windows along
    the chord, and every third window with a hole, as a mask leaves it.
    """
    xs = np.arange(n + 1) / n
    stages = [np.array([0.0])]
    for i in range(1, n):
        k = round(i / n / delta) + np.array([-2, 0, 1] if i % 3 == 0 else [-1, 0, 1])
        stages.append(delta * k)
    stages.append(np.array([1.0]))
    return [(xs[i], xs[i + 1] - xs[i], stages[i], stages[i + 1]) for i in range(n)]


def count_kernel_calls(monkeypatch) -> list:
    """Record each call of the cost kernel, _integrate."""
    integrate, calls = cost._integrate, []
    monkeypatch.setattr(cost, "_integrate", lambda *args: calls.append(1) or integrate(*args))
    return calls


def assert_direct_bits(model, transitions, entries):
    """Each entry is its transition's tableau, with direct pricing's bits."""
    assert all(isinstance(entry, cost.SegmentTableau) for entry in entries)
    for transition, entry in zip(transitions, entries):
        priced = segment_cost_batch(model, *transition, samples=entry)
        direct = segment_cost_batch(model, *transition)
        for got, want in zip(priced, direct):
            assert got.shape == want.shape == (len(transition[2]), len(transition[3]))
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "make_spec",
    [make_ridge2d_spec, make_relief3d_spec, make_masked_heightmap_spec],
    ids=["flat2d", "full3d", "heightmap"],
)
@pytest.mark.parametrize("q", [2, 16], ids=["q2", "q16"])
def test_a_sweep_without_a_cache_shares_only_stage_lattices(make_spec, q):
    # Without a descent's cache a transition either gathers from its stage
    # lattice or prices its own points.  On the tau 0.25 grid of 9
    # ordinates, a 9 x 9 transition has 81 arcs: more than the 17 fine
    # lattice ordinates at q = 2, which gathers, fewer than the 129 at
    # q = 16, which leaves every transition to its own points.
    spec = make_spec(q)
    grid = build_grid(spec, 0.25, 1 / 8)
    transitions = list(zip(grid.xs, np.diff(grid.xs), grid.stages, grid.stages[1:]))
    entries = list(sample_transitions(spec.model, transitions, 0.0, 1 / 8, 8192))
    assert entries[0] is None and entries[-1] is None
    for entry in entries[1:-1]:
        assert entry is None if q == 16 else isinstance(entry, cost._Lattice)


@pytest.mark.parametrize(
    "make_spec",
    [make_ridge2d_spec, make_relief3d_spec, make_masked_heightmap_spec],
    ids=["flat2d", "full3d", "heightmap"],
)
def test_a_descent_cache_prices_each_run_arc_once(monkeypatch, make_spec):
    # With a descent's cache of the stages' arcs, one sweep of the window
    # transitions looks all 3 + 10 * 9 + 3 arcs up at once; a 20-arc budget
    # prices them in ceil(96 / 20) kernel calls, and a second sweep in none.
    # The tableaux handed out keep direct pricing's bits either way.
    model = make_spec().model
    transitions = window_transitions()
    tableaux = window_cache(transitions)
    calls = count_kernel_calls(monkeypatch)
    for kernel_calls in (math.ceil(96 / 20), 0):
        calls.clear()
        entries = list(sample_transitions(model, transitions, 0.0, 1 / 64, 20, tableaux))
        assert len(calls) == kernel_calls
        assert_direct_bits(model, transitions, entries)


def test_a_cache_keeps_nothing_where_lattice_indices_repeat():
    # 0.5 and 0.51 share the lattice index 1 of y_lo + k/2, so keys could
    # not tell their arcs apart; the cache prices every sweep afresh instead.
    model = flat_model()
    stages = [np.array([0.0]), np.array([0.5, 0.51]), np.array([1.0])]
    transitions = [(0.0, 0.5, stages[0], stages[1]), (0.5, 0.5, stages[1], stages[2])]
    tableaux = localsearch.DescentCache(stages, 0.0, 0.5)
    for _ in range(2):
        entries = list(sample_transitions(model, transitions, 0.0, 0.5, 8192, tableaux))
        assert_direct_bits(model, transitions, entries)


def test_a_run_with_a_negative_rate_sample_is_not_integrated():
    # alpha = 0.92 - x is negative inside the last transition only.  The
    # cache's pricing of the sweep's arcs is refused, so it hands out no
    # tableaux and keeps none: every transition prices its own arcs and the
    # negative rate is refused by the last one, in stage order.
    model = flat_model(alpha="0.92-x")
    transitions = window_transitions()
    tableaux = window_cache(transitions)
    for _ in range(2):
        entries = list(sample_transitions(model, transitions, 0.0, 1 / 64, 8192, tableaux))
        assert entries == [None] * 12
    for transition in transitions[:-1]:
        segment_cost_batch(model, *transition)
    with pytest.raises(NegativeRateError, match=r"'alpha' is negative .* = \(0\.9"):
        segment_cost_batch(model, *transitions[-1])


# ---------------------------------------------------------------------------
# path cost


def test_path_length_functional():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    assert path_cost(flat_model(beta="1"), xs, ys) == pytest.approx(SQRT2, abs=1e-9)


def test_delivery_chord_closed_form():
    xs = np.linspace(0.0, 1.0, 5)
    assert path_cost(flat_model(alpha="1", beta="0"), xs, xs) == pytest.approx(
        1.0, abs=1e-9
    )


def test_grouping_invariance():
    model = make_ridge2d_spec().model
    xs = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(43)
    ys = np.clip(xs + rng.normal(scale=0.1, size=9), 0.0, 1.0)
    ys[0], ys[-1] = 0.0, 1.0
    total = path_cost(model, xs, ys)
    # Reference: one segment at a time, threading the prefix by hand in the
    # stage sweep's association order.
    accumulated = 0.0
    length = 0.0
    for i in range(8):
        tab = segment_cost_batch(model, xs[i], xs[i + 1] - xs[i], [ys[i]], [ys[i + 1]])
        accumulated = (accumulated + tab.fixed_cost[0, 0]) + length * tab.prefix_slope[0, 0]
        length = length + tab.delta_len[0, 0]
    assert total == accumulated


def test_profile_is_cumulative_and_consistent():
    model = make_relief3d_spec().model
    xs = np.linspace(0.0, 1.0, 7)
    ys = xs**2
    total, cum_len, cum_cost = path_cost_profile(model, xs, ys)
    assert cum_len[0] == 0.0 and cum_cost[0] == 0.0
    assert np.all(np.diff(cum_len) > 0)
    assert cum_cost[-1] == total
    assert cum_len[-1] >= 1.0  # arc at least the horizontal run


def test_path_cost_preconditions():
    model = flat_model()
    with pytest.raises(ValueError, match="strictly increasing"):
        path_cost(model, [0.0, 0.5, 0.5], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="start at x = 0"):
        path_cost(model, [0.1, 0.5], [0.0, 0.1])
    with pytest.raises(ValueError, match="matching 1-D"):
        path_cost(model, [0.0, 0.5, 1.0], [0.0, 1.0])


def test_mode_consistency_on_flat_relief():
    # Full 3-D over phi = 0 degenerates to the flattened functional exactly.
    flat = make_ridge2d_spec().model
    full = CostModel(
        alpha=flat.alpha,
        beta=flat.beta,
        phi=field_from_expression("0"),
        mode=CostMode.FULL_3D,
    )
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = rng.integers(2, 9)
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, size=n)), [1.0]])
        ys = np.clip(rng.normal(0.5, 0.3, size=xs.size), 0.0, 1.0)
        assert abs(path_cost(flat, xs, ys) - path_cost(full, xs, ys)) <= 1e-12


def test_quadrature_error_shrinks_quadratically():
    # Trapezoid error is O(q^-2): successive differences shrink ~4x.
    values = []
    for q in (4, 8, 16, 32, 64):
        model = make_ridge2d_spec(q=q).model
        fixed, slope, _ = segment(model, 0.1, 0.1, 0.8, 0.5)
        values.append(fixed + 0.3 * slope)
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    for d1, d2 in zip(diffs, diffs[1:]):
        assert 3.2 <= d1 / d2 <= 4.8


# ---------------------------------------------------------------------------
# smooth candidates


def chord(x):
    return x, np.ones_like(x)


def smooth_cost(model, curve, mesh_points=512, length=1.0):
    xs, h = smooth_mesh(mesh_points, length, model.quadrature_subdivisions)
    ys, yp = curve(xs)
    return smooth_path_cost(model, xs, ys, yp, h)


def test_smooth_matches_polyline_for_linear_path():
    model = make_ridge2d_spec().model
    smooth = smooth_cost(model, chord)
    xs = np.linspace(0.0, 1.0, 512)
    assert abs(smooth - path_cost(model, xs, xs)) <= 1e-6


def test_smooth_chord_length():
    model = flat_model(beta="1")
    smooth = smooth_cost(model, chord)
    assert smooth == pytest.approx(SQRT2, abs=1e-9)


def test_smooth_mesh_precondition():
    with pytest.raises(ValueError, match="64"):
        smooth_mesh(32, 1.0, 16)
    with pytest.raises(ValueError, match="positive"):
        smooth_mesh(512, 0.0, 16)


def test_series_candidate_cost_ridge():
    model = make_ridge2d_spec().model
    cand = RitzCandidate(SERIES_COEFFS_RIDGE, 1.0, 1.0, 512)
    xs = np.linspace(0.0, 1.0, 512)
    ys, _ = candidate_eval(cand, xs)
    assert path_cost(model, xs, ys) == pytest.approx(1.43743, abs=0.005)


def test_series_candidate_cost_relief():
    model = make_relief3d_spec().model
    cand = RitzCandidate(SERIES_COEFFS_RELIEF, 1.0, 1.0, 512)
    smooth = smooth_cost(model, lambda x: candidate_eval(cand, x))
    assert smooth == pytest.approx(1.13763, abs=0.005)
