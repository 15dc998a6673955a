"""Cost functional: arc element, segment pricing, path and smooth costs.

Every evaluator shares one quadrature kernel, so the arc element and the
segment prices are checked through ``segment_cost_batch`` and ``path_cost``.

Closed-form checks anchor the quadrature: on flat terrain with constant
rates every integral here has an exact value.  The frozen series
coefficients in conftest probe the two benchmark problems end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    field_from_expression,
    path_cost,
    path_cost_profile,
    segment_cost_batch,
    smooth_mesh,
    smooth_path_cost,
)
from terracost.ritz import RitzCandidate, candidate_eval

from conftest import (
    SERIES_COEFFS_RELIEF,
    SERIES_COEFFS_RIDGE,
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
