"""Field implementations: analytic, heightmap interpolation, feasibility."""

from __future__ import annotations

import numpy as np
import pytest

from terracost.terrain import (
    FieldDomainError,
    Heightmap,
    HeightmapField,
    feasible,
    field_from_expression,
    field_from_heightmap,
    load_heightmap,
    write_heightmap,
)


def sin_heightmap(n=64):
    xs = np.linspace(0.0, 1.0, n)
    ys = np.linspace(0.0, 1.0, n)
    z = np.sin(5 * xs[None, :]) * np.sin(ys[:, None])
    return Heightmap(0.0, 0.0, xs[1] - xs[0], ys[1] - ys[0], z)


# ---------------------------------------------------------------------------
# expression fields


def test_flat_expression_field():
    f = field_from_expression("0")
    assert f.value_and_partials(0.3, -1.2) == (0.0, 0.0, 0.0)


def test_expression_field_at_origin():
    f = field_from_expression("sin(5*x)*sin(y)")
    assert f.value_and_partials(0.0, 0.0) == (0.0, 0.0, 0.0)


def test_linear_ramp_field():
    f = field_from_expression("x")
    assert f.value_and_partials(0.7, 0.2) == (0.7, 1.0, 0.0)


def test_expression_field_gradient_matches_finite_differences():
    f = field_from_expression("exp(x/3)*cos(2*y)")
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(50):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        _, dx, dy = f.value_and_partials(x, y)
        fdx = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
        fdy = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
        assert abs(dx - fdx) <= 1e-6 * (1 + abs(dx))
        assert abs(dy - fdy) <= 1e-6 * (1 + abs(dy))


# ---------------------------------------------------------------------------
# heightmap invariants and I/O


def test_heightmap_requires_4x4():
    with pytest.raises(ValueError, match="4x4"):
        Heightmap(0.0, 0.0, 1.0, 1.0, np.zeros((3, 4)))


def test_heightmap_requires_positive_cells():
    with pytest.raises(ValueError, match="positive"):
        Heightmap(0.0, 0.0, 0.0, 1.0, np.zeros((4, 4)))


def test_heightmap_rejects_non_finite():
    z = np.zeros((4, 4))
    z[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Heightmap(0.0, 0.0, 1.0, 1.0, z)


def test_heightmap_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    hm = Heightmap(-1.0, 2.0, 0.25, 0.5, rng.normal(size=(5, 6)))
    path = tmp_path / "terrain.hm"
    write_heightmap(hm, path)
    back = load_heightmap(path)
    assert back.x0 == hm.x0 and back.y0 == hm.y0
    assert back.hx == hm.hx and back.hy == hm.hy
    assert np.array_equal(back.z, hm.z)


def test_heightmap_file_header_validation(tmp_path):
    bad = tmp_path / "bad.hm"
    bad.write_text("4 4 0 0 1\n" + "0 0 0 0\n" * 4)
    with pytest.raises(ValueError, match="header"):
        load_heightmap(bad)


def test_heightmap_file_shape_validation(tmp_path):
    bad = tmp_path / "bad.hm"
    bad.write_text("4 4 0 0 1 1\n" + "0 0 0 0\n" * 3)
    with pytest.raises(ValueError, match="expected"):
        load_heightmap(bad)


# ---------------------------------------------------------------------------
# heightmap interpolation


def test_interpolant_reproduces_nodes():
    rng = np.random.default_rng(5)
    hm = Heightmap(0.5, -0.5, 0.3, 0.7, rng.normal(size=(6, 7)))
    f = field_from_heightmap(hm)
    for r in range(hm.nrows):
        for c in range(hm.ncols):
            v = f.value(hm.x0 + c * hm.hx, hm.y0 + r * hm.hy)
            assert v == pytest.approx(hm.z[r, c], abs=1e-12)


def test_constant_heightmap_is_constant_field():
    hm = Heightmap(0.0, 0.0, 0.1, 0.1, np.full((8, 8), 5.0))
    f = field_from_heightmap(hm)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y = rng.uniform(0.0, 0.7, size=2)
        v, vx, vy = f.value_and_partials(x, y)
        assert v == pytest.approx(5.0, abs=1e-12)
        assert abs(vx) <= 1e-12 and abs(vy) <= 1e-12


def test_interpolant_tracks_analytic_field():
    f = field_from_heightmap(sin_heightmap(64))
    analytic = field_from_expression("sin(5*x)*sin(y)")
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.05, 0.95, size=(1000, 2))
    v = f.value(pts[:, 0], pts[:, 1])
    exact = analytic.value(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(v - exact)) <= 1e-3


def test_interpolant_is_c1_across_cell_boundaries():
    rng = np.random.default_rng(23)
    hm = Heightmap(0.0, 0.0, 0.125, 0.25, rng.normal(size=(9, 9)))
    f = field_from_heightmap(hm)
    for _ in range(100):
        # A point on a vertical cell edge, evaluated from the left cell
        # (tx = 1) and from the right cell (tx = 0) must agree in value and
        # in both derivative components.
        c = rng.integers(1, hm.ncols - 2)
        r = rng.integers(0, hm.nrows - 2)
        ty = rng.uniform(0.0, 1.0)
        left = f._evaluate(np.asarray(c - 1), 1.0, np.asarray(r), ty, True)
        right = f._evaluate(np.asarray(c), 0.0, np.asarray(r), ty, True)
        for a, b in zip(left, right):
            assert abs(float(a) - float(b)) <= 1e-9
        # Same across a horizontal edge.
        r = rng.integers(1, hm.nrows - 2)
        c = rng.integers(0, hm.ncols - 2)
        tx = rng.uniform(0.0, 1.0)
        below = f._evaluate(np.asarray(c), tx, np.asarray(r - 1), 1.0, True)
        above = f._evaluate(np.asarray(c), tx, np.asarray(r), 0.0, True)
        for a, b in zip(below, above):
            assert abs(float(a) - float(b)) <= 1e-9


def test_gradient_matches_finite_differences_inside():
    f = field_from_heightmap(sin_heightmap(48))
    rng = np.random.default_rng(29)
    h = 1e-7
    for _ in range(50):
        x, y = rng.uniform(0.1, 0.9, size=2)
        _, vx, vy = f.value_and_partials(x, y)
        fdx = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
        fdy = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
        # FD straddles cell edges occasionally; C^1 still bounds the error.
        assert abs(vx - fdx) <= 1e-4 * (1 + abs(vx))
        assert abs(vy - fdy) <= 1e-4 * (1 + abs(vy))


def test_query_outside_footprint_raises():
    f = field_from_heightmap(sin_heightmap(8))
    with pytest.raises(FieldDomainError):
        f.value(1.5, 0.5)
    with pytest.raises(FieldDomainError):
        f.value(0.5, -0.2)
    # The exact border is inside.
    f.value(1.0, 1.0)
    f.value(0.0, 0.0)


def test_non_finite_queries_raise():
    # NaN fails every range test, so it is refused like a point outside
    # the footprint, for scalar and array queries alike.
    f = field_from_heightmap(sin_heightmap(8))
    queries = [
        (np.nan, 0.2),
        (0.2, np.nan),
        (np.inf, 0.2),
        (np.array([0.1, np.nan, 0.3]), np.array([0.2, 0.2, 0.2])),
        (np.array([0.1, 0.2]), np.array([-np.inf, 0.5])),
    ]
    for x, y in queries:
        with pytest.raises(FieldDomainError, match="not finite or outside"):
            f.value(x, y)
        with pytest.raises(FieldDomainError):
            f.value_and_partials(x, y)


def reference_interpolant(hm, x, y):
    """Value and partials from each point's clamped 4x4 stencil of samples.

    The Catmull-Rom weights of both axes contracted with the stencil one
    point at a time, with no precomputed coefficients.
    """

    def weights(t):
        return np.stack([-0.5 * t + t * t - 0.5 * t**3, 1.0 - 2.5 * t * t + 1.5 * t**3,
                         0.5 * t + 2.0 * t * t - 1.5 * t**3, -0.5 * t * t + 0.5 * t**3], axis=-1)

    def slopes(t):
        return np.stack([-0.5 + 2.0 * t - 1.5 * t * t, -5.0 * t + 4.5 * t * t,
                         0.5 + 4.0 * t - 4.5 * t * t, -t + 1.5 * t * t], axis=-1)

    def cell(coord, origin, step, count):
        u = np.clip((coord - origin) / step, 0.0, count - 1.0)
        idx = np.minimum(np.floor(u).astype(int), count - 2)
        return idx, u - idx

    (ix, tx), (iy, ty) = cell(x, hm.x0, hm.hx, hm.ncols), cell(y, hm.y0, hm.hy, hm.nrows)
    offs = np.arange(-1, 3)
    rows = np.clip(iy[:, None] + offs, 0, hm.nrows - 1)
    cols = np.clip(ix[:, None] + offs, 0, hm.ncols - 1)
    patch = hm.z[rows[:, :, None], cols[:, None, :]]
    wx, wy, dwx, dwy = weights(tx), weights(ty), slopes(tx), slopes(ty)
    terms = [
        np.einsum("pij,pi,pj->p", patch, wy, wx),
        np.einsum("pij,pi,pj->p", patch, wy, dwx) / hm.hx,
        np.einsum("pij,pi,pj->p", patch, dwy, wx) / hm.hy,
    ]
    # The sums of the terms' magnitudes: the scale of each result's rounding.
    scales = [
        np.einsum("pij,pi,pj->p", np.abs(patch), np.abs(a), np.abs(b)) / h
        for a, b, h in ((wy, wx, 1.0), (wy, dwx, hm.hx), (dwy, wx, hm.hy))
    ]
    return terms, scales


def test_coefficient_interpolant_matches_the_stencil_formula():
    # Random points, the borders of every cell (so t = 0 and, on the last
    # row and column, t = 1) and the footprint's corners.
    rng = np.random.default_rng(41)
    hm = Heightmap(-0.3, 0.2, 0.11, 0.07, rng.normal(size=(9, 12)))
    f = field_from_heightmap(hm)
    gx = hm.x0 + hm.hx * np.arange(hm.ncols)
    gy = hm.y0 + hm.hy * np.arange(hm.nrows)
    border_x, border_y = np.meshgrid(gx, gy)
    xs = [
        rng.uniform(gx[0], gx[-1], 500),
        border_x.ravel(),
        np.full(50, gx[-1]),
        rng.uniform(gx[0], gx[-1], 50),
    ]
    ys = [
        rng.uniform(gy[0], gy[-1], 500),
        border_y.ravel(),
        rng.uniform(gy[0], gy[-1], 50),
        np.full(50, gy[-1]),
    ]
    x, y = np.concatenate(xs), np.concatenate(ys)
    want, scales = reference_interpolant(hm, x, y)
    for got, ref, scale in zip(f.value_and_partials(x, y), want, scales):
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    assert np.array_equal(f.value(x, y), f.value_and_partials(x, y)[0])


def test_array_queries_match_scalar_queries():
    f = field_from_heightmap(sin_heightmap(16))
    rng = np.random.default_rng(31)
    xs = rng.uniform(0.0, 1.0, size=20)
    ys = rng.uniform(0.0, 1.0, size=20)
    v, vx, vy = f.value_and_partials(xs, ys)
    for i in range(20):
        sv, svx, svy = f.value_and_partials(float(xs[i]), float(ys[i]))
        assert v[i] == sv and vx[i] == svx and vy[i] == svy


# ---------------------------------------------------------------------------
# feasibility


def test_no_mask_is_always_feasible():
    assert feasible(None, 12.0, -34.0) is True


def test_mask_sign_convention():
    mask = field_from_expression("y-0.5")
    assert feasible(mask, 0.1, 0.7) is False  # mask > 0: forbidden
    assert feasible(mask, 0.1, 0.5) is True  # boundary counts as feasible
    assert feasible(mask, 0.1, 0.2) is True


def test_feasible_vectorized():
    mask = field_from_expression("y-0.5")
    ys = np.array([0.0, 0.5, 0.7])
    out = feasible(mask, np.zeros(3), ys)
    assert out.tolist() == [True, True, False]
    assert feasible(None, np.zeros(3), ys).tolist() == [True, True, True]
