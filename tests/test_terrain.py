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
