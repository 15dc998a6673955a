"""Sine-series benchmark solver: candidates, objective, minimization."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terracost
from terracost import (
    CostMode,
    CostModel,
    FieldDomainError,
    Heightmap,
    field_from_expression,
    field_from_heightmap,
    smooth_mesh,
    smooth_path_cost,
)
from terracost.cost import _Y_STEP, _sample, at_abscissae, smooth_path_gradient
from terracost.expr import Sampled
from terracost.ritz import (
    RitzCandidate,
    _bfgs,
    _coefficient_gradient,
    _mesh_basis,
    _sample_basis,
    _series,
    candidate_eval,
    minimize,
    objective,
)

from conftest import (
    RIDGE_ALPHA,
    RIDGE_BETA,
    SERIES_COEFFS_RELIEF,
    SERIES_COEFFS_RIDGE,
    make_relief3d_spec,
    make_ridge2d_spec,
)

SQRT2 = float(np.sqrt(2.0))

SPECS = {"ridge2d": make_ridge2d_spec, "relief3d": make_relief3d_spec}


def flat_model(alpha="0", beta="1"):
    return CostModel(
        alpha=field_from_expression(alpha),
        beta=field_from_expression(beta),
        mode=CostMode.FLAT_2D,
    )


# ---------------------------------------------------------------------------
# candidate evaluation


def test_zero_coefficients_give_chord():
    cand = RitzCandidate(np.zeros(4), span=2.0, end_ordinate=1.0)
    y, yp = candidate_eval(cand, 0.8)
    assert y == pytest.approx(0.4, abs=1e-15)
    assert yp == pytest.approx(0.5, abs=1e-15)


def test_single_mode_midspan_value():
    cand = RitzCandidate(np.array([1.0]), span=1.0, end_ordinate=1.0)
    y, _ = candidate_eval(cand, 0.5)
    assert y == pytest.approx(1.5, abs=1e-15)  # chord 0.5 plus sin(pi/2)


def test_boundary_conditions_structural():
    rng = np.random.default_rng(53)
    for _ in range(20):
        coeffs = rng.normal(scale=0.5, size=10)
        cand = RitzCandidate(coeffs, span=1.0, end_ordinate=1.0)
        y0, _ = candidate_eval(cand, 0.0)
        yl, _ = candidate_eval(cand, 1.0)
        assert y0 == 0.0
        assert abs(yl - 1.0) <= 1e-12


def test_candidate_eval_vectorized():
    cand = RitzCandidate(np.array([0.3, -0.2, 0.1]), span=1.0, end_ordinate=1.0)
    xs = np.linspace(0.0, 1.0, 17)
    y, yp = candidate_eval(cand, xs)
    for i, x in enumerate(xs):
        sy, syp = candidate_eval(cand, float(x))
        assert y[i] == sy
        assert yp[i] == syp


@pytest.mark.parametrize("basis_size", [1, 3, 10])
def test_series_sums_terms_in_index_order(basis_size):
    # Reference: each sample's terms added one at a time, k = 1..K, in
    # Python floats, then the chord.
    xs = np.linspace(0.0, 1.0, 17)
    basis = _sample_basis(xs, basis_size, 1.0, 1.0)
    a = np.random.default_rng(basis_size).normal(scale=0.3, size=basis_size)
    slopes = basis.freqs * a
    y, yp = _series(basis, a)
    for i in range(xs.size):
        sy = float(a[0] * basis.sin_xk[0, i])
        syp = float(slopes[0] * basis.cos_xk[0, i])
        for k in range(1, basis_size):
            sy += float(a[k] * basis.sin_xk[k, i])
            syp += float(slopes[k] * basis.cos_xk[k, i])
        assert y[i] == basis.chord[i] + sy
        assert yp[i] == basis.chord_slope + syp


def test_slope_matches_finite_differences():
    cand = RitzCandidate(np.array([0.3, -0.2, 0.1]), span=1.0, end_ordinate=1.0)
    h = 1e-7
    for x in (0.1, 0.33, 0.71):
        _, yp = candidate_eval(cand, x)
        ylo, _ = candidate_eval(cand, x - h)
        yhi, _ = candidate_eval(cand, x + h)
        assert yp == pytest.approx((yhi - ylo) / (2 * h), abs=1e-5)


def test_candidate_validation():
    with pytest.raises(ValueError):
        RitzCandidate(np.zeros((2, 2)), span=1.0, end_ordinate=1.0)
    with pytest.raises(ValueError):
        RitzCandidate(np.zeros(3), span=-1.0, end_ordinate=1.0)


# ---------------------------------------------------------------------------
# objective


def test_chord_objective_is_path_length():
    cand = RitzCandidate(np.zeros(5), span=1.0, end_ordinate=1.0)
    assert objective(cand, flat_model()) == pytest.approx(SQRT2, abs=1e-9)


def test_series_objective_ridge():
    cand = RitzCandidate(SERIES_COEFFS_RIDGE, span=1.0, end_ordinate=1.0)
    model = make_ridge2d_spec().model
    assert objective(cand, model) == pytest.approx(1.43743, abs=0.005)


def test_series_objective_relief():
    cand = RitzCandidate(SERIES_COEFFS_RELIEF, span=1.0, end_ordinate=1.0)
    model = make_relief3d_spec().model
    assert objective(cand, model) == pytest.approx(1.13763, abs=0.005)


def uncached_objective(cand, model):
    # The reference: price candidate_eval samples on the objective's own mesh.
    xs, h = smooth_mesh(cand.mesh_points, cand.span, model.quadrature_subdivisions)
    ys, yp = candidate_eval(cand, xs)
    return smooth_path_cost(model, xs, ys, yp, h)


def heightmap_model():
    # A heightmap relief wide enough in y for any test candidate, under
    # x-dependent rates whose y-free parts bind.
    gx, gy = np.linspace(0.0, 1.0, 17), np.linspace(-3.0, 4.0, 29)
    z = 0.2 * np.exp(-((gx[None, :] - 0.6) ** 2 + (gy[:, None] - 0.4) ** 2) / 0.045)
    return CostModel(
        alpha=field_from_expression("0.1*(1+x^2)*cos(y)^2"),
        beta=field_from_expression("0.5+0.1*sin(3*x)"),
        phi=field_from_heightmap(Heightmap(0.0, -3.0, gx[1] - gx[0], gy[1] - gy[0], z)),
        quadrature_subdivisions=16,
    )


BIT_MODELS = {**{name: lambda make=make: make().model for name, make in SPECS.items()},
              "heightmap3d": heightmap_model}


def edge_heightmap_model():
    # heightmap_model's relief on the footprint [0, 1] x [0, 1], so that a
    # curve from (0, 0) to (1, 1) starts on its lower edge.
    gx = gy = np.linspace(0.0, 1.0, 17)
    z = 0.2 * np.exp(-((gx[None, :] - 0.6) ** 2 + (gy[:, None] - 0.4) ** 2) / 0.045)
    return CostModel(
        alpha=field_from_expression("0.1*(1+x^2)*cos(y)^2"),
        beta=field_from_expression("0.5+0.1*sin(3*x)"),
        phi=field_from_heightmap(Heightmap(0.0, 0.0, gx[1] - gx[0], gy[1] - gy[0], z)),
        quadrature_subdivisions=16,
    )


@pytest.mark.parametrize("mesh_points", [64, 512])
@pytest.mark.parametrize("basis_size", [1, 5, 10])
@pytest.mark.parametrize("problem", ["ridge2d", "relief3d", "heightmap3d"])
def test_cached_objective_is_bit_identical(problem, basis_size, mesh_points):
    # ... and so is the objective of the model bound to the mesh, as minimize prices.
    model = BIT_MODELS[problem]()
    xs, _, _ = _mesh_basis(1.0, 1.0, basis_size, mesh_points, model.quadrature_subdivisions)
    bound = at_abscissae(model, xs)
    rng = np.random.default_rng(basis_size * 1000 + mesh_points)
    for _ in range(3):
        coeffs = rng.normal(scale=0.3, size=basis_size)
        cand = RitzCandidate(coeffs, span=1.0, end_ordinate=1.0, mesh_points=mesh_points)
        assert objective(cand, model) == uncached_objective(cand, model)
        assert objective(cand, bound) == objective(cand, model)


def coefficient_gradient(model, a, mesh_points=512):
    # dJ/da by the reverse pass, as minimize takes it.
    xs, h, basis = _mesh_basis(1.0, 1.0, a.size, mesh_points, model.quadrature_subdivisions)
    return _coefficient_gradient(basis, *smooth_path_gradient(model, xs, *_series(basis, a), h))


def central_differences(model, a, mesh_points=512, step=1e-6):
    # A heightmap's partials bend wherever a sample crosses a cell boundary
    # of its C^1 interpolant, and so does the objective; a short step
    # straddles few of those bends.
    def cost(b):
        return objective(RitzCandidate(b, 1.0, 1.0, mesh_points), model)

    return np.array([(cost(a + e) - cost(a - e)) / (2 * step) for e in step * np.eye(a.size)])


@pytest.mark.parametrize("basis_size", [3, 10])
@pytest.mark.parametrize("problem", ["ridge2d", "relief3d", "heightmap3d", "heightmap-edge"])
def test_gradient_matches_central_differences_of_the_objective(problem, basis_size):
    if problem == "heightmap-edge":
        # y = x - 0.99 sin(pi x) / pi leaves (0, 0) at slope 0.01, so the
        # samples next to it lie within the y-step of the footprint's edge
        # y = 0, and every sample's y-partials are taken upward alone.
        model, a = edge_heightmap_model(), -0.99 / np.pi * np.eye(basis_size)[0]
        xs, _, basis = _mesh_basis(1.0, 1.0, basis_size, 512, 16)
        ys = _series(basis, a)[0]
        with pytest.raises(FieldDomainError):
            _sample(model, xs[1:, :1], ys[1:, :1] - _Y_STEP)  # the first cell, but x = 0
    else:
        model = BIT_MODELS[problem]()
        a = np.random.default_rng(basis_size).normal(scale=0.3, size=basis_size)
    gradient, reference = coefficient_gradient(model, a), central_differences(model, a)
    np.testing.assert_allclose(gradient, reference, rtol=0, atol=1e-7 * np.abs(reference).max())


def test_gradient_is_one_sided_where_the_fields_refuse_one_side():
    # sqrt(y - x) refuses every point below the chord and adds nothing to beta
    # above it, so at the chord the gradient is taken upward alone; it agrees
    # with the two-sided one of the same beta without the refusal to rounding,
    # since the one-sided difference is of second order.
    refusing = flat_model(alpha="0.1", beta="1+y^2+0*sqrt(y-x)")
    a = np.zeros(3)
    one_sided = coefficient_gradient(refusing, a, mesh_points=64)
    two_sided = coefficient_gradient(flat_model(alpha="0.1", beta="1+y^2"), a, mesh_points=64)
    assert not np.array_equal(one_sided, two_sided)
    np.testing.assert_allclose(one_sided, two_sided, rtol=0, atol=1e-7 * np.abs(two_sided).max())


def test_a_huge_gradient_leaves_the_chord():
    # Under beta = exp(1000*y) the gradient at the chord is about 1e130; the
    # first step, which moves no coefficient by more than 1, still descends.
    model = flat_model(alpha="0.1", beta="exp(1000*y)")
    result = minimize(model, 1.0, 0.3, basis_size=3, mesh_points=64, budget=10)
    assert result.cost < objective(RitzCandidate(np.zeros(3), 1.0, 0.3, 64), model)


def test_a_gradient_refused_on_both_sides_ends_the_search_at_the_chord():
    # sqrt(-(y - x)^2) is defined on the chord y = x alone: the chord is
    # priced, but its gradient's shifted samples are refused above and below.
    model = flat_model(alpha="0.1", beta="1+sqrt(-(y-x)^2)")
    result = minimize(model, 1.0, 1.0, basis_size=3, mesh_points=64)
    assert result.converged and result.evaluations == 2
    assert not result.candidate.coefficients.any()
    assert result.cost == objective(RitzCandidate(np.zeros(3), 1.0, 1.0, 64), model)


def test_minimize_prices_with_fields_bound_to_the_mesh(monkeypatch):
    # The chord, its gradient and two trials all price one model bound to the mesh.
    models = []
    monkeypatch.setattr(terracost.ritz, "objective", lambda cand, model: models.append(model) or 1.0)

    def gradient(model, xs, ys, yp, h):
        models.append(model)
        return np.ones_like(ys), np.zeros_like(yp)

    monkeypatch.setattr(terracost.ritz, "smooth_path_gradient", gradient)
    model = make_relief3d_spec().model
    minimize(model, 1.0, 1.0, basis_size=2, mesh_points=64, budget=4)
    assert len(models) == 4 and all(m is models[0] for m in models)
    assert isinstance(models[0].phi.expression.root.lhs, Sampled)  # sin(5*x)
    assert models[0].phi.expression.render() == model.phi.expression.render()


def test_bound_model_binds_expression_fields_only():
    model = heightmap_model()
    xs, _ = smooth_mesh(64, 1.0, 16)
    bound = at_abscissae(model, xs)
    assert bound.phi is model.phi
    assert isinstance(bound.beta.expression.root, Sampled)
    assert bound.alpha.expression.render() == model.alpha.expression.render()
    flat = at_abscissae(SPECS["ridge2d"]().model, xs)
    assert flat.phi is None and flat.mode is CostMode.FLAT_2D


def test_basis_cache_keys_on_trial_space():
    # Alternate spans, end ordinates and basis sizes so that a table cached
    # for one trial space would be reused for the next if the key missed.
    model = make_relief3d_spec().model
    coeffs = np.array([0.2, -0.1, 0.05])
    trial_spaces = [(1.0, 1.0, 3), (2.0, 1.0, 3), (2.0, 0.5, 3), (2.0, 0.5, 2), (1.0, 1.0, 3)]
    for span, end, size in trial_spaces:
        cand = RitzCandidate(coeffs[:size], span=span, end_ordinate=end, mesh_points=64)
        assert objective(cand, model) == uncached_objective(cand, model)


def test_basis_tables_reject_writes():
    xs, _, basis = _mesh_basis(1.0, 1.0, 3, 64, 16)
    for table in (xs, basis.freqs, basis.chord, basis.sin_xk, basis.cos_xk):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_import_leaves_scipy_unloaded(tmp_path):
    # Neither importing terracost nor a ritz solve through the CLI loads scipy.
    config = {
        "problem": {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "flat2d"},
        "fields": {"alpha": {"expression": RIDGE_ALPHA}, "beta": {"expression": RIDGE_BETA}},
        "solver": {"method": "ritz", "K": 2, "M": 64, "budget": 200},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = (
        "import sys, terracost, terracost.cli\n"
        "imported = 'scipy' in sys.modules\n"
        "status = terracost.cli.main(['solve', '--config', 'config.json', '--out', 'out'])\n"
        "print(imported, status, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(terracost.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines()[-1] == "False 0 False"


# ---------------------------------------------------------------------------
# minimization


def test_flat_problem_keeps_chord():
    result = minimize(flat_model(), 1.0, 1.0, basis_size=4, budget=4000)
    assert result.cost == pytest.approx(SQRT2, abs=1e-4)
    assert np.all(np.abs(result.candidate.coefficients) < 1e-3)


def test_minimize_never_exceeds_chord_objective(ritz_cached):
    result = ritz_cached("ridge2d", 10)
    chord = RitzCandidate(np.zeros(10), span=1.0, end_ordinate=1.0)
    assert result.cost <= objective(chord, make_ridge2d_spec().model) + 1e-12


def test_minimize_ridge_reaches_benchmark(ritz_cached):
    result = ritz_cached("ridge2d", 10)
    assert result.cost <= 1.4380
    assert result.evaluations <= 50000


def test_minimize_relief_reaches_benchmark(ritz_cached):
    result = ritz_cached("relief3d", 10)
    assert result.cost <= 1.1382
    assert result.evaluations <= 50000


def test_larger_basis_never_worse(ritz_cached):
    for problem in ("ridge2d", "relief3d"):
        small = ritz_cached(problem, 3)
        large = ritz_cached(problem, 10)
        assert large.cost <= small.cost + 1e-6


def test_budget_exhaustion_reported_not_raised():
    model = make_ridge2d_spec().model
    result = minimize(model, 1.0, 1.0, basis_size=10, budget=20)
    assert result.evaluations == 20
    assert not result.converged
    assert result.cost <= objective(RitzCandidate(np.zeros(10), 1.0, 1.0), model)


@pytest.mark.parametrize("budget", [1, 2])
def test_budget_spent_before_the_first_step_keeps_the_chord(budget):
    # 1 prices the chord; 2 adds its gradient, one evaluation whatever K is,
    # so the first line search is cut at its first call.
    model = make_ridge2d_spec().model
    result = minimize(model, 1.0, 1.0, basis_size=10, budget=budget)
    assert result.evaluations == budget
    assert not result.converged
    assert not result.candidate.coefficients.any()
    assert result.cost == objective(RitzCandidate(np.zeros(10), 1.0, 1.0), model)


def test_bfgs_finds_the_minimizer_of_a_convex_quadratic():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    hessian = m @ m.T + np.eye(6)
    target = rng.normal(size=6)
    calls = []

    def fun(a):
        calls.append(a)
        d = a - target
        return 0.5 * d @ hessian @ d + 1.0

    def grad(a):
        calls.append(a)
        return hessian @ (a - target)

    x0 = np.zeros(6)
    x, fx, evaluations, converged = _bfgs(fun, grad, x0, fun(x0), 10000)
    assert converged and evaluations == len(calls) < 10000
    np.testing.assert_allclose(x, target, atol=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_bfgs_backtracks_from_an_unpriced_trial_and_stops_at_an_unpriced_probe():
    # (a - 1)^2 cannot be priced beyond a = 1/2, nor its gradient beyond
    # a = 1/4.  The first step, capped at a move of 1, backtracks from a = 1
    # to a = 1/2; there the gradient cannot be priced, so the search ends at
    # that point, with budget to spare: the value at 0, the gradient at 0,
    # two trials and the gradient at 1/2.
    def fun(a):
        return np.inf if a[0] > 0.5 else float((a[0] - 1.0) ** 2)

    def grad(a):
        return np.full(1, np.nan) if a[0] > 0.25 else 2.0 * (a - 1.0)

    x0 = np.zeros(1)
    x, fx, evaluations, converged = _bfgs(fun, grad, x0, fun(x0), 100)
    assert converged and evaluations == 5
    assert x[0] == 0.5 and fx == fun(x)


@pytest.mark.parametrize("basis_size", [3, 10])
@pytest.mark.parametrize("problem", ["ridge2d", "relief3d"])
def test_minimize_agrees_with_scipy_bfgs(ritz_cached, problem, basis_size):
    optimize = pytest.importorskip("scipy.optimize")
    model = SPECS[problem]().model
    result = ritz_cached(problem, basis_size)

    def fun(a):
        return objective(RitzCandidate(a, 1.0, 1.0), model)

    reference = optimize.minimize(fun, np.zeros(basis_size), method="BFGS")
    assert result.converged
    assert result.cost <= reference.fun * (1 + 1e-9)


def test_minimize_validation():
    with pytest.raises(ValueError, match="basis_size"):
        minimize(flat_model(), 1.0, 1.0, basis_size=0)
    with pytest.raises(ValueError, match="budget"):
        minimize(flat_model(), 1.0, 1.0, budget=0)
