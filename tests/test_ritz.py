"""Sine-series benchmark solver: candidates, objective, minimization."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terracost
from terracost import CostMode, CostModel, field_from_expression, smooth_mesh, smooth_path_cost
from terracost.ritz import RitzCandidate, _mesh_basis, candidate_eval, minimize, objective

from conftest import (
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
        assert y[i] == pytest.approx(sy, abs=1e-15)
        assert yp[i] == pytest.approx(syp, abs=1e-15)


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


@pytest.mark.parametrize("mesh_points", [64, 512])
@pytest.mark.parametrize("basis_size", [1, 5, 10])
@pytest.mark.parametrize("problem", ["ridge2d", "relief3d"])
def test_cached_objective_is_bit_identical(problem, basis_size, mesh_points):
    model = SPECS[problem]().model
    rng = np.random.default_rng(basis_size * 1000 + mesh_points)
    for _ in range(3):
        coeffs = rng.normal(scale=0.3, size=basis_size)
        cand = RitzCandidate(coeffs, span=1.0, end_ordinate=1.0, mesh_points=mesh_points)
        assert objective(cand, model) == uncached_objective(cand, model)


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


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(terracost.__file__).parents[1]))
    code = "import sys, terracost, terracost.cli; print('scipy' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"


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
    result = minimize(model, 1.0, 1.0, basis_size=10, budget=50)
    # The simplex may finish its in-flight operation (a shrink costs up to
    # basis_size + 1 evaluations) before noticing the cap.
    assert result.evaluations <= 50 + 11
    assert not result.converged


def test_minimize_validation():
    with pytest.raises(ValueError, match="basis_size"):
        minimize(flat_model(), 1.0, 1.0, basis_size=0)
    with pytest.raises(ValueError, match="budget"):
        minimize(flat_model(), 1.0, 1.0, budget=0)
