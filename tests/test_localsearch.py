"""Windowed local search: snapping, stepping, descent, convergence."""

from __future__ import annotations

import numpy as np
import pytest

from terracost import (
    ProblemSpec,
    build_grid,
    dp,
    field_from_expression,
    localsearch,
)

from conftest import make_flat_spec, make_relief3d_spec, make_ridge2d_spec

SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# initial incumbent


def test_chord_on_lattice_snaps_exactly():
    spec = make_flat_spec()
    grid = build_grid(spec, 0.25, 0.25)
    inc = localsearch.initial_incumbent(grid, spec)
    assert inc.ys.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_chord_snaps_to_nearest():
    model = make_flat_spec().model
    spec = ProblemSpec(l=1.0, y_l=0.6, corridor=(0.0, 1.0), model=model)
    grid = build_grid(spec, 0.5, 0.25)
    inc = localsearch.initial_incumbent(grid, spec)
    # chord midpoint 0.3 snaps to 0.25
    assert inc.ys[1] == 0.25


def test_chord_snap_ties_down():
    model = make_flat_spec().model
    spec = ProblemSpec(l=1.0, y_l=0.75, corridor=(0.0, 1.0), model=model)
    grid = build_grid(spec, 0.5, 0.25)
    inc = localsearch.initial_incumbent(grid, spec)
    # chord midpoint 0.375 is equidistant from 0.25 and 0.5: lower wins
    assert inc.ys[1] == 0.25


def test_chord_snaps_to_nearest_feasible():
    model = make_flat_spec().model
    mask = field_from_expression("0.1-abs(y-0.5)")  # forbids |y - 0.5| < 0.1
    spec = ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model, mask=mask)
    grid = build_grid(spec, 0.5, 0.25)
    assert 0.5 not in grid.stages[1]
    inc = localsearch.initial_incumbent(grid, spec)
    assert inc.ys[1] == 0.25  # nearest feasible, ties down


def test_initial_incumbent_cost_matches_path_cost():
    from terracost import path_cost

    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    inc = localsearch.initial_incumbent(grid, spec)
    assert inc.cost == path_cost(spec.model, grid.xs, inc.ys)


# ---------------------------------------------------------------------------
# stepping


def test_full_window_step_reproduces_global_sweep():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.25)
    lattice = dp.lattice_size(spec.corridor, grid.delta)
    inc = localsearch.initial_incumbent(grid, spec)
    stepped = localsearch.step(inc, lattice, grid, spec)
    reference = dp.solve(grid, spec)
    assert np.array_equal(stepped.ys, reference.ys)
    assert stepped.cost == reference.cost


def test_window_sizes_bounded():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    inc = localsearch.initial_incumbent(grid, spec)
    m = 2
    stepped = localsearch.step(inc, m, grid, spec)
    # (2m+1)^2 per interior transition plus singleton ends bounds the work
    assert stepped.evaluations <= (2 * m + 1) ** 2 * grid.n


def test_step_requires_positive_window():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 0.25, 0.25)
    inc = localsearch.initial_incumbent(grid, spec)
    with pytest.raises(ValueError, match="m must be >= 1"):
        localsearch.step(inc, 0, grid, spec)


def test_fixed_point_is_idempotent():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    traj = localsearch.run(spec, grid, m=1)
    converged = localsearch.Incumbent(traj.ys, traj.cost, 0)
    again = localsearch.step(converged, 1, grid, spec)
    assert np.array_equal(again.ys, traj.ys)
    assert again.cost == traj.cost


# ---------------------------------------------------------------------------
# full runs


def test_flat_problem_converges_to_chord():
    spec = make_flat_spec(alpha="0", beta="1")
    grid = build_grid(spec, 0.25, 0.25)
    traj = localsearch.run(spec, grid, m=1)
    assert traj.cost == pytest.approx(SQRT2, abs=1e-6)
    assert np.allclose(traj.ys, traj.xs, atol=1e-12)
    assert traj.diagnostics.iterations >= 1
    assert not traj.diagnostics.hit_max_iter


def test_ridge_benchmark_run(local_cached):
    traj = local_cached("ridge2d", 1 / 16, 0.5, 1)
    assert traj.cost == pytest.approx(1.44010, rel=0.01)
    assert traj.diagnostics.iterations <= 90


def test_relief_benchmark_run(local_cached):
    traj = local_cached("relief3d", 1 / 16, 0.5, 1)
    assert traj.cost == pytest.approx(1.13964, rel=0.01)


def test_local_matches_global_sweep_within_tenth_percent(local_cached, dp_cached):
    for problem in ("ridge2d", "relief3d"):
        local_traj = local_cached(problem, 1 / 16, 0.5, 1)
        global_traj = dp_cached(problem, 1 / 16, 0.5)
        assert abs(local_traj.cost - global_traj.cost) <= 1e-3 * global_traj.cost


def test_monotone_descent(local_cached):
    traj = local_cached("ridge2d", 1 / 16, 0.5, 1)
    costs = traj.diagnostics.cost_per_iteration
    assert costs is not None and len(costs) >= 1
    for previous, current in zip(costs, costs[1:]):
        assert current <= previous + 1e-12


def test_per_iteration_work_bound(local_cached):
    traj = local_cached("ridge2d", 1 / 16, 0.5, 1)
    per_iter = traj.diagnostics.evaluations_per_iteration
    assert len(per_iter) == traj.diagnostics.iterations
    grid_n = traj.xs.size - 1
    assert all(e <= 9 * grid_n for e in per_iter)  # (2m+1)^2 * n with m = 1


def test_windows_are_priced_directly(monkeypatch):
    # A window transition holds at most (2m+1)^2 arcs, fewer than the rows
    # of its fine lattice, so local never samples a stage lattice; the
    # global sweep of the same grid samples every interior transition's.
    spec = make_relief3d_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    calls = []
    sample_stage = dp.sample_stage
    monkeypatch.setattr(
        dp, "sample_stage", lambda *args: calls.append(args) or sample_stage(*args)
    )
    localsearch.run(spec, grid, m=1)
    assert calls == []
    dp.solve(grid, spec)
    assert len(calls) == grid.n - 2


def test_max_iter_flagged_not_raised():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    traj = localsearch.run(spec, grid, m=1, max_iter=2)
    assert traj.diagnostics.iterations == 2
    assert traj.diagnostics.hit_max_iter


def test_default_max_iter_scales_with_lattice():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    traj = localsearch.run(spec, grid, m=1)
    lattice = dp.lattice_size(spec.corridor, grid.delta)
    assert traj.diagnostics.iterations <= 4 * lattice
    assert not traj.diagnostics.hit_max_iter
