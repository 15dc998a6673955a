"""Grid construction, the forward sweep, and the refinement schedule."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    Heightmap,
    ProblemSpec,
    build_grid,
    default_corridor,
    dp,
    field_from_expression,
    field_from_heightmap,
    path_cost,
    path_cost_profile,
    refinement_schedule,
    segment_cost_batch,
    solve,
    solve_refined,
)

from conftest import make_flat_spec, make_relief3d_spec, make_ridge2d_spec

SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# problem validation and defaults


def test_default_corridor_expands_bounding_interval():
    assert default_corridor(1.0, 1.0) == (-0.5, 1.5)
    assert default_corridor(1.0, -2.0) == (-3.0, 1.0)


def test_default_corridor_degenerate_fallback():
    assert default_corridor(2.0, 0.0) == (-1.0, 1.0)


def test_spec_requires_corridor_containing_endpoints():
    model = make_flat_spec().model
    with pytest.raises(ValueError, match="start ordinate"):
        ProblemSpec(l=1.0, y_l=1.0, corridor=(0.5, 1.5), model=model)
    with pytest.raises(ValueError, match="outside corridor"):
        ProblemSpec(l=1.0, y_l=2.0, corridor=(-0.5, 1.5), model=model)


def test_spec_requires_feasible_endpoints():
    model = make_flat_spec().model
    mask = field_from_expression("y-0.5")  # forbids y > 0.5
    with pytest.raises(ValueError, match="infeasible"):
        ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model, mask=mask)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_counts():
    spec = ProblemSpec(l=1.0, y_l=1.0, corridor=(-1.0, 2.0), model=make_flat_spec().model)
    grid = build_grid(spec, 0.25, 0.5)
    assert grid.n == 4
    assert grid.stages[0].tolist() == [0.0]
    assert grid.stages[-1].tolist() == [1.0]
    for stage in grid.stages[1:-1]:
        assert stage.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


def test_grid_mask_filters_interior():
    spec = ProblemSpec(
        l=1.0,
        y_l=0.5,
        corridor=(0.0, 1.0),
        model=make_flat_spec().model,
        mask=field_from_expression("y-0.5"),
    )
    grid = build_grid(spec, 0.25, 0.25)
    for stage in grid.stages[1:-1]:
        assert stage.tolist() == [0.0, 0.25, 0.5]


def test_grid_coupling_value():
    # tau = 1/16, eps = 0.5, gamma = 1 couples to delta = 1/64 exactly.
    (tau, delta), = refinement_schedule(1 / 16, 1.0, 0.5, 0)
    assert tau == 1 / 16
    assert delta == 1 / 64


def test_grid_rejects_blocked_corridor():
    # Feasible only at the endpoints: every interior stage filters empty.
    spec = ProblemSpec(
        l=1.0,
        y_l=1.0,
        corridor=(0.0, 1.0),
        model=make_flat_spec().model,
        mask=field_from_expression("0.5-abs(x-0.5)"),
    )
    with pytest.raises(ValueError, match="no feasible ordinates"):
        build_grid(spec, 0.25, 0.25)


def test_grid_step_preconditions():
    spec = make_flat_spec()
    with pytest.raises(ValueError, match="tau"):
        build_grid(spec, 1.5, 0.25)
    with pytest.raises(ValueError, match="delta"):
        build_grid(spec, 0.25, 1.5)


def test_lattice_size():
    spec = make_flat_spec()
    grid = build_grid(spec, 0.25, 0.25)
    assert dp.lattice_size(spec.corridor, grid.delta) == 5


# ---------------------------------------------------------------------------
# solve


def test_single_stage_grid_returns_chord():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1.0, 0.5)
    traj = solve(grid, spec)
    assert traj.xs.tolist() == [0.0, 1.0]
    assert traj.ys.tolist() == [0.0, 1.0]
    chord = segment_cost_batch(spec.model, 0.0, 1.0, [0.0], [1.0])
    assert traj.cost == chord.fixed_cost[0, 0]
    assert traj.diagnostics.segment_cost_evaluations == 1


def heightmap_relief_spec():
    xs = np.linspace(0.0, 1.0, 17)
    ys = np.linspace(-0.25, 1.25, 25)
    z = np.sin(5 * xs[None, :]) * np.sin(ys[:, None]) + 0.3 * xs[None, :] ** 2
    model = CostModel(
        alpha=field_from_expression("0.1"),
        beta=field_from_expression("0.5"),
        phi=field_from_heightmap(Heightmap(0.0, -0.25, xs[1] - xs[0], ys[1] - ys[0], z)),
        mode=CostMode.FULL_3D,
    )
    return ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model)


def test_terminal_label_equals_path_cost():
    # Sweep and polyline pricer share the kernel and the prefix threading
    # order, so re-pricing the solved knots reproduces the label bit for bit.
    for spec in (make_ridge2d_spec(), make_relief3d_spec(), heightmap_relief_spec()):
        grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.25)
        traj = solve(grid, spec)
        assert traj.cost == path_cost(spec.model, traj.xs, traj.ys)


def test_solve_is_deterministic():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    a = solve(grid, spec)
    b = solve(grid, spec)
    assert a.cost == b.cost
    assert np.array_equal(a.ys, b.ys)


def test_tie_breaks_choose_smallest_predecessor():
    # y_l = 0 over a symmetric corridor: the two off-axis middle nodes price
    # identically; the sweep must pick the lower-index (lower ordinate) one.
    model = CostModel(
        alpha=field_from_expression("0"),
        beta=field_from_expression("1"),
        mode=CostMode.FLAT_2D,
    )
    spec = ProblemSpec(l=1.0, y_l=0.0, corridor=(-0.25, 0.25), model=model)
    grid = build_grid(spec, 0.5, 0.5)
    assert grid.stages[1].tolist() == [-0.25, 0.25]
    traj = solve(grid, spec)
    assert traj.ys[1] == -0.25


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
@pytest.mark.parametrize("threads", [1, 4], ids=["threads1", "threads4"])
@pytest.mark.parametrize("block_arcs", [1, 7, None], ids=["block1", "block7", "default"])
def test_threaded_solve_is_bit_identical(monkeypatch, make_spec, threads, block_arcs):
    # 65x65 pairs per stage fit in one default block, so blocks of 1 and 7
    # arcs are needed to cross block boundaries (7 also splits the first
    # stage's 65 to-nodes unevenly).
    spec = make_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    reference = solve(grid, spec, threads=1)
    if block_arcs is not None:
        monkeypatch.setattr(dp, "_BLOCK_ARCS", block_arcs)
    run = solve(grid, spec, threads=threads)
    assert run.cost == reference.cost
    assert np.array_equal(run.ys, reference.ys)
    assert (
        run.diagnostics.segment_cost_evaluations
        == reference.diagnostics.segment_cost_evaluations
    )


def test_transition_memory_does_not_grow_with_the_lattice():
    # The lattice of tau 1/48, delta = tau^1.5 (N = 333) on four stages: a
    # whole-stage tableau would hold 333 * 333 * 17 samples per array (15 MB
    # each, over 100 MB at peak); the memory of a transition does not
    # depend on the number of stages.
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 4, (1 / 48) ** 1.5)
    assert dp.lattice_size(spec.corridor, grid.delta) == 333
    tracemalloc.start()
    try:
        solve(grid, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_sweep_labels_satisfy_invariants():
    # Along the solved trajectory: one knot per stage, each a node of its
    # stage, and the cost/length labels of its prefixes start at 0, grow,
    # and never fall below the horizontal run.
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 0.25, 0.25)
    traj = solve(grid, spec)
    assert traj.xs.tolist() == grid.xs.tolist()
    for i, y in enumerate(traj.ys):
        assert y in grid.stages[i]
    total, cum_len, cum_cost = path_cost_profile(spec.model, traj.xs, traj.ys)
    assert total == traj.cost
    assert cum_cost[0] == 0.0 and cum_len[0] == 0.0
    assert np.all(np.diff(cum_cost) > 0.0)  # beta > 0 on the corridor
    assert np.all(cum_len >= traj.xs - 1e-12)


def test_non_finite_cost_stops_the_sweep():
    # exp(900 y) overflows above y ~ 0.79, so beta is inf - inf = nan there.
    model = CostModel(
        alpha=field_from_expression("0"),
        beta=field_from_expression("exp(900*y)-exp(900*y)"),
        mode=CostMode.FLAT_2D,
    )
    spec = ProblemSpec(l=1.0, y_l=0.5, corridor=(0.0, 1.0), model=model)
    grid = build_grid(spec, 0.25, 0.25)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"stage 1 \(x = 0\.25\)"):
            solve(grid, spec)


def test_ridge_benchmark_value():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 16, 1 / 64)
    traj = solve(grid, spec)
    assert traj.cost == pytest.approx(1.44010, rel=0.01)


# ---------------------------------------------------------------------------
# refinement schedule


def test_schedule_values():
    levels = refinement_schedule(0.25, 1.0, 0.5, 2)
    assert levels[0] == (0.25, 0.125)
    assert levels[1][0] == 0.125
    assert levels[1][1] == pytest.approx(0.125**1.5, abs=1e-15)
    assert levels[2] == (0.0625, 0.015625)


def test_schedule_zero_epsilon_warns():
    with pytest.warns(RuntimeWarning, match="not guaranteed"):
        levels = refinement_schedule(0.25, 1.0, 0.0, 1)
    assert levels == [(0.25, 0.25), (0.125, 0.125)]


@pytest.mark.parametrize(
    "tau0,gamma,epsilon,k_max",
    [(-0.25, 1.0, 0.5, 1), (0.25, 0.0, 0.5, 1), (0.25, 1.0, -0.1, 1), (0.25, 1.0, 0.5, -1)],
)
def test_schedule_rejects_bad_inputs(tau0, gamma, epsilon, k_max):
    with pytest.raises(ValueError):
        refinement_schedule(tau0, gamma, epsilon, k_max)


def test_refined_ridge_sequence():
    spec = make_ridge2d_spec()
    schedule = refinement_schedule(0.25, 1.0, 0.25, 2)
    trajs = solve_refined(spec, schedule)
    expected = [1.49633, 1.45310, 1.44337]
    for traj, value in zip(trajs, expected):
        assert traj.cost == pytest.approx(value, rel=0.01)
    # Monotone refinement trend, 0.5% slack per step.
    for coarse, fine in zip(trajs, trajs[1:]):
        assert fine.cost <= coarse.cost * 1.005


def test_refined_flat_problem_returns_chord_each_level():
    # Chord ordinates must sit on the delta-lattice at every level; eps = 1
    # keeps tau/delta = 2^k so i*tau is always a lattice multiple.
    spec = make_flat_spec(alpha="0", beta="1")
    schedule = refinement_schedule(0.25, 1.0, 1.0, 2)
    for traj in solve_refined(spec, schedule):
        assert traj.cost == pytest.approx(SQRT2, abs=1e-6)
        assert np.allclose(traj.ys, traj.xs, atol=1e-12)


def test_refined_respects_evaluation_bound():
    spec = make_ridge2d_spec()
    schedule = refinement_schedule(0.25, 1.0, 0.5, 2)
    y_lo, y_hi = spec.corridor
    for (tau, delta), traj in zip(schedule, solve_refined(spec, schedule)):
        n = round(spec.l / tau)
        bound = ((y_hi - y_lo) / delta + 1.0) ** 2 * n
        assert traj.diagnostics.segment_cost_evaluations <= bound


def test_refined_requires_nonempty_schedule():
    with pytest.raises(ValueError, match="at least one"):
        solve_refined(make_flat_spec(), [])
