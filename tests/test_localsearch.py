"""Windowed local search: snapping, stepping, descent, convergence."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    NegativeRateError,
    ProblemSpec,
    build_grid,
    dp,
    field_from_expression,
    localsearch,
    path_cost,
)
from terracost.expr import ExprDomainError
from terracost.oracle import enumerate_paths

from conftest import (
    make_flat_spec,
    make_masked_heightmap_spec,
    make_relief3d_spec,
    make_ridge2d_spec,
    record_stage_lattices,
)

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


@pytest.mark.parametrize("m", [1, 2, 40])
def test_windows_hold_the_stage_ordinates_within_reach(m):
    # The keyed cut gives every stage the ordinates a pass over the whole
    # stage finds within (m + 0.5)*delta of the knot: for knots on the
    # lattice, just inside or outside that distance of an ordinate, and
    # anywhere else, on stages the obstacle leaves ragged.
    spec = make_masked_heightmap_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    cache = localsearch.DescentCache(grid.stages, spec.corridor[0], grid.delta)
    reach = (m + 0.5) * grid.delta
    rng = np.random.default_rng(5)
    picks = np.array([stage[rng.integers(stage.size)] for stage in grid.stages])
    for ys in (
        picks,
        picks + reach,
        np.nextafter(picks + reach, np.inf),
        picks - reach,
        rng.uniform(-0.5, 1.5, picks.size),
    ):
        want = [stage[np.abs(stage - y) <= reach] for stage, y in zip(grid.stages, ys)]
        got = cache.windows(ys, m)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_step_requires_positive_window():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 0.25, 0.25)
    inc = localsearch.initial_incumbent(grid, spec)
    with pytest.raises(ValueError, match="m must be >= 1"):
        localsearch.step(inc, 0, grid, spec)


def make_costlier_window_spec() -> ProblemSpec:
    """A delivery rate strong enough that a window sweep can lose to its incumbent."""
    model = CostModel(
        alpha=field_from_expression("3.43*(1+sin(7.371*x)*cos(2.845*y))"),
        beta=field_from_expression("0.456"),
        mode=CostMode.FLAT_2D,
        quadrature_subdivisions=4,
    )
    return ProblemSpec(l=1.0, y_l=-0.9, corridor=(-1.5, 1.5), model=model)


def test_step_keeps_an_incumbent_cheaper_than_its_window_sweep():
    spec = make_costlier_window_spec()
    grid = build_grid(spec, 0.25, 0.25)
    optimum = np.array([0.0, 0.0, -0.25, -0.5, -0.9])
    cost = path_cost(spec.model, grid.xs, optimum)
    assert cost == pytest.approx(3.548971, abs=1e-6)
    assert cost == enumerate_paths(grid, spec).best_cost
    # The scalar-label sweep over the m = 1 windows prices a costlier path.
    reach = 1.5 * grid.delta
    windows = [stage[np.abs(stage - y) <= reach] for stage, y in zip(grid.stages, optimum)]
    sweep = dp.solve(dataclasses.replace(grid, stages=windows), spec)
    assert sweep.ys.tolist() == [0.0, 0.0, 0.0, -0.25, -0.9]
    assert sweep.cost == pytest.approx(3.561985, abs=1e-6)

    stepped = localsearch.step(localsearch.Incumbent(optimum, cost, 0), 1, grid, spec)
    assert np.array_equal(stepped.ys, optimum)
    assert stepped.cost == cost
    traj = localsearch.run(spec, grid, m=1)
    assert np.array_equal(traj.ys, optimum)
    assert traj.cost == cost
    assert traj.diagnostics.iterations == 2
    assert not traj.diagnostics.hit_max_iter


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
    lattices = record_stage_lattices(monkeypatch)
    localsearch.run(spec, grid, m=1)
    assert lattices == []
    dp.solve(grid, spec)
    assert len(lattices) == grid.n - 2


def make_level_relief_spec():
    # Full 3-D over a constant relief, whose partials come back as scalars.
    spec = make_relief3d_spec()
    model = dataclasses.replace(spec.model, phi=field_from_expression("0.3"))
    return dataclasses.replace(spec, model=model)


def step_chain(spec, grid, m=1):
    """The descent :func:`localsearch.run` makes, as a chain of bare steps.

    Each step starts its own cache, so it prices every arc of its windows.
    Returns the last incumbent and each step's cost and evaluation count.
    """
    max_iter = math.ceil(4 * dp.lattice_size(spec.corridor, grid.delta) / m)
    incumbent = localsearch.initial_incumbent(grid, spec)
    costs, evaluations = [], []
    while len(costs) < max_iter:
        nxt = localsearch.step(incumbent, m, grid, spec)
        costs.append(nxt.cost)
        evaluations.append(nxt.evaluations)
        converged = np.array_equal(nxt.ys, incumbent.ys)
        incumbent = nxt
        if converged:
            break
    return incumbent, costs, evaluations


@pytest.mark.parametrize(
    "make_spec",
    [make_ridge2d_spec, make_masked_heightmap_spec, make_level_relief_spec],
    ids=["ridge2d", "masked-heightmap", "level-relief"],
)
@pytest.mark.parametrize("block_arcs", [1, 7, None], ids=["block1", "block7", "default"])
def test_run_is_bit_identical_for_any_block_size(monkeypatch, make_spec, block_arcs):
    # run keeps one cache over its steps, so it prices each window arc once;
    # the reference chain of bare steps prices every window arc at every
    # step.  The cache serves transitions of at most one block: with blocks
    # of one arc only one-arc transitions, and the others sample their own
    # arcs per to-node; blocks of 7 arcs split the 3x3 windows, which price
    # their own points, but leave the fans and the obstacle's ragged
    # windows to the cache, 7 new arcs per kernel call; by default it
    # serves whole window grids.
    spec = make_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    incumbent, costs, evaluations = step_chain(spec, grid)
    if block_arcs is not None:
        monkeypatch.setattr(dp, "_BLOCK_ARCS", block_arcs)
    traj = localsearch.run(spec, grid, m=1)
    assert traj.cost == incumbent.cost == costs[-1]
    assert np.array_equal(traj.ys, incumbent.ys)
    assert traj.diagnostics.iterations == len(costs)
    assert traj.diagnostics.cost_per_iteration == costs
    assert traj.diagnostics.evaluations_per_iteration == evaluations
    assert traj.diagnostics.segment_cost_evaluations == grid.n + sum(evaluations)


class CallCountingField:
    """A field that counts its evaluation calls and the points of those calls."""

    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.points = 0

    def value(self, x, y):
        self.calls += 1
        self.points += np.broadcast(x, y).size
        return self.field.value(x, y)

    def value_and_partials(self, x, y):
        self.calls += 1
        self.points += np.broadcast(x, y).size
        return self.field.value_and_partials(x, y)


def counted_fields(spec):
    """The spec with its rate and relief fields counting, and those fields."""
    fields = {
        name: CallCountingField(getattr(spec.model, name)) for name in ("alpha", "beta", "phi")
    }
    return dataclasses.replace(spec, model=dataclasses.replace(spec.model, **fields)), fields


def test_window_grid_samples_its_fields_once():
    # A 16-stage window grid holds at most 3 + 14 * 9 + 3 arcs, one block,
    # all looked up in the step's cache at once: each field is evaluated
    # once per step, not once per transition.
    spec = make_relief3d_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    incumbent = localsearch.initial_incumbent(grid, spec)
    fields = {
        name: CallCountingField(getattr(spec.model, name)) for name in ("alpha", "beta", "phi")
    }
    spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, **fields))
    localsearch.step(incumbent, 1, grid, spec)
    assert [field.calls for field in fields.values()] == [1, 1, 1]


@pytest.mark.parametrize(
    "make_spec", [make_relief3d_spec, make_masked_heightmap_spec], ids=["relief3d", "heightmap"]
)
def test_run_samples_each_window_arc_once(monkeypatch, make_spec):
    # Over a whole descent each field is sampled at the q + 1 points of
    # every distinct window arc once, and at those of the chord's segments.
    spec, fields = counted_fields(make_spec())
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    windows, solve = [], dp.solve
    monkeypatch.setattr(dp, "solve", lambda grid, *args: windows.append(grid) or solve(grid, *args))
    traj = localsearch.run(spec, grid, m=1)
    arcs = {
        (i, a, b)
        for window in windows
        for i in range(grid.n)
        for a in window.stages[i].tolist()
        for b in window.stages[i + 1].tolist()
    }
    q = spec.model.quadrature_subdivisions
    assert len(windows) == traj.diagnostics.iterations > 2
    assert len(arcs) < traj.diagnostics.segment_cost_evaluations - grid.n
    assert [field.points for field in fields.values()] == [(len(arcs) + grid.n) * (q + 1)] * 3


def test_a_warm_cache_prices_no_arc_again():
    spec, fields = counted_fields(make_relief3d_spec())
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    incumbent = localsearch.initial_incumbent(grid, spec)
    cache = localsearch.DescentCache(grid.stages, spec.corridor[0], grid.delta)
    first = localsearch.step(incumbent, 1, grid, spec, cache)
    calls = [field.calls for field in fields.values()]
    assert calls == [2, 2, 2]  # the chord, then the window grid
    again = localsearch.step(incumbent, 1, grid, spec, cache)
    assert [field.calls for field in fields.values()] == calls
    assert np.array_equal(again.ys, first.ys) and again.cost == first.cost
    assert again.evaluations == first.evaluations


# alpha is negative, and beta's sqrt raises, only within about 0.01 of
# (0.5, 0.13), which the descent's windows first reach at its 23rd step.
LATE_NEGATIVE_ALPHA_NEAR_PATH = "0.1-0.2*exp(-4000*((x-0.5)^2+(y-0.13)^2))"
LATE_RAISING_BETA_NEAR_PATH = "0.5+sqrt((x-0.5)^2+(y-0.13)^2-0.0001)"


@pytest.mark.parametrize(
    "name, text, error",
    [
        ("alpha", LATE_NEGATIVE_ALPHA_NEAR_PATH, NegativeRateError),
        ("beta", LATE_RAISING_BETA_NEAR_PATH, ExprDomainError),
    ],
    ids=["negative-alpha", "raising-beta"],
)
def test_errors_at_arcs_a_later_step_reaches_are_those_of_bare_steps(name, text, error):
    # Arcs the cache already holds are not sampled again, so the first step
    # to reach the refused points samples only its new arcs, and its sweep
    # falls back to pricing each transition directly, in stage order.
    reference = make_relief3d_spec()
    model = dataclasses.replace(reference.model, **{name: field_from_expression(text)})
    spec = dataclasses.replace(reference, model=model)
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    incumbent = localsearch.initial_incumbent(grid, spec)
    with pytest.raises(error) as bare:
        for steps in range(1, 100):
            incumbent = localsearch.step(incumbent, 1, grid, spec)
    assert steps > 20
    with pytest.raises(error) as cached:
        localsearch.run(spec, grid, m=1)
    assert str(cached.value) == str(bare.value)


def step_error(monkeypatch, fields, block_arcs=None):
    """The error of one m = 1 step from the chord with the given rate fields."""
    spec = make_relief3d_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    incumbent = localsearch.initial_incumbent(grid, spec)
    fields = {name: field_from_expression(text) for name, text in fields.items()}
    spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, **fields))
    with monkeypatch.context() as patch:
        if block_arcs is not None:
            patch.setattr(dp, "_BLOCK_ARCS", block_arcs)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as err:
                localsearch.step(incumbent, 1, grid, spec)
    return err.value


# alpha turns negative past x ~ 0.834, inside the transition from stage 13
# to 14; beta is inf - inf past x ~ 0.919, inside the one from 14 to 15; the
# sqrt in beta raises past x = 0.95, inside the last transition.
LATE_NEGATIVE_ALPHA = "0.1-exp(400*(x-0.84))"
LATE_NAN_BETA = "exp(9000*(x-0.84))-exp(9000*(x-0.84))"
LATE_RAISING_BETA = "0.5+sqrt(0.95-x)"


@pytest.mark.parametrize(
    "fields, error, match",
    [
        ({"alpha": LATE_NEGATIVE_ALPHA}, NegativeRateError, r"'alpha' is negative .* = \(0\.8"),
        ({"beta": LATE_NAN_BETA}, ValueError, r"non-finite cost-to-come at stage 15 "),
        (
            {"alpha": LATE_NEGATIVE_ALPHA, "beta": LATE_RAISING_BETA},
            NegativeRateError,
            r"'alpha' is negative .* = \(0\.8",
        ),
    ],
    ids=["negative-alpha", "nan-beta", "negative-alpha-then-raising-beta"],
)
def test_window_errors_name_their_stage(monkeypatch, fields, error, match):
    # The run samples every window's fields at once, but each transition
    # still checks its own rates and labels in stage order, so the error is
    # the one a sweep sampling transition by transition raises.
    grouped = step_error(monkeypatch, fields)
    alone = step_error(monkeypatch, fields, block_arcs=1)
    assert type(grouped) is error and re.search(match, str(grouped))
    assert type(alone) is type(grouped) and str(alone) == str(grouped)


def test_window_rates_are_checked_at_window_arcs_only():
    # alpha is negative only far above the chord, where the full grid's arcs
    # reach but no window arc does.
    reference = make_relief3d_spec()
    alpha = field_from_expression("0.1-exp(400*(y-x-0.4))")
    spec = dataclasses.replace(reference, model=dataclasses.replace(reference.model, alpha=alpha))
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    with pytest.raises(NegativeRateError):
        dp.solve(grid, spec)
    traj = localsearch.run(spec, grid, m=1)
    assert traj.cost == pytest.approx(localsearch.run(reference, grid, m=1).cost, rel=1e-9)


def test_max_iter_flagged_not_raised():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    traj = localsearch.run(spec, grid, m=1, max_iter=2)
    assert traj.diagnostics.iterations == 2
    assert traj.diagnostics.hit_max_iter


def test_max_iter_below_one_is_refused():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        localsearch.run(spec, grid, m=1, max_iter=0)


def test_default_max_iter_scales_with_lattice():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.5)
    traj = localsearch.run(spec, grid, m=1)
    lattice = dp.lattice_size(spec.corridor, grid.delta)
    assert traj.diagnostics.iterations <= 4 * lattice
    assert not traj.diagnostics.hit_max_iter
