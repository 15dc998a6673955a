"""Grid construction, the forward sweep, and the refinement schedule."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    Heightmap,
    NegativeRateError,
    ProblemSpec,
    build_grid,
    cost,
    default_corridor,
    dp,
    field_from_expression,
    field_from_heightmap,
    localsearch,
    path_cost,
    path_cost_profile,
    refinement_schedule,
    segment_cost_batch,
    solve,
    solve_refined,
)

from conftest import (
    make_flat_spec,
    make_masked_heightmap_spec,
    make_relief3d_spec,
    make_ridge2d_spec,
    record_stage_lattices,
)

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
    with pytest.raises(ValueError, match=r"terminal point \(1.0, 1.0\) is infeasible"):
        ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model, mask=mask)
    mask = field_from_expression("0.5-y")  # forbids y < 0.5
    with pytest.raises(ValueError, match=r"start point \(0, 0\) is infeasible"):
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


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_single_ordinate_stage_prices_its_own_polyline(monkeypatch, make_spec):
    # The mask leaves stage 3 (x = 0.75) the one ordinate 0.25, so the sweep
    # prices (N, 1) and (1, 1) arc batches next to its (N, N) ones.  Sums
    # over samples run in index order whatever the batch shape, so the
    # terminal label equals the path cost of the knots bit for bit (on
    # ridge2d a pairwise sum over the (1, 1) batch's samples changes J's
    # last bit).  Nothing gathers on this small lattice.
    lattices = record_stage_lattices(monkeypatch)
    mask = field_from_expression("(abs(y-0.25)-0.01)*(0.01-abs(x-0.75))")
    spec = dataclasses.replace(make_spec(), mask=mask)
    grid = build_grid(spec, 0.25, 0.125)
    assert grid.stages[3].tolist() == [0.25]
    assert grid.stages[2].size == 8
    traj = solve(grid, spec)
    assert lattices == []
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


def make_holed_ridge2d_spec() -> ProblemSpec:
    # A circular obstacle of radius 0.2 on the chord leaves the stages at
    # 0.3 < x < 0.7 with a hole between their lower and upper ordinates.
    mask = field_from_expression("0.04-(x-0.5)^2-(y-0.45)^2")
    return dataclasses.replace(make_ridge2d_spec(), mask=mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 3), (4, 2)], ids=str)
def test_scalar_relaxation_has_the_bits_of_the_array_one(shape):
    # A small block is relaxed on Python floats.  Its labels have the array
    # relaxation's bits, and its choices are argmin's, among ties, signed
    # zeros, infinities and NaNs too (a NaN label, which stops the sweep,
    # may differ in its sign and payload).
    rng = np.random.default_rng(3)
    pool = np.array([0.0, -0.0, 0.25, 0.5, 1.0, 1.0 + 2**-52, np.inf, np.nan])
    for _ in range(400):
        d, length = rng.choice(pool[:6], size=(2, shape[0]))
        tab = cost.SegmentTableau(*rng.choice(pool, size=(3, *shape), p=[0.14] * 6 + [0.08] * 2))
        with np.errstate(invalid="ignore"):
            want = dp._relax(d, length, tab)
        got = dp._relax_scalars(d.tolist(), length.tolist(), tab)
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1:], want[1:]):
            a = np.array(a)
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.array_equal(a[~np.isnan(a)].view(np.int64), b[~np.isnan(b)].view(np.int64))


@pytest.mark.parametrize(
    "make_spec",
    [make_ridge2d_spec, make_relief3d_spec, make_holed_ridge2d_spec],
    ids=["ridge2d", "relief3d", "holed-ridge2d"],
)
@pytest.mark.parametrize("block_arcs", [1, 7, None], ids=["block1", "block7", "default"])
def test_block_split_is_bit_identical(monkeypatch, make_spec, block_arcs):
    # 65x65 pairs per stage fit in one default block, so blocks of 1 and 7
    # arcs are needed to cross block boundaries (7 also splits the first
    # stage's 65 to-nodes unevenly).  With the obstacle, blocks gather
    # from the stage lattice across the holes of their stages.
    spec = make_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    reference = solve(grid, spec)
    if block_arcs is not None:
        monkeypatch.setattr(dp, "_BLOCK_ARCS", block_arcs)
    gapped = []
    rows = cost._Lattice.rows

    def recorded(lattice, y_from, y_to):
        steps = (np.diff(np.ravel(y)) for y in (y_from, y_to))
        gapped.append(any(np.any(step > 1.5 * lattice.delta) for step in steps))
        return rows(lattice, y_from, y_to)

    monkeypatch.setattr(cost._Lattice, "rows", recorded)
    # The bound pass leaves rows out of blocks of 1 or 7 arcs (one to-node
    # each), and out of none of the default one-block transitions, so the
    # priced count depends on the split; each split's calls add up to it.
    grids, calls = record_sweeps(monkeypatch)
    run = dp.solve(grid, spec)
    assert run.cost == reference.cost
    assert np.array_equal(run.ys, reference.ys)
    pruned = assert_calls_are_transitions(grids, calls)
    assert (pruned > 0) == (block_arcs is not None)
    assert priced_arcs(calls) == run.diagnostics.segment_cost_evaluations
    assert gapped and any(gapped) == (spec.mask is not None)


@pytest.mark.parametrize(
    "make_spec", [make_ridge2d_spec, make_relief3d_spec], ids=["ridge2d", "relief3d"]
)
def test_transition_memory_does_not_grow_with_the_lattice(make_spec):
    # The lattice of tau 1/48, delta = tau^1.5 (N = 333) on four stages: a
    # whole-stage tableau would hold 333 * 333 * 17 samples per array (15 MB
    # each, over 100 MB at peak); the memory of a transition does not
    # depend on the number of stages, in flat 2-D or in full 3-D.
    spec = make_spec()
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


# ---------------------------------------------------------------------------
# stage samples on the fine lattice


@pytest.mark.parametrize(
    "corridor", [(0.0, 1.0), (-0.37, 1.2)], ids=["on-lattice", "off-lattice"]
)
def test_gathered_sweep_prices_its_own_polyline(monkeypatch, corridor):
    # Interior transitions gather their samples from the stage lattice; on
    # the lattice -0.37 + k/64 neither endpoint is an ordinate, so their
    # transitions are priced directly.  Either way the terminal label is
    # the polyline's own path cost, up to the rounding of the samples'
    # ordinates.
    lattices = record_stage_lattices(monkeypatch)
    spec = dataclasses.replace(make_ridge2d_spec(), corridor=corridor)
    grid = build_grid(spec, 1 / 16, 1 / 64)
    traj = solve(grid, spec)
    assert len(lattices) == grid.n - 2
    assert traj.cost == pytest.approx(path_cost(spec.model, traj.xs, traj.ys), rel=1e-12, abs=0)


def test_negative_rate_on_interior_arcs_is_refused():
    # alpha dips below zero in a small patch around (0.5, 0.5), which only
    # the gathered interior transitions sample.
    spec = make_ridge2d_spec()
    model = dataclasses.replace(
        spec.model, alpha=field_from_expression("1-2*exp(-400*((x-0.5)^2+(y-0.5)^2))")
    )
    spec = dataclasses.replace(spec, model=model)
    with pytest.raises(NegativeRateError, match="rate field 'alpha'") as err:
        solve(build_grid(spec, 1 / 16, 1 / 64), spec)
    point = re.search(r"at \(x, y\) = \((.+), (.+)\)$", str(err.value))
    x, y = float(point[1]), float(point[2])
    assert 1 / 16 < x < 15 / 16
    assert model.alpha.value(x, y) < 0


def test_gathered_negative_rate_names_the_direct_sample(monkeypatch):
    # On dyadic steps the lattice points are the arcs' own sample points,
    # so the sweep refuses the same sample whether its interior
    # transitions gather their samples or price their arcs directly.
    spec = make_ridge2d_spec()
    model = dataclasses.replace(
        spec.model, alpha=field_from_expression("1-2*exp(-400*((x-0.5)^2+(y-0.5)^2))")
    )
    spec = dataclasses.replace(spec, model=model)
    grid = build_grid(spec, 1 / 16, 1 / 64)
    lattices = record_stage_lattices(monkeypatch)
    with pytest.raises(NegativeRateError) as gathered:
        solve(grid, spec)
    assert lattices
    # Every transition priced from its arcs' own samples.
    monkeypatch.setattr(
        dp, "sample_transitions", lambda model, transitions, *args: [None] * len(transitions)
    )
    with pytest.raises(NegativeRateError) as direct:
        solve(grid, spec)
    assert str(gathered.value) == str(direct.value)


class CountingField:
    """A field that counts the points it is evaluated at."""

    def __init__(self, field):
        self.field = field
        self.points = 0

    def value(self, x, y):
        self.points += np.broadcast(x, y).size
        return self.field.value(x, y)

    def value_and_partials(self, x, y):
        self.points += np.broadcast(x, y).size
        return self.field.value_and_partials(x, y)


def test_stage_fields_are_sampled_once_on_the_lattice():
    # Three stages apart: one transition between two full 65-node stages
    # and the two endpoint fans of 65 arcs.  The 65^2 interior arcs sample
    # alpha at the (q + 1) * (64q + 1) lattice points, not at 65^2 * (q + 1);
    # the fans are priced directly.
    spec = make_ridge2d_spec()
    alpha = CountingField(spec.model.alpha)
    spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, alpha=alpha))
    grid = build_grid(spec, 1 / 3, 1 / 64)
    assert [stage.size for stage in grid.stages] == [1, 65, 65, 1]
    solve(grid, spec)
    q = spec.model.quadrature_subdivisions
    assert alpha.points == (q + 1) * (64 * q + 1) + 2 * 65 * (q + 1)


# ---------------------------------------------------------------------------
# the segment_cost_batch calls of a sweep


def record_sweeps(monkeypatch):
    """Record every grid dp.solve sweeps and every segment_cost_batch call."""
    grids, calls = [], []
    batch, solve_grid = dp.segment_cost_batch, dp.solve

    def recorded_batch(*args, **kwargs):
        calls.append(args)
        return batch(*args, **kwargs)

    def recorded_solve(grid, spec, *args):
        grids.append(grid)
        return solve_grid(grid, spec, *args)

    monkeypatch.setattr(dp, "segment_cost_batch", recorded_batch)
    monkeypatch.setattr(dp, "solve", recorded_solve)
    return grids, calls


def assert_calls_are_transitions(grids, calls):
    # In sweep order, each transition's calls take the model, x_start, tau,
    # y_from, y_to positionally; y_from is a contiguous run of the
    # from-stage's ordinates and the calls' y_to concatenate to the whole
    # to-stage: real ordinates only.  Returns how many calls left rows out.
    calls, pruned = iter(calls), 0
    for grid in grids:
        for i in range(grid.n):
            blocks, stage = [], grid.stages[i]
            while sum(block.size for block in blocks) < grid.stages[i + 1].size:
                _, x_start, tau, y_from, y_to = next(calls)
                assert x_start == grid.xs[i] and tau == grid.xs[i + 1] - grid.xs[i]
                lo = int(np.searchsorted(stage, y_from[0]))
                assert np.array_equal(y_from, stage[lo : lo + len(y_from)])
                pruned += len(y_from) < stage.size
                blocks.append(y_to)
            assert np.array_equal(np.concatenate(blocks), grid.stages[i + 1])
    assert next(calls, None) is None
    return pruned


def priced_arcs(calls):
    # The arcs the benchmark counts: size(y_from) * size(y_to) per call.
    return sum(np.size(args[3]) * np.size(args[4]) for args in calls)


def test_batch_calls_price_whole_transitions(monkeypatch):
    # The benchmark counts a sweep's arcs as size(y_from) * size(y_to) over
    # its segment_cost_batch calls and checks the sum against the solver's
    # segment_cost_evaluations, so every call prices a run of one
    # transition's own ordinates, however the fields were sampled.
    grids, calls = record_sweeps(monkeypatch)
    spec = make_ridge2d_spec()
    traj = dp.solve(build_grid(spec, 1 / 16, (1 / 16) ** 1.5), spec)
    assert_calls_are_transitions(grids, calls)
    assert priced_arcs(calls) == traj.diagnostics.segment_cost_evaluations


def test_window_batch_calls_price_whole_transitions(monkeypatch):
    # Same contract for local's window grids, made ragged by the obstacle;
    # local's count also holds the n arcs of pricing the snapped chord.
    grids, calls = record_sweeps(monkeypatch)
    spec = make_masked_heightmap_spec()
    grid = build_grid(spec, 1 / 16, (1 / 16) ** 1.5)
    traj = localsearch.run(spec, grid, m=1)
    assert len(grids) == traj.diagnostics.iterations
    assert any(0 < stage.size < 3 for window in grids for stage in window.stages[1:-1])
    assert assert_calls_are_transitions(grids, calls) == 0
    assert priced_arcs(calls) == traj.diagnostics.segment_cost_evaluations - grid.n


# ---------------------------------------------------------------------------
# the bound pass of a stage-lattice transition


def random_lattice_transition(rng, kind):
    """A random stage-lattice transition: model, x_start, tau, y_from, y_to.

    Rates are non-negative sums of squared sines of random frequency and
    phase, or random constants for ``constant``, whose bounds are tight up
    to rounding for blocks of one to-node; ``full3d`` adds a random relief,
    ``holed`` leaves random gaps in both stages.  Ordinates are exact
    multiples of delta = 1/32.
    """
    def rate(base):
        a, b, fx, fy, p = rng.uniform([0, 0.1, 1, 1, 0], [base, 2, 9, 9, 3]).tolist()
        if kind == "constant":
            return field_from_expression(f"{a + b!r}")
        return field_from_expression(f"{a!r}+{b!r}*sin({fx!r}*x+{fy!r}*y+{p!r})^2")

    phi = None
    if kind == "full3d":
        h, fx, fy = rng.uniform([0.05, 1, 1], [0.4, 6, 6]).tolist()
        phi = field_from_expression(f"{h!r}*sin({fx!r}*x)*cos({fy!r}*y)")
    q = int(rng.choice([2, 4, 8, 16]))
    mode = CostMode.FULL_3D if phi is not None else CostMode.FLAT_2D
    model = CostModel(
        alpha=rate(0.5), beta=rate(1.5), phi=phi, mode=mode, quadrature_subdivisions=q
    )
    stage = np.arange(33) / 32
    y_from, y_to = stage, stage
    if kind == "holed":
        picks = (rng.choice(stage, rng.integers(8, 30), replace=False) for _ in "ft")
        y_from, y_to = map(np.sort, picks)
    x_start, tau = float(rng.uniform(0, 0.9)), float(rng.choice([1 / 8, 1 / 16, 1 / 32]))
    return model, x_start, tau, y_from, y_to


KINDS = ["flat2d", "constant", "full3d", "holed"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_left_out_row_loses_every_column_of_its_block(kind):
    # For random lattices, labels and blocks of 1 to 8 to-nodes, every
    # candidate of a row the bound pass leaves out of a block, priced with
    # every row, exceeds its column's minimum in that block.  So no argmin,
    # label or predecessor can change, ties included.
    rng = np.random.default_rng(KINDS.index(kind))
    rows = left_out = 0
    for _ in range(40):
        model, x_start, tau, y_from, y_to = random_lattice_transition(rng, kind)
        lattice = cost._sample_lattice(model, 0.0, 1 / 32, x_start, tau, y_from, y_to)
        assert isinstance(lattice, cost._Lattice)
        # Labels of a stage: a bowl around a random ordinate plus noise.
        centre, depth = rng.uniform([0, 0], [1, 3])
        d = depth * (y_from - centre) ** 2 + rng.uniform(0, 0.05, y_from.size) + x_start
        length = x_start + rng.uniform(0, 0.5, y_from.size)
        tab = segment_cost_batch(model, x_start, tau, y_from, y_to, samples=lattice)
        candidates = d[:, None] + tab.fixed_cost + length[:, None] * tab.prefix_slope
        width = int(rng.integers(1, 9))
        kept = dp._kept_rows(lattice, tau, y_from, y_to, width, d, length)
        for s, (lo, hi) in zip(range(0, y_to.size, width), kept):
            block = candidates[:, s : s + width]
            out = np.r_[0:lo, hi : y_from.size]
            assert np.all(block[out] > block.min(axis=0))
            rows += y_from.size
            left_out += out.size
    assert left_out > 0.1 * rows


class PoisonedField:
    """A field that is ``poison`` at abscissa ``x_mid``, or at its unread points.

    On the stage lattice of the transition whose midpoint is ``x_mid``,
    sample q/2 of an arc from ordinate k to ordinate s lies at fine index
    (k + s) * q/2, so the points of that abscissa between those indices are
    read by no arc.
    """

    def __init__(self, field, x_mid, step, half, poison, unread_only):
        self.field, self.x_mid, self.step, self.half = field, x_mid, step, half
        self.poison, self.unread_only = poison, unread_only

    def value(self, x, y):
        values = np.array(np.broadcast_to(self.field.value(x, y), np.broadcast(x, y).shape))
        hit = x == self.x_mid
        if self.unread_only:
            hit = hit & (np.rint(y / self.step) % self.half != 0)
        values[np.broadcast_to(hit, values.shape)] = self.poison
        return values


@pytest.mark.parametrize(
    "name, poison, unread_only",
    [("alpha", np.nan, True), ("beta", np.inf, True), ("beta", np.nan, False)],
    ids=["nan-unread", "inf-unread", "nan-read"],
)
def test_a_non_finite_lattice_sample_gives_what_an_unpruned_sweep_gives(
    monkeypatch, name, poison, unread_only
):
    # A NaN or inf sample makes the bounds NaN or inf, which keeps every row
    # of its transition: samples no arc reads leave the solve as it is
    # unpruned, and samples that arcs read stop the sweep with the same
    # error.  _PRUNE_MARGIN = inf keeps every row of every transition.
    spec = make_ridge2d_spec()
    q = spec.model.quadrature_subdivisions
    grid = build_grid(spec, 1 / 16, 1 / 32)
    x_start = grid.xs[5]
    x_mid, step = x_start + grid.tau / 2, grid.delta / q
    field = PoisonedField(getattr(spec.model, name), x_mid, step, q // 2, poison, unread_only)
    spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, **{name: field}))
    monkeypatch.setattr(dp, "_BLOCK_ARCS", 64)

    def run():
        grids, calls = record_sweeps(monkeypatch)
        with np.errstate(invalid="ignore"):
            try:
                traj = dp.solve(grid, spec)
            except ValueError as err:
                return str(err), calls
        return (traj.cost, traj.ys.tolist(), traj.diagnostics.segment_cost_evaluations), calls

    pruned, calls = run()
    poisoned = [args[3].size for args in calls if args[1] == x_start]
    assert poisoned and all(rows == grid.stages[5].size for rows in poisoned)
    monkeypatch.setattr(dp, "_PRUNE_MARGIN", np.inf)
    unpruned, _ = run()
    if unread_only:
        assert pruned[:2] == unpruned[:2]
        assert pruned[2] < unpruned[2]
    else:
        assert pruned == unpruned
        assert pruned.startswith("non-finite cost-to-come at stage 6 ")


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
    [
        (-0.25, 1.0, 0.5, 1),
        (0.25, 0.0, 0.5, 1),
        (0.25, 1.0, -0.1, 1),
        (0.25, 1.0, 0.5, -1),
        (math.nan, 1.0, 0.5, 1),
        (math.inf, 1.0, 0.5, 1),
        (0.25, math.nan, 0.5, 1),
        (0.25, math.inf, 0.5, 1),
        (0.25, 1.0, math.nan, 1),
        (0.25, 1.0, math.inf, 1),
    ],
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
