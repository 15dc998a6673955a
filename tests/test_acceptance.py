"""Acceptance suite: every release criterion with its stated tolerance.

Quantitative criteria (1-7) reproduce the two benchmark problems at desk
scale:

* ridge2d  - flattened corridor problem, delivery cos^2(5x)cos^2(y) and
  construction 1 + sin(5x)sin(y); reference optima near 1.44.
* relief3d - full 3-D problem over sin(5x)sin(y) with constant rates;
  reference optima near 1.14.

Property criteria (8-13) cover the claims with no reference number: exact
closed forms, enumeration equivalence, mode degeneration, derivative
correctness, descent, and bit-level determinism.

Each test prints one PASS/FAIL line per criterion (visible with -s or -rA).
"""

from __future__ import annotations

import json

import numpy as np

from terracost import (
    CostMode,
    CostModel,
    ProblemSpec,
    build_grid,
    dp,
    field_from_expression,
    localsearch,
    path_cost,
    ritz,
)
from terracost.cli import main as cli_main
from terracost.oracle import dp_gap, enumerate_paths

from conftest import (
    RIDGE_ALPHA,
    RIDGE_BETA,
    RELIEF_PHI,
    make_flat_spec,
    make_ridge2d_spec,
)
from test_oracle import random_instance

SQRT2 = float(np.sqrt(2.0))


def check(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def rel_ok(value: float, target: float, tol: float = 0.01) -> bool:
    return abs(value - target) <= tol * abs(target)


# ---------------------------------------------------------------------------
# 1-4: benchmark reproduction


def test_criterion_1_ridge_sweep(dp_cached):
    a = dp_cached("ridge2d", 1 / 8, 0.25)
    b = dp_cached("ridge2d", 1 / 16, 0.5)
    check(
        "criterion 1a (ridge sweep tau=1/8 eps=0.25)",
        rel_ok(a.cost, 1.45310) and a.diagnostics.wall_time <= 120.0,
        f"J={a.cost:.5f} target 1.45310 +-1%, {a.diagnostics.wall_time:.2f}s",
    )
    check(
        "criterion 1b (ridge sweep tau=1/16 eps=0.5)",
        rel_ok(b.cost, 1.44010) and b.diagnostics.wall_time <= 120.0,
        f"J={b.cost:.5f} target 1.44010 +-1%, {b.diagnostics.wall_time:.2f}s",
    )


def test_criterion_2_ridge_local_search(local_cached):
    traj16 = local_cached("ridge2d", 1 / 16, 0.5, 1)
    traj32 = local_cached("ridge2d", 1 / 32, 0.5, 1)
    iters16 = traj16.diagnostics.iterations
    check(
        "criterion 2a (ridge local m=1 tau=1/16)",
        rel_ok(traj16.cost, 1.44010) and iters16 <= 90,
        f"J={traj16.cost:.5f} target 1.44010 +-1%, iterations={iters16} (bound 90)",
    )
    check(
        "criterion 2b (ridge local m=1 tau=1/32)",
        rel_ok(traj32.cost, 1.43368),
        f"J={traj32.cost:.5f} target 1.43368 +-1%",
    )


def test_criterion_3_relief_sweep(dp_cached):
    a = dp_cached("relief3d", 1 / 8, 0.5)
    b = dp_cached("relief3d", 1 / 16, 0.25)
    check(
        "criterion 3a (relief sweep tau=1/8 eps=0.5)",
        rel_ok(a.cost, 1.14476),
        f"J={a.cost:.5f} target 1.14476 +-1%",
    )
    check(
        "criterion 3b (relief sweep tau=1/16 eps=0.25)",
        rel_ok(b.cost, 1.14852),
        f"J={b.cost:.5f} target 1.14852 +-1%",
    )


def test_criterion_4_relief_local_search(local_cached):
    traj = local_cached("relief3d", 1 / 16, 0.5, 1)
    iters = traj.diagnostics.iterations
    check(
        "criterion 4 (relief local m=1 tau=1/16)",
        rel_ok(traj.cost, 1.13964),
        f"J={traj.cost:.5f} target 1.13964 +-1%, iterations={iters}",
    )


# ---------------------------------------------------------------------------
# 5: sine-series benchmark


def test_criterion_5_series_solver(ritz_cached):
    ridge = ritz_cached("ridge2d", 10)
    relief = ritz_cached("relief3d", 10)
    check(
        "criterion 5a (series solver, ridge)",
        ridge.cost <= 1.4380 and ridge.evaluations <= 50000,
        f"J={ridge.cost:.5f} (bound 1.4380), evaluations={ridge.evaluations}",
    )
    check(
        "criterion 5b (series solver, relief)",
        relief.cost <= 1.1382 and relief.evaluations <= 50000,
        f"J={relief.cost:.5f} (bound 1.1382), evaluations={relief.evaluations}",
    )


# ---------------------------------------------------------------------------
# 6: coupling-exponent trend


def test_criterion_6_epsilon_trend(dp_cached):
    js = {eps: dp_cached("ridge2d", 1 / 8, eps).cost for eps in (0.0, 0.25, 0.5, 0.75)}
    ordered = (
        js[0.75] <= js[0.5] * 1.005
        and js[0.5] <= js[0.25] * 1.005
        and js[0.25] <= js[0.0] * 1.005
    )
    check(
        "criterion 6 (epsilon trend at tau=1/8)",
        ordered,
        f"J(0.75)={js[0.75]:.5f} <= J(0.5)={js[0.5]:.5f} "
        f"<= J(0.25)={js[0.25]:.5f} <= J(0)={js[0.0]:.5f} (0.5% slack)",
    )


# ---------------------------------------------------------------------------
# 7: complexity scaling


def test_criterion_7_complexity_scaling(dp_cached, local_cached):
    # Sweep: per-stage candidate-arc count scales like N^2 ~ 2^(2(1+eps)) = 8x
    # per tau halving at eps = 0.5 (the total also doubles in stage count).
    coarse = dp_cached("ridge2d", 1 / 8, 0.5)
    fine = dp_cached("ridge2d", 1 / 16, 0.5)
    per_stage_coarse = coarse.diagnostics.segment_cost_evaluations / 8
    per_stage_fine = fine.diagnostics.segment_cost_evaluations / 16
    growth = per_stage_fine / per_stage_coarse
    check(
        "criterion 7a (sweep per-stage growth)",
        2**2.6 <= growth <= 2**3.4,
        f"x{growth:.2f} in [2^2.6, 2^3.4] = [{2**2.6:.2f}, {2**3.4:.2f}]",
    )
    # Windowed search: per-iteration work is ~(2m+1)^2 * n, so halving tau
    # should double it for fixed m.
    t16 = local_cached("ridge2d", 1 / 16, 0.5, 1)
    t32 = local_cached("ridge2d", 1 / 32, 0.5, 1)
    mean16 = float(np.mean(t16.diagnostics.evaluations_per_iteration))
    mean32 = float(np.mean(t32.diagnostics.evaluations_per_iteration))
    ratio = mean32 / mean16
    check(
        "criterion 7b (windowed per-iteration growth)",
        1.8 <= ratio <= 2.2,
        f"x{ratio:.2f} in [1.8, 2.2]",
    )


# ---------------------------------------------------------------------------
# 8: analytic closed forms


def test_criterion_8_closed_forms():
    # Chord ordinates must sit on the lattice: eps = 1 makes tau/delta = 4.
    spec = make_flat_spec(alpha="0", beta="1")
    grid = build_grid(spec, 0.25, 0.0625)
    sweep = dp.solve(grid, spec)
    local_traj = localsearch.run(spec, grid, m=1)
    series = ritz.minimize(spec.model, 1.0, 1.0, basis_size=5, budget=4000)
    ok = (
        abs(sweep.cost - SQRT2) <= 1e-4
        and abs(local_traj.cost - SQRT2) <= 1e-4
        and abs(series.cost - SQRT2) <= 1e-4
    )
    check(
        "criterion 8a (flat problem, every solver at sqrt(2))",
        ok,
        f"sweep={sweep.cost:.8f} local={local_traj.cost:.8f} "
        f"series={series.cost:.8f} target {SQRT2:.8f} +-1e-4",
    )
    delivery = make_flat_spec(alpha="1", beta="0")
    chord_cost = path_cost(delivery.model, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    check(
        "criterion 8b (delivery-only chord closed form)",
        abs(chord_cost - 1.0) <= 1e-9,
        f"J={chord_cost:.12f} target 1.0 +-1e-9",
    )


# ---------------------------------------------------------------------------
# 9: enumeration equivalence


def test_criterion_9_enumeration_equivalence():
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(50):
        spec, grid = random_instance(rng, zero_alpha=True)
        exact = enumerate_paths(grid, spec)
        traj = dp.solve(grid, spec)
        worst = max(worst, abs(traj.cost - exact.best_cost))
    check(
        "criterion 9a (additive case, 50 instances)",
        worst <= 1e-12,
        f"max |sweep - enumeration| = {worst:.3e} (bound 1e-12)",
    )
    gaps = []
    for _ in range(15):
        spec, grid = random_instance(rng, zero_alpha=False)
        gaps.append(dp_gap(grid, spec))
    check(
        "criterion 9b (positive delivery, gap reported)",
        all(g >= 0.0 for g in gaps),
        f"gaps >= 0, max gap = {max(gaps):.3e}",
    )


# ---------------------------------------------------------------------------
# 10: mode degeneration


def test_criterion_10_mode_consistency():
    flat = CostModel(
        alpha=field_from_expression(RIDGE_ALPHA),
        beta=field_from_expression(RIDGE_BETA),
        mode=CostMode.FLAT_2D,
    )
    full = CostModel(
        alpha=flat.alpha,
        beta=flat.beta,
        phi=field_from_expression("0"),
        mode=CostMode.FULL_3D,
    )
    rng = np.random.default_rng(223)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, size=n)), [1.0]])
        ys = np.clip(rng.normal(0.5, 0.4, size=xs.size), 0.0, 1.0)
        worst = max(worst, abs(path_cost(flat, xs, ys) - path_cost(full, xs, ys)))
    check(
        "criterion 10 (flat relief degenerates 3-D to 2-D)",
        worst <= 1e-12,
        f"max mode difference = {worst:.3e} (bound 1e-12)",
    )


# ---------------------------------------------------------------------------
# 11: derivative correctness


def test_criterion_11_derivative_correctness():
    from terracost import parse

    worst = 0.0
    rng = np.random.default_rng(227)
    for text in (RIDGE_ALPHA, RIDGE_BETA, RELIEF_PHI, "0.1", "0.5"):
        e = parse(text)
        h = 1e-6
        for _ in range(100):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            _, dx, dy = e.eval_dual(x, y)
            fdx = (e.eval(x + h, y) - e.eval(x - h, y)) / (2 * h)
            fdy = (e.eval(x, y + h) - e.eval(x, y - h)) / (2 * h)
            worst = max(
                worst,
                abs(dx - fdx) / (1 + abs(dx)),
                abs(dy - fdy) / (1 + abs(dy)),
            )
    check(
        "criterion 11 (dual derivatives vs central differences)",
        worst <= 1e-6,
        f"max relative deviation = {worst:.3e} (bound 1e-6)",
    )


# ---------------------------------------------------------------------------
# 12: descent and window equivalence


def test_criterion_12_descent_and_window_equivalence(local_cached):
    ok_descent = True
    for problem, tau in (("ridge2d", 1 / 16), ("ridge2d", 1 / 32), ("relief3d", 1 / 16)):
        traj = local_cached(problem, tau, 0.5, 1)
        costs = traj.diagnostics.cost_per_iteration
        ok_descent &= all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    check(
        "criterion 12a (monotone descent on every configured run)",
        ok_descent,
        "J never increases across iterations (1e-12 slack)",
    )
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 8, (1 / 8) ** 1.25)
    lattice = dp.lattice_size(spec.corridor, grid.delta)
    stepped = localsearch.step(localsearch.initial_incumbent(grid, spec), lattice, grid, spec)
    reference = dp.solve(grid, spec)
    bitwise = bool(np.array_equal(stepped.ys, reference.ys) and stepped.cost == reference.cost)
    check(
        "criterion 12b (full window reproduces the global sweep bitwise)",
        bitwise,
        f"polylines identical, J={stepped.cost!r} == {reference.cost!r}",
    )


# ---------------------------------------------------------------------------
# 13: CLI determinism


def test_criterion_13_cli_determinism(tmp_path):
    config = {
        "problem": {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "flat2d"},
        "fields": {
            "alpha": {"expression": RIDGE_ALPHA},
            "beta": {"expression": RIDGE_BETA},
        },
        "solver": {"method": "dp", "tau": 0.125, "epsilon": 0.5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["solve", "--config", str(path), "--out", str(out1)])
    code2 = cli_main(["solve", "--config", str(path), "--out", str(out2)])
    identical = (
        code1 == 0
        and code2 == 0
        and (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        and (out1 / "plot.dat").read_bytes() == (out2 / "plot.dat").read_bytes()
    )
    check(
        "criterion 13 (repeated runs bit-identical)",
        identical,
        "trajectory CSV and plot data byte-equal across runs",
    )
