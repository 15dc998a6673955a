"""Exhaustive enumeration as ground truth for the forward sweep.

With a zero delivery rate the problem is additive over segments and the
scalar-label sweep is exact, so enumeration must agree to rounding.  With a
positive delivery rate the sweep is a scalar-label approximation; the gap
is measured and reported, never assumed zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    ProblemSpec,
    build_grid,
    dp,
    field_from_expression,
    segment_cost_batch,
)
from terracost.oracle import dp_gap, enumerate_paths

from conftest import RIDGE_ALPHA, RIDGE_BETA, make_flat_spec, make_ridge2d_spec


def random_instance(rng, zero_alpha: bool):
    """Small random problem: n <= 5 stages, interior stages <= 6 nodes."""
    amp = rng.uniform(0.2, 0.8)
    fx = rng.integers(1, 7)
    fy = rng.integers(1, 4)
    beta = f"1+{amp:.3f}*sin({fx}*x)*cos({fy}*y)"
    alpha = "0" if zero_alpha else f"{rng.uniform(0.1, 1.0):.3f}+{amp:.3f}*cos({fx}*x)^2"
    model = CostModel(
        alpha=field_from_expression(alpha),
        beta=field_from_expression(beta),
        mode=CostMode.FLAT_2D,
        quadrature_subdivisions=4,
    )
    y_l = rng.uniform(-0.4, 0.9)
    lo = min(0.0, y_l) - rng.uniform(0.1, 0.5)
    hi = max(0.0, y_l) + rng.uniform(0.1, 0.5)
    spec = ProblemSpec(l=1.0, y_l=y_l, corridor=(lo, hi), model=model)
    n = int(rng.integers(2, 6))
    nodes = int(rng.integers(2, 7))  # lattice size <= 6
    delta = (hi - lo) / (nodes - 1) if nodes > 1 else (hi - lo)
    grid = build_grid(spec, 1.0 / n, delta)
    return spec, grid


def test_single_segment_enumeration():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1.0, 0.5)
    result = enumerate_paths(grid, spec)
    assert result.paths_evaluated == 1
    assert result.best_path == [0, 0]
    chord = segment_cost_batch(spec.model, 0.0, 1.0, [0.0], [1.0])
    assert result.best_cost == chord.fixed_cost[0, 0]


def test_path_count_is_product_of_interior_sizes():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 3, 0.5)  # two interior stages of 3 nodes
    assert [s.size for s in grid.stages] == [1, 3, 3, 1]
    result = enumerate_paths(grid, spec)
    assert result.paths_evaluated == 9


def test_additive_instances_match_sweep_exactly():
    rng = np.random.default_rng(101)
    for _ in range(50):
        spec, grid = random_instance(rng, zero_alpha=True)
        exact = enumerate_paths(grid, spec)
        traj = dp.solve(grid, spec)
        assert abs(traj.cost - exact.best_cost) <= 1e-12


@pytest.mark.parametrize(
    "alpha, additive",
    [
        ("0", True),
        (RIDGE_ALPHA, False),
        # zero at every stage abscissa, positive between them
        ("300*abs(x*(x-0.25)*(x-0.5)*(x-0.75)*(x-1))", False),
    ],
    ids=["zero", "ridge", "vanishing-at-stages"],
)
def test_additive_flag_reflects_the_priced_arcs(alpha, additive):
    spec = make_flat_spec(alpha=alpha, beta=RIDGE_BETA)
    grid = build_grid(spec, 0.25, 0.25)
    assert enumerate_paths(grid, spec).additive is additive


def test_positive_delivery_gap_is_nonnegative_and_reported():
    rng = np.random.default_rng(103)
    gaps = []
    for _ in range(20):
        spec, grid = random_instance(rng, zero_alpha=False)
        gaps.append(dp_gap(grid, spec))
    assert all(g >= 0.0 for g in gaps)
    print(f"scalar-label gaps over 20 random instances: max={max(gaps):.3e}")


def test_gap_zero_for_additive_case():
    rng = np.random.default_rng(107)
    spec, grid = random_instance(rng, zero_alpha=True)
    assert dp_gap(grid, spec) <= 1e-12


def test_gap_reported_for_constant_delivery():
    model = CostModel(
        alpha=field_from_expression("1"),
        beta=field_from_expression("0"),
        mode=CostMode.FLAT_2D,
    )
    spec = ProblemSpec(l=1.0, y_l=0.5, corridor=(-0.25, 0.75), model=model)
    grid = build_grid(spec, 1 / 3, 0.5)
    gap = dp_gap(grid, spec)
    assert gap >= 0.0
    print(f"constant-delivery gap on 3x3 grid: {gap:.3e}")


def test_gap_reported_for_ridge_problem():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 0.25, 0.25)
    gap = dp_gap(grid, spec)
    assert gap >= 0.0
    print(f"ridge-problem gap at coarse grid: {gap:.3e}")


def test_enumeration_order_independence():
    rng = np.random.default_rng(109)
    spec, grid = random_instance(rng, zero_alpha=False)
    result = enumerate_paths(grid, spec, keep_costs=True)
    costs = result.costs
    perm = rng.permutation(costs.size)
    shuffled = costs[perm]
    best_value = shuffled.min()
    assert best_value == result.best_cost
    # Lexicographic tie-break applied at the end: smallest original path id
    # among the minima.
    tied = perm[shuffled == best_value]
    assert tied.min() == int(np.argmin(costs))


def test_cap_refusal_reports_count():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 20, 1 / 49)  # 50-node stages, 19 interior
    with pytest.raises(ValueError, match=str(50**19)):
        enumerate_paths(grid, spec)


def test_cap_boundary_is_inclusive():
    spec = make_ridge2d_spec()
    grid = build_grid(spec, 1 / 3, 0.5)
    assert enumerate_paths(grid, spec, cap=9).paths_evaluated == 9
    with pytest.raises(ValueError, match="exceeds the cap"):
        enumerate_paths(grid, spec, cap=8)
