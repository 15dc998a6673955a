"""Shared problems and memoized solver runs for the test suite.

Two benchmark problems recur throughout:

* ridge2d  - flattened mode on the unit corridor with an oscillating
  delivery rate cos^2(5x)cos^2(y) and construction rate 1 + sin(5x)sin(y).
* relief3d - full 3-D mode over the relief sin(5x)sin(y) with constant
  rates alpha = 0.1, beta = 0.5.

A third, smaller problem, :func:`make_masked_heightmap_spec`, puts a
heightmap hill and a circular obstacle on the chord, so that local's
windows are ragged.

Both connect (0, 0) to (1, 1) inside the corridor [0, 1].  Expensive solver
runs are memoized session-wide so acceptance and unit tests can share them.
"""

from __future__ import annotations

import numpy as np
import pytest

from terracost import (
    CostMode,
    CostModel,
    Heightmap,
    ProblemSpec,
    build_grid,
    dp,
    field_from_expression,
    field_from_heightmap,
    localsearch,
    oracle,
    ritz,
)
from terracost import cost

RIDGE_ALPHA = "cos(5*x)^2*cos(y)^2"
RIDGE_BETA = "1+sin(5*x)*sin(y)"
RELIEF_PHI = "sin(5*x)*sin(y)"

# Known-good sine-series coefficient vectors for the two benchmark problems
# (frozen regression probes; their costs are asserted, not their values).
SERIES_COEFFS_RIDGE = np.array(
    [-0.342929, 0.132031, -0.083452, 0.046821, -0.027623,
     0.017216, -0.009948, 0.005366, -0.002641, 0.001030]
)
SERIES_COEFFS_RELIEF = np.array(
    [-0.370262, 0.055788, 0.010580, -0.008663, 0.002984,
     0.002658, -0.004272, 0.004357, -0.002889, 0.001418]
)


def make_ridge2d_spec(q: int = 16) -> ProblemSpec:
    model = CostModel(
        alpha=field_from_expression(RIDGE_ALPHA),
        beta=field_from_expression(RIDGE_BETA),
        mode=CostMode.FLAT_2D,
        quadrature_subdivisions=q,
    )
    return ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model)


def make_relief3d_spec(q: int = 16) -> ProblemSpec:
    model = CostModel(
        alpha=field_from_expression("0.1"),
        beta=field_from_expression("0.5"),
        phi=field_from_expression(RELIEF_PHI),
        mode=CostMode.FULL_3D,
        quadrature_subdivisions=q,
    )
    return ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model)


def make_masked_heightmap_spec(q: int = 16) -> ProblemSpec:
    """Full 3-D over a 17x17 heightmap hill, with an obstacle on the chord.

    The obstacle (radius 0.1 around (0.5, 0.5)) removes ordinates from the
    stages it covers, so windows near it hold fewer than 2m + 1 nodes.
    """
    g = np.linspace(0.0, 1.0, 17)
    z = 0.2 * np.exp(-((g[None, :] - 0.6) ** 2 + (g[:, None] - 0.4) ** 2) / 0.045)
    model = CostModel(
        alpha=field_from_expression("0.1"),
        beta=field_from_expression("0.5"),
        phi=field_from_heightmap(Heightmap(0.0, 0.0, g[1], g[1], z)),
        mode=CostMode.FULL_3D,
        quadrature_subdivisions=q,
    )
    mask = field_from_expression("0.01-(x-0.5)^2-(y-0.5)^2")
    return ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model, mask=mask)


def record_stage_lattices(monkeypatch) -> list:
    """Record the stage lattices that dp's sweeps sample, as they come."""
    lattices = []
    sample_transitions = dp.sample_transitions

    def recorded(*args):
        for entry in sample_transitions(*args):
            if isinstance(entry, cost._Lattice):
                lattices.append(entry)
            yield entry

    monkeypatch.setattr(dp, "sample_transitions", recorded)
    return lattices


def dp_gap(grid, spec: ProblemSpec, cap: int = oracle.DEFAULT_CAP) -> float:
    """Forward-sweep cost minus the exhaustive minimum, as a non-negative gap.

    The sweep explores the same path space with scalar labels, so its result
    can never beat the enumeration; a negative difference beyond rounding
    would be a bug and raises.
    """
    sweep_cost = dp.solve(grid, spec).cost
    exact = oracle.enumerate_paths(grid, spec, cap=cap)
    diff = sweep_cost - exact.best_cost
    if diff < -1e-12:
        raise RuntimeError(
            f"forward sweep undercut exhaustive enumeration by {-diff:.3e}"
        )
    return max(0.0, diff)


def make_flat_spec(alpha: str = "0", beta: str = "1") -> ProblemSpec:
    model = CostModel(
        alpha=field_from_expression(alpha),
        beta=field_from_expression(beta),
        mode=CostMode.FLAT_2D,
    )
    return ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model)


@pytest.fixture(scope="session")
def ridge2d_spec() -> ProblemSpec:
    return make_ridge2d_spec()


@pytest.fixture(scope="session")
def relief3d_spec() -> ProblemSpec:
    return make_relief3d_spec()


@pytest.fixture(scope="session")
def benchmark_specs(ridge2d_spec, relief3d_spec) -> dict[str, ProblemSpec]:
    return {"ridge2d": ridge2d_spec, "relief3d": relief3d_spec}


@pytest.fixture(scope="session")
def dp_cached(benchmark_specs):
    """Memoized grid solve: dp_cached(problem, tau, epsilon[, gamma])."""
    cache: dict = {}

    def _solve(problem: str, tau: float, epsilon: float, gamma: float = 1.0):
        key = (problem, tau, epsilon, gamma)
        if key not in cache:
            spec = benchmark_specs[problem]
            grid = build_grid(spec, tau, gamma * tau ** (1.0 + epsilon))
            cache[key] = dp.solve(grid, spec)
        return cache[key]

    return _solve


@pytest.fixture(scope="session")
def local_cached(benchmark_specs):
    """Memoized local-search run: local_cached(problem, tau, epsilon, m)."""
    cache: dict = {}

    def _run(problem: str, tau: float, epsilon: float, m: int = 1):
        key = (problem, tau, epsilon, m)
        if key not in cache:
            spec = benchmark_specs[problem]
            grid = build_grid(spec, tau, tau ** (1.0 + epsilon))
            cache[key] = localsearch.run(spec, grid, m=m)
        return cache[key]

    return _run


@pytest.fixture(scope="session")
def ritz_cached(benchmark_specs):
    """Memoized sine-series minimization: ritz_cached(problem, K[, budget])."""
    cache: dict = {}

    def _minimize(problem: str, basis_size: int, budget: int = 50000):
        key = (problem, basis_size, budget)
        if key not in cache:
            spec = benchmark_specs[problem]
            cache[key] = ritz.minimize(
                spec.model, spec.l, spec.y_l, basis_size=basis_size, budget=budget
            )
        return cache[key]

    return _minimize
