"""Minimum-construction-cost road trajectories between two fixed points.

The library discretizes a corridor into a stage grid, prices candidate
segments with a two-term cost functional (prefix-dependent delivery plus
direct construction), and finds the cheapest polyline by a forward sweep.
A windowed local-search mode trades global optimality for speed, and a
sine-basis benchmark solver cross-checks the grid results.  The ``terracost``
command line drives everything from JSON configs.
"""

from . import cli, dp, expr, localsearch, oracle, ritz, terrain
from .cost import (
    CostMode,
    CostModel,
    NegativeRateError,
    NonFiniteCostError,
    SegmentTableau,
    path_cost,
    path_cost_profile,
    segment_cost_batch,
    smooth_mesh,
    smooth_path_cost,
)
from .dp import (
    ProblemSpec,
    SolveDiagnostics,
    StageGrid,
    Trajectory,
    build_grid,
    default_corridor,
    refinement_schedule,
    solve,
    solve_refined,
)
from .expr import DualValue, ExprDomainError, Expression, ExprSyntaxError, parse
from .terrain import (
    ExpressionField,
    FieldDomainError,
    Heightmap,
    HeightmapField,
    ScalarField2D,
    feasible,
    field_from_expression,
    field_from_heightmap,
    load_heightmap,
    write_heightmap,
)

__version__ = "0.1.0"

__all__ = [
    "CostMode",
    "CostModel",
    "DualValue",
    "ExprDomainError",
    "ExprSyntaxError",
    "Expression",
    "ExpressionField",
    "FieldDomainError",
    "Heightmap",
    "HeightmapField",
    "NegativeRateError",
    "NonFiniteCostError",
    "ProblemSpec",
    "ScalarField2D",
    "SegmentTableau",
    "SolveDiagnostics",
    "StageGrid",
    "Trajectory",
    "build_grid",
    "cli",
    "default_corridor",
    "dp",
    "expr",
    "feasible",
    "field_from_expression",
    "field_from_heightmap",
    "load_heightmap",
    "localsearch",
    "oracle",
    "parse",
    "path_cost",
    "path_cost_profile",
    "refinement_schedule",
    "ritz",
    "segment_cost_batch",
    "smooth_mesh",
    "smooth_path_cost",
    "solve",
    "solve_refined",
    "terrain",
    "write_heightmap",
]
