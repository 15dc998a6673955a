"""Command-line front end: config ingestion, solver orchestration, emission.

Subcommands:

* ``solve``    - run the configured solver, write trajectory CSV, report
  JSON, and plot data.
* ``verify``   - exhaustively enumerate a small grid and report the gap
  between the forward sweep and the true discrete minimum.
* ``schedule`` - print the coupled refinement table (tau_k, delta_k).
* ``bench``    - run the sweep across halving levels and print evaluation
  counts, for complexity-scaling checks.

``solve``, ``verify`` and ``bench`` load through :func:`_load`; every grid step
delta and its epsilon = 0 caveat come from ``dp.refinement_schedule`` alone.

Exit codes: 0 success, 1 configuration error, 2 solver error, 3 I/O error.

Config files are JSON; see the README for the schema.  Every field is
either an inline expression or a heightmap file path (relative paths are
resolved against the config file's directory).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import warnings
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import dp, localsearch, oracle, ritz
from .cost import CostMode, CostModel, NegativeRateError, path_cost_profile
from .expr import ExprDomainError, ExprSyntaxError
from .terrain import (
    FieldDomainError,
    ScalarField2D,
    feasible,
    field_from_expression,
    field_from_heightmap,
    load_heightmap,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

_METHODS = ("dp", "local", "ritz")
_MODES = {"full3d": CostMode.FULL_3D, "flat2d": CostMode.FLAT_2D}
# Numeric solver options: type and smallest valid value (None: checked
# per method in load_config).
_NUMERIC_OPTIONS = {
    "tau": (float, None), "gamma": (float, None), "epsilon": (float, None),
    "m": (int, 1), "K": (int, 1), "q": (int, 2), "M": (int, 64),
    "budget": (int, 1), "max_iter": (int, 1), "refine_levels": (int, 0),
}


class ConfigError(Exception):
    """Invalid or unreadable run configuration."""


# A blocked corridor shows only once the grid is built and a negative rate
# only once it is sampled, but both are problems in the config all the same.
_CONFIG_ERRORS = (ConfigError, dp.BlockedCorridorError, NegativeRateError)


@dataclass
class FieldConfig:
    expression: str | None = None
    heightmap: str | None = None


@dataclass
class ProblemConfig:
    l: float
    y_l: float
    corridor: tuple[float, float]
    mode: str


@dataclass
class SolverConfig:
    method: str = "dp"
    tau: float | None = None
    gamma: float = 1.0
    epsilon: float = 0.5
    m: int = 1
    K: int = 10
    q: int = 16
    M: int = 512
    budget: int = 50000
    max_iter: int | None = None
    refine_levels: int = 0


@dataclass
class OutputConfig:
    trajectory_csv: str = "trajectory.csv"
    report_json: str = "report.json"
    plot_data: str = "plot.dat"


@dataclass
class RunConfig:
    problem: ProblemConfig
    fields: dict[str, FieldConfig]
    solver: SolverConfig
    output: OutputConfig
    gap_threshold: float | None = None
    base_dir: Path = field(default_factory=Path)
    warnings: list[str] = field(default_factory=list)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return mapping[key]


def _object(raw, where: str, keys) -> dict:
    # A config section: a JSON object whose keys are all among ``keys``.
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")
    return raw


def _keys(section) -> list[str]:
    return [f.name for f in dataclass_fields(section)]


def _number(value, where: str, kind=float, least=None):
    # JSON admits strings, booleans, NaN and Infinity, which no option can
    # take, and an integer option takes only integral values, at least
    # ``least`` when that is given.
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = kind(value)
            if np.isfinite(number) and (kind is float or number == value):
                if least is not None and number < least:
                    raise ConfigError(f"{where} must be >= {least}, got {number}")
                return number
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{where} must be {noun}, got {value!r}")


def _field_config(raw, name: str) -> FieldConfig:
    fc = FieldConfig(**_object(raw, f"field '{name}'", _keys(FieldConfig)))
    if (fc.expression is None) == (fc.heightmap is None):
        raise ConfigError(
            f"field '{name}' needs exactly one of 'expression' or 'heightmap'"
        )
    if not isinstance(fc.heightmap if fc.expression is None else fc.expression, str):
        raise ConfigError(f"field '{name}' needs a string expression or heightmap path")
    return fc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file.

    Defaults: q = 16, gamma = 1, epsilon = 0.5, m = 1, K = 10, M = 512;
    the corridor defaults to the endpoint bounding interval widened by 50%
    per side.  The grid step delta and its epsilon = 0 caveat (kept in
    ``warnings``) come from :func:`terracost.dp.refinement_schedule`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _object(raw, f"{path}: top level", ["problem", "fields", "solver", "output", "verify"])

    problem_raw = _object(_require(raw, "problem", "config"), "problem", _keys(ProblemConfig))
    l = _number(_require(problem_raw, "l", "problem"), "problem.l")
    y_l = _number(_require(problem_raw, "y_l", "problem"), "problem.y_l")

    fields_raw = _require(raw, "fields", "config")
    _object(fields_raw, "fields", ["alpha", "beta", "phi", "mask"])
    fields = {}
    for name in ("alpha", "beta"):
        fields[name] = _field_config(_require(fields_raw, name, "fields"), name)
    for name in ("phi", "mask"):
        if name in fields_raw:
            fields[name] = _field_config(fields_raw[name], name)

    mode = problem_raw.get("mode")
    if mode is None:
        mode = "full3d" if "phi" in fields else "flat2d"
    if not isinstance(mode, str) or mode not in _MODES:
        raise ConfigError(f"problem.mode must be one of {sorted(_MODES)}, got {mode!r}")
    if mode == "full3d" and "phi" not in fields:
        raise ConfigError("problem.mode 'full3d' requires a 'phi' field")

    corridor_raw = problem_raw.get("corridor")
    if corridor_raw is None:
        corridor = dp.default_corridor(l, y_l)
    else:
        if not (isinstance(corridor_raw, list) and len(corridor_raw) == 2):
            raise ConfigError("problem.corridor must be [y_lo, y_hi]")
        corridor = tuple(_number(v, "problem.corridor") for v in corridor_raw)
    try:
        # Ahead of the solver options, whose bounds (tau <= l) rest on it.
        dp.ProblemSpec.check_geometry(l, y_l, corridor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    problem = ProblemConfig(l=l, y_l=y_l, corridor=corridor, mode=mode)

    solver = SolverConfig(**_object(raw.get("solver", {}), "solver", _keys(SolverConfig)))
    if solver.method not in _METHODS:
        raise ConfigError(f"solver.method must be one of {_METHODS}, got {solver.method!r}")
    for name, (kind, least) in _NUMERIC_OPTIONS.items():
        value = getattr(solver, name)
        if value is None and getattr(SolverConfig, name) is None:
            continue  # an option without a default may stay unset
        setattr(solver, name, _number(value, f"solver.{name}", kind, least))
    caveats = []
    if solver.method in ("dp", "local") and solver.tau is not None:
        try:
            ((tau, delta),), caveats = _schedule(solver, 0)
            dp.ProblemSpec.check_steps(l, corridor, tau, delta)
        except (ConfigError, ValueError) as exc:  # name the key the user typed
            raise ConfigError(re.sub(r"^tau(_0)? ", "solver.tau ", str(exc))) from exc

    output = OutputConfig(**_object(raw.get("output", {}), "output", _keys(OutputConfig)))
    files = {}
    for key, name in vars(output).items():
        if not (isinstance(name, str) and name):
            raise ConfigError(f"output.{key} must be a non-empty file name, got {name!r}")
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise ConfigError(f"output.{key} must name a file under --out, got {name!r}")
        if Path(name) in files:
            raise ConfigError(f"output.{files[Path(name)]} and output.{key} name the same file")
        files[Path(name)] = key

    verify = _object(raw.get("verify", {}), "verify", ["gap_threshold"])
    gap_threshold = verify.get("gap_threshold")
    if gap_threshold is not None:
        gap_threshold = _number(gap_threshold, "verify.gap_threshold", least=0)

    return RunConfig(
        problem=problem,
        fields=fields,
        solver=solver,
        output=output,
        gap_threshold=gap_threshold,
        base_dir=path.parent,
        warnings=caveats,
    )


def _schedule(solver: SolverConfig, k_max: int):
    """dp's levels [(tau_k, delta_k)], k <= k_max, from solver.tau, and the
    texts of its warnings (a run's are kept by load_config; solves drop them).
    """
    if solver.tau is None:
        raise ConfigError(f"solver.method '{solver.method}' requires solver.tau")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            levels = dp.refinement_schedule(solver.tau, solver.gamma, solver.epsilon, k_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return levels, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# realization: config -> fields/model/spec


def _build_field(config: RunConfig, name: str) -> ScalarField2D:
    fc = config.fields[name]
    if fc.expression is not None:
        try:
            return field_from_expression(fc.expression)
        except ExprSyntaxError as exc:
            raise ConfigError(f"field '{name}': {exc}") from exc
    hm_path = Path(fc.heightmap)
    if not hm_path.is_absolute():
        hm_path = config.base_dir / hm_path
    try:
        return field_from_heightmap(load_heightmap(hm_path))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"field '{name}': {exc}") from exc


def realize(config: RunConfig) -> dp.ProblemSpec:
    """Instantiate fields, cost model, and problem from a validated config."""
    alpha = _build_field(config, "alpha")
    beta = _build_field(config, "beta")
    phi = _build_field(config, "phi") if "phi" in config.fields else None
    mask = _build_field(config, "mask") if "mask" in config.fields else None
    try:
        model = CostModel(
            alpha=alpha,
            beta=beta,
            phi=phi,
            mode=_MODES[config.problem.mode],
            quadrature_subdivisions=config.solver.q,
        )
        return dp.ProblemSpec(
            l=config.problem.l,
            y_l=config.problem.y_l,
            corridor=config.problem.corridor,
            model=model,
            mask=mask,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# solving and emission


def _grid_for(config: RunConfig, spec: dp.ProblemSpec) -> dp.StageGrid:
    ((tau, delta),), _ = _schedule(config.solver, 0)
    return dp.build_grid(spec, tau, delta)


def _ladder(config: RunConfig, spec: dp.ProblemSpec, k_max: int):
    """Solve the halving schedule from solver.tau through ``dp.solve_refined``.

    Returns one row per level (finest last) and the finest trajectory.
    """
    schedule, _ = _schedule(config.solver, k_max)
    trajs = dp.solve_refined(spec, schedule)
    rows = []
    for (tau, delta), traj in zip(schedule, trajs):
        n = traj.xs.size - 1
        evals = traj.diagnostics.segment_cost_evaluations
        rows.append(
            {
                "tau": tau,
                "delta": delta,
                "n": n,
                "lattice_size": dp.lattice_size(spec.corridor, delta),
                "segment_cost_evaluations": evals,
                "evaluations_per_stage": evals / n,
                "J": traj.cost,
                "wall_time_s": traj.diagnostics.wall_time,
            }
        )
    return rows, trajs[-1]


def _outside_problem(spec: dp.ProblemSpec, xs, ys) -> list[str]:
    """A warning naming the first knot outside the corridor or the mask's
    feasible set, if any: ``ritz`` searches the whole plane."""
    y_lo, y_hi = spec.corridor
    inside = (ys >= y_lo) & (ys <= y_hi)
    try:
        allowed = inside & feasible(spec.mask, xs, ys)
    except (ExprDomainError, FieldDomainError) as exc:
        return [f"ritz ignores fields.mask, which cannot be evaluated on its path: {exc}"]
    if allowed.all():
        return []
    k = int(np.argmin(allowed))
    where = "where fields.mask > 0" if inside[k] else f"outside the corridor {list(spec.corridor)}"
    return [
        f"ritz ignores the corridor and the mask: knot {k} at (x, y) = "
        f"({float(xs[k])!r}, {float(ys[k])!r}) lies {where}"
    ]


def _solve(config: RunConfig, spec: dp.ProblemSpec):
    """Dispatch on solver.method.

    Returns the trajectory, the report dict and the trajectory's
    (cumulative length, cumulative cost) per knot, priced once.  The
    report's ``warnings`` are the solve's own, beside the config's.
    """
    s = config.solver
    report: dict = {"method": s.method, "iterations": None}
    if s.method == "ritz":
        t0 = time.perf_counter()
        result = ritz.minimize(
            spec.model,
            spec.l,
            spec.y_l,
            basis_size=s.K,
            mesh_points=s.M,
            budget=s.budget,
        )
        wall = time.perf_counter() - t0
        xs = np.linspace(0.0, spec.l, s.M)
        ys, _ = ritz.candidate_eval(result.candidate, xs)
        cost, cum_len, cum_cost = path_cost_profile(spec.model, xs, ys)
        traj = dp.Trajectory(
            xs=xs, ys=ys, cost=cost, diagnostics=dp.SolveDiagnostics(wall_time=wall)
        )
        report.update(
            {
                "J": traj.cost,
                "grid": {"basis_size": s.K, "mesh_points": s.M},
                "objective_smooth": result.cost,
                "objective_evaluations": result.evaluations,
                "budget_exhausted": not result.converged,
                "segment_cost_evaluations": None,
                "wall_time_s": wall,
                "warnings": _outside_problem(spec, xs, ys),
            }
        )
        return traj, report, (cum_len, cum_cost)

    if s.method == "dp" and s.refine_levels > 0:
        rows, traj = _ladder(config, spec, s.refine_levels)
        report["levels"] = [
            {key: row[key] for key in ("tau", "delta", "J", "segment_cost_evaluations")}
            for row in rows
        ]
        grid_info = {key: rows[-1][key] for key in ("tau", "delta", "n", "lattice_size")}
    else:
        grid = _grid_for(config, spec)
        grid_info = {
            "tau": grid.tau,
            "delta": grid.delta,
            "n": grid.n,
            "lattice_size": dp.lattice_size(spec.corridor, grid.delta),
        }
        if s.method == "dp":
            traj = dp.solve(grid, spec)
        else:  # local
            traj = localsearch.run(spec, grid, m=s.m, max_iter=s.max_iter)
            if traj.diagnostics.hit_max_iter:
                report["hit_max_iter"] = True
    report.update(
        {
            "J": traj.cost,
            "grid": grid_info,
            "segment_cost_evaluations": traj.diagnostics.segment_cost_evaluations,
            "wall_time_s": traj.diagnostics.wall_time,
            # local alone iterates; dp reports None for these.
            "iterations": traj.diagnostics.iterations,
            "cost_per_iteration": traj.diagnostics.cost_per_iteration,
            "evaluations_per_iteration": traj.diagnostics.evaluations_per_iteration,
        }
    )
    _, cum_len, cum_cost = path_cost_profile(spec.model, traj.xs, traj.ys)
    return traj, report, (cum_len, cum_cost)


def _write_outputs(config: RunConfig, spec: dp.ProblemSpec, traj, profile, report, out_dir: Path):
    # An output name may hold directories; they are made under out_dir.
    output = config.output
    csv_path, report_path, plot_path = (
        out_dir / name for name in (output.trajectory_csv, output.report_json, output.plot_data)
    )
    for path in (csv_path, report_path, plot_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    cum_len, cum_cost = profile
    # Relief heights at the knots; zero without a relief.
    zs = np.zeros(traj.xs.size)
    if spec.model.phi is not None:
        zs = np.asarray(spec.model.phi.value(traj.xs, traj.ys), dtype=float)

    rows = ["x,y,z,cumulative_length,cumulative_cost"]
    for knot in zip(traj.xs, traj.ys, zs, cum_len, cum_cost):
        rows.append(",".join(repr(float(v)) for v in knot))
    csv_path.write_text("\n".join(rows) + "\n")

    report = dict(report)
    report["warnings"] = [*config.warnings, *report.get("warnings", ())]
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = [" ".join(repr(float(v)) for v in knot) for knot in zip(traj.xs, traj.ys, zs)]
    plot_path.write_text("\n".join(lines) + "\n")
    return csv_path, report_path, plot_path


# ---------------------------------------------------------------------------
# subcommands


def _load(args, grid_method: bool = False):
    """Config and realized problem of a subcommand; prints its warnings."""
    config = load_config(args.config)
    spec = realize(config)
    if grid_method and config.solver.method == "ritz":
        raise ConfigError(f"{args.command} needs a grid method; set solver.method to 'dp'")
    for message in config.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return config, spec


def _cmd_solve(args) -> int:
    config, spec = _load(args)
    traj, report, profile = _solve(config, spec)
    for message in report.get("warnings", ()):
        print(f"warning: {message}", file=sys.stderr)
    paths = _write_outputs(config, spec, traj, profile, report, Path(args.out))
    print(f"J = {traj.cost:.6f} ({report['method']})")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_verify(args) -> int:
    config, spec = _load(args, grid_method=True)
    grid = _grid_for(config, spec)
    exact = oracle.enumerate_paths(grid, spec, cap=args.cap)
    sweep = dp.solve(grid, spec)
    gap = sweep.cost - exact.best_cost
    print(f"paths evaluated:    {exact.paths_evaluated}")
    print(f"exhaustive minimum: {exact.best_cost!r}")
    print(f"sweep minimum:      {sweep.cost!r}")
    print(f"gap:                {max(0.0, gap)!r}")
    threshold = config.gap_threshold
    if threshold is None:
        # Default policy: when every arc the enumeration priced has a zero
        # delivery slope the sweep is exact, so any real gap is a failure;
        # otherwise the gap is informational.
        threshold = 1e-9 if exact.additive else float("inf")
    if max(0.0, gap) > threshold:
        print(f"gap exceeds threshold {threshold!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_schedule(args) -> int:
    solver = SolverConfig(tau=args.tau0, gamma=args.gamma, epsilon=args.epsilon)
    try:
        levels, caveats = _schedule(solver, args.levels - 1)
    except ConfigError as exc:  # name the flag the user typed: tau_0 is --tau0
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"--{name.replace('_', '')} {rest}") from exc
    for message in caveats:
        print(f"warning: {message}", file=sys.stderr)
    print(f"{'k':>3} {'tau':>14} {'delta':>14}")
    for k, (tau, delta) in enumerate(levels):
        print(f"{k:>3} {tau:>14.8f} {delta:>14.8f}")
    return 0


def _cmd_bench(args) -> int:
    config, spec = _load(args, grid_method=True)
    rows, _ = _ladder(config, spec, args.levels - 1)
    header = f"{'tau':>12} {'delta':>12} {'n':>5} {'N':>6} {'evals':>12} {'evals/stage':>12} {'J':>10} {'time[s]':>9}"
    print(header)
    for r in rows:
        print(
            f"{r['tau']:>12.6f} {r['delta']:>12.6f} {r['n']:>5} {r['lattice_size']:>6} "
            f"{r['segment_cost_evaluations']:>12} {r['evaluations_per_stage']:>12.1f} "
            f"{r['J']:>10.5f} {r['wall_time_s']:>9.3f}"
        )
    for a, b in zip(rows, rows[1:]):
        ratio = b["segment_cost_evaluations"] / a["segment_cost_evaluations"]
        per_stage = b["evaluations_per_stage"] / a["evaluations_per_stage"]
        print(
            f"tau {a['tau']:.6f} -> {b['tau']:.6f}: eval growth x{ratio:.2f}, "
            f"per-stage x{per_stage:.2f}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terracost",
        description="Minimum-construction-cost trajectories over terrain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the configured solver")
    p_solve.add_argument("--config", required=True, help="path to JSON run config")
    p_solve.add_argument("--out", default=".", help="output directory")
    # Accepted for scripts that pass it; every solve runs on one thread.
    p_solve.add_argument("--threads", type=int, default=1, help="solves run on one thread")
    p_solve.set_defaults(handler=_cmd_solve)

    p_verify = sub.add_parser("verify", help="compare the sweep against enumeration")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    p_verify.set_defaults(handler=_cmd_verify)

    p_schedule = sub.add_parser("schedule", help="print the refinement table")
    p_schedule.add_argument("--tau0", type=float, required=True)
    p_schedule.add_argument("--gamma", type=float, default=1.0)
    p_schedule.add_argument("--epsilon", type=float, default=0.5)
    p_schedule.add_argument("--levels", type=int, default=4)
    p_schedule.set_defaults(handler=_cmd_schedule)

    p_bench = sub.add_parser("bench", help="evaluation counts across levels")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--levels", type=int, default=3)
    p_bench.add_argument("--out", default=None, help="optional JSON output path")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _reuse_freed_heap() -> None:
    # A sweep allocates and frees block arrays (the samples and tableaux of
    # its directly priced arcs, each block's row-kernel state) thousands of
    # times.  At glibc's default thresholds freed heap tops go back to the
    # kernel and fault back in: a fresh-process tau-1/48 ridge2d dp.solve
    # takes about 9.9 k minor faults, and 1.5 k with M_TRIM_THRESHOLD (-1)
    # and M_MMAP_THRESHOLD (-3) raised, which keeps those pages for reuse at
    # the cost of holding freed heap.
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 64 << 20)
        mallopt(-3, 32 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _reuse_freed_heap()
    try:
        for flag in ("threads", "levels", "cap"):  # counts, on the subcommands that take them
            if getattr(args, flag, 1) < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # every other failure is the solver's
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
