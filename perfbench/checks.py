"""Output checks for one benchmark solve.

Every solve's written files are checked; any failed check counts the solve
as failed.  The true road cost ``cost_J`` is the trajectory CSV's knots
repriced at a benchmark-fixed quadrature (q = 256), so a change to the
solver's own quadrature moves it by rounding only, while a worse road
moves it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import terracost as tc

CSV_HEADER = "x,y,z,cumulative_length,cumulative_cost"
REPRICE_Q = 256
REPORT_TOLERANCE = 1e-9  # relative, repricing at the solver's own q
RIDGE_REFERENCE_J = 1.432985  # ROADMAP: ridge2d sweep at tau 1/64
RIDGE_TOLERANCE = 0.01
RELIEF_SERIES_BOUND = 1.1382  # acceptance criterion 5b


class Checker:
    """Checks the outputs of one workload's solves against its config.

    ``references`` enables the reference-optimum checks, which hold only at
    the full problem sizes.
    """

    def __init__(self, workload: str, config_path: Path, references: bool = True):
        self.workload = workload
        self.config = tc.cli.load_config(config_path)
        self.spec = tc.cli.realize(self.config)
        self.references = references
        self.fine_model = dataclasses.replace(
            self.spec.model, quadrature_subdivisions=REPRICE_Q
        )
        self.chord_cost = self._snapped_chord_cost() if workload.startswith("local") else None

    def _snapped_chord_cost(self) -> float:
        s = self.config.solver
        grid = tc.build_grid(self.spec, s.tau, s.gamma * s.tau ** (1.0 + s.epsilon))
        target = self.spec.y_l / self.spec.l * grid.xs
        ys = np.array([stage[np.argmin(np.abs(stage - t))] for stage, t in zip(grid.stages, target)])
        return tc.path_cost(self.spec.model, grid.xs, ys)

    def check(self, out_dir: Path) -> tuple[float | None, dict | None, list[str]]:
        """Return (cost_J, report, failures) for the files in ``out_dir``."""
        out = self.config.output
        try:
            knots = read_trajectory(Path(out_dir) / out.trajectory_csv)
            report = json.loads((Path(out_dir) / out.report_json).read_text())
        except (OSError, ValueError) as exc:
            return None, None, [f"unreadable output: {exc}"]
        xs, ys, zs, cum_len, cum_cost = knots.T
        spec = self.spec
        failures = []
        if xs[0] != 0.0 or ys[0] != 0.0:
            failures.append(f"path starts at ({xs[0]}, {ys[0]}), not (0, 0)")
        if abs(xs[-1] - spec.l) > 1e-12 or abs(ys[-1] - spec.y_l) > 1e-9:
            failures.append(f"path ends at ({xs[-1]}, {ys[-1]}), not ({spec.l}, {spec.y_l})")
        if np.any(np.diff(xs) <= 0.0):
            return None, report, failures + ["x is not strictly increasing"]
        heights = np.zeros_like(xs) if spec.model.phi is None else spec.model.phi.value(xs, ys)
        if not np.allclose(zs, heights, rtol=0.0, atol=1e-12):
            failures.append("z column is not the relief at the knots")
        if cum_len[0] != 0.0 or np.any(np.diff(cum_len) <= 0.0):
            failures.append("cumulative_length does not start at 0 and increase")
        j = report.get("J")
        if not isinstance(j, (int, float)) or not math.isfinite(j):
            return None, report, failures + [f"report J is {j!r}"]
        own = tc.path_cost(spec.model, xs, ys)
        if abs(own - j) > REPORT_TOLERANCE * abs(j) or abs(cum_cost[-1] - j) > REPORT_TOLERANCE * abs(j):
            failures.append(f"repriced knots give {own!r}, report J is {j!r}")
        cost_j = tc.path_cost(self.fine_model, xs, ys)
        failures += self._workload_checks(j, xs, ys, report)
        return cost_j, report, failures

    def _workload_checks(self, j, xs, ys, report) -> list[str]:
        failures = []
        if self.workload == "sweep-ridge2d" and self.references:
            if abs(j - RIDGE_REFERENCE_J) > RIDGE_TOLERANCE * RIDGE_REFERENCE_J:
                failures.append(f"J = {j} is not within 1% of {RIDGE_REFERENCE_J}")
        elif self.workload == "ritz-relief3d" and self.references:
            if j > RELIEF_SERIES_BOUND:
                failures.append(f"J = {j} exceeds {RELIEF_SERIES_BOUND}")
        elif self.workload == "local-heightmap3d":
            if not np.all(tc.feasible(self.spec.mask, xs, ys)):
                failures.append("a knot lies inside the obstacle")
            if j > self.chord_cost:
                failures.append(f"J = {j} exceeds the snapped chord's {self.chord_cost}")
            if report.get("hit_max_iter"):
                failures.append("local search hit max_iter")
        return failures


def read_trajectory(path: Path) -> np.ndarray:
    """Knots of a trajectory CSV as an (n, 5) array; ValueError if malformed."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: header is not {CSV_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) < 2 or any(len(row) != 5 for row in rows):
        raise ValueError(f"{path}: needs at least two rows of five columns")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values")
    return data


def expected_sweep_arcs(report: dict) -> int:
    """Candidate arcs priced by ``dp.solve`` calls, according to the report.

    A refinement ladder reports each level; ``local`` also counts the n
    segments of the chord pricing, which is not a sweep; ``ritz`` sweeps
    nothing.
    """
    if "levels" in report:
        return sum(level["segment_cost_evaluations"] for level in report["levels"])
    if report["method"] == "local":
        return report["segment_cost_evaluations"] - report["grid"]["n"]
    return report["segment_cost_evaluations"] or 0
