"""Command-line surface: config ingestion, emission, exit codes."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from terracost import CostMode, CostModel, build_grid, cli, dp, field_from_expression, path_cost
from terracost.cli import ConfigError, load_config, main, realize

from conftest import RELIEF_PHI, RIDGE_ALPHA, RIDGE_BETA


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "problem": {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "flat2d"},
        "fields": {
            "alpha": {"expression": RIDGE_ALPHA},
            "beta": {"expression": RIDGE_BETA},
        },
        "solver": {"method": "dp", "tau": 0.125, "epsilon": 0.25},
        "output": {
            "trajectory_csv": "traj.csv",
            "report_json": "report.json",
            "plot_data": "plot.dat",
        },
    }
    for key, value in overrides.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_csv_knots(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,cumulative_length,cumulative_cost"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return data


def read_plot_rows(path):
    lines = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in line.split()] for line in lines])


# ---------------------------------------------------------------------------
# config loading


def test_defaults_filled(tmp_path):
    path = write_config(
        tmp_path,
        solver=None,
        output=None,
        problem={"l": 1.0, "y_l": 1.0},
    )
    config = load_config(path)
    assert config.solver.q == 16
    assert config.solver.gamma == 1.0
    assert config.solver.epsilon == 0.5
    assert config.solver.m == 1
    assert config.solver.K == 10
    assert config.solver.M == 512
    assert config.problem.corridor == (-0.5, 1.5)
    assert config.problem.mode == "flat2d"  # no phi field configured
    assert config.output.trajectory_csv == "trajectory.csv"


def test_epsilon_zero_accepted_with_warning(tmp_path):
    path = write_config(tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0})
    config = load_config(path)
    assert any("epsilon = 0" in w for w in config.warnings)


def test_field_exclusivity(tmp_path):
    path = write_config(
        tmp_path,
        fields={
            "alpha": {"expression": "0", "heightmap": "x.hm"},
            "beta": {"expression": "1"},
        },
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(path)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_full3d_requires_phi(tmp_path):
    path = write_config(
        tmp_path, problem={"l": 1.0, "y_l": 1.0, "mode": "full3d"}
    )
    with pytest.raises(ConfigError, match="phi"):
        load_config(path)


def test_unknown_solver_option_rejected(tmp_path):
    path = write_config(tmp_path, solver={"method": "dp", "tau": 0.25, "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"problem": {"l": True, "y_l": 1.0}}, "problem.l must be a finite number, got True"),
        ({"solver": {"method": "dp", "tau": True}}, "solver.tau must be a finite number, got True"),
        ({"solver": {"method": "ritz", "K": True}}, "solver.K must be an integer, got True"),
    ],
    ids=["l", "tau", "K"],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, overrides, message):
    # float(True) == 1.0, so a boolean would otherwise load as the number 1.
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.strip() == f"config error: {message}"


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_outputs_and_matches_benchmark(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "dp"
    assert report["J"] == pytest.approx(1.45310, rel=0.01)
    data = read_csv_knots(out / "traj.csv")
    assert data.shape == (9, 5)
    assert data[0].tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]
    plot_rows = (out / "plot.dat").read_text().strip().splitlines()
    assert len(plot_rows) == 9
    assert len(plot_rows[0].split()) == 3


def test_output_names_may_hold_directories(tmp_path):
    # A name's directories are made under --out, before any file is written.
    output = {"trajectory_csv": "sub/t.csv", "report_json": "a/b/r.json", "plot_data": "plot.dat"}
    config = write_config(tmp_path, output=output)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert read_csv_knots(out / "sub" / "t.csv").shape == (9, 5)
    assert json.loads((out / "a" / "b" / "r.json").read_text())["method"] == "dp"
    assert len((out / "plot.dat").read_text().splitlines()) == 9


def test_report_matches_csv_path_cost(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    main(["solve", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    data = read_csv_knots(out / "traj.csv")
    model = CostModel(
        alpha=field_from_expression(RIDGE_ALPHA),
        beta=field_from_expression(RIDGE_BETA),
        mode=CostMode.FLAT_2D,
    )
    assert abs(path_cost(model, data[:, 0], data[:, 1]) - report["J"]) <= 1e-9


@pytest.mark.parametrize(
    "solver",
    [
        pytest.param({"method": "dp", "tau": 0.125, "epsilon": 0.25}, id="dp"),
        pytest.param({"method": "local", "tau": 0.125, "epsilon": 0.25, "m": 1}, id="local"),
        pytest.param({"method": "ritz", "K": 3, "M": 64}, id="ritz"),
    ],
)
def test_solve_is_reproducible(tmp_path, solver):
    config = write_config(tmp_path, solver=solver)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", str(config), "--out", str(out1)])
    main(["solve", "--config", str(config), "--out", str(out2)])
    assert (out1 / "traj.csv").read_bytes() == (out2 / "traj.csv").read_bytes()
    assert (out1 / "plot.dat").read_bytes() == (out2 / "plot.dat").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2


def test_local_report_differs_only_in_expected_fields(tmp_path):
    dp_config = write_config(tmp_path, name="dp.json")
    local_config = write_config(
        tmp_path,
        name="local.json",
        solver={"method": "local", "tau": 0.125, "epsilon": 0.25, "m": 1},
    )
    out_dp, out_local = tmp_path / "dp", tmp_path / "local"
    assert main(["solve", "--config", str(dp_config), "--out", str(out_dp)]) == 0
    assert main(["solve", "--config", str(local_config), "--out", str(out_local)]) == 0
    r_dp = json.loads((out_dp / "report.json").read_text())
    r_local = json.loads((out_local / "report.json").read_text())
    assert set(r_dp) == set(r_local)
    assert abs(r_dp["J"] - r_local["J"]) <= 1e-3 * r_dp["J"]
    volatile = {
        "J",
        "method",
        "iterations",
        "cost_per_iteration",
        "evaluations_per_iteration",
        "wall_time_s",
        "segment_cost_evaluations",
    }
    for key in set(r_dp) - volatile:
        assert r_dp[key] == r_local[key], key


def test_local_report_flags_hit_max_iter(tmp_path):
    config = write_config(tmp_path, solver={"method": "local", "tau": 0.125, "max_iter": 1})
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["hit_max_iter"] is True
    assert report["iterations"] == 1


def test_local_report_lists_cost_and_evaluations_per_iteration(tmp_path):
    # One entry per truncated sweep, the last one the fixed point; a sweep
    # never returns a costlier incumbent.
    config = write_config(tmp_path, solver={"method": "local", "tau": 0.125, "epsilon": 0.25})
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    costs, evaluations = report["cost_per_iteration"], report["evaluations_per_iteration"]
    assert report["iterations"] >= 2
    assert len(costs) == len(evaluations) == report["iterations"]
    assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))
    assert costs[-1] == report["J"]
    assert all(isinstance(count, int) and count > 0 for count in evaluations)


@pytest.mark.parametrize(
    "solver",
    [
        pytest.param({"method": "dp", "tau": 0.25, "epsilon": 0.5}, id="dp"),
        pytest.param({"method": "local", "tau": 0.25, "epsilon": 0.5}, id="local"),
        pytest.param({"method": "ritz", "K": 2, "M": 64, "budget": 200}, id="ritz"),
    ],
)
def test_heights_are_the_relief_at_the_written_knots(tmp_path, solver):
    config = write_config(
        tmp_path,
        problem={"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "full3d"},
        fields={
            "alpha": {"expression": "0.1"},
            "beta": {"expression": "0.5"},
            "phi": {"expression": RELIEF_PHI},
        },
        solver=solver,
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    data = read_csv_knots(out / "traj.csv")
    plot = read_plot_rows(out / "plot.dat")
    expected = field_from_expression(RELIEF_PHI).value(data[:, 0], data[:, 1])
    assert np.any(expected != 0.0)
    assert np.array_equal(data[:, 2], expected)
    assert np.array_equal(plot[:, 2], expected)


def test_heights_are_zero_without_relief(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    data = read_csv_knots(out / "traj.csv")
    plot = read_plot_rows(out / "plot.dat")
    assert np.array_equal(data[:, 2], np.zeros(len(data)))
    assert np.array_equal(plot[:, 2], np.zeros(len(plot)))


def test_missing_heightmap_exits_1_naming_path(tmp_path, capsys):
    config = write_config(
        tmp_path,
        fields={
            "alpha": {"expression": "0"},
            "beta": {"heightmap": "missing_terrain.hm"},
        },
    )
    assert main(["solve", "--config", str(config)]) == 1
    assert "missing_terrain.hm" in capsys.readouterr().err


NEGATIVE_ALPHA = {"alpha": {"expression": "-1"}, "beta": {"expression": "1"}}
RITZ = {"method": "ritz", "K": 2, "budget": 10}


@pytest.mark.parametrize(
    "argv, config, message",
    [
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.125, "q": 15}},
            "quadrature_subdivisions must be even",
            id="odd-q",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": "abc"}},
            "solver.tau must be a finite number, got 'abc'",
            id="tau-not-a-number",
        ),
        # JSON strings are not numbers, and integer options take no fractions.
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": "0.25"}},
            "solver.tau must be a finite number, got '0.25'",
            id="tau-a-string",
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": "1", "y_l": 1.0}},
            "problem.l must be a finite number, got '1'",
            id="l-a-string",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.125, "q": 16.5}},
            "solver.q must be an integer, got 16.5",
            id="q-fractional",
        ),
        pytest.param(
            ["solve"],
            {"solver": {**RITZ, "K": 2.999}},
            "solver.K must be an integer, got 2.999",
            id="K-fractional",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.125, "refine_levels": 0.5}},
            "solver.refine_levels must be an integer, got 0.5",
            id="refine-levels-fractional",
        ),
        pytest.param(
            ["solve"], {"verify": 5}, "verify must be a JSON object", id="verify-not-an-object"
        ),
        pytest.param(
            ["solve"], {"problem": 5}, "problem must be a JSON object", id="problem-not-an-object"
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "mode": ["flat2d"]}},
            "problem.mode must be one of",
            id="mode-not-a-string",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": 0}, "beta": {"heightmap": 5}}},
            "field 'alpha' needs a string expression or heightmap path",
            id="field-not-a-string",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 2}},
            "solver.tau must be in (0, l = 1.0], got 2.0",
            id="tau-above-span",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "local", "tau": -0.5}},
            "solver.tau must be positive, got -0.5",
            id="tau-negative",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "local", "tau": 0.125, "m": 0}},
            "solver.m must be >= 1, got 0",
            id="local-m-0",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "local", "tau": 0.125, "max_iter": 0}},
            "solver.max_iter must be >= 1, got 0",
            id="local-max-iter-0",
        ),
        # A heightmap path that exists but cannot be read (a directory).
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": "0"}, "beta": {"heightmap": "."}}},
            "field 'beta': ",
            id="heightmap-is-a-directory",
        ),
        pytest.param(
            ["verify"],
            {"fields": {"alpha": {"expression": "0"}, "beta": {"heightmap": "."}}},
            "field 'beta': ",
            id="verify-heightmap-is-a-directory",
        ),
        pytest.param(
            ["bench", "--levels", "0"], {}, "--levels must be >= 1, got 0", id="bench-levels-0"
        ),
        pytest.param(
            ["verify", "--cap", "0"], {}, "--cap must be >= 1, got 0", id="verify-cap-0"
        ),
        pytest.param(
            ["verify", "--cap", "-3"], {}, "--cap must be >= 1, got -3", id="verify-cap-negative"
        ),
        pytest.param(
            ["solve"],
            {"fields": NEGATIVE_ALPHA},
            "rate field 'alpha' is negative",
            id="negative-alpha",
        ),
        pytest.param(
            ["solve"],
            {"fields": NEGATIVE_ALPHA, "solver": {"method": "local", "tau": 0.125}},
            "rate field 'alpha' is negative",
            id="negative-alpha-local",
        ),
        pytest.param(
            ["solve"],
            {"fields": NEGATIVE_ALPHA, "solver": RITZ},
            "rate field 'alpha' is negative",
            id="negative-alpha-ritz",
        ),
        pytest.param(
            ["verify"],
            {"fields": NEGATIVE_ALPHA, "solver": {"method": "dp", "tau": 0.25}},
            "rate field 'alpha' is negative",
            id="verify-negative-alpha",
        ),
        pytest.param(
            ["bench", "--levels", "1"],
            {"fields": NEGATIVE_ALPHA},
            "rate field 'alpha' is negative",
            id="bench-negative-alpha",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": "0"}, "beta": {"expression": "x-0.5"}}},
            "rate field 'beta' is negative",
            id="negative-beta",
        ),
        # JSON admits NaN and Infinity; json.dumps writes them as such.
        pytest.param(
            ["solve"],
            {"problem": {"l": float("inf"), "y_l": 1.0, "corridor": [0.0, 1.0]}},
            "problem.l must be a finite number, got inf",
            id="l-infinite",
        ),
        pytest.param(
            ["solve"],
            {
                "problem": {"l": 1.0, "y_l": float("inf")},
                "solver": {"method": "local", "tau": 0.125},
            },
            "problem.y_l must be a finite number, got inf",
            id="y_l-infinite-local",
        ),
        pytest.param(
            ["solve"],
            {
                "problem": {"l": float("nan"), "y_l": 1.0, "corridor": [0.0, 1.0]},
                "solver": RITZ,
            },
            "problem.l must be a finite number, got nan",
            id="l-nan-ritz",
        ),
        pytest.param(
            ["verify"],
            {
                "solver": {"method": "dp", "tau": 0.25},
                "verify": {"gap_threshold": float("nan")},
            },
            "verify.gap_threshold must be a finite number, got nan",
            id="verify-gap-threshold-nan",
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0}},
            "missing required field 'y_l' in problem",
            id="missing-required-key",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": "0", "beta": {"expression": "1"}}},
            "field 'alpha' must be a JSON object",
            id="field-not-an-object",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": "0", "scale": 2}, "beta": {"expression": "1"}}},
            "field 'alpha' has unknown keys ['scale']",
            id="field-unknown-keys",
        ),
        # A str is the config file's text; None leaves the config path unwritten.
        pytest.param(["solve"], None, "cannot read config file", id="config-unreadable"),
        pytest.param(
            ["solve"], "[1, 2]", "top level must be a JSON object", id="top-level-not-an-object"
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 0.5, 1.0]}},
            "problem.corridor must be [y_lo, y_hi]",
            id="corridor-not-a-pair",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "bfs"}},
            "solver.method must be one of",
            id="unknown-method",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.25, "gamma": 0}},
            "gamma must be positive, got 0.0",
            id="gamma-0",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "local", "tau": 0.25, "epsilon": -0.5}},
            "epsilon must be non-negative, got -0.5",
            id="epsilon-negative",
        ),
        # A bad problem is named as such, not as a grid step out of range.
        pytest.param(
            ["solve"],
            {"problem": {"l": -1, "y_l": 1.0, "corridor": [0.0, 1.0]}},
            "span length must be positive, got -1.0",
            id="l-negative-dp",
        ),
        pytest.param(
            ["solve"],
            {
                "problem": {"l": -1, "y_l": 1.0, "corridor": [0.0, 1.0]},
                "solver": {"method": "local", "tau": 0.125},
            },
            "span length must be positive, got -1.0",
            id="l-negative-local",
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "corridor": [1, 0]}},
            "corridor must be a proper interval, got (1.0, 0.0)",
            id="corridor-reversed-dp",
        ),
        pytest.param(
            ["solve"],
            {
                "problem": {"l": 1.0, "y_l": 0.5, "corridor": [0.5, 0.5]},
                "solver": {"method": "local", "tau": 0.125},
            },
            "corridor must be a proper interval, got (0.5, 0.5)",
            id="corridor-empty-local",
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "corridor": [1, 0]}, "solver": RITZ},
            "corridor must be a proper interval, got (1.0, 0.0)",
            id="corridor-reversed-ritz",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.25, "gamma": 10}},
            "grid step delta = 1.25 must be in (0, corridor height 1.0]",
            id="delta-above-corridor-height",
        ),
        pytest.param(
            ["solve"],
            {"output": {"svg": "plot.svg"}},
            "output has unknown keys ['svg']",
            id="unknown-output-key",
        ),
        pytest.param(
            ["solve"],
            {"solvr": {"method": "dp", "tau": 0.25}},
            "top level has unknown keys ['solvr']",
            id="unknown-top-level-key",
        ),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "corridr": [0.0, 2.0]}},
            "problem has unknown keys ['corridr']",
            id="unknown-problem-key",
        ),
        pytest.param(
            ["solve"],
            {
                "fields": {
                    "alpha": {"expression": "0"},
                    "beta": {"expression": "1"},
                    "maks": {"expression": "y-1.5"},
                }
            },
            "fields has unknown keys ['maks']",
            id="unknown-fields-key",
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "dp", "tau": 0.25, "gama": 0.5}},
            "solver has unknown keys ['gama']",
            id="unknown-solver-key",
        ),
        pytest.param(
            ["verify"],
            {"solver": {"method": "dp", "tau": 0.25}, "verify": {"gap_treshold": 0.1}},
            "verify has unknown keys ['gap_treshold']",
            id="unknown-verify-key",
        ),
        pytest.param(
            ["solve"],
            {"output": {"report_json": None}},
            "output.report_json must be a non-empty file name, got None",
            id="output-name-null",
        ),
        pytest.param(
            ["solve"],
            {"output": {"trajectory_csv": 5}},
            "output.trajectory_csv must be a non-empty file name, got 5",
            id="output-name-a-number",
        ),
        pytest.param(
            ["solve"],
            {"output": {"plot_data": ""}},
            "output.plot_data must be a non-empty file name, got ''",
            id="output-name-empty",
        ),
        pytest.param(
            ["solve"],
            {"output": {"report_json": "/abs/report.json"}},
            "output.report_json must name a file under --out, got '/abs/report.json'",
            id="output-name-absolute",
        ),
        pytest.param(
            ["solve"],
            {"output": {"trajectory_csv": "../escaped.csv"}},
            "output.trajectory_csv must name a file under --out, got '../escaped.csv'",
            id="output-name-leaves-out",
        ),
        pytest.param(
            ["solve"],
            {"output": {"report_json": "run.txt", "plot_data": "./run.txt"}},
            "output.report_json and output.plot_data name the same file",
            id="output-names-equal",
        ),
        pytest.param(
            ["solve"],
            {"output": {"trajectory_csv": "."}},
            "output.trajectory_csv must name a file under --out, got '.'",
            id="output-name-dot",
        ),
        pytest.param(
            ["solve"],
            {"output": {"plot_data": "./"}},
            "output.plot_data must name a file under --out, got './'",
            id="output-name-dot-slash",
        ),
        pytest.param(
            ["solve"],
            {"output": {"trajectory_csv": "sub", "report_json": "sub/r.json"}},
            "output.trajectory_csv and output.report_json name a file and a directory holding it",
            id="output-name-a-directory-of-another",
        ),
        pytest.param(
            ["verify"],
            {"solver": {"method": "dp", "tau": 0.25}, "verify": {"gap_threshold": -1}},
            "verify.gap_threshold must be >= 0, got -1.0",
            id="verify-gap-threshold-negative",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": "1+*x"}, "beta": {"expression": "1"}}},
            "field 'alpha': ",
            id="expression-syntax-error",
        ),
        pytest.param(["verify"], {"solver": RITZ}, "verify needs a grid method", id="verify-ritz"),
        pytest.param(
            ["bench", "--levels", "1"],
            {"solver": RITZ},
            "bench needs a grid method",
            id="bench-ritz",
        ),
    ],
)
def test_bad_config_exits_1_with_config_error(tmp_path, capsys, argv, config, message):
    if isinstance(config, dict):
        path = write_config(tmp_path, **config)
    else:
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(config)
    out = tmp_path / "run"
    extra = ["--out", str(out)] if argv[0] == "solve" else []
    assert main([*argv, "--config", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_cost_is_solver_error_naming_stage(tmp_path, capsys):
    config = write_config(
        tmp_path,
        fields={"alpha": {"expression": "0"}, "beta": {"expression": "exp(900*y)-exp(900*y)"}},
        solver={"method": "dp", "tau": 0.25, "epsilon": 0.5},
    )
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    assert "stage 1" in err
    assert not out.exists()


def test_field_refusing_lattice_points_no_arc_reads_is_solved(tmp_path, monkeypatch):
    # beta is undefined only within 0.004 of (0.5, 0.515625), a point of
    # the fine stage lattice (ordinates k/512) that no arc samples: stage
    # ordinates are k/32, and the samples next to x = 0.5 lie 1/128 away.
    # The transitions around it price their arcs from their own points, so
    # J is that of a sweep pricing every transition directly.
    beta = "1+sqrt((x-0.5)^2+(y-0.515625)^2-1.6e-05)"
    config = write_config(
        tmp_path,
        fields={"alpha": {"expression": "0.1"}, "beta": {"expression": beta}},
        solver={"method": "dp", "tau": 0.125, "gamma": 1.0, "epsilon": 2 / 3},
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "shared")]) == 0
    monkeypatch.setattr(
        dp, "sample_transitions", lambda model, transitions, *args: [None] * len(transitions)
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "direct")]) == 0
    shared, direct = (
        json.loads((tmp_path / out / "report.json").read_text())["J"]
        for out in ("shared", "direct")
    )
    assert shared == direct == pytest.approx(2.014931, abs=1e-6)


@pytest.mark.parametrize(
    "argv, solver_extra",
    [
        pytest.param(["solve"], {}, id="solve"),
        pytest.param(["solve"], {"refine_levels": 1}, id="solve-refine-levels"),
        pytest.param(["verify"], {}, id="verify"),
        pytest.param(["bench", "--levels", "2"], {}, id="bench"),
    ],
)
def test_blocked_corridor_is_config_error(tmp_path, capsys, argv, solver_extra):
    # The mask forbids every ordinate for 0.3 < x < 0.7, so stage 3 is empty.
    config = write_config(
        tmp_path,
        fields={
            "alpha": {"expression": "0"},
            "beta": {"expression": "1"},
            "mask": {"expression": "0.04-(x-0.5)^2"},
        },
        solver={"method": "dp", "tau": 0.125, "epsilon": 0.25, **solver_extra},
    )
    out = tmp_path / "run"
    extra = ["--out", str(out)] if argv[0] == "solve" else []
    assert main([*argv, "--config", str(config), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "corridor is blocked" in err
    assert not out.exists()


def test_missing_tau_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, solver={"method": "dp"})
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert "tau" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # file where the output directory should go
    assert main(["solve", "--config", str(config), "--out", str(blocker)]) == 3


def test_unwritable_bench_output_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, solver={"method": "dp", "tau": 0.25})
    # A directory where the JSON file should go.
    argv = ["bench", "--config", str(config), "--levels", "1", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("I/O error:")


def test_heightmap_field_via_cli(tmp_path):
    from terracost import Heightmap, write_heightmap

    xs = np.linspace(0.0, 1.0, 32)
    ys = np.linspace(-0.5, 1.5, 32)
    z = np.sin(5 * xs[None, :]) * np.sin(ys[:, None])
    write_heightmap(Heightmap(0.0, -0.5, xs[1] - xs[0], ys[1] - ys[0], z), tmp_path / "t.hm")
    config = write_config(
        tmp_path,
        problem={"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "full3d"},
        fields={
            "alpha": {"expression": "0.1"},
            "beta": {"expression": "0.5"},
            "phi": {"heightmap": "t.hm"},
        },
        solver={"method": "dp", "tau": 0.125, "epsilon": 0.5},
    )
    out = tmp_path / "hm_run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # Interpolated relief tracks the analytic one closely at this resolution.
    assert report["J"] == pytest.approx(1.14476, rel=0.01)


def test_ritz_method_via_cli(tmp_path):
    config = write_config(
        tmp_path,
        fields={"alpha": {"expression": "0"}, "beta": {"expression": "1"}},
        solver={"method": "ritz", "K": 3, "M": 128, "budget": 2000},
    )
    out = tmp_path / "ritz_run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["J"] == pytest.approx(np.sqrt(2.0), abs=1e-4)
    assert report["segment_cost_evaluations"] is None
    assert report["objective_evaluations"] >= 1
    data = read_csv_knots(out / "traj.csv")
    assert data.shape[0] == 128


def write_hill(path):
    """A heightmap hill on the footprint [0, 1]^2, 65 samples a side."""
    from terracost import Heightmap, write_heightmap

    g = np.linspace(0.0, 1.0, 65)
    z = 0.3 * np.exp(-((g[None, :] - 0.65) ** 2 + (g[:, None] - 0.35) ** 2) / 0.08)
    write_heightmap(Heightmap(0.0, 0.0, g[1], g[1], z), path)


@pytest.mark.parametrize(
    "fields, problem, solver",
    [
        (
            {"alpha": {"expression": "0.1"}, "beta": {"expression": "1/(y+0.2)"}},
            {"y_l": 0.3},
            {"K": 3, "M": 64},
        ),
        (
            {"alpha": {"expression": "0.1"}, "beta": {"expression": "exp(1000*y)"}},
            {"y_l": 0.3},
            {"K": 3, "M": 64},
        ),
        (
            {
                "alpha": {"expression": "0.1"},
                "beta": {"expression": "0.5"},
                "phi": {"heightmap": "hill.hm"},
            },
            {"mode": "full3d"},
            {"K": 6, "M": 128, "q": 16},
        ),
    ],
    ids=["negative-beta", "overflow", "heightmap-footprint"],
)
def test_a_ritz_trial_the_fields_refuse_rejects_only_that_trial(tmp_path, fields, problem, solver):
    # BFGS's trial steps reach points where beta is negative (y < -0.2), where
    # exp overflows (y > 0.71) or outside the heightmap: each such trial is
    # backtracked, and the solve ends no higher than the chord's cost (at it
    # under exp(1000*y), whose solved curve the knots do not resolve; see below).
    write_hill(tmp_path / "hill.hm")
    problem = {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "flat2d", **problem}
    costs = {}
    for budget in (1, 50000):
        config = write_config(
            tmp_path,
            problem=problem,
            fields=fields,
            solver={"method": "ritz", "budget": budget, **solver},
        )
        out = tmp_path / f"budget{budget}"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        costs[budget] = json.loads((out / "report.json").read_text())["J"]
    assert np.isfinite(costs[50000]) and costs[50000] <= costs[1]


def test_ritz_reports_the_chord_for_a_solved_curve_the_knots_do_not_resolve(tmp_path):
    # Under beta = exp(1000*y) the descent leaves the chord and lowers the
    # smooth objective along curves whose slope reaches thousands, which the
    # 64-knot polyline that J prices does not resolve: it prices them above
    # the chord, so the report keeps the chord and says why.
    reports, outputs = {}, {}
    for budget in (1, 50000):
        config = write_config(
            tmp_path,
            problem={"l": 1.0, "y_l": 0.3, "corridor": [0.0, 1.0], "mode": "flat2d"},
            fields={"alpha": {"expression": "0.1"}, "beta": {"expression": "exp(1000*y)"}},
            solver={"method": "ritz", "budget": budget, "K": 3, "M": 64},
        )
        out = tmp_path / f"budget{budget}"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        reports[budget] = json.loads((out / "report.json").read_text())
        outputs[budget] = [(out / name).read_bytes() for name in ("traj.csv", "plot.dat")]
    chord, solved = reports[1], reports[50000]
    assert solved["objective_evaluations"] > 1 and not solved["budget_exhausted"]
    assert solved["J"] == chord["J"] and solved["objective_smooth"] == chord["objective_smooth"]
    assert outputs[50000] == outputs[1]
    assert chord["warnings"] == []
    [warning] = solved["warnings"]
    assert "64-knot polyline" in warning and "so the chord is reported" in warning


# A disc on the midpoint of the ritz-relief3d optimum, which ritz cannot see.
RELIEF_DISC = "0.0025-(x-0.5009784735812133)^2-(y-0.12407024788278881)^2"


def test_ritz_warns_of_a_path_through_the_mask(tmp_path, capsys):
    runs = {}
    for name, extra in (("clean", {}), ("masked", {"mask": {"expression": RELIEF_DISC}})):
        config = write_config(
            tmp_path,
            name=f"{name}.json",
            problem={"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0], "mode": "full3d"},
            fields={
                "phi": {"expression": RELIEF_PHI},
                "alpha": {"expression": "0.1"},
                "beta": {"expression": "0.5"},
                **extra,
            },
            solver={"method": "ritz", "K": 10, "M": 512, "q": 16, "budget": 50000},
        )
        out = tmp_path / name
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        runs[name] = out, report, capsys.readouterr().err
    (clean, clean_report, clean_err), (masked, masked_report, masked_err) = runs.values()
    assert clean_report["warnings"] == [] and "warning" not in clean_err
    [message] = masked_report["warnings"]
    assert re.fullmatch(
        r"ritz ignores the corridor and the mask: knot \d+ at \(x, y\) = \(\S+, \S+\) "
        r"lies where fields.mask > 0",
        message,
    )
    assert masked_err.splitlines()[0] == f"warning: {message}"
    # The mask changes nothing but the warning.
    for key in ("wall_time_s", "warnings"):
        clean_report.pop(key), masked_report.pop(key)
    assert masked_report == clean_report
    assert masked_report["objective_evaluations"] == 58
    for output in ("traj.csv", "plot.dat"):
        assert (masked / output).read_bytes() == (clean / output).read_bytes()


@pytest.mark.parametrize(
    "mask,ys,knot,where",
    [
        (None, [0.0, 0.5, 1.0], None, None),
        (None, [0.0, 1.25, -0.5, 1.0], 1, "outside the corridor [0.0, 1.0]"),
        ("y-0.4", [0.0, 0.3, 0.5, 1.5, 1.0], 2, "where fields.mask > 0"),
        ("y-0.4", [0.0, 1.5, 0.5, 1.0], 1, "outside the corridor [0.0, 1.0]"),
    ],
)
def test_ritz_path_check_names_the_first_offending_knot(mask, ys, knot, where):
    # The mask vanishes at both ends, which must be feasible.
    mask = None if mask is None else field_from_expression(f"({mask})*x*(1-x)")
    model = CostModel(field_from_expression("0"), field_from_expression("1"), mode=CostMode.FLAT_2D)
    spec = dp.ProblemSpec(l=1.0, y_l=1.0, corridor=(0.0, 1.0), model=model, mask=mask)
    xs = 0.125 * np.arange(len(ys))
    found = cli._outside_problem(spec, xs, np.array(ys))
    if knot is None:
        assert found == []
    else:
        point = f"(x, y) = ({float(xs[knot])!r}, {ys[knot]!r})"
        assert found == [f"ritz ignores the corridor and the mask: knot {knot} at {point} lies {where}"]


def test_ritz_path_check_reports_a_mask_it_cannot_evaluate():
    model = CostModel(field_from_expression("0"), field_from_expression("1"), mode=CostMode.FLAT_2D)
    mask = field_from_expression("sqrt(y)-2")
    spec = dp.ProblemSpec(l=1.0, y_l=1.0, corridor=(-1.0, 1.0), model=model, mask=mask)
    [message] = cli._outside_problem(spec, np.array([0.0, 0.5, 1.0]), np.array([0.0, -0.5, 1.0]))
    assert message.startswith("ritz ignores fields.mask, which cannot be evaluated on its path: ")
    assert "sqrt of a negative value in 'sqrt(y)'" in message


@pytest.mark.parametrize(
    "solver",
    [
        pytest.param({"method": "dp", "tau": 0.25, "epsilon": 0.5}, id="dp"),
        pytest.param({"method": "ritz", "K": 2, "M": 64, "budget": 200}, id="ritz"),
    ],
)
def test_output_polyline_is_priced_once(tmp_path, monkeypatch, solver):
    # The profile that gives the ritz J also fills the cumulative columns.
    calls = []
    profile = cli.path_cost_profile
    monkeypatch.setattr(
        cli, "path_cost_profile", lambda *args: calls.append(args) or profile(*args)
    )
    config = write_config(tmp_path, solver=solver)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1
    data = read_csv_knots(tmp_path / "run" / "traj.csv")
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert data[-1, 4] == report["J"]


def test_epsilon_zero_warning_lands_in_report_and_stderr(tmp_path, capsys):
    config = write_config(
        tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0}
    )
    out = tmp_path / "warn_run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("epsilon = 0 ")
    assert capsys.readouterr().err.splitlines() == [f"warning: {report['warnings'][0]}"]


@pytest.mark.parametrize("command", ["solve"])
def test_threads_below_one_is_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--threads", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "config error: --threads must be >= 1, got 0"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, solver",
    [
        pytest.param(["solve"], {"refine_levels": 1}, id="solve-refine-levels"),
        pytest.param(["solve"], {"method": "local"}, id="solve-local"),
        pytest.param(["verify"], {}, id="verify"),
        pytest.param(["bench", "--levels", "2"], {}, id="bench"),
    ],
)
def test_epsilon_zero_caveat_is_one_warning_line(tmp_path, capsys, recwarn, argv, solver):
    # dp.refinement_schedule states the caveat; the CLI prints it once, as a
    # warning line, and it never surfaces as a Python warning.
    config = write_config(
        tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0, **solver}
    )
    out = tmp_path / "run"
    extra = ["--out", str(out)] if argv[0] == "solve" else []
    assert main([*argv, "--config", str(config), *extra]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: epsilon = 0 ")
    assert not recwarn.list


def test_refine_levels_reported(tmp_path):
    config = write_config(
        tmp_path,
        solver={"method": "dp", "tau": 0.25, "epsilon": 0.25, "refine_levels": 2},
    )
    out = tmp_path / "refined"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["levels"]) == 3
    js = [level["J"] for level in report["levels"]]
    assert js[0] == pytest.approx(1.49633, rel=0.01)
    assert js[2] == pytest.approx(1.44337, rel=0.01)
    assert report["J"] == js[-1]
    # The grid block describes the finest level.
    finest = report["levels"][-1]
    spec = realize(load_config(config))
    grid = build_grid(spec, finest["tau"], finest["delta"])
    assert report["grid"] == {
        "tau": grid.tau,
        "delta": grid.delta,
        "n": grid.n,
        "lattice_size": dp.lattice_size(spec.corridor, grid.delta),
    }


# ---------------------------------------------------------------------------
# verify / schedule / bench


def test_verify_additive_config_passes(tmp_path, capsys):
    config = write_config(
        tmp_path,
        fields={"alpha": {"expression": "0"}, "beta": {"expression": RIDGE_BETA}},
        solver={"method": "dp", "tau": 0.25, "epsilon": 0.25},
    )
    assert main(["verify", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "gap" in out and "paths evaluated" in out


def test_verify_positive_delivery_is_informational(tmp_path):
    config = write_config(tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0.25})
    assert main(["verify", "--config", str(config)]) == 0


def test_verify_alpha_vanishing_at_the_stages_is_informational(tmp_path, capsys):
    # This delivery rate is zero at every stage abscissa and every sampled
    # corner of the corridor, but not along the arcs, so the sweep is not
    # exact and its gap must not be judged by the strict default threshold.
    config = write_config(
        tmp_path,
        fields={
            "alpha": {"expression": "300*abs(x*(x-0.25)*(x-0.5)*(x-0.75)*(x-1))"},
            "beta": {"expression": "1+sin(5*x)*sin(y)"},
        },
        solver={"method": "dp", "tau": 0.25, "gamma": 4, "epsilon": 1},
    )
    assert main(["verify", "--config", str(config)]) == 0
    gap_line = next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("gap:")
    )
    assert float(gap_line.split()[-1]) > 1e-9


COSTLIER_WINDOW = {
    "problem": {"l": 1.0, "y_l": -0.9, "corridor": [-1.5, 1.5], "mode": "flat2d"},
    "fields": {
        "alpha": {"expression": "3.43*(1+sin(7.371*x)*cos(2.845*y))"},
        "beta": {"expression": "0.456"},
    },
    # delta = 2 * 0.25^1.5 = 0.25
    "solver": {"method": "dp", "tau": 0.25, "gamma": 2, "epsilon": 0.5, "q": 4},
}


def test_verify_gap_above_threshold_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, **COSTLIER_WINDOW, verify={"gap_threshold": 0})
    assert main(["verify", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    gap_line = next(line for line in captured.out.splitlines() if line.startswith("gap:"))
    assert float(gap_line.split()[-1]) == pytest.approx(0.0130143, abs=1e-7)
    assert "gap exceeds threshold 0.0" in captured.err


def test_verify_gap_without_threshold_is_informational(tmp_path):
    config = write_config(tmp_path, **COSTLIER_WINDOW)
    assert main(["verify", "--config", str(config)]) == 0


def test_verify_cap_exceeded_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path, solver={"method": "dp", "tau": 1 / 16, "epsilon": 0.5}
    )
    assert main(["verify", "--config", str(config), "--cap", "1000"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_schedule_prints_table(capsys):
    assert main(
        ["schedule", "--tau0", "0.25", "--epsilon", "0.5", "--levels", "3"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + 3 levels
    first = lines[1].split()
    assert float(first[1]) == 0.25
    assert float(first[2]) == 0.125


def test_schedule_rejects_bad_gamma(capsys):
    assert main(["schedule", "--tau0", "0.25", "--gamma", "-1"]) == 1
    assert capsys.readouterr().err.strip() == "config error: --gamma must be positive, got -1.0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tau0", "-1"], "--tau0 must be positive, got -1.0"),
        (["--tau0", "0.25", "--epsilon", "-0.5"], "--epsilon must be non-negative, got -0.5"),
        (["--tau0", "nan"], "--tau0 must be finite, got nan"),
        (["--tau0", "inf"], "--tau0 must be finite, got inf"),
        (["--tau0", "0.1", "--gamma", "nan"], "--gamma must be finite, got nan"),
        (["--tau0", "0.1", "--gamma", "inf"], "--gamma must be finite, got inf"),
        (["--tau0", "0.1", "--epsilon", "nan"], "--epsilon must be finite, got nan"),
        (["--tau0", "0.1", "--epsilon", "inf"], "--epsilon must be finite, got inf"),
    ],
    ids=[
        "tau0-negative", "epsilon-negative", "tau0-nan", "tau0-inf",
        "gamma-nan", "gamma-inf", "epsilon-nan", "epsilon-inf",
    ],
)
def test_schedule_bad_values_are_config_errors_naming_the_flag(capsys, argv, message):
    assert main(["schedule", *argv]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == f"config error: {message}"


def test_schedule_epsilon_zero_caveat_is_one_warning_line(capsys, recwarn):
    assert main(["schedule", "--tau0", "0.25", "--epsilon", "0", "--levels", "2"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: epsilon = 0 ")
    assert not recwarn.list


def test_schedule_rejects_levels_below_one(capsys):
    assert main(["schedule", "--tau0", "0.25", "--levels", "0"]) == 1
    assert capsys.readouterr().err.strip() == "config error: --levels must be >= 1, got 0"


def test_bench_reports_growth(tmp_path, capsys):
    config = write_config(tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0.5})
    out_json = tmp_path / "bench.json"
    assert main(
        ["bench", "--config", str(config), "--levels", "2", "--out", str(out_json)]
    ) == 0
    assert "per-stage" in capsys.readouterr().out
    rows = json.loads(out_json.read_text())
    assert len(rows) == 2
    assert list(rows[0]) == [
        "tau",
        "delta",
        "n",
        "lattice_size",
        "segment_cost_evaluations",
        "evaluations_per_stage",
        "J",
        "wall_time_s",
    ]
    assert rows[1]["segment_cost_evaluations"] > rows[0]["segment_cost_evaluations"]
