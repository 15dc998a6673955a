"""Command-line surface: config ingestion, emission, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from terracost import CostMode, CostModel, build_grid, dp, field_from_expression, path_cost
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


def test_solve_is_reproducible(tmp_path):
    config = write_config(tmp_path)
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
    volatile = {"J", "method", "iterations", "wall_time_s", "segment_cost_evaluations"}
    for key in set(r_dp) - volatile:
        assert r_dp[key] == r_local[key], key


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


@pytest.mark.parametrize(
    "argv, overrides",
    [
        pytest.param(
            ["solve"], {"solver": {"method": "dp", "tau": 0.125, "q": 15}}, id="odd-q"
        ),
        pytest.param(
            ["solve"], {"solver": {"method": "dp", "tau": "abc"}}, id="tau-not-a-number"
        ),
        pytest.param(["solve"], {"verify": 5}, id="verify-not-an-object"),
        pytest.param(["solve"], {"problem": 5}, id="problem-not-an-object"),
        pytest.param(
            ["solve"],
            {"problem": {"l": 1.0, "y_l": 1.0, "mode": ["flat2d"]}},
            id="mode-not-a-string",
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": 0}, "beta": {"heightmap": 5}}},
            id="field-not-a-string",
        ),
        pytest.param(["solve"], {"solver": {"method": "dp", "tau": 2}}, id="tau-above-span"),
        pytest.param(
            ["solve"], {"solver": {"method": "local", "tau": 0.125, "m": 0}}, id="local-m-0"
        ),
        pytest.param(
            ["solve"],
            {"solver": {"method": "local", "tau": 0.125, "max_iter": 0}},
            id="local-max-iter-0",
        ),
        # A heightmap path that exists but cannot be read (a directory).
        pytest.param(
            ["solve"], {"fields": {"alpha": {"expression": "0"}, "beta": {"heightmap": "."}}},
            id="heightmap-is-a-directory",
        ),
        pytest.param(
            ["verify"], {"fields": {"alpha": {"expression": "0"}, "beta": {"heightmap": "."}}},
            id="verify-heightmap-is-a-directory",
        ),
        pytest.param(["bench", "--levels", "0"], {}, id="bench-levels-0"),
        pytest.param(["solve"], {"fields": NEGATIVE_ALPHA}, id="negative-alpha"),
        pytest.param(
            ["solve"],
            {"fields": NEGATIVE_ALPHA, "solver": {"method": "local", "tau": 0.125}},
            id="negative-alpha-local",
        ),
        pytest.param(
            ["solve"],
            {"fields": NEGATIVE_ALPHA, "solver": {"method": "ritz", "K": 2, "budget": 10}},
            id="negative-alpha-ritz",
        ),
        pytest.param(
            ["verify"],
            {"fields": NEGATIVE_ALPHA, "solver": {"method": "dp", "tau": 0.25}},
            id="verify-negative-alpha",
        ),
        pytest.param(
            ["bench", "--levels", "1"], {"fields": NEGATIVE_ALPHA}, id="bench-negative-alpha"
        ),
        pytest.param(
            ["solve"],
            {"fields": {"alpha": {"expression": "0"}, "beta": {"expression": "x-0.5"}}},
            id="negative-beta",
        ),
    ],
)
def test_bad_config_exits_1_with_config_error(tmp_path, capsys, argv, overrides):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    extra = ["--out", str(out)] if argv[0] == "solve" else []
    assert main([*argv, "--config", str(config), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
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


def test_epsilon_zero_warning_lands_in_report_and_stderr(tmp_path, capsys):
    config = write_config(
        tmp_path, solver={"method": "dp", "tau": 0.25, "epsilon": 0}
    )
    out = tmp_path / "warn_run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert "epsilon = 0" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert any("epsilon = 0" in w for w in report["warnings"])


def test_threads_env_fallback(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    main(["solve", "--config", str(config), "--out", str(out1), "--threads", "1"])
    monkeypatch.setenv("TERRACOST_THREADS", "2")
    main(["solve", "--config", str(config), "--out", str(out2)])
    assert (out1 / "traj.csv").read_bytes() == (out2 / "traj.csv").read_bytes()


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
