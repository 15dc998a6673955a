"""The benchmark's own tests: inputs, output checks, and a reduced-size run.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import terracost  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    gen.write_inputs(11, tmp_path / "a")
    gen.write_inputs(11, tmp_path / "b")
    gen.write_inputs(12, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert set(a) == set(c)
    changed = {name for name in a if a[name] != c[name]}
    assert changed == {"local-heightmap3d/config.json", "local-heightmap3d/heightmap.txt"}


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A reduced-size sweep solved through the CLI, with its checker."""
    base = tmp_path_factory.mktemp("solve")
    config = gen.write_inputs(0, base, small=True)["sweep-ridge2d"]
    out = base / "out"
    argv = ["solve", "--config", str(config), "--out", str(out), "--threads", "1"]
    assert terracost.cli.main(argv) == 0
    return checks.Checker("sweep-ridge2d", config), out


def _corrupted_copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def test_clean_outputs_pass(solved):
    checker, out = solved
    cost_j, report, failures = checker.check(out)
    assert failures == []
    assert cost_j == pytest.approx(report["J"], rel=1e-4)


def test_edited_report_j_fails(solved, tmp_path):
    checker, out = solved
    copy = _corrupted_copy(out, tmp_path)
    report_path = copy / "report.json"
    report = json.loads(report_path.read_text())
    report["J"] *= 1.0 + 1e-6
    report_path.write_text(json.dumps(report))
    _, _, failures = checker.check(copy)
    assert any("report J" in f for f in failures)


def test_moved_knot_fails(solved, tmp_path):
    checker, out = solved
    copy = _corrupted_copy(out, tmp_path)
    csv = copy / "trajectory.csv"
    lines = csv.read_text().splitlines()
    x, y, *rest = lines[3].split(",")
    lines[3] = ",".join([x, repr(float(y) + 0.01), *rest])
    csv.write_text("\n".join(lines) + "\n")
    _, _, failures = checker.check(copy)
    assert failures


def test_bad_header_fails(solved, tmp_path):
    checker, out = solved
    copy = _corrupted_copy(out, tmp_path)
    csv = copy / "trajectory.csv"
    csv.write_text(csv.read_text().replace("cumulative_cost", "cost", 1))
    cost_j, _, failures = checker.check(copy)
    assert cost_j is None and failures


def test_failed_solves_count_against_attempts():
    import run

    solves = [
        {"traced": False, "ok": True, "solve_s": 1.0, "rss_mb": 80.0, "cost_J": 1.0},
        {"traced": False, "ok": False, "solve_s": 1.1, "rss_mb": 80.0, "cost_J": 2.0},
    ]
    summary = run.summarize(solves, [0.5], ["solve 1: edited"], trace=False)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["metrics"]["cost_J"] == 1.0


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_prints_every_metric(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end" if trace == "0" else "per_layer"]]
    proc = _run("--workload", workload, "--small", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    row = next(line for line in lines if line.startswith(workload))
    for name in names:
        assert f" {name}=" in row


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "sweep-ridge2d", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
