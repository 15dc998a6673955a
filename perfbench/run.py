"""The terracost benchmark: closed-loop CLI solves on three solver workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--small]

The workload runs as a closed loop with a single client: one
``terracost solve --threads 1`` at a time, each in a fresh child
interpreter, until the next solve would end after ``--seconds``.  Every
solve's outputs are checked (see checks.py).  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` solves alternate
between untraced and traced, and the per-layer metrics are printed from
the traced ones (see spans.py).  One row for the workload is printed, then
one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import spans  # noqa: E402

SETUP_SAMPLES = 5  # import-only children top up set-up samples to this count
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "solve_s": "s",
    "solve_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_J": "cost",
}

# unit per per-layer metric; which end-to-end metric each should move, on
# which workload, is in perfbench/README.md
PER_LAYER = {
    "cli.load_config_s": "s", "cli.realize_s": "s", "cli.self_s": "s",
    "expr.calls": "count", "expr.points": "count", "expr.dual_points": "count",
    "expr.self_s": "s", "expr.ns_per_point": "ns",
    "terrain.calls": "count", "terrain.points": "count", "terrain.self_s": "s",
    "terrain.ns_per_point": "ns", "terrain.load_s": "s",
    "cost.batch_calls": "count", "cost.arcs": "count", "cost.samples": "count",
    "cost.self_s": "s", "cost.ns_per_arc": "ns", "cost.bytes_computed": "B",
    "cost.smooth_calls": "count", "cost.smooth_self_s": "s", "cost.profile_s": "s",
    "dp.solves": "count", "dp.stages": "count", "dp.arcs": "count", "dp.self_s": "s",
    "dp.ns_per_arc": "ns", "dp.build_grid_s": "s",
    "localsearch.iterations": "count", "localsearch.improving_ratio": "ratio",
    "localsearch.arcs": "count", "localsearch.self_s": "s",
    "ritz.objective_evals": "count", "ritz.objective_s": "s", "ritz.basis_s": "s",
    "ritz.optimizer_s": "s", "ritz.ms_per_eval": "ms",
    "trace.solve_s": "s", "trace.overhead_ratio": "ratio",
}
COUNTS = {name for name, unit in PER_LAYER.items() if unit == "count"}


@dataclass
class Child:
    """Outcome of one child interpreter."""

    result: dict
    rss_mb: float
    wall_s: float
    error: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class ChildTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise ChildTimeout


def spawn(args: list[str], log: Path, timeout_s: float) -> Child:
    """Run child.py to completion; its rusage gives the peak RSS."""
    with log.open("w") as out:
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(spawned_at)]
        proc = subprocess.Popen(cmd + args, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s = time.monotonic() - spawned_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text().splitlines()
    error = None
    result = None
    if proc.returncode != 0:
        error = f"child exited with {proc.returncode}: {' | '.join(lines[-3:])}"
    else:
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            error = "child printed no result"
    if result is not None and not str(result.get("module", "")).startswith(str(SRC)):
        error = f"child imported terracost from {result.get('module')}, not {SRC}"
    return Child(result or {}, usage.ru_maxrss / 1024.0, wall_s, error)


def tail(values: list[float]) -> tuple[float, str]:
    """The slowest solve of the run.

    The highest percentile with ten samples beyond it lies at or below the
    median until a run holds 22 solves, and no workload reaches that many in
    one run.  Switching to it once a faster program fits more solves would
    read as a false gain, so the tail is the maximum at every sample count.
    """
    return max(values), f"max of n={len(values)}"


def layer_metrics(spans_path: Path, solve_s: float) -> dict[str, float]:
    records = spans.read_jsonl(spans_path)
    t = spans.layer_totals(records)

    def get(name: str, key: str = "self_s") -> float:
        return t.get(name, {}).get(key, 0)

    def per(num: float, den: float, scale: float) -> float:
        return num * scale / den if den else 0.0

    expr_self = get("expr.eval") + get("expr.eval_dual")
    expr_points = get("expr.eval", "points")
    expr_dual = get("expr.eval_dual", "points")
    terrain_names = ("terrain.value", "terrain.value_and_partials")
    terrain_self = sum(get(n) for n in terrain_names)
    terrain_points = sum(get(n, "points") for n in terrain_names)
    arcs = get("cost.segment_cost_batch", "arcs")
    cost_self = get("cost.segment_cost_batch")
    dp_self = get("dp.solve") + get("dp.solve_refined")
    # from the shapes of the batches priced inside dp.solve, independent of
    # the solver's own diagnostics, which the report's count comes from
    dp_arcs = spans.nested_sum(records, "dp.solve", "cost.segment_cost_batch", "arcs")
    iterations = get("localsearch.step", "calls")
    evals = get("ritz.objective", "calls")
    return {
        "cli.load_config_s": get("cli.load_config"),
        "cli.realize_s": get("cli.realize"),
        "cli.self_s": get("cli.main"),
        "expr.calls": get("expr.eval", "calls") + get("expr.eval_dual", "calls"),
        "expr.points": expr_points,
        "expr.dual_points": expr_dual,
        "expr.self_s": expr_self,
        "expr.ns_per_point": per(expr_self, expr_points + expr_dual, 1e9),
        "terrain.calls": sum(get(n, "calls") for n in terrain_names),
        "terrain.points": terrain_points,
        "terrain.self_s": terrain_self,
        "terrain.ns_per_point": per(terrain_self, terrain_points, 1e9),
        "terrain.load_s": get("terrain.load_heightmap"),
        "cost.batch_calls": get("cost.segment_cost_batch", "calls"),
        "cost.arcs": arcs,
        "cost.samples": get("cost.segment_cost_batch", "samples"),
        "cost.self_s": cost_self,
        "cost.ns_per_arc": per(cost_self, arcs, 1e9),
        # one float64 per quadrature sample: the size of each (arcs, q+1)
        # array the tableau kernel computes, from shapes, not measured
        "cost.bytes_computed": 8 * get("cost.segment_cost_batch", "samples"),
        "cost.smooth_calls": get("cost.smooth_path_cost", "calls"),
        "cost.smooth_self_s": get("cost.smooth_path_cost"),
        "cost.profile_s": get("cost.path_cost_profile", "total_s"),
        "dp.solves": get("dp.solve", "calls"),
        "dp.stages": get("dp.solve", "stages"),
        "dp.arcs": dp_arcs,
        "dp.self_s": dp_self,
        "dp.ns_per_arc": per(dp_self, dp_arcs, 1e9),
        "dp.build_grid_s": get("dp.build_grid"),
        "localsearch.iterations": iterations,
        "localsearch.improving_ratio": per(get("localsearch.step", "improving"), iterations, 1.0),
        "localsearch.arcs": get("localsearch.step", "arcs"),
        "localsearch.self_s": get("localsearch.run") + get("localsearch.step"),
        "ritz.objective_evals": evals,
        "ritz.objective_s": get("ritz.objective", "total_s"),
        "ritz.basis_s": get("ritz.candidate_eval"),
        "ritz.optimizer_s": get("ritz.minimize"),
        "ritz.ms_per_eval": per(get("ritz.objective", "total_s"), evals, 1e3),
        "trace.solve_s": solve_s,
    }


def run_workload(name: str, config: Path, seconds: float, trace: bool, small: bool) -> dict:
    import checks  # imports terracost, which main() has put on the path

    checker = checks.Checker(name, config, references=not small)
    wdir = config.parent
    out_dir = wdir / "out"
    spans_path = wdir / "spans.jsonl"
    log = wdir / "child.log"
    spawn(["--import-only"], log, CHILD_TIMEOUT_S)  # fills the bytecode cache
    solves: list[dict] = []
    setups: list[float] = []
    failures: list[str] = []
    start = time.monotonic()
    last_wall = {False: 0.0, True: 0.0}
    while True:
        traced = trace and len(solves) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["--config", str(config), "--out", str(out_dir), "--run-id", str(len(solves))]
        if traced:
            args += ["--trace", str(spans_path)]
        child = spawn(args, log, CHILD_TIMEOUT_S)
        last_wall[traced] = child.wall_s
        solve = {"traced": traced, "ok": False, "solve_s": child.result.get("solve_s"),
                 "rss_mb": child.rss_mb}
        solves.append(solve)
        problems = [child.error] if child.error else []
        if not problems and child.result.get("exit_code") != 0:
            problems.append(f"terracost solve exited with {child.result.get('exit_code')}")
        if not problems:
            cost_j, report, problems = checker.check(out_dir)
            solve["cost_J"] = cost_j
            if traced and not problems:
                solve["layers"] = layer_metrics(spans_path, solve["solve_s"])
                expected = checks.expected_sweep_arcs(report)
                if solve["layers"]["dp.arcs"] != expected:
                    problems.append(f"dp.arcs {solve['layers']['dp.arcs']} != report's {expected}")
        if not traced and "setup_s" in child.result:
            setups.append(child.result["setup_s"])
        solve["ok"] = not problems
        failures += [f"solve {len(solves) - 1}: {p}" for p in problems]
        elapsed = time.monotonic() - start
        next_traced = trace and len(solves) % 2 == 1
        if trace and len(solves) < 2:
            continue
        if elapsed + (last_wall[next_traced] or child.wall_s) > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        probe = spawn(["--import-only"], log, CHILD_TIMEOUT_S)
        if probe.error:
            failures.append(f"set-up probe: {probe.error}")
            break
        setups.append(probe.result["setup_s"])
    return summarize(solves, setups, failures, trace)


def _median(values):
    return statistics.median(values) if values else None


def summarize(solves: list[dict], setups: list[float], failures: list[str], trace: bool) -> dict:
    plain = [s for s in solves if not s["traced"] and s["ok"]]
    times = [s["solve_s"] for s in plain]
    tail_value, tail_note = tail(times) if times else (None, "no samples")
    metrics = {
        "solve_s": _median(times),
        "solve_s_tail": tail_value,
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s["rss_mb"] for s in plain]),
        "cost_J": _median([s["cost_J"] for s in plain]),
    }
    notes = {"solve_s_tail": tail_note, "setup_s": f"n={len(setups)}"}
    if trace:
        traced = [s["layers"] for s in solves if s["traced"] and s["ok"]]
        layers = {}
        for key in PER_LAYER:
            values = [t[key] for t in traced if key in t]
            if key in COUNTS and len(set(values)) > 1:
                failures.append(f"{key} differs between traced solves: {sorted(set(values))}")
            layers[key] = _median(values)
        traced_s = layers["trace.solve_s"]
        if traced_s and metrics["solve_s"]:
            layers["trace.overhead_ratio"] = traced_s / metrics["solve_s"] - 1.0
        metrics = layers
        notes = {"trace.overhead_ratio": f"traced n={len(traced)}, untraced n={len(times)}"}
    return {
        "attempted": len(solves),
        "failed": sum(not s["ok"] for s in solves),
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return str(int(value))
    return f"{value:.6g}"


def print_row(name: str, summary: dict, units: dict) -> None:
    cells = [f"{name:<18}"]
    for key, value in summary["metrics"].items():
        cell = f"{key}={_fmt(value)} {units[key]}"
        if key in summary["notes"]:
            cell += f" ({summary['notes'][key]})"
        cells.append(cell)
    cells.append(f"fail_ratio={summary['failed']}/{summary['attempted']}")
    print("  ".join(cells))
    for failure in summary["failures"]:
        print(f"  FAILED {name}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="terracost benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "terracost" / "__init__.py").is_file():
        print(f"error: no terracost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    config = gen.write_inputs(args.seed, WORK, small=args.small)[args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    summary = run_workload(args.workload, config, args.seconds, bool(args.trace), args.small)
    print_row(args.workload, summary, units)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()}
    values_ok = all(m["value"] is not None and math.isfinite(m["value"]) for m in metrics.values())
    correct = summary["failed"] == 0 and values_ok and not summary["failures"]
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
