"""Span recorder for traced benchmark solves.

:func:`install` wraps the public entry points of each terracost module (its
layers) from outside the program.  A wrapper is installed under every name
a caller looks the function up by: ``dp`` imports ``segment_cost_batch`` by
name, ``ritz`` imports ``smooth_path_cost``, ``cli`` imports
``path_cost_profile`` and ``load_heightmap``, ``localsearch`` imports
``path_cost``, so patching only the defining module would miss those calls.

Each span is (name, start_ns, end_ns, parent index, counts).  Spans stay in
memory and are written out as JSONL when the solve ends; :func:`layer_totals`
turns a span list into per-function call counts, work counts and self
times (span time minus the time its child spans cover).  Every traced span
nests under the ``cli.main`` span, which is the timed call, so the self times
add up to the traced solve time by construction.

The ``oracle`` module is not traced: it is the small-grid verification
reference and lies on no solve path.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np


def _points(args, kwargs, result):
    # (self, x, y): number of evaluation points after broadcasting.
    return {"points": int(np.broadcast(args[1], args[2]).size)}


def _batch(args, kwargs, result):
    model, _, _, y_from, y_to = args
    arcs = int(np.size(y_from) * np.size(y_to))
    return {"arcs": arcs, "samples": arcs * (model.quadrature_subdivisions + 1)}


def _dp_solve(args, kwargs, result):
    return {"stages": int(args[0].n)}


def _step(args, kwargs, result):
    incumbent = args[0]
    return {"arcs": int(result.evaluations), "improving": int(result.cost < incumbent.cost)}


# (module, attribute or Class.method, span name, work counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "realize", "cli.realize", None),
    ("expr", "Expression.eval", "expr.eval", _points),
    ("expr", "Expression.eval_dual", "expr.eval_dual", _points),
    ("terrain", "HeightmapField.value", "terrain.value", _points),
    ("terrain", "HeightmapField.value_and_partials", "terrain.value_and_partials", _points),
    ("terrain", "load_heightmap", "terrain.load_heightmap", None),
    ("cost", "segment_cost_batch", "cost.segment_cost_batch", _batch),
    ("cost", "smooth_path_cost", "cost.smooth_path_cost", None),
    ("cost", "path_cost_profile", "cost.path_cost_profile", None),
    ("dp", "solve", "dp.solve", _dp_solve),
    ("dp", "solve_refined", "dp.solve_refined", None),
    ("dp", "build_grid", "dp.build_grid", None),
    ("localsearch", "run", "localsearch.run", None),
    ("localsearch", "step", "localsearch.step", _step),
    ("ritz", "minimize", "ritz.minimize", None),
    ("ritz", "objective", "ritz.objective", None),
    ("ritz", "candidate_eval", "ritz.candidate_eval", None),
)


class Recorder:
    """In-memory span list plus the stack of open spans (single thread)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, counter(args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for name, start, end, parent, counts in self.spans:
                record = {"run": self.run_id, "name": name, "start": start,
                          "end": end, "parent": parent}
                if counts:
                    record.update(counts)
                fh.write(json.dumps(record) + "\n")


def install(recorder: Recorder) -> None:
    """Replace every traced function, under every name it is bound to."""
    for module_name, attr, span_name, counter in TARGETS:
        module = sys.modules[f"terracost.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(span_name, getattr(cls, method), counter))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(span_name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "terracost" or mod_name.startswith("terracost."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh]


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, summed work counts, total and self seconds."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = {}
    for span, children in zip(spans, child_ns):
        entry = totals.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_s"] += duration * 1e-9
        entry["self_s"] += (duration - children) * 1e-9
        for key, value in span.items():
            if key not in ("run", "name", "start", "end", "parent"):
                entry[key] = entry.get(key, 0) + value
    return totals


def nested_sum(spans: list[dict], outer: str, inner: str, key: str) -> int:
    """Sum of ``key`` over ``inner`` spans that have an ``outer`` ancestor."""
    total = 0
    for span in spans:
        if span["name"] != inner:
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != outer:
            parent = spans[parent]["parent"]
        if parent >= 0:
            total += span[key]
    return total
