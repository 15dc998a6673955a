"""Seeded input generator for the terracost benchmark.

Writes one directory per workload holding everything the program reads: a
run config (JSON) and, for ``local-heightmap3d``, the relief heightmap in
the README's plain-text format.  The mask is a circular-obstacle
expression stored inline in that config.

Only ``local-heightmap3d`` depends on the seed.  ``sweep-ridge2d`` and
``ritz-relief3d`` are the fixed acceptance problems, whose reference optima
serve as output checks.

Usage: python3 perfbench/gen.py --seed 7 --out DIR [--small]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-ridge2d", "local-heightmap3d", "ritz-relief3d")

RIDGE_ALPHA = "cos(5*x)^2*cos(y)^2"
RIDGE_BETA = "1+sin(5*x)*sin(y)"
RELIEF_PHI = "sin(5*x)*sin(y)"

# Heightmap of local-heightmap3d: one fixed broad hill beside the chord plus
# seeded small bumps.  The hill sets how far the windowed descent travels
# from the chord (about 70 iterations at tau 1/64); the seeded bumps are kept
# small so that the iteration count, and with it the work of one solve,
# stays within a few percent across seeds.
HILL = {"x": 0.65, "y": 0.35, "height": 0.3, "width": 0.2}
BUMPS = {"count": 40, "amplitude": 0.008, "width": 0.04}
# The circular obstacle sits on the hill top, its centre jittered by the seed.
OBSTACLE = {"radius": 0.06, "jitter": 0.03}
HEIGHTMAP_SIZE = 65  # samples per side on [0, 1]^2


def _heightmap(rng: np.random.Generator, size: int) -> np.ndarray:
    """Samples z[r][c] at (x, y) = (c, r) / (size - 1): rows run along y."""
    g = np.linspace(0.0, 1.0, size)
    x, y = np.meshgrid(g, g)

    def bump(cx, cy, height, width):
        return height * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))

    z = bump(HILL["x"], HILL["y"], HILL["height"], HILL["width"])
    for _ in range(BUMPS["count"]):
        cx, cy = rng.uniform(0.0, 1.0, 2)
        z += bump(cx, cy, BUMPS["amplitude"] * rng.uniform(-1.0, 1.0), BUMPS["width"])
    return z


def _write_heightmap(z: np.ndarray, path: Path) -> None:
    rows, cols = z.shape
    step = 1.0 / (cols - 1)
    lines = [f"{rows} {cols} 0.0 0.0 {step!r} {step!r}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in z]
    path.write_text("\n".join(lines) + "\n")


def _obstacle(rng: np.random.Generator) -> str:
    """Mask expression: positive (forbidden) inside a circle."""
    j = OBSTACLE["jitter"]
    cx = HILL["x"] + rng.uniform(-j, j)
    cy = HILL["y"] + rng.uniform(-j, j)
    r = OBSTACLE["radius"]
    return f"{r * r!r}-(x-{cx!r})^2-(y-{cy!r})^2"


def _configs(seed: int, small: bool) -> dict[str, tuple[dict, np.ndarray | None]]:
    rng = np.random.default_rng(seed)
    heights = _heightmap(rng, HEIGHTMAP_SIZE)
    mask = _obstacle(rng)
    unit = {"l": 1.0, "y_l": 1.0, "corridor": [0.0, 1.0]}
    relief_rates = {"alpha": {"expression": "0.1"}, "beta": {"expression": "0.5"}}
    sweep = {
        "problem": {**unit, "mode": "flat2d"},
        "fields": {
            "alpha": {"expression": RIDGE_ALPHA},
            "beta": {"expression": RIDGE_BETA},
        },
        # Levels 1/12, 1/24, 1/48; the finest has N = 333 and 5.10 M arcs.
        "solver": {"method": "dp", "tau": 1 / 12, "gamma": 1.0, "epsilon": 0.5,
                   "q": 16, "refine_levels": 0 if small else 2},
    }
    local = {
        "problem": {**unit, "mode": "full3d"},
        "fields": {"phi": {"heightmap": "heightmap.txt"}, **relief_rates,
                   "mask": {"expression": mask}},
        "solver": {"method": "local", "tau": 1 / 16 if small else 1 / 64,
                   "gamma": 1.0, "epsilon": 0.5, "m": 1, "q": 16},
    }
    ritz = {
        "problem": {**unit, "mode": "full3d"},
        "fields": {"phi": {"expression": RELIEF_PHI}, **relief_rates},
        "solver": {"method": "ritz", "K": 2 if small else 10, "M": 64 if small else 512,
                   "q": 16, "budget": 50000},
    }
    return {
        "sweep-ridge2d": (sweep, None),
        "local-heightmap3d": (local, heights),
        "ritz-relief3d": (ritz, None),
    }


def write_inputs(seed: int, out_dir: Path, small: bool = False) -> dict[str, Path]:
    """Write every workload's inputs under ``out_dir``; returns config paths.

    ``small`` shrinks each problem (coarser grids, a 2-term series) so that
    the benchmark's own tests run in seconds.
    """
    paths = {}
    for name, (config, heights) in _configs(seed, small).items():
        wdir = Path(out_dir) / name
        wdir.mkdir(parents=True, exist_ok=True)
        if heights is not None:
            _write_heightmap(heights, wdir / "heightmap.txt")
        config["output"] = {"trajectory_csv": "trajectory.csv",
                            "report_json": "report.json", "plot_data": "plot.dat"}
        path = wdir / "config.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    for name, path in write_inputs(args.seed, args.out, args.small).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
