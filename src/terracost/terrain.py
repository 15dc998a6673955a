"""Scalar fields over the corridor plane.

Two implementations of the same contract: analytic fields backed by parsed
expressions, and gridded heightmaps turned into a C^1 interpolant.  Either
can serve as relief, cost rate, or feasibility mask.  A field answers two
queries, ``value(x, y)`` and ``value_and_partials(x, y)``, for scalar or
array inputs, and is immutable once built, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .expr import Expression, Scalar, parse

__all__ = [
    "ExpressionField",
    "FieldDomainError",
    "Heightmap",
    "HeightmapField",
    "ScalarField2D",
    "feasible",
    "field_from_expression",
    "field_from_heightmap",
    "load_heightmap",
    "write_heightmap",
]


class FieldDomainError(ValueError):
    """A query fell outside the region where the field is defined."""


class ScalarField2D(Protocol):
    """A twice-differentiable real function of (x, y), queried pointwise."""

    def value(self, x: Scalar, y: Scalar) -> Scalar: ...

    def value_and_partials(self, x: Scalar, y: Scalar) -> tuple[Scalar, Scalar, Scalar]: ...


# ---------------------------------------------------------------------------
# analytic fields


@dataclass(frozen=True)
class ExpressionField:
    """Field whose value and gradient come from expression evaluation.

    Defined on the whole plane.
    """

    expression: Expression

    def value(self, x, y):
        return self.expression.eval(x, y)

    def value_and_partials(self, x, y):
        return tuple(self.expression.eval_dual(x, y))


def field_from_expression(source: str | Expression) -> ExpressionField:
    """Build an analytic field from expression text or a parsed expression."""
    expression = parse(source) if isinstance(source, str) else source
    return ExpressionField(expression)


# ---------------------------------------------------------------------------
# heightmaps


@dataclass(frozen=True)
class Heightmap:
    """Regular grid of elevation samples.

    ``z[r][c]`` is the sample at (x0 + c*hx, y0 + r*hy): columns run along x,
    rows along y.  At least a 4x4 grid is required so every cell has a full
    interpolation stencil after edge clamping.
    """

    x0: float
    y0: float
    hx: float
    hy: float
    z: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        for name in ("x0", "y0", "hx", "hy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if z.ndim != 2 or z.shape[0] < 4 or z.shape[1] < 4:
            raise ValueError(f"heightmap needs at least 4x4 samples, got {z.shape}")
        if not (self.hx > 0 and self.hy > 0):
            raise ValueError("heightmap cell sizes must be positive")
        if not np.all(np.isfinite(z)):
            raise ValueError("heightmap contains non-finite samples")

    @property
    def nrows(self) -> int:
        return self.z.shape[0]

    @property
    def ncols(self) -> int:
        return self.z.shape[1]


def load_heightmap(path: str | Path) -> Heightmap:
    """Read the plain-text format: ``nrows ncols x0 y0 hx hy`` then the rows.

    Row r of the matrix corresponds to increasing y.
    """
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError(
                f"{path}: header must be 'nrows ncols x0 y0 hx hy', got {len(header)} fields"
            )
        nrows, ncols = int(header[0]), int(header[1])
        x0, y0, hx, hy = (float(v) for v in header[2:])
        z = np.loadtxt(fh, ndmin=2)
    if z.shape != (nrows, ncols):
        raise ValueError(f"{path}: expected {nrows}x{ncols} samples, got {z.shape}")
    return Heightmap(x0, y0, hx, hy, z)


def write_heightmap(heightmap: Heightmap, path: str | Path) -> None:
    h = heightmap
    with Path(path).open("w") as fh:
        fh.write(f"{h.nrows} {h.ncols} {h.x0!r} {h.y0!r} {h.hx!r} {h.hy!r}\n")
        for row in h.z:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# Catmull-Rom on a unit cell (Keys 1981, a = -1/2): row a holds the t^a
# coefficients of the weights of the nodes f[-1], f[0], f[1], f[2].
_CATMULL_ROM = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-0.5, 0.0, 0.5, 0.0], [1.0, -2.5, 2.0, -0.5], [-0.5, 1.5, -1.5, 0.5]]
)


def _horner(c, t):
    # The cubic with coefficients c[..., 0..3], by power of t, at t.
    return ((c[..., 3] * t + c[..., 2]) * t + c[..., 1]) * t + c[..., 0]


def _horner_slope(c, t):
    # Its derivative in t.
    return (3.0 * c[..., 3] * t + 2.0 * c[..., 2]) * t + c[..., 1]


class HeightmapField:
    """C^1 interpolant of a heightmap (bicubic, Catmull-Rom tangents).

    Reproduces samples at grid nodes: exactly where a cell starts, to
    rounding on the far edge of the last row and column (t = 1).  Partial
    derivatives are the interpolant's analytic derivatives.  Edge
    rows/columns are clamped, which keeps the surface C^1 across every
    interior cell boundary.  Each cell's bicubic is stored as its 4x4
    polynomial coefficients C = M P M^T, from the cell's clamped 4x4
    stencil P and the Catmull-Rom matrix M: 128 bytes per cell, built once.
    Queries outside the footprint, or not finite, raise
    :class:`FieldDomainError`.
    """

    def __init__(self, heightmap: Heightmap):
        self._h = heightmap
        stencils = sliding_window_view(np.pad(heightmap.z, 1, mode="edge"), (4, 4))
        # C[a, b] multiplies ty^a tx^b; 16 contiguous numbers per cell.
        self._coef = (_CATMULL_ROM @ stencils @ _CATMULL_ROM.T).reshape(-1, 4, 4)

    def _locate(self, coord, origin, step, count, axis):
        u = (np.asarray(coord, dtype=float) - origin) / step
        n_cells = count - 1
        tol = 1e-9 * max(1.0, n_cells)
        if not np.all((u >= -tol) & (u <= n_cells + tol)):
            raise FieldDomainError(
                f"{axis} query not finite or outside heightmap footprint (0..{n_cells} cells)"
            )
        u = np.clip(u, 0.0, float(n_cells))
        idx = np.minimum(np.floor(u).astype(int), n_cells - 1)
        return idx, u - idx

    def _evaluate(self, ix, tx, iy, ty, want_partials):
        h = self._h
        c = np.take(self._coef, np.asarray(iy) * (h.ncols - 1) + ix, axis=0)
        tx = np.asarray(tx)[..., None]
        # Horner in tx for each power of ty, then in ty.
        rows = _horner(c, tx)
        v = _horner(rows, ty)
        if not want_partials:
            return v, None, None
        vx = _horner(_horner_slope(c, tx), ty) / h.hx
        vy = _horner_slope(rows, ty) / h.hy
        return v, vx, vy

    def _interp(self, x, y, want_partials):
        h = self._h
        scalar_in = np.ndim(x) == 0 and np.ndim(y) == 0
        ix, tx = self._locate(x, h.x0, h.hx, h.ncols, "x")
        iy, ty = self._locate(y, h.y0, h.hy, h.nrows, "y")
        ix, iy = np.broadcast_arrays(ix, iy)
        tx, ty = np.broadcast_arrays(tx, ty)
        v, vx, vy = self._evaluate(ix, tx, iy, ty, want_partials)
        if scalar_in:
            if want_partials:
                return float(v), float(vx), float(vy)
            return float(v)
        return (v, vx, vy) if want_partials else v

    def value(self, x, y):
        return self._interp(x, y, want_partials=False)

    def value_and_partials(self, x, y):
        return self._interp(x, y, want_partials=True)


def field_from_heightmap(heightmap: Heightmap) -> HeightmapField:
    """Wrap a heightmap in its C^1 interpolating field."""
    return HeightmapField(heightmap)


# ---------------------------------------------------------------------------
# feasibility


def feasible(mask: ScalarField2D | None, x: Scalar, y: Scalar):
    """True where the point is allowed: no mask, or mask value <= 0.

    The boundary (mask exactly 0) counts as feasible.  Array inputs return
    an array of booleans.
    """
    if mask is None:
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return True
        return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=bool)
    v = mask.value(x, y)
    if np.ndim(v) == 0:
        return bool(v <= 0.0)
    return np.asarray(v) <= 0.0
