"""The trajectory cost functional and its quadrature.

A path y(x) over span [0, l] lies on the relief z = phi(x, y(x)), so its
3-D arc-length density per unit x is

    Phi(x) = sqrt(1 + y'(x)^2 + z'(x)^2),
    z'(x)  = phi_x(x, y(x)) + phi_y(x, y(x)) * y'(x).

The total cost charges two rates along the path: a construction rate
beta(x, y) per unit built length, and a delivery rate alpha(x, y) per unit
built length times the length of road already completed between the origin
and the working point (materials travel over the finished prefix).  That
prefix length is the inner integral of Phi from 0 to x, which makes the
functional non-additive over segments: every segment cost depends on the
arc length accumulated before it.

In the flattened 2-D mode z' is dropped entirely and the relief is ignored.

One kernel, :func:`_tableau`, samples the fields and integrates.  It prices
a batch of pieces (segments or mesh cells), each with q + 1 samples, as
the affine split delta_j = fixed_cost + prefix_slope * len_start plus the
piece's own arc length, and leaves the ``len_start`` threading to its
three callers:

* :func:`segment_cost_batch` - every from/to pair of one stage transition;
* :func:`path_cost_profile`  - all segments of one polyline at once;
* :func:`smooth_path_cost`   - the mesh cells of a smooth candidate curve,
  sampled on a :func:`smooth_mesh`.

Quadrature is a composite trapezoid rule with ``q`` subintervals per
piece; the inner prefix integral uses trapezoid prefix sums over the same
sample points, so inner and outer sampling stay aligned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .terrain import ScalarField2D

__all__ = [
    "CostMode",
    "CostModel",
    "SegmentTableau",
    "path_cost",
    "path_cost_profile",
    "segment_cost_batch",
    "smooth_mesh",
    "smooth_path_cost",
]


class CostMode(enum.Enum):
    FULL_3D = "full3d"
    FLAT_2D = "flat2d"


@dataclass(frozen=True)
class CostModel:
    """Field bundle plus evaluation settings for the cost functional.

    ``quadrature_subdivisions`` must be even and >= 2 (composite scheme).
    In FLAT_2D mode ``phi`` is ignored by cost evaluation and may be None.
    """

    alpha: ScalarField2D
    beta: ScalarField2D
    phi: ScalarField2D | None = None
    mode: CostMode = CostMode.FULL_3D
    quadrature_subdivisions: int = 16

    def __post_init__(self):
        q = self.quadrature_subdivisions
        if q < 2 or q % 2 != 0:
            raise ValueError(f"quadrature_subdivisions must be even and >= 2, got {q}")
        if self.mode is CostMode.FULL_3D and self.phi is None:
            raise ValueError("full 3-D mode requires a relief field phi")


class SegmentTableau(NamedTuple):
    """Per-piece costs split by their dependence on the prefix.

    A piece's added cost is affine in the arc length already built before
    it: delta_j = fixed_cost + prefix_slope * len_start, where prefix_slope
    is the integral of alpha * Phi over the piece.  ``delta_len`` is the
    integral of Phi (the piece's own arc length).
    """

    fixed_cost: np.ndarray
    prefix_slope: np.ndarray
    delta_len: np.ndarray


def _trapz(g: np.ndarray, h) -> np.ndarray:
    # Composite trapezoid along the last axis; h broadcasts against g.
    ends = 0.5 * (g[..., :1] + g[..., -1:])
    return (h * (ends + g[..., 1:-1].sum(axis=-1, keepdims=True)))[..., 0]


def _tableau(model: CostModel, xs, ys, yp, h) -> SegmentTableau:
    """The quadrature kernel: integrate one batch of pieces.

    ``xs``/``ys`` are sample grids whose last axis holds q+1 quadrature
    points per piece; ``yp`` is the path slope at the samples and ``h`` the
    sample spacing of each piece, both broadcastable against them.
    """
    if model.mode is CostMode.FULL_3D:
        _, px, py = model.phi.value_and_partials(xs, ys)
        zp = px + py * yp
        phi_arc = np.sqrt(1.0 + yp * yp + zp * zp)
    else:
        phi_arc = np.sqrt(1.0 + yp * yp)
    phi_arc = np.broadcast_to(phi_arc, ys.shape)

    # Within-piece arc-length prefix (trapezoid prefix sums).
    panel = 0.5 * h * (phi_arc[..., :-1] + phi_arc[..., 1:])
    prefix = np.concatenate(
        [np.zeros(panel.shape[:-1] + (1,)), np.cumsum(panel, axis=-1)], axis=-1
    )

    a = np.broadcast_to(np.asarray(model.alpha.value(xs, ys)), ys.shape)
    b = np.broadcast_to(np.asarray(model.beta.value(xs, ys)), ys.shape)
    delivery = a * phi_arc
    fixed = _trapz(delivery * prefix, h) + _trapz(b * phi_arc, h)
    slope = _trapz(delivery, h)
    return SegmentTableau(fixed, slope, prefix[..., -1])


def _linear_tableau(model: CostModel, x_start, tau, y_from, y_to) -> SegmentTableau:
    # Straight segments (x_start, y_from) -> (x_start + tau, y_to); the
    # arguments broadcast against each other with a trailing sample axis.
    q = model.quadrature_subdivisions
    ts = np.arange(q + 1) / q
    xs = x_start + tau * ts
    ys = y_from + (y_to - y_from) * ts
    return _tableau(model, xs, ys, (y_to - y_from) / tau, tau / q)


def segment_cost_batch(
    model: CostModel, x_start: float, tau: float, y_from, y_to
) -> SegmentTableau:
    """Evaluate all from x to pairs of one stage transition in one call.

    Returns arrays of shape (len(y_from), len(y_to)).  Each pair is the
    linear segment from (x_start, y_from[k]) to (x_start + tau, y_to[s]).
    """
    if tau <= 0:
        raise ValueError(f"segment width must be positive, got {tau}")
    yf = np.asarray(y_from, dtype=float)[:, None, None]
    yt = np.asarray(y_to, dtype=float)[None, :, None]
    return _linear_tableau(model, x_start, tau, yf, yt)


def path_cost_profile(model: CostModel, xs, ys):
    """Cost of a polyline plus its cumulative length/cost per knot.

    Returns (total_cost, cum_length, cum_cost).  All segments are priced in
    one kernel call, and the prefix length threads through them in the stage
    sweep's (total + fixed) + length * slope order, so a solver's reported
    cost and this evaluation of its knots agree bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("polyline needs matching 1-D x and y knots (>= 2)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("polyline x-knots must be strictly increasing")
    if abs(xs[0]) > 1e-12:
        raise ValueError(f"polyline must start at x = 0, got {xs[0]}")
    tab = _linear_tableau(
        model, xs[:-1, None], np.diff(xs)[:, None], ys[:-1, None], ys[1:, None]
    )
    cum_len = np.concatenate([[0.0], np.cumsum(tab.delta_len)])
    # cumsum is sequential: over 0, fixed_0, len_0*slope_0, fixed_1, ... its
    # even entries are the running totals in the sweep's association order.
    terms = np.stack([tab.fixed_cost, cum_len[:-1] * tab.prefix_slope], axis=-1)
    cum_cost = np.cumsum(np.concatenate([[0.0], terms.ravel()]))[::2]
    total = float(cum_cost[-1])
    if not np.isfinite(total):
        raise ValueError("non-finite path cost: fields are singular along the path")
    return total, cum_len, cum_cost


def path_cost(model: CostModel, xs, ys) -> float:
    """Functional value of a piecewise-linear trajectory given by its knots."""
    total, _, _ = path_cost_profile(model, xs, ys)
    return total


def smooth_mesh(mesh_points: int, length: float, q: int):
    """Quadrature samples of a smooth curve's mesh on [0, length].

    The span is split into ``mesh_points`` - 1 cells of q + 1 samples each.
    Returns (xs, h): the (cells, q + 1) sample abscissae and their spacing,
    ready for :func:`smooth_path_cost`.
    """
    if mesh_points < 64:
        raise ValueError(f"mesh_points must be >= 64, got {mesh_points}")
    if length <= 0:
        raise ValueError(f"span length must be positive, got {length}")
    mesh = np.linspace(0.0, length, mesh_points)
    cell = length / (mesh_points - 1)
    return mesh[:-1, None] + cell * (np.arange(q + 1) / q), cell / q


def smooth_path_cost(model: CostModel, xs, ys, yp, h) -> float:
    """Functional value of a smooth candidate sampled on a :func:`smooth_mesh`.

    ``ys`` and ``yp`` are the exact curve y(x) and its slope at the mesh
    samples ``xs`` (no chord approximation); each cell is integrated by the
    composite trapezoid scheme and the prefix length threads across cells.
    """
    tab = _tableau(model, xs, ys, yp, h)
    len_start = np.concatenate([[0.0], np.cumsum(tab.delta_len)[:-1]])
    total = float(np.sum(tab.fixed_cost + len_start * tab.prefix_slope))
    if not np.isfinite(total):
        raise ValueError("non-finite path cost: fields are singular along the path")
    return total
