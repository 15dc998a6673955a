"""Benchmark solver over a sine-series trial space.

Candidates take the form

    y(x) = (y_l / l) * x + sum_k a_k sin(pi k x / l),    k = 1..K,

so both boundary conditions hold for every coefficient vector and the
search is over the K coefficients alone.  The objective is the smooth-path
cost on a fixed quadrature mesh, minimized by derivative-free Nelder-Mead
descent; differentiating through the nested delivery integral is not worth
the trouble for a cross-check solver.

Only the coefficients change between objective calls, so the trial-space
basis (sin and cos of every mesh sample times every frequency, and the
chord) is tabulated once per (span, end ordinate, K, mesh points, q) and
shared read-only; an evaluation is then two table products plus the field
evaluation and pricing.  scipy is imported by :func:`minimize` alone, so
importing terracost does not pay for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost import CostModel, smooth_mesh, smooth_path_cost

__all__ = ["RitzCandidate", "RitzResult", "candidate_eval", "minimize", "objective"]


@dataclass(frozen=True)
class RitzCandidate:
    """Chord-plus-sine-series trial trajectory.

    ``coefficients[k-1]`` multiplies sin(pi k x / span); the chord
    interpolates (0, 0) to (span, end_ordinate).
    """

    coefficients: np.ndarray
    span: float
    end_ordinate: float
    mesh_points: int = 512

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", a)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D vector")
        if self.span <= 0:
            raise ValueError(f"span must be positive, got {self.span}")

    @property
    def basis_size(self) -> int:
        return self.coefficients.size


@dataclass
class RitzResult:
    candidate: RitzCandidate
    cost: float
    evaluations: int
    converged: bool


class _SampledBasis(NamedTuple):
    """The trial-space basis at abscissae x (K = number of terms)."""

    freqs: np.ndarray  # (K,) pi k / span
    chord_slope: float
    chord: np.ndarray  # chord_slope * x
    sin_xk: np.ndarray  # sin(x * freqs), shape x.shape + (K,)
    cos_xk: np.ndarray


def _sample_basis(x: np.ndarray, basis_size: int, span: float, end_ordinate: float):
    freqs = np.pi * np.arange(1, basis_size + 1) / span
    chord_slope = end_ordinate / span
    xk = x[..., None] * freqs
    return _SampledBasis(freqs, chord_slope, chord_slope * x, np.sin(xk), np.cos(xk))


def _series(basis: _SampledBasis, a: np.ndarray):
    """Value and slope (y, y') of the trial curve with coefficients ``a``."""
    y = basis.chord + (basis.sin_xk * a).sum(axis=-1)
    yp = basis.chord_slope + (basis.cos_xk * (basis.freqs * a)).sum(axis=-1)
    return y, yp


@functools.lru_cache(maxsize=8)
def _mesh_basis(span, end_ordinate, basis_size, mesh_points, q):
    """(xs, h, basis) on the smooth mesh; every caller shares the arrays."""
    xs, h = smooth_mesh(mesh_points, span, q)
    basis = _sample_basis(xs, basis_size, span, end_ordinate)
    for table in (xs, basis.freqs, basis.chord, basis.sin_xk, basis.cos_xk):
        table.flags.writeable = False
    return xs, h, basis


def candidate_eval(candidate: RitzCandidate, x):
    """Value and slope (y, y') of the candidate; accepts arrays."""
    x = np.asarray(x, dtype=float)
    basis = _sample_basis(x, candidate.basis_size, candidate.span, candidate.end_ordinate)
    y, yp = _series(basis, candidate.coefficients)
    if x.ndim == 0:
        return float(y), float(yp)
    return y, yp


def objective(candidate: RitzCandidate, model: CostModel) -> float:
    """Smooth-path cost of the candidate on its quadrature mesh."""
    xs, h, basis = _mesh_basis(
        candidate.span,
        candidate.end_ordinate,
        candidate.basis_size,
        candidate.mesh_points,
        model.quadrature_subdivisions,
    )
    ys, yps = _series(basis, candidate.coefficients)
    return smooth_path_cost(model, xs, ys, yps, h)


def minimize(
    model: CostModel,
    span: float,
    end_ordinate: float,
    basis_size: int = 10,
    mesh_points: int = 512,
    budget: int = 50000,
) -> RitzResult:
    """Nelder-Mead descent from the plain chord (all coefficients zero).

    The initial simplex steps each coefficient by 0.1; the search stops at
    1e-8 simplex spread or after ``budget`` objective evaluations, whichever
    comes first.  Exhausting the budget is reported via ``converged``, not
    raised.  The simplex always retains its best vertex, so the result never
    exceeds the zero-coefficient cost.
    """
    if basis_size < 1:
        raise ValueError(f"basis_size must be >= 1, got {basis_size}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    from scipy import optimize  # deferred: only this solver needs scipy

    def fun(a: np.ndarray) -> float:
        cand = RitzCandidate(a, span, end_ordinate, mesh_points)
        return objective(cand, model)

    x0 = np.zeros(basis_size)
    simplex = np.vstack([x0, x0 + 0.1 * np.eye(basis_size)])
    res = optimize.minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "maxfev": budget,
            "xatol": 1e-8,
            "fatol": 1e-8,
        },
    )
    best = RitzCandidate(res.x, span, end_ordinate, mesh_points)
    return RitzResult(
        candidate=best,
        cost=float(res.fun),
        evaluations=int(res.nfev),
        converged=bool(res.success),
    )
