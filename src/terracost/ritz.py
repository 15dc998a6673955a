"""Benchmark solver over a sine-series trial space.

Candidates take the form

    y(x) = (y_l / l) * x + sum_k a_k sin(pi k x / l),    k = 1..K,

so both boundary conditions hold for every coefficient vector and the
search is over the K coefficients alone.  The objective is the smooth-path
cost on a fixed quadrature mesh, minimized by derivative-free Nelder-Mead
descent; differentiating through the nested delivery integral is not worth
the trouble for a cross-check solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .cost import CostModel, smooth_path_cost

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


def candidate_eval(candidate: RitzCandidate, x):
    """Value and slope (y, y') of the candidate; accepts arrays."""
    a = candidate.coefficients
    freqs = np.pi * np.arange(1, a.size + 1) / candidate.span
    chord_slope = candidate.end_ordinate / candidate.span
    xk = np.asarray(x, dtype=float)[..., None] * freqs
    y = chord_slope * np.asarray(x, dtype=float) + (np.sin(xk) * a).sum(axis=-1)
    yp = chord_slope + (np.cos(xk) * (freqs * a)).sum(axis=-1)
    if np.ndim(x) == 0:
        return float(y), float(yp)
    return y, yp


def objective(candidate: RitzCandidate, model: CostModel) -> float:
    """Smooth-path cost of the candidate on its quadrature mesh."""
    return smooth_path_cost(
        model, lambda x: candidate_eval(candidate, x), candidate.mesh_points, candidate.span
    )


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
