"""Benchmark solver over a sine-series trial space.

Candidates take the form

    y(x) = (y_l / l) * x + sum_k a_k sin(pi k x / l),    k = 1..K,

so both boundary conditions hold for every coefficient vector and the
search is over the K coefficients alone.  The objective is the smooth-path
cost on a fixed quadrature mesh, minimized by derivative-free Nelder-Mead
descent; differentiating through the nested delivery integral is not worth
the trouble for a cross-check solver.  The descent is the classic
non-adaptive Nelder-Mead (reflection 1, expansion 2, contraction and shrink
1/2) in the form scipy implements it, step for step and bit for bit, so
the solver needs numpy alone.

Only the coefficients change between objective calls, so the trial-space
basis (sin and cos of every mesh sample times every frequency, and the
chord) is tabulated once per (span, end ordinate, K, mesh points, q), term
axis first, and shared read-only; an evaluation then adds the K terms one
whole row at a time before the field evaluation and pricing.  The mesh
abscissae do not change either, so :func:`minimize` binds the cost model's
expression fields to them once per solve (:func:`~terracost.cost.at_abscissae`):
each evaluation then computes only the parts of a field that read y, to
the bits of the unbound fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost import CostModel, at_abscissae, smooth_mesh, smooth_path_cost

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
    sin_xk: np.ndarray  # sin(freqs * x), term axis first: (K,) + x.shape
    cos_xk: np.ndarray


def _sample_basis(x: np.ndarray, basis_size: int, span: float, end_ordinate: float):
    freqs = np.pi * np.arange(1, basis_size + 1) / span
    chord_slope = end_ordinate / span
    xk = np.multiply.outer(freqs, x)
    return _SampledBasis(freqs, chord_slope, chord_slope * x, np.sin(xk), np.cos(xk))


def _series(basis: _SampledBasis, a: np.ndarray):
    """Value and slope (y, y') of the trial curve with coefficients ``a``.

    The terms are added one whole row at a time in index order, so the bits
    do not depend on how a reduction or a BLAS build groups the sum.
    """
    slopes = basis.freqs * a
    y = a[0] * basis.sin_xk[0]
    yp = slopes[0] * basis.cos_xk[0]
    for k in range(1, a.size):
        y += a[k] * basis.sin_xk[k]
        yp += slopes[k] * basis.cos_xk[k]
    return basis.chord + y, basis.chord_slope + yp


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
    exceeds the zero-coefficient cost.  Every evaluation prices on the
    same mesh, so the fields are bound to its abscissae once, up front.
    """
    if basis_size < 1:
        raise ValueError(f"basis_size must be >= 1, got {basis_size}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    x0 = np.zeros(basis_size)
    RitzCandidate(x0, span, end_ordinate, mesh_points)  # checks the trial space first
    q = model.quadrature_subdivisions
    xs, _, _ = _mesh_basis(span, end_ordinate, basis_size, mesh_points, q)
    bound = at_abscissae(model, xs)

    def fun(a: np.ndarray) -> float:
        cand = RitzCandidate(a, span, end_ordinate, mesh_points)
        return objective(cand, bound)

    simplex = np.vstack([x0, x0 + 0.1 * np.eye(basis_size)])
    x, cost, evaluations, converged = _nelder_mead(fun, simplex, budget, xatol=1e-8, fatol=1e-8)
    return RitzResult(
        candidate=RitzCandidate(x, span, end_ordinate, mesh_points),
        cost=cost,
        evaluations=evaluations,
        converged=converged,
    )


class _BudgetSpent(Exception):
    """Raised by the evaluation that would exceed the Nelder-Mead budget."""


def _nelder_mead(fun, simplex: np.ndarray, budget: int, xatol: float, fatol: float):
    """Minimize ``fun`` from ``simplex`` ((n + 1, n) vertices) by Nelder-Mead.

    This is scipy's non-adaptive variant (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) with the same arithmetic, ordering and
    stopping rules, so it walks the same path as
    ``scipy.optimize.minimize(method="Nelder-Mead")``: the search stops once
    every vertex lies within ``xatol`` of the best in every coordinate and
    within ``fatol`` of it in value, or at the call that would exceed
    ``budget``, which ends the step in flight.  Returns (x, f, evaluations,
    converged).
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    evaluations = 0

    def f(x):
        nonlocal evaluations
        if evaluations >= budget:
            raise _BudgetSpent
        evaluations += 1
        return fun(x)

    try:
        for j in range(n + 1):
            fsim[j] = f(sim[j])
    except _BudgetSpent:
        pass
    sim, fsim = _by_value(sim, fsim)
    while evaluations < budget:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _by_value(sim, fsim)
    # Only the stopping test ends the loop with budget to spare.
    return sim[0], float(fsim[0]), evaluations, evaluations < budget


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    """The simplex vertices and their values, best first."""
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)
