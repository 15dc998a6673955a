"""Benchmark solver over a sine-series trial space.

Candidates take the form

    y(x) = (y_l / l) * x + sum_k a_k sin(pi k x / l),    k = 1..K,

so both boundary conditions hold for every coefficient vector and the
search is over the K coefficients alone.  The objective is the smooth-path
cost on a fixed quadrature mesh, minimized by BFGS with Armijo
backtracking, in numpy alone.  Its gradient is one reverse pass through
the quadrature (:func:`~terracost.cost.smooth_path_gradient`), chained to
the coefficients through the tabulated basis, at the price of about three
and a half objective calls; only the chain to the coefficients grows with K.

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

from .cost import (
    REFUSALS,
    CostModel,
    at_abscissae,
    smooth_mesh,
    smooth_path_cost,
    smooth_path_gradient,
)

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


def _coefficient_gradient(basis: _SampledBasis, d_ys: np.ndarray, d_yp: np.ndarray):
    """dJ/da from dJ/dy and dJ/dy' at the samples, through the tabulated basis.

    Each term's sum reduces one contiguous row of products, so its order is
    fixed and no BLAS build regroups it.
    """
    k = basis.freqs.size
    values = (basis.sin_xk * d_ys).reshape(k, -1).sum(axis=1)
    slopes = (basis.cos_xk * d_yp).reshape(k, -1).sum(axis=1)
    return values + basis.freqs * slopes


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
    """BFGS descent from the plain chord (all coefficients zero).

    The search stops at a stationary point (see :func:`_bfgs`) or after
    ``budget`` evaluations, whichever comes first, where pricing a candidate
    and taking its gradient each count as one.  Exhausting the budget is
    reported via ``converged``, not raised.  No accepted step raises the
    cost, so the result never exceeds the zero-coefficient cost.  The
    chord's pricing errors are raised; a later candidate whose pricing the
    fields refuse (see :data:`~terracost.cost.REFUSALS`) is priced as +inf,
    so only that trial is rejected, and a gradient they refuse ends the
    search.  Every evaluation prices on the same mesh, so the fields are
    bound to its abscissae once, up front.
    """
    if basis_size < 1:
        raise ValueError(f"basis_size must be >= 1, got {basis_size}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    x0 = np.zeros(basis_size)
    RitzCandidate(x0, span, end_ordinate, mesh_points)  # checks the trial space first
    q = model.quadrature_subdivisions
    xs, h, basis = _mesh_basis(span, end_ordinate, basis_size, mesh_points, q)
    bound = at_abscissae(model, xs)

    def fun(a: np.ndarray) -> float:
        cand = RitzCandidate(a, span, end_ordinate, mesh_points)
        return objective(cand, bound)

    def trial(a: np.ndarray) -> float:
        # A trial whose pricing overflows is refused as not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return fun(a)
            except REFUSALS:  # any other error is a fault, and is raised
                return np.inf

    def grad(a: np.ndarray) -> np.ndarray:
        # A gradient that overflows, or that the fields refuse, is not finite
        # and ends the search.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                d_ys, d_yp = smooth_path_gradient(bound, xs, *_series(basis, a), h)
            except REFUSALS:
                return np.full(a.size, np.nan)
            return _coefficient_gradient(basis, d_ys, d_yp)

    x, cost, evaluations, converged = _bfgs(trial, grad, x0, fun(x0), budget)
    return RitzResult(
        candidate=RitzCandidate(x, span, end_ordinate, mesh_points),
        cost=cost,
        evaluations=evaluations,
        converged=converged,
    )


_GRADIENT_TOL = 1e-6  # stop once every gradient component is this small,
_DECREASE_TOL = 1e-13  # or once a step lowers the cost by this relative amount at most,
_MIN_STEP = 1e-10  # or once backtracking cuts the full step below this fraction
_ARMIJO = 1e-4  # sufficient decrease, as a fraction of the decrease the slope predicts


class _Stop(Exception):
    """Ends the search at the current point; its argument is ``converged``."""


def _bfgs(fun, grad, x: np.ndarray, fx: float, budget: int):
    """Minimize ``fun``, whose gradient is ``grad``, from ``x``, where it is ``fx``, by BFGS.

    Until the first update the step is the negative gradient, scaled so that
    no coordinate moves by more than 1; the first update starts the
    inverse-Hessian approximation from (s.y / y.y) times the identity
    (Nocedal & Wright, *Numerical Optimization*, 2nd ed., eq. 6.20).  It is
    updated only when the curvature s.y is positive, so it stays positive
    definite and every direction descends; the step backtracks by halves
    from the full one until the Armijo condition holds (ch. 6).  The search
    stops at the first of the tolerances above, or at the call that would
    exceed ``budget``, which ends the step in flight; a call of ``fun`` and
    one of ``grad`` each count as one evaluation, and so does the caller's
    one for ``fx``.  A trial step that costs +inf is backtracked; a gradient
    that is not finite ends the search at the current point.  Returns (x, f,
    evaluations, converged).
    """
    evaluations = 1

    def counted(function, a):
        nonlocal evaluations
        if evaluations >= budget:
            raise _Stop(False)
        evaluations += 1
        return function(a)

    def gradient(a):
        g = counted(grad, a)
        if not np.isfinite(g).all():
            raise _Stop(True)
        return g

    try:
        g = gradient(x)
        h = None
        while np.max(np.abs(g)) > _GRADIENT_TOL:
            p = -g / max(1.0, np.max(np.abs(g))) if h is None else -(h @ g)
            slope = g @ p
            t = 1.0
            while (f_new := counted(fun, x + t * p)) > fx + _ARMIJO * t * slope:
                t *= 0.5
                if t < _MIN_STEP:
                    return x, fx, evaluations, True
            s = t * p
            if fx - f_new <= _DECREASE_TOL * abs(f_new):
                return x + s, f_new, evaluations, True
            x, fx, g_old = x + s, f_new, g
            g = gradient(x)
            y = g - g_old
            if (sy := s @ y) > 0:
                if h is None:
                    h = sy / (y @ y) * np.eye(x.size)
                v = np.eye(x.size) - np.outer(s, y) / sy
                h = v @ h @ v.T + np.outer(s, s) / sy
    except _Stop as stop:
        return x, fx, evaluations, stop.args[0]
    return x, fx, evaluations, True
