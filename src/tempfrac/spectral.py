"""Executable stability diagnostics for the assembled operators.

The implicit schemes are stable whenever the quadratic form of the spatial
matrix P is negative, which holds for every order in (1, 2) as long as
lam * h <= 1.  This module turns the supporting machinery into runnable
checks:

* eigenvalue classification of the symmetric part of P,
* the closed-form spectrum of the symmetric part of the compact filter B and
  its (1/12, 2) bounds,
* the pentadiagonal splitting that proves negative definiteness in the
  regime where the third weight w_3 turns negative (orders above ~1.7646),
* the generating-function bracket for symmetric Toeplitz spectra,
* the scalar stability predicate lam * h <= 1.

Everything is a pure function of its inputs; diagnostics are offline, so
dense eigen-solvers are used and the dimension is capped at 400.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .calculus import w3_closed_form
from .operators import Grid1D, assemble_B, assemble_P

__all__ = [
    "DefinitenessReport",
    "HPlusSplit",
    "RegimeError",
    "check_P_definiteness",
    "check_B_bounds",
    "hplus_split",
    "w3_sign_root",
    "stability_predicate",
    "generating_function_range",
]

_MAX_DIM = 400
_ZERO_TOL = 1e-12


class RegimeError(ValueError):
    """The requested splitting does not apply to these parameters."""


@dataclass(frozen=True)
class DefinitenessReport:
    """Extreme eigenvalues of a symmetric part and the resulting verdict."""

    alpha: float
    lambda_h: float
    dim: int
    eig_min: float
    eig_max: float
    verdict: str


def _classify(eig_min, eig_max):
    if eig_max < -_ZERO_TOL:
        return "negative-definite"
    if eig_min > _ZERO_TOL:
        return "positive-definite"
    return "indefinite"


def _check_dim(dim):
    if dim > _MAX_DIM:
        raise ValueError(f"diagnostic dimension capped at {_MAX_DIM}, got {dim}")


def _sym_eigvals(A):
    _check_dim(A.shape[0])
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def check_P_definiteness(params, grid, tau):
    """Classify the symmetric part of P by direct eigen-solve.

    The verdict is guaranteed only for lam * h <= 1; beyond that threshold the
    report is informational.
    """
    _check_dim(grid.M - 1)  # before assembling a matrix that size
    P = assemble_P("left", params, grid, tau)
    eigs = _sym_eigvals(P)
    return DefinitenessReport(
        alpha=params.alpha,
        lambda_h=params.lam * grid.h,
        dim=P.shape[0],
        eig_min=float(eigs[0]),
        eig_max=float(eigs[-1]),
        verdict=_classify(eigs[0], eigs[-1]),
    )


def check_B_bounds(lam, h, M):
    """Spectrum of the symmetric part of B, which lies in (1/12, 2) for lam*h <= 1.

    The closed form  2/3 + (e^{-lam h} + e^{lam h})/6 * cos(j pi / M)  is
    cross-checked to 1e-10 against a tridiagonal eigen-solve of sym(B)'s two
    bands (a disagreement is an eigen-solver fault and raises).  The
    containment itself is reported through the extreme eigenvalues, which
    escape the bounds beyond the lam*h <= 1 threshold.
    """
    _check_dim(M - 1)
    B = assemble_B("left", Grid1D(0.0, M * h, M), lam)
    eigs = eigvalsh_tridiagonal(np.full(B.dim, B.diag), np.full(B.dim - 1, 0.5 * (B.sub + B.sup)))
    j = np.arange(1, M)
    closed = 2.0 / 3.0 + (math.exp(-lam * h) + math.exp(lam * h)) / 6.0 * np.cos(j * np.pi / M)
    scale = np.max(np.abs(closed))
    if np.max(np.abs(np.sort(closed) - eigs)) > 1e-10 * max(1.0, scale):
        raise RuntimeError("closed-form spectrum of sym(B) disagrees with eigen-solve")
    return DefinitenessReport(
        alpha=float("nan"),
        lambda_h=lam * h,
        dim=M - 1,
        eig_min=float(eigs[0]),
        eig_max=float(eigs[-1]),
        verdict=_classify(eigs[0], eigs[-1]),
    )


@dataclass(frozen=True)
class HPlusSplit:
    """Pentadiagonal compensator making sym(P)/(K tau) + H_plus diagonally dominant.

    Bands satisfy h_a = 6 h_c, h_b = -4 h_c with h_c > 0, so the generating
    polynomial f(y) = h_a - 2 h_c + 2 h_b y + 4 h_c y**2 is a perfect square
    scaled by 4 h_c, nonnegative on [-1, 1] with a double root at y = 1.
    """

    h_c: float
    h_b: float
    h_a: float
    matrix: np.ndarray

    def generating_polynomial(self, y):
        y = np.asarray(y, dtype=float)
        return self.h_a - 2.0 * self.h_c + 2.0 * self.h_b * y + 4.0 * self.h_c * y**2


def hplus_split(params, grid, tau):
    """Build the splitting for the regime w_3 < 0 and verify its two claims.

    Raises :class:`RegimeError` when w_3 >= 0 (orders at or below the sign
    root), and :class:`RuntimeError` if either verification fails: the
    generating polynomial must be nonnegative on [-1, 1] and the compensated
    symmetric part strictly diagonally dominant with negative diagonal.
    """
    alpha, lam, K = params.alpha, params.lam, params.diffusivity
    h = grid.h
    w3 = w3_closed_form(alpha, lam, h)
    if w3 >= 0.0:
        raise RegimeError(
            f"splitting applies only where w_3 < 0; w_3 = {w3:.3e} at alpha = {alpha}"
        )
    h_c = -w3 / (2.0 * h**alpha)
    h_a, h_b = 6.0 * h_c, -4.0 * h_c

    dim = grid.M - 1
    Hp = np.zeros((dim, dim))
    np.fill_diagonal(Hp, h_a)
    np.fill_diagonal(Hp[1:], h_b)
    np.fill_diagonal(Hp[:, 1:], h_b)
    np.fill_diagonal(Hp[2:], h_c)
    np.fill_diagonal(Hp[:, 2:], h_c)
    split = HPlusSplit(h_c=h_c, h_b=h_b, h_a=h_a, matrix=Hp)

    y = np.linspace(-1.0, 1.0, 2001)
    fplus = split.generating_polynomial(y)
    if fplus.min() < -1e-12 * abs(h_a):
        raise RuntimeError("generating polynomial of the compensator dips negative")

    P = assemble_P("left", params, grid, tau)
    H = 0.5 * (P + P.T) / (K * tau)
    combined = H + Hp
    diag = np.diag(combined)
    off = np.sum(np.abs(combined), axis=1) - np.abs(diag)
    if not np.all(diag < 0.0):
        raise RuntimeError("compensated matrix has a nonnegative diagonal entry")
    if not np.all(-diag > off):
        raise RuntimeError("compensated matrix is not strictly diagonally dominant")
    return split


def w3_sign_root():
    """Root in (1, 2) of the cubic 3 a^3 + 17 a^2 + 6 a - 80, by bisection.

    The quartic factor of w_3 equals (a - 1) times this cubic, so the root is
    where w_3 changes sign.  (Its closed form via cube roots exceeds 2 when
    evaluated literally, so the root is computed numerically.)
    """

    def q(a):
        return 3.0 * a**3 + 17.0 * a**2 + 6.0 * a - 80.0

    lo, hi = 1.0, 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if q(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stability_predicate(lam, h):
    """True iff 0 < h <= 1/lam (always true for lam = 0)."""
    if h <= 0.0:
        return False
    return lam * h <= 1.0


def generating_function_range(first_column, first_row, n_samples=10_000):
    """Range of the generating function of a Toeplitz matrix on [-pi, pi].

    ``first_column`` holds the main and lower diagonals c_0, c_{-1}, ...;
    ``first_row`` the main and upper diagonals c_0, c_1, ....  The returned
    (min, max) brackets the spectrum of every finite section; for symmetric
    data the function is the cosine series c_0 + sum 2 c_k cos(k theta).
    """
    c_lower = np.asarray(first_column, dtype=float)
    c_upper = np.asarray(first_row, dtype=float)
    if c_lower[0] != c_upper[0]:
        raise ValueError("first column and first row must share the corner entry")
    theta = np.linspace(-np.pi, np.pi, n_samples)
    vals = np.full_like(theta, c_lower[0])
    for k in range(1, len(c_lower)):
        vals += c_lower[k] * np.cos(k * theta)
    for k in range(1, len(c_upper)):
        vals += c_upper[k] * np.cos(k * theta)
    return float(vals.min()), float(vals.max())
