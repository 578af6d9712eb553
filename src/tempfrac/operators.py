"""Assembly of the compact, spatial and boundary operators on uniform grids.

For interior nodes x_1..x_{M-1} of a uniform grid the implicit schemes read

    (B - P) U^{n+1} = B U^n + tau * B F^{n+1} + H^{n+1}

with three ingredients assembled here:

* ``B``: the tridiagonal compact filter with bands (e^{-lam h}/6, 2/3,
  e^{lam h}/6) for the left-sided operator; the right-sided variant is its
  transpose.  It stays banded: :class:`CompactMatrixB` applies and solves in
  O(M) operations, column by column on matrices.
* ``P``: K * tau * (A - alpha * lam**(alpha-1) * C + lam**alpha * (alpha-1) * B)
  where A is the lower-Hessenberg Toeplitz matrix of the tempered weights
  scaled by 1/h**alpha and C is the skewed advection correction with bands
  (-e^{-lam h}, 0, e^{lam h}) / (2h).  Every term is Toeplitz, so
  :func:`P_column_row` computes P's first column and first row in O(M), and
  :func:`assemble_P` expands them into the dense matrix (the right-sided P is
  the transpose).  The solvers never call it: every stage matrix of every
  scheme, 1D and 2D, is B - a P or B + b P, built from B's and P's columns
  and rows by one helper of :mod:`tempfrac.solver1d`.  That helper expands
  a stage matrix only below 600 unknowns or beyond lam*h = 1, and otherwise
  solves it by two generators and FFT products, because where lam*h <= 1
  the symmetric part of B is positive definite and that of P negative
  definite, so B - a P has no singular leading minor.
* ``H``: the per-step vector collecting every stencil contribution that falls
  on the boundary nodes x_0 and x_M (trace values at both time levels plus
  boundary samples of the source).

Assembly is pure and the results are safe to share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dgtsv

from .calculus import _check_side, tempered_weights

__all__ = [
    "Grid1D",
    "TimeGrid",
    "CompactMatrixB",
    "assemble_B",
    "P_column_row",
    "assemble_P",
    "assemble_H",
    "apply_compact",
    "apply_quasi_compact_derivative",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [a, b] with M cells, nodes x_i = a + i*h, i = 0..M."""

    a: float
    b: float
    M: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):  # NaN or inf
            raise ValueError(f"grid ends must be finite, got [{self.a}, {self.b}]")
        if self.b <= self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if self.M < 4:
            raise ValueError(f"need at least 4 cells, got M={self.M}")

    @property
    def h(self):
        return (self.b - self.a) / self.M

    def nodes(self):
        return np.linspace(self.a, self.b, self.M + 1)

    def interior(self):
        return self.nodes()[1:-1]


@dataclass(frozen=True)
class TimeGrid:
    """N uniform steps of size tau = T/N on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"horizon must be > 0, got {self.T}")
        if not math.isfinite(self.T):  # NaN or inf
            raise ValueError(f"horizon must be finite, got {self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one step, got N={self.N}")

    @property
    def tau(self):
        return self.T / self.N


@dataclass(frozen=True)
class CompactMatrixB:
    """Tridiagonal compact filter stored as its three constant bands.

    ``matvec`` and ``solve`` take a vector of length ``dim`` or a matrix with
    ``dim`` rows, which they treat column by column.
    """

    dim: int
    sub: float
    diag: float
    sup: float

    def column_row(self):
        """First column and first row of the matrix."""
        col, row = np.zeros(self.dim), np.zeros(self.dim)
        col[0] = row[0] = self.diag
        col[1], row[1] = self.sub, self.sup
        return col, row

    def to_dense(self):
        return toeplitz(*self.column_row())

    def matvec(self, v):
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out

    def solve(self, v):
        """B^{-1} v by a tridiagonal LU with partial pivoting."""
        n = self.dim - 1
        *_, x, info = dgtsv(np.full(n, self.sub), np.full(self.dim, self.diag),
                            np.full(n, self.sup), v)
        if info:
            raise np.linalg.LinAlgError(f"compact filter is singular (dgtsv info {info})")
        return x


def assemble_B(side, grid, lam):
    """Compact filter matrix on the interior nodes; right side is the transpose."""
    _check_side(side)
    elh = math.exp(lam * grid.h)
    sub, sup = (1.0 / elh / 6.0, elh / 6.0) if side == "left" else (elh / 6.0, 1.0 / elh / 6.0)
    return CompactMatrixB(dim=grid.M - 1, sub=sub, diag=2.0 / 3.0, sup=sup)


def P_column_row(params, grid, tau, include_tau=True):
    """First column and first row of the left-sided P, each of length M-1.

    The weight matrix contributes w_1, w_2, ..., w_{M-1} down the column and
    w_1, w_0 along the row (scaled by 1/h**alpha); the advection correction
    and the compact filter add their two off-diagonal bands.  Emits a warning
    when lam*h exceeds 1, the stability threshold.  ``include_tau`` as in
    :func:`assemble_P`.
    """
    alpha, lam, K = params.alpha, params.lam, params.diffusivity
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly in (1, 2), got {alpha}")
    h = grid.h
    if lam * h > 1.0:
        warnings.warn(
            f"lam*h = {lam * h:.3g} > 1: the implicit schemes may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )
    dim = grid.M - 1
    w = tempered_weights(params, h, grid.M).values
    h_alpha = h**alpha
    A_col, A_row = w[1:dim + 1] / h_alpha, np.zeros(dim)
    A_row[:2] = w[1] / h_alpha, w[0] / h_alpha

    elh = math.exp(lam * h)
    C_col, C_row = np.zeros(dim), np.zeros(dim)
    C_col[1], C_row[1] = -1.0 / elh / (2.0 * h), elh / (2.0 * h)

    B_col, B_row = assemble_B("left", grid, lam).column_row()
    advection, compact = alpha * lam ** (alpha - 1.0), lam**alpha * (alpha - 1.0)
    scale = K * tau if include_tau else K
    col = (A_col - advection * C_col + compact * B_col) * scale
    row = (A_row - advection * C_row + compact * B_row) * scale
    return col, row


def assemble_P(side, params, grid, tau, include_tau=True):
    """Spatial system matrix P for one time step, dense.

    With ``include_tau`` the full factor K*tau multiplies the operator (the
    implicit-Euler schemes fold tau into P); without it only K does, for the
    splitting and ADI schemes whose matrix forms carry tau explicitly.
    Emits a warning when lam*h exceeds 1, the stability threshold.
    """
    _check_side(side)
    P = toeplitz(*P_column_row(params, grid, tau, include_tau))
    return P if side == "left" else P.T


def assemble_H(side, params, grid, tau, trace_a, trace_b, source_a, source_b, weights):
    """Boundary contribution vector for one implicit-Euler step.

    ``trace_a`` and ``trace_b`` are the (t_n, t_{n+1}) boundary values at x_0
    and x_M; ``source_a`` / ``source_b`` sample the source at t_{n+1} on the
    boundary nodes.  The right-sided vector is the reversed left-sided vector
    of the mirrored data.  Requires weights through index M.
    """
    _check_side(side)
    if len(weights.values) < grid.M + 1:
        raise ValueError(
            f"weight table too short: need indices 0..{grid.M}, got {len(weights.values)}"
        )
    if side == "right":
        flipped = assemble_H(
            "left", params, grid, tau, trace_b, trace_a, source_b, source_a, weights
        )
        return flipped[::-1].copy()

    alpha, lam, K = params.alpha, params.lam, params.diffusivity
    h = grid.h
    w = weights.values
    elh, emlh = math.exp(lam * h), math.exp(-lam * h)
    adv = alpha * lam ** (alpha - 1.0) / (2.0 * h)
    cmp6 = lam**alpha * (alpha - 1.0) / 6.0
    ha = h**alpha

    ua_n, ua_np1 = trace_a
    ub_n, ub_np1 = trace_b
    H = np.zeros(grid.M - 1)
    # compact-stencil terms that reach x_0 and x_M
    H[0] = (emlh / 6.0) * (ua_n - ua_np1 + tau * source_a)
    H[-1] += (elh / 6.0) * (ub_n - ub_np1 + tau * source_b)
    if ua_np1 != 0.0:
        # weight-column contribution of the x_0 value: row i picks up w_{i+1}
        H += K * tau * (w[2 : grid.M + 1] / ha) * ua_np1
        H[0] += K * tau * (adv * emlh + cmp6 * emlh) * ua_np1
    if ub_np1 != 0.0:
        H[-1] += K * tau * (w[0] / ha - adv * elh + cmp6 * elh) * ub_np1
    return H


def apply_compact(side, lam, h, v):
    """Pointwise compact filter; v must carry one extra value at each end.

    Returns (e^{-lam h} v_{i-1} + 4 v_i + e^{lam h} v_{i+1}) / 6 for the left
    variant (exponents swapped on the right), dropping the two end values.
    """
    _check_side(side)
    v = np.asarray(v, dtype=float)
    elh = math.exp(lam * h)
    cm, cp = (1.0 / elh, elh) if side == "left" else (elh, 1.0 / elh)
    return (cm * v[:-2] + 4.0 * v[1:-1] + cp * v[2:]) / 6.0


def apply_quasi_compact_derivative(side, params, grid, v):
    """Pointwise quasi-compact tempered derivative of nodal values v_0..v_M.

    Evaluates, on the interior nodes, the truncated weight convolution plus
    the centered tempered advection correction plus lam**alpha * (alpha-1)
    times the compact filter.  Matches P @ v_interior / (K*tau) whenever the
    boundary values of v vanish.
    """
    _check_side(side)
    v = np.asarray(v, dtype=float)
    if len(v) != grid.M + 1:
        raise ValueError(f"expected {grid.M + 1} nodal values, got {len(v)}")
    if side == "right":
        return apply_quasi_compact_derivative("left", params, grid, v[::-1])[::-1]

    alpha, lam = params.alpha, params.lam
    h = grid.h
    M = grid.M
    w = tempered_weights(params, h, M).values
    # row i: sum_{k=0..i+1} w_k v_{i-k+1} is the (i+1)-th full convolution entry
    conv = np.convolve(w, v)[2:M + 1]
    elh = math.exp(lam * h)
    advection = (alpha * lam ** (alpha - 1.0) / (2.0 * h)) * (elh * v[2:] - v[:-2] / elh)
    compact = lam**alpha * (alpha - 1.0) * apply_compact("left", lam, h, v)
    return conv / h**alpha - advection + compact
