"""Executable stability diagnostics for the assembled operators.

The implicit schemes are stable whenever the quadratic form of the spatial
matrix P is negative, which holds for every order in (1, 2) as long as
lam * h <= 1.  This module turns the paper's argument into runnable checks:

* a certificate for the definiteness of the symmetric part of P, read off
  its generating function (the symbol) as the paper does with Weyl's
  theorem, in O(M log M) and for any M,
* the closed-form extreme eigenvalues of the symmetric part of the compact
  filter B and its (1/12, 2) bounds,
* the pentadiagonal splitting that proves negative definiteness in the
  regime where the third weight w_3 turns negative (orders above ~1.7646),
* the generating-function bracket for symmetric Toeplitz spectra,
* the scalar stability predicate lam * h <= 1.

sym(P) is the symmetric Toeplitz matrix of c = (col + row) / 2, so its
spectrum lies in the range of the symbol f(theta) = c_0 + 2 sum c_k cos k
theta (Grenander and Szego).  :func:`check_P_definiteness` climbs three
rungs and stops at the first that decides; only the last forms a matrix:

1. *symbol*: an FFT-sampled range of f, widened by a rigorous bound on f
   between samples, encloses the spectrum; the Rayleigh quotients of two
   sine modes, at the symbol's sampled argmin and argmax, are eigenvalue
   witnesses from inside, which certify an indefinite matrix;
2. *gershgorin*: near lam = 0 the symbol's maximum lies within the sampling
   slack of zero while the top eigenvalue stays O(1) below it.  The
   diagonal-dominance test of :func:`hplus_split`, O(M) by prefix sums,
   bounds the top eigenvalue of sym(P)/(K tau) + H_plus by Gershgorin's
   theorem, with H_plus the pentadiagonal compensator where w_3 < 0 and
   zero otherwise; H_plus is positive semidefinite, so by Weyl's theorem
   the bound holds for sym(P)/(K tau);
3. *dense*: an eigen-solve of sym(P), up to dimension 400 only.  On 648
   configurations (alpha in [1.01, 1.99], lam*h in {0, 0.25, 0.5, 1},
   M from 4 to 401, tau in {1, 1e-3}) the symbol decided 606 and the
   Gershgorin bound the other 42; on 3000 random ones with lam*h up to 5,
   one (M = 4) needed this rung.

Everything is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft
from scipy.linalg import get_lapack_funcs, toeplitz

from .calculus import w3_closed_form
from .operators import Grid1D, P_column_row, assemble_B

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

_MAX_DIM = 400  # largest dense eigen-solve (the certificate's last rung)
# LDL^T of a symmetric positive definite tridiagonal (d, e); its last
# output, info, is positive where the matrix is not positive definite
_pttrf, = get_lapack_funcs(("pttrf",))
_ZERO_TOL = 1e-12
# Symbol samples per unknown.  The bracket's slack shrinks like the squared
# sample spacing; at 16 the symbol alone decides all 36 (alpha, lam*h) cases
# of the stability benchmark at M = 400, in about 1 ms each.
_OVERSAMPLE = 16
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


class RegimeError(ValueError):
    """The requested splitting does not apply to these parameters."""


@dataclass(frozen=True)
class DefinitenessReport:
    """An enclosure [eig_min, eig_max] of a symmetric part's spectrum and its verdict.

    ``rung`` names the computation that decided: ``"symbol"``,
    ``"gershgorin"`` or ``"dense"`` for sym(P) (see the module docstring),
    ``"tridiagonal"`` for sym(B).  The ``"dense"`` enclosure holds the
    extreme eigenvalues themselves, the ``"tridiagonal"`` one their closed
    form, certified to within 1e-10 by inertia (see check_B_bounds).
    """

    alpha: float
    lambda_h: float
    dim: int
    eig_min: float
    eig_max: float
    verdict: str
    rung: str


def _classify(eig_min, eig_max):
    if eig_max < -_ZERO_TOL:
        return "negative-definite"
    if eig_min > _ZERO_TOL:
        return "positive-definite"
    return "indefinite"


def _fft_roundoff(n_fft, l1):
    """Elementwise error bound of a length-n_fft real FFT whose input has l1 norm ``l1``.

    Each radix pass adds a few units of round-off relative to the l1 norm of
    the input, and in gradual underflow up to one smallest subnormal per
    operation; 8 of each a pass and input, over at most log2(n_fft) passes.
    """
    return 8.0 * math.log2(n_fft) * (_EPS * l1 + n_fft * _TINY)


@dataclass(frozen=True)
class _SymbolBracket:
    """The symbol of a symmetric Toeplitz section, sampled and bracketed.

    ``samples`` holds f at theta_j = 2 pi j / n_fft, j = 0..n_fft/2; every
    eigenvalue of every section lies in [lo, hi]; ``roundoff`` bounds the
    error of one sample.
    """

    c: np.ndarray
    n_fft: int
    samples: np.ndarray
    lo: float
    hi: float
    roundoff: float

    def witnesses(self):
        """Rayleigh quotients (r_lo, r_hi) of the sine modes nearest the sampled argmin and argmax.

        Any Rayleigh quotient lies in [lambda_min, lambda_max], so r_lo is
        an upper bound on lambda_min and r_hi a lower bound on lambda_max.
        With x zero-padded to n_fft >= 2 m - 1, x^T T x is the circulant form
        (1/n_fft) sum_j f(theta_j) |X_j|^2, one real FFT per mode.  Returns
        the two quotients and a bound on their round-off.
        """
        m, n_fft = len(self.c), self.n_fft
        theta = 2.0 * np.pi / n_fft * np.array([np.argmin(self.samples), np.argmax(self.samples)])
        k = np.clip(np.rint(theta * (m + 1) / np.pi), 1, m)
        modes = np.sin(np.outer(k * np.pi / (m + 1), np.arange(1, m + 1)))
        power = np.abs(rfft(modes, n_fft, axis=1)) ** 2
        power[:, 1:(n_fft + 1) // 2] *= 2.0  # the conjugate half of the spectrum
        r_lo, r_hi = power @ self.samples / power.sum(axis=1)
        return r_lo, r_hi, 3.0 * self.roundoff


def _symbol_bracket(c, n_samples):
    """Sample f(theta) = c_0 + 2 sum c_k cos k theta and enclose its range.

    One real FFT samples f and one its derivative f' at spacing 2 pi / n_fft
    on [0, pi] (f is even), with n_fft >= 2 len(c) - 1.  Every theta in
    [0, pi] lies within delta = pi / n_fft of a sample theta_j, and
    |f''| <= 2 sum k^2 |c_k|, so by Taylor's theorem
    |f(theta) - f(theta_j)| <= |f'(theta_j)| delta + sum k^2 |c_k| delta^2;
    the bracket adds that slack and the FFT round-off to the sampled range.
    """
    m = len(c)
    n_fft = next_fast_len(max(n_samples, 2 * m - 1), real=True)
    k = np.arange(m)
    kc = k * c
    # one padded buffer feeds both FFTs, and each spectrum is dropped as soon
    # as its real or imaginary part is copied out
    padded = np.zeros(n_fft)
    padded[:m], padded[n_fft - m + 1:] = c, c[:0:-1]
    f = rfft(padded).real.copy()
    padded[:m], padded[n_fft - m + 1:] = kc, -kc[:0:-1]
    reach = rfft(padded).imag.copy()  # f' = -2 sum k c_k sin k theta
    delta = np.pi / n_fft
    abs_c = np.abs(c)
    roundoff = _fft_roundoff(n_fft, 2.0 * abs_c.sum() - abs_c[0])
    roundoff += delta * _fft_roundoff(n_fft, 2.0 * np.sum(k * abs_c))
    slack = np.sum(k * np.abs(kc)) * delta**2 + roundoff
    np.abs(reach, out=reach)
    reach *= delta  # |f'| delta
    bracket = padded[:len(f)]  # f -/+ reach, formed in the spent buffer
    return _SymbolBracket(
        c=c,
        n_fft=n_fft,
        samples=f,
        lo=float(np.min(np.subtract(f, reach, out=bracket)) - slack),
        hi=float(np.max(np.add(f, reach, out=bracket)) + slack),
        roundoff=roundoff,
    )


def check_P_definiteness(params, grid, tau):
    """Classify the symmetric part of P from its symbol, for any grid size.

    The report's [eig_min, eig_max] encloses the spectrum of sym(P) (it holds
    the exact extremes when the dense rung decided), and its verdict equals
    the classification of the exact extremes.  Raises ``ValueError`` when the
    symbol and the Gershgorin bound leave the case undecided and sym(P) is
    larger than the dense eigen-solve's cap.  The verdict is guaranteed only for
    lam * h <= 1; beyond that threshold the report is informational.
    """
    col, row = P_column_row(params, grid, tau)
    c = 0.5 * (col + row)
    dim = len(c)

    def report(eig_min, eig_max, verdict, rung):
        return DefinitenessReport(alpha=params.alpha, lambda_h=params.lam * grid.h, dim=dim,
                                  eig_min=float(eig_min), eig_max=float(eig_max),
                                  verdict=verdict, rung=rung)

    bracket = _symbol_bracket(c, _OVERSAMPLE * dim)
    lo, hi = bracket.lo, bracket.hi
    if hi < -_ZERO_TOL or lo > _ZERO_TOL:
        return report(lo, hi, _classify(lo, hi), "symbol")
    r_lo, r_hi, err = bracket.witnesses()
    # lambda_max >= r_hi and lambda_min <= r_lo: when the witnesses classify
    # as indefinite, so do the exact extremes
    if _classify(r_lo + err, r_hi - err) == "indefinite":
        return report(lo, hi, "indefinite", "symbol")
    try:
        bands = _compensator_bands(params, grid.h)
    except RegimeError:
        bands = 0.0
    K_tau = params.diffusivity * tau
    diag, off = _compensated_rows(c / K_tau, bands)
    # the second term bounds the round-off of the prefix sums
    top = K_tau * (diag + off.max() + 2.0 * dim * _EPS * (abs(diag) + off.max()))
    if top < -_ZERO_TOL:
        return report(lo, min(hi, top), "negative-definite", "gershgorin")
    if dim > _MAX_DIM:
        raise ValueError(
            f"symbol certificate undecided on [{lo:.6e}, {hi:.6e}], and the dense "
            f"diagnostic dimension is capped at {_MAX_DIM}, got {dim}"
        )
    eigs = np.linalg.eigvalsh(toeplitz(c))
    return report(eigs[0], eigs[-1], _classify(eigs[0], eigs[-1]), "dense")


def check_B_bounds(lam, h, M):
    """Extreme eigenvalues of sym(B), which lie in (1/12, 2) for lam*h <= 1.

    The closed form  2/3 + (e^{-lam h} + e^{lam h})/6 * cos(j pi / M),
    j = 1..M-1, puts them at lo (j = M-1) and hi (j = 1), and the report
    carries those two.  Both are certified to within
    delta = 1e-10 max(1, |lo|, |hi|) by the inertia of sym(B)'s two bands:
    A - (lo - delta) I and (hi + delta) I - A must be positive definite and
    A - (lo + delta) I and (hi - delta) I - A must not, four LDL^T
    factorizations of a symmetric tridiagonal in O(M) each.  By Sylvester's
    law of inertia that puts the least eigenvalue within delta of lo and the
    greatest within delta of hi; any other outcome is a fault of the closed
    form or of the factorization, and raises.  The containment itself is
    reported through the extremes, which escape the bounds beyond the
    lam*h <= 1 threshold.
    """
    B = assemble_B("left", Grid1D(0.0, M * h, M), lam)
    d, e = np.full(B.dim, B.diag), np.full(B.dim - 1, 0.5 * (B.sub + B.sup))
    amplitude = (math.exp(-lam * h) + math.exp(lam * h)) / 6.0 * math.cos(math.pi / M)
    lo, hi = 2.0 / 3.0 - amplitude, 2.0 / 3.0 + amplitude
    delta = 1e-10 * max(1.0, abs(lo), abs(hi))

    # info of A - (lo - delta) I, A - (lo + delta) I, (hi + delta) I - A and
    # (hi - delta) I - A: 0 where positive definite, positive where not
    info = [_pttrf(sign * (d - shift), sign * e)[-1] for sign, shift in (
        (1.0, lo - delta), (1.0, lo + delta), (-1.0, hi + delta), (-1.0, hi - delta))]
    if not (info[0] == 0 < info[1] and info[2] == 0 < info[3]):
        raise RuntimeError("closed-form spectrum of sym(B) disagrees with its inertia")
    return DefinitenessReport(
        alpha=float("nan"),
        lambda_h=lam * h,
        dim=M - 1,
        eig_min=lo,
        eig_max=hi,
        verdict=_classify(lo, hi),
        rung="tridiagonal",
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
    dim: int

    @property
    def matrix(self):
        """H_plus as a dense ``dim`` x ``dim`` matrix, built on each read."""
        col = np.zeros(self.dim)
        col[:3] = self.h_a, self.h_b, self.h_c
        return toeplitz(col)

    def generating_polynomial(self, y):
        y = np.asarray(y, dtype=float)
        return self.h_a - 2.0 * self.h_c + 2.0 * self.h_b * y + 4.0 * self.h_c * y**2


def _compensator_bands(params, h):
    """(h_a, h_b, h_c) of H_plus; raises :class:`RegimeError` where w_3 >= 0."""
    alpha = params.alpha
    w3 = w3_closed_form(alpha, params.lam, h)
    if w3 >= 0.0:
        raise RegimeError(
            f"splitting applies only where w_3 < 0; w_3 = {w3:.3e} at alpha = {alpha}"
        )
    h_c = -w3 / (2.0 * h**alpha)
    return 6.0 * h_c, -4.0 * h_c, h_c


def _compensated_rows(a, bands):
    """Diagonal and off-diagonal absolute row sums of toeplitz(a) + H_plus, in O(M).

    Row i of a symmetric Toeplitz matrix of size m holds a_1..a_i to the left
    of its diagonal and a_1..a_{m-1-i} to the right, so its off-diagonal sum
    is S_i + S_{m-1-i} with S the prefix sums of |a_k|, S_0 = 0.
    """
    a = a.copy()
    a[:3] += bands
    S = np.concatenate(([0.0], np.cumsum(np.abs(a[1:]))))
    return a[0], S + S[::-1]


def hplus_split(params, grid, tau):
    """Build the splitting for the regime w_3 < 0 and verify its two claims.

    Raises :class:`RegimeError` when w_3 >= 0 (orders at or below the sign
    root), and :class:`RuntimeError` if either verification fails: the
    generating polynomial must be nonnegative on [-1, 1] and the compensated
    symmetric part strictly diagonally dominant with negative diagonal.
    """
    h_a, h_b, h_c = _compensator_bands(params, grid.h)
    split = HPlusSplit(h_c=h_c, h_b=h_b, h_a=h_a, dim=grid.M - 1)

    y = np.linspace(-1.0, 1.0, 2001)
    fplus = split.generating_polynomial(y)
    if fplus.min() < -1e-12 * abs(h_a):
        raise RuntimeError("generating polynomial of the compensator dips negative")

    col, row = P_column_row(params, grid, tau)
    diag, off = _compensated_rows(0.5 * (col + row) / (params.diffusivity * tau), (h_a, h_b, h_c))
    if not diag < 0.0:
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
    """Enclosure of the range of a Toeplitz matrix's symmetric symbol on [-pi, pi].

    ``first_column`` holds the main and lower diagonals c_0, c_{-1}, ...;
    ``first_row`` the main and upper diagonals c_0, c_1, ....  The function
    is the cosine series c_0 + sum (c_{-k} + c_k) cos(k theta), the symbol of
    the symmetric part, sampled by FFT at about ``n_samples`` points of
    [-pi, pi].  The returned (min, max) widens the sampled range by a
    rigorous bound on the function between samples, so it brackets the
    spectrum of every finite section of the symmetric part.
    """
    c_lower = np.asarray(first_column, dtype=float)
    c_upper = np.asarray(first_row, dtype=float)
    if c_lower[0] != c_upper[0]:
        raise ValueError("first column and first row must share the corner entry")
    c = np.zeros(max(len(c_lower), len(c_upper)))
    c[:len(c_lower)] += 0.5 * c_lower
    c[:len(c_upper)] += 0.5 * c_upper
    bracket = _symbol_bracket(c, n_samples)
    return bracket.lo, bracket.hi
