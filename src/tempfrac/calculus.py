"""Coefficient sequences for tempered quasi-compact difference operators.

A tempered fractional derivative of order ``alpha`` in (1, 2) with tempering
rate ``lam >= 0`` is the Riemann-Liouville derivative of ``exp(lam*x) * u``
conjugated back by ``exp(-lam*x)``, minus normalization terms that make
constants map to zero.  Discretizing it with shifted, exponentially damped
Grunwald-Letnikov convolutions and recombining three shifts with weights
``mu_minus, mu_zero, mu_plus`` yields a scheme whose leading truncation error
is exactly the tridiagonal compact filter, hence third-order accuracy after
compact filtering.

This module produces every scalar sequence those schemes need:

* raw Grunwald-Letnikov weights ``g_k`` (binomial series of ``(1-z)**alpha``),
* the quasi-compact combination coefficients ``mu``,
* the power-series coefficients ``a_p`` of the shifted generator, used only
  to verify the linear system that defines ``mu``,
* the tempered weight table ``w_k`` entering the discrete convolution,
* closed-form reference values (power rule) for the conjugated derivative of
  ``exp(-lam*x) * (x-a)**j``, which anchor the quadrature oracle.

All values are plain floats / read-only arrays; everything here is pure and
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TemperedParams",
    "GrunwaldWeights",
    "QuasiCompactCoefficients",
    "ExpansionCoefficients",
    "WeightTable",
    "grunwald_weights",
    "quasi_compact_coefficients",
    "expansion_coefficients",
    "tempered_weights",
    "weight_sum_limit",
    "w2_closed_form",
    "w3_closed_form",
    "exact_power_derivative",
]


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class TemperedParams:
    """Order, tempering rate and diffusivity of one tempered diffusion operator.

    ``alpha`` must lie strictly in (1, 2) and ``lam``, ``diffusivity`` must be
    finite and nonnegative.  Use :meth:`for_testing` to build degenerate
    values (``alpha`` exactly 1 or 2) where closed forms remain valid; solvers
    reject those.
    """

    alpha: float
    lam: float
    diffusivity: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        self._check_rest()

    def _check_rest(self):
        if not 0.0 <= self.lam < math.inf:  # rejects NaN too
            raise ValueError(f"tempering rate must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.diffusivity < math.inf:
            raise ValueError(f"diffusivity must be finite and >= 0, got {self.diffusivity}")

    @classmethod
    def for_testing(cls, alpha, lam, diffusivity=1.0):
        """Construct without the open-interval check on ``alpha`` (test use only)."""
        if not 1.0 <= alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {alpha}")
        self = object.__new__(cls)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "diffusivity", diffusivity)
        self._check_rest()
        return self


@dataclass(frozen=True)
class GrunwaldWeights:
    """Coefficients g_0..g_n of the binomial series of (1-z)**alpha."""

    alpha: float
    values: np.ndarray

    def __len__(self):
        return len(self.values)


def grunwald_weights(alpha, n):
    """Grunwald-Letnikov weights g_0..g_n by the multiplicative recurrence.

    g_0 = 1 and g_k = g_{k-1} * (k - 1 - alpha) / k.  The recurrence is used
    instead of Gamma-function quotients, which overflow for k beyond ~170.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    g = np.empty(n + 1)
    g[0] = 1.0
    for k in range(1, n + 1):
        g[k] = g[k - 1] * (k - 1 - alpha) / k
    g.setflags(write=False)
    return GrunwaldWeights(alpha=alpha, values=g)


@dataclass(frozen=True)
class QuasiCompactCoefficients:
    """Weights of the three-shift combination producing the compact-filtered operator."""

    mu_minus: float
    mu_zero: float
    mu_plus: float

    def as_tuple(self):
        return (self.mu_minus, self.mu_zero, self.mu_plus)


def quasi_compact_coefficients(alpha):
    """Shift-combination coefficients (mu_minus, mu_zero, mu_plus) for order alpha.

    They solve the 3x3 moment system that cancels the first-order expansion
    term and matches the second-order term to 1/6, so the remaining error is
    the compact filter times the target derivative.  Boundary values alpha = 1
    and alpha = 2 are accepted for testing.
    """
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must lie in [1, 2], got {alpha}")
    mu_minus = (4.0 - 7.0 * alpha + 3.0 * alpha**2) / 24.0
    mu_zero = (8.0 + alpha - 3.0 * alpha**2) / 12.0
    mu_plus = (4.0 + 5.0 * alpha + 3.0 * alpha**2) / 24.0
    return QuasiCompactCoefficients(mu_minus, mu_zero, mu_plus)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """First three power-series coefficients of the p-shifted generator.

    ``a0, a1, a2`` are the coefficients of ((1 - exp(-z)) / z)**alpha * exp(p*z)
    and feed the moment system that determines the quasi-compact combination.
    """

    p: int
    a0: float
    a1: float
    a2: float


def expansion_coefficients(alpha, p):
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    a0 = 1.0
    a1 = p - alpha / 2.0
    a2 = (alpha + 3.0 * alpha**2 - 12.0 * alpha * p + 12.0 * p**2) / 24.0
    return ExpansionCoefficients(p=int(p), a0=a0, a1=a1, a2=a2)


@dataclass(frozen=True)
class WeightTable:
    """Tempered quasi-compact weights w_0..w_n plus the raw Grunwald weights.

    w_0 = mu_plus * g_0 * exp(lam*h)
    w_1 = mu_plus * g_1 + mu_zero * g_0
    w_k = (mu_plus * g_k + mu_zero * g_{k-1} + mu_minus * g_{k-2}) * exp((1-k)*lam*h)

    Sign pattern for alpha in (1, 2): w_0 > 0, w_1 <= 0, w_k >= 0 for k >= 4;
    w_2 and w_3 change sign with alpha.
    """

    params: TemperedParams
    h: float
    values: np.ndarray
    grunwald: np.ndarray

    def __len__(self):
        return len(self.values)


@lru_cache(maxsize=64)
def _tempered_weights_cached(params, h, n):
    g = grunwald_weights(params.alpha, n).values
    mu = quasi_compact_coefficients(params.alpha)
    lh = params.lam * h
    w = np.empty(n + 1)
    w[0] = mu.mu_plus * g[0] * math.exp(lh)
    w[1] = mu.mu_plus * g[1] + mu.mu_zero * g[0]
    k = np.arange(2, n + 1)
    w[2:] = (mu.mu_plus * g[2:] + mu.mu_zero * g[1:-1] + mu.mu_minus * g[:-2]) * np.exp((1 - k) * lh)
    w.setflags(write=False)
    return WeightTable(params=params, h=h, values=w, grunwald=g)


def tempered_weights(params, h, n):
    """Weight table w_0..w_n for spacing h; cached per (params, h, n)."""
    if not 0.0 < h < math.inf:  # rejects NaN too
        raise ValueError(f"spacing h must be finite and > 0, got {h}")
    if n < 2:
        raise ValueError(f"need at least three weights, got n={n}")
    return _tempered_weights_cached(params, float(h), int(n))


def weight_sum_limit(params, h):
    """Limit of sum(w_k): (mu_plus*e^{lh} + mu_zero + mu_minus*e^{-lh}) * (1 - e^{-lh})**alpha."""
    mu = quasi_compact_coefficients(params.alpha)
    lh = params.lam * h
    return (mu.mu_plus * math.exp(lh) + mu.mu_zero + mu.mu_minus * math.exp(-lh)) * (
        1.0 - math.exp(-lh)
    ) ** params.alpha


def w2_closed_form(alpha, lam, h):
    """Quartic closed form of the second weight."""
    return math.exp(-lam * h) / 48.0 * (8.0 - 50.0 * alpha + alpha**2 + 14.0 * alpha**3 + 3.0 * alpha**4)


def w3_closed_form(alpha, lam, h):
    """Quartic closed form of the third weight; changes sign at alpha ~ 1.7646."""
    return -math.exp(-2.0 * lam * h) / 144.0 * alpha * (
        80.0 - 86.0 * alpha - 11.0 * alpha**2 + 14.0 * alpha**3 + 3.0 * alpha**4
    )


def exact_power_derivative(side, params, endpoint, j, x):
    """Closed-form conjugated tempered derivative of the monomial family.

    For the left side this is the value of the operator
    ``exp(-lam*x) * D^alpha[exp(lam*x) * .]`` applied to
    ``exp(-lam*x) * (x - a)**j``:

        Gamma(1+j) / Gamma(1+j-alpha) * exp(-lam*x) * (x - a)**(j - alpha)

    and the mirrored right-side version acts on ``exp(lam*x) * (b - x)**j``.
    Note this is the conjugated operator only; the normalized tempered
    derivative subtracts ``lam**alpha * u`` and the first-derivative term.

    Raises on singular evaluation (x at the endpoint with j < alpha).
    """
    _check_side(side)
    if j < 0 or int(j) != j:
        raise ValueError(f"exponent j must be a nonnegative integer, got {j}")
    alpha, lam = params.alpha, params.lam
    x = np.asarray(x, dtype=float)
    dist = x - endpoint if side == "left" else endpoint - x
    if np.any(dist < 0.0):
        raise ValueError("x outside the domain of the one-sided operator")
    if j < alpha and np.any(dist == 0.0):
        raise ValueError("singular evaluation: x at the endpoint with j < alpha")
    coeff = math.gamma(1.0 + j) / math.gamma(1.0 + j - alpha)
    sign = -1.0 if side == "left" else 1.0
    out = coeff * np.exp(sign * lam * x) * dist ** (j - alpha)
    return float(out) if out.ndim == 0 else out
