"""Independent quadrature evaluators for tempered fractional operators.

These routines provide reference values against which the difference schemes
and closed forms are checked.  They never share code with the weight-based
discretizations: integrals are evaluated by adaptive quadrature with the
algebraic endpoint singularity handled by a weighted Gauss rule, and the
outer integer-order derivatives come from high-order central differences on
a tiny auxiliary stencil around the evaluation point.

Operators (left versions shown; right versions mirror the kernel):

* ``tempered_integral``:   I^(p,lam) u(x) = e^{-lam x}/Gamma(p)
      * integral_a^x (x-s)^{p-1} e^{lam s} u(s) ds,  p > 0
* ``tempered_derivative``: D^(p,lam) u(x) = e^{-lam x} d^m/dx^m
      [ e^{lam x} I^(m-p,lam) u(x) ],  m-1 < p <= m
* ``quadrature_oracle``:   the normalized tempered derivative
      D^(alpha,lam) u - lam**alpha * u -+ alpha * lam**(alpha-1) * u'
  (minus for the left side, plus for the right side).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .calculus import _check_side

__all__ = [
    "OracleConvergenceError",
    "tempered_integral",
    "tempered_derivative",
    "quadrature_oracle",
]

# QUADPACK subdivision limit; adaptive refinement beyond this signals failure.
_QUAD_LIMIT = 200


class OracleConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _kernel_integral(u, lo, hi, expo, lam_sign_exp, tol):
    """integral_lo^hi (hi-s)^expo * e^{lam_sign_exp*s} * u(s) ds, singular end at hi.

    Used in mirrored form for the right side (singular end at lo).
    """
    if hi <= lo:
        return 0.0
    # imported here: scipy.integrate pulls in scipy.optimize, some 0.3 s of
    # every start-up that never reaches a quadrature
    from scipy import integrate

    def f(s):
        return math.exp(lam_sign_exp * s) * u(s)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if expo == 0.0:
            val, abserr = integrate.quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT)
        elif expo > 0.0:
            val, abserr = integrate.quad(
                lambda s: f(s) * (hi - s) ** expo, lo, hi,
                epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT,
            )
        else:
            # weight (s-lo)^0 * (hi-s)^expo with -1 < expo < 0
            val, abserr = integrate.quad(
                f, lo, hi, weight="alg", wvar=(0.0, expo),
                epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT,
            )
    if abserr > 10.0 * max(tol, tol * abs(val)) + 1e-15:
        raise OracleConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return val


def tempered_integral(side, p, params, endpoint, u, x, tol=1e-10):
    """Tempered fractional integral of order p > 0 evaluated at x by quadrature."""
    _check_side(side)
    if p <= 0.0:
        raise ValueError(f"integral order must be > 0, got {p}")
    lam = params.lam
    if side == "left":
        kernel = _kernel_integral(u, endpoint, x, p - 1.0, lam, tol)
        return math.exp(-lam * x) / math.gamma(p) * kernel
    # right side: integral_x^b (s-x)^{p-1} e^{-lam s} u(s) ds; substituting
    # s -> b + x - sigma puts the singular end at the top of the range and
    # turns the damping into e^{-lam(b+x)} e^{+lam sigma}
    ub = endpoint

    def mirrored(s):
        return u(ub + x - s)

    kernel = _kernel_integral(mirrored, x, ub, p - 1.0, lam, tol)
    return math.exp(lam * x) / math.gamma(p) * math.exp(-lam * (ub + x)) * kernel


# 4th-order central difference stencils for the m-th derivative.
_STENCILS = {
    1: (2, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0),
    2: (2, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
    3: (3, np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0),
}


def _fd_derivative(f, x, m, d):
    """m-th derivative of f at x, 4th-order central stencil with spacing d."""
    reach, coeff = _STENCILS[m]
    vals = np.array([f(x + k * d) for k in range(-reach, reach + 1)])
    return float(coeff @ vals) / d**m


def _conjugated_kernel(side, p, lam, endpoint, u, m, tol):
    """Return phi with D^(p,lam) u(x) = (+-1)^m e^{-+lam x} phi^(m)(x)."""
    gm = math.gamma(m - p) if m != p else 1.0

    if side == "left":

        def phi(xi):
            if m == p:  # integer order: phi = e^{lam xi} u(xi)
                return math.exp(lam * xi) * u(xi)
            return _kernel_integral(u, endpoint, xi, m - p - 1.0, lam, tol) / gm

    else:

        def phi(xi):
            if m == p:
                return math.exp(-lam * xi) * u(xi)
            ub = endpoint

            def mirrored(s):
                return u(ub + xi - s)

            kernel = _kernel_integral(mirrored, xi, ub, m - p - 1.0, lam, tol)
            return math.exp(-lam * (ub + xi)) * kernel / gm

    return phi


def tempered_derivative(side, p, params, endpoint, u, x, tol=1e-8):
    """Conjugated tempered derivative D^(p,lam) u(x) of order 0 < p < 3.

    The fractional integral of order m - p (m the least integer >= p when p is
    not an integer, p itself otherwise) is evaluated by adaptive quadrature on
    a central stencil around x, then differentiated m times.  The stencil
    spacing scales as tol**(1/4); u must be evaluable a few stencil widths
    beyond x on the far side of the interval.
    """
    _check_side(side)
    if not 0.0 < p < 3.0:
        raise ValueError(f"derivative order must lie in (0, 3), got {p}")
    lam = params.lam
    m = int(p) if float(p).is_integer() else math.ceil(p)

    span = abs(x - endpoint)
    if span == 0.0:
        raise ValueError("cannot evaluate the one-sided derivative at its endpoint")
    reach = _STENCILS[m][0]
    d = min(max(tol, 1e-12) ** 0.25, span / (reach + 1.0))
    quad_tol = max(tol * d**m / 64.0, 5e-14)

    phi = _conjugated_kernel(side, p, lam, endpoint, u, m, quad_tol)
    deriv = _fd_derivative(phi, x, m, d)
    if side == "left":
        return math.exp(-lam * x) * deriv
    return (-1.0) ** m * math.exp(lam * x) * deriv


def quadrature_oracle(side, params, endpoint, u, x, tol=1e-8, du=None):
    """Normalized tempered derivative of u at x, by quadrature.

    Evaluates the conjugated derivative of order alpha, then applies the
    normalization terms: subtract lam**alpha * u(x) and (left) subtract /
    (right) add alpha * lam**(alpha-1) * u'(x).  With lam = 0 this reduces to
    the plain Riemann-Liouville derivative.  ``du`` may supply the exact first
    derivative; otherwise a 5-point difference with machine-balanced spacing
    is used.
    """
    _check_side(side)
    alpha, lam = params.alpha, params.lam
    core = tempered_derivative(side, alpha, params, endpoint, u, x, tol=tol)
    if lam == 0.0:
        return core
    if du is not None:
        uprime = du(x)
    else:
        dfd = 1e-3 * max(1.0, abs(x))
        uprime = _fd_derivative(u, x, 1, dfd)
    sign = -1.0 if side == "left" else 1.0
    return core - lam**alpha * u(x) + sign * alpha * lam ** (alpha - 1.0) * uprime
