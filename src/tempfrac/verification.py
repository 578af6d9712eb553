"""Manufactured solutions, error norms and convergence studies.

Four manufactured cases drive the verification harness, one per scheme:

* ``ex5_1`` - left-sided problem on (0,1) x (0, 0.1] with exact solution
  u = e^{-t - lam x} x**j,
* ``ex5_2`` - right-sided mirror with u = e^{-t + lam x} (1-x)**j,
* ``ex5_3`` - 2D ADI problem on the unit square, t in (0, 1], with
  u = e^{-t - lam1 x - lam2 y} x**4 (1-x) y**4 (1-y),
* ``ex5_4`` - two-sided splitting problem with u = e^{-t - lam x} x**4 (1-x)**4,
  whose source needs the conjugated right derivative of the solution: a sum
  of Kummer functions 1F1 (DLMF 13.2, https://dlmf.nist.gov/13.2) in closed form.

Each case carries its exact solution, the matching source, and a builder
mapping a spatial resolution to a ready problem spec.  The sources are
time-separable, a :class:`~tempfrac.solver1d.SeparableSource` with the factor
e^{-t}: each solve evaluates the space profile once, and the 1D solvers march
long runs in blocks of steps.  The factor and the nonzero far traces of the
one-sided cases accept arrays of times, so a solve samples each of them in
one call.

Errors use the discrete L2 norm sqrt(h * sum of squared nodal errors) at the
final time (h_x * h_y weighting in 2D); non-finite solutions and blowups are
recorded as an infinite error, never raised past the study loop.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import hyp1f1

from .calculus import TemperedParams
from .operators import Grid1D, TimeGrid
from .solver1d import (
    BlowupError,
    ProblemSpec1D,
    SeparableSource,
    Solution1D,
    _grid_field,
    solve_left,
    solve_right,
    solve_two_sided,
)
from .solver2d import ProblemSpec2D, Solution2D, solve_adi

__all__ = [
    "ManufacturedCase",
    "ConvergenceReport",
    "case_ex5_1",
    "case_ex5_2",
    "case_ex5_3",
    "case_ex5_4",
    "make_case",
    "build_example_5_4_source",
    "error_norm",
    "run_convergence_study",
]


def _decay(t):
    """The temporal factor e^{-t} shared by every manufactured source; t may
    be an array of times."""
    return np.exp(-t)


@dataclass(frozen=True)
class ManufacturedCase:
    """A manufactured problem: exact solution, source, and spec builder."""

    ident: str
    params: dict
    exact: Callable
    source: Callable
    build_spec: Callable  # h -> (N -> ProblemSpec1D | ProblemSpec2D)
    solve: Callable  # spec -> Solution1D | Solution2D
    horizon: float
    dim: int = 1


def _power_bracket(x, j, alpha, lam):
    """x**j + Gamma(j+1) x**(j-alpha) / Gamma(1+j-alpha) - normalization terms.

    The j-alpha power is clamped to zero at x = 0 when its exponent is
    negative (j < 2): the manufactured source is singular there, and the
    boundary sample only feeds the compact source stencil.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(x > 0.0, x ** (j - alpha), 0.0)
    return (
        x**j
        + math.gamma(j + 1.0) / math.gamma(1.0 + j - alpha) * frac
        - alpha * lam ** (alpha - 1.0) * (j * x ** (j - 1) - lam * x**j)
        - lam**alpha * x**j
    )


def _case_1d(ident, params, side, exact, traces, profile, solve, T):
    """A 1D case on (0, 1) with the source e^{-t} profile(x) and the traces
    ``(boundary_left, boundary_right)``."""
    tempered = TemperedParams(params["alpha"], params["lam"])
    source = SeparableSource(profile, _decay)

    def build_spec(h):
        M = round(1.0 / h)
        return lambda N: ProblemSpec1D(
            grid=Grid1D(0.0, 1.0, M),
            time=TimeGrid(T, N),
            params=tempered,
            side=side,
            initial=lambda x: exact(x, 0.0),
            boundary_left=traces[0],
            boundary_right=traces[1],
            source=source,
        )

    return ManufacturedCase(ident=ident, params=params, exact=exact, source=source,
                            build_spec=build_spec, solve=solve, horizon=T)


def case_ex5_1(alpha, lam, j=5, T=0.1):
    """Left-sided case with exact solution e^{-t - lam x} x**j on (0, 1)."""
    if j < 1 or int(j) != j:
        raise ValueError(f"exponent j must be a positive integer, got {j}")

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t - lam * x) * x**j

    def profile(x):
        return -np.exp(-lam * x) * _power_bracket(x, j, alpha, lam)

    return _case_1d("ex5_1", {"alpha": alpha, "lam": lam, "j": j}, "left", exact,
                    (lambda t: 0.0, lambda t: np.exp(-t - lam)), profile, solve_left, T)


def case_ex5_2(alpha, lam, j=5, T=0.1):
    """Right-sided case with exact solution e^{-t + lam x} (1-x)**j on (0, 1)."""
    if j < 1 or int(j) != j:
        raise ValueError(f"exponent j must be a positive integer, got {j}")

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t + lam * x) * (1.0 - x) ** j

    def profile(x):
        return -np.exp(lam * x) * _power_bracket(1.0 - x, j, alpha, lam)

    return _case_1d("ex5_2", {"alpha": alpha, "lam": lam, "j": j}, "right", exact,
                    (lambda t: np.exp(-t), lambda t: 0.0), profile, solve_right, T)


def case_ex5_3(alpha, beta, lam1, lam2, T=1.0):
    """2D case with exact solution e^{-t - lam1 x - lam2 y} x^4 (1-x) y^4 (1-y)."""
    params_x = TemperedParams(alpha, lam1)
    if not 1.0 < beta < 2.0:  # TemperedParams would name it alpha
        raise ValueError(f"beta must lie in (1, 2), got {beta}")
    params_y = TemperedParams(beta, lam2)

    def exact(X, Y, t):
        return np.exp(-t - lam1 * X - lam2 * Y) * X**4 * (1.0 - X) * Y**4 * (1.0 - Y)

    def profile(X, Y):
        # s**4 (1-s) = s**4 - s**5; both brackets hold phi_x * phi_y, so drop one
        bx = _power_bracket(X, 4, alpha, lam1) - _power_bracket(X, 5, alpha, lam1)
        by = _power_bracket(Y, 4, beta, lam2) - _power_bracket(Y, 5, beta, lam2)
        phi_x, phi_y = X**4 * (1.0 - X), Y**4 * (1.0 - Y)
        return -np.exp(-lam1 * X - lam2 * Y) * (bx * phi_y + by * phi_x - phi_x * phi_y)

    source = SeparableSource(profile, _decay)

    def build_spec(h):
        M = round(1.0 / h)
        return lambda N: ProblemSpec2D(
            grid_x=Grid1D(0.0, 1.0, M),
            grid_y=Grid1D(0.0, 1.0, M),
            time=TimeGrid(T, N),
            params_x=params_x,
            params_y=params_y,
            initial=lambda X, Y: exact(X, Y, 0.0),
            source=source,
        )

    return ManufacturedCase(
        ident="ex5_3",
        params={"alpha": alpha, "beta": beta, "lam1": lam1, "lam2": lam2},
        exact=exact,
        source=source,
        build_spec=build_spec,
        solve=solve_adi,
        horizon=T,
        dim=2,
    )


def _bump_derivative(y, c, alpha):
    """Riemann-Liouville derivative of order alpha, from 0, of y^4 (1-y)^4 e^{c y}.

    Term by term, D^alpha[y^{4+m} e^{c y}] = Gamma(5+m)/Gamma(5+m-alpha)
    y^{4+m-alpha} M(5+m, 5+m-alpha, c y) with M = 1F1, but the five terms of
    (1-y)^4 = sum_m C(4,m) (-y)^m cancel where 1 - y is small (eight digits
    at c = 40).  Since Gamma(n+1)/Gamma(n+1-alpha) - Gamma(n)/Gamma(n-alpha) =
    alpha Gamma(n)/Gamma(n+1-alpha), they regroup in powers of 1 - y, where
    they no longer cancel: y^{4-alpha}/Gamma(9-alpha) times the sum over r of
    C(4,r) (-1)^r alpha (alpha-1)...(alpha-3+r) Gamma(5+r) (1-y)^r M(5+r, 9-alpha, c y).
    """
    total = 0.0
    for r in range(5):
        coeff = math.comb(4, r) * (-1) ** r * math.gamma(5.0 + r) * math.prod(
            alpha - k for k in range(4 - r))
        total = total + coeff * (1.0 - y) ** r * hyp1f1(5.0 + r, 9.0 - alpha, c * y)
    return y ** (4.0 - alpha) / math.gamma(9.0 - alpha) * total


def build_example_5_4_source(alpha, lam, x, t):
    """Source of the two-sided case at nodes ``x`` (a float for a scalar) and time ``t``.

    Conjugated by e^{-lam x}, the left derivative of u is that of x^4 (1-x)^4;
    conjugated by e^{lam (x-2)}, the right one is that of s^4 (1-s)^4 e^{2 lam s}
    in s = 1 - x.
    """
    x = np.asarray(x, dtype=float)
    s = 1.0 - x
    left = (1.0 - 2.0 * lam**alpha) * x**4 * s**4 + _bump_derivative(x, 0.0, alpha)
    right = _bump_derivative(s, 2.0 * lam, alpha)
    out = -math.exp(-t) * (np.exp(-lam * x) * left + np.exp(lam * (x - 2.0)) * right)
    return float(out) if out.ndim == 0 else out


def case_ex5_4(alpha, lam, T=1.0):
    """Two-sided case with exact solution e^{-t - lam x} x^4 (1-x)^4."""

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t - lam * x) * x**4 * (1.0 - x) ** 4

    def profile(x):
        return build_example_5_4_source(alpha, lam, x, 0.0)

    return _case_1d("ex5_4", {"alpha": alpha, "lam": lam}, "two_sided", exact,
                    (lambda t: 0.0, lambda t: 0.0), profile, solve_two_sided, T)


_CASE_BUILDERS = {
    "ex5_1": case_ex5_1,
    "ex5_2": case_ex5_2,
    "ex5_3": case_ex5_3,
    "ex5_4": case_ex5_4,
}


def make_case(ident, **params):
    """Build a manufactured case by identifier; unknown identifiers raise KeyError."""
    if ident not in _CASE_BUILDERS:
        raise KeyError(f"unknown case {ident!r}; choose from {sorted(_CASE_BUILDERS)}")
    return _CASE_BUILDERS[ident](**params)


def error_norm(solution, exact):
    """Discrete L2 distance between a solution and the exact field at t = T.

    Returns math.inf for non-finite numerical values instead of raising.  In
    2D ``exact`` is evaluated as the solvers evaluate their fields: on the
    broadcasting grids of the interior nodes where its result passes the
    checks of :func:`~tempfrac.solver1d._grid_field`, else on the full
    meshgrid.
    """
    if isinstance(solution, Solution2D):
        gx, gy = solution.grid_x, solution.grid_y
        X, Y = np.meshgrid(gx.interior(), gy.interior(), indexing="ij", sparse=True)
        diff = _grid_field(exact, "the exact solution", solution.values.shape, X, Y,
                           solution.time.T) - solution.values
        if not np.all(np.isfinite(solution.values)):
            return math.inf
        return float(np.sqrt(gx.h * gy.h * np.sum(diff**2)))
    xi = solution.grid.interior()
    vals = solution.values[1:-1]
    if not np.all(np.isfinite(vals)):
        return math.inf
    diff = exact(xi, solution.time.T) - vals
    return float(np.sqrt(solution.grid.h * np.sum(diff**2)))


@dataclass
class LevelResult:
    h: float
    tau: float
    error: float
    rate: Optional[float]
    wall_ms: float


@dataclass
class ConvergenceReport:
    """Per-level errors and observed orders of one refinement study."""

    ident: str
    params: dict
    rows: list = field(default_factory=list)

    def rates(self):
        return [r.rate for r in self.rows if r.rate is not None]

    def errors(self):
        return [r.error for r in self.rows]

    def to_csv(self, path_or_file):
        """Write the study as CSV; Inf/NaN render as literal tokens."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh):
        fh.write("case,alpha,beta,lambda,h,tau,error,rate,wall_ms\n")
        alpha = self.params.get("alpha", "")
        beta = self.params.get("beta", "")
        lam = self.params.get("lam", self.params.get("lam1", ""))
        for row in self.rows:
            fh.write(
                ",".join(
                    [
                        self.ident,
                        _fmt(alpha),
                        _fmt(beta),
                        _fmt(lam),
                        _fmt(row.h),
                        _fmt(row.tau),
                        _fmt(row.error),
                        _fmt(row.rate) if row.rate is not None else "",
                        f"{row.wall_ms:.3f}",
                    ]
                )
                + "\n"
            )


def _fmt(x):
    if x == "":
        return ""
    x = float(x)
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    if math.isnan(x):
        return "NaN"
    return f"{x:.16e}"


def _steps_for(coupling, h, T, fixed_tau):
    if coupling == "h3":
        target = h**3
    elif coupling == "h32":
        target = h**1.5
    elif coupling == "fixed":
        if fixed_tau is None:
            raise ValueError("fixed coupling requires an explicit tau")
        if not fixed_tau > 0.0:
            raise ValueError(f"fixed tau must be > 0, got {fixed_tau}")
        target = fixed_tau
    else:
        raise ValueError(f"unknown coupling {coupling!r}; use 'h3', 'h32' or 'fixed'")
    return max(1, round(T / target))


def run_convergence_study(case, h_levels, coupling="h3", fixed_tau=None):
    """Solve the case at each resolution and tabulate errors and rates.

    ``coupling`` ties the step size to the resolution (tau = h**3 or
    tau = h**1.5) or holds it fixed.  Rates are log2 of successive error
    ratios; a level that blows up records an infinite error and the study
    continues.
    """
    if len(h_levels) < 2:
        raise ValueError("a convergence study needs at least two levels")
    report = ConvergenceReport(ident=case.ident, params=dict(case.params))
    prev_error = None
    for h in h_levels:
        N = _steps_for(coupling, h, case.horizon, fixed_tau)
        spec = case.build_spec(h)(N)
        start = _time.perf_counter()
        try:
            sol = case.solve(spec)
            err = error_norm(sol, case.exact)
        except BlowupError:
            err = math.inf
        wall_ms = (_time.perf_counter() - start) * 1e3
        rate = None
        if prev_error is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = float(np.log2(np.float64(prev_error) / np.float64(err)))
        report.rows.append(
            LevelResult(h=h, tau=case.horizon / N, error=err, rate=rate, wall_ms=wall_ms)
        )
        prev_error = err
    return report
