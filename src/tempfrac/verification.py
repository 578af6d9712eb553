"""Manufactured solutions, error norms and convergence studies.

Four manufactured cases drive the verification harness, one per scheme:

* ``ex5_1`` - left-sided problem on (0,1) x (0, 0.1] with exact solution
  u = e^{-t - lam x} x**j,
* ``ex5_2`` - right-sided mirror with u = e^{-t + lam x} (1-x)**j,
* ``ex5_3`` - 2D ADI problem on the unit square, t in (0, 1], with
  u = e^{-t - lam1 x - lam2 y} x**4 (1-x) y**4 (1-y),
* ``ex5_4`` - two-sided splitting problem with u = e^{-t - lam x} x**4 (1-x)**4,
  whose source needs the conjugated right derivative of the solution: an
  exponential-times-polynomial series truncated at 50 terms (the tail is far
  below double precision for the tempering rates of interest).

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

from .calculus import TemperedParams
from .operators import Grid1D, TimeGrid
from .solver1d import (
    BlowupError,
    ProblemSpec1D,
    SeparableSource,
    Solution1D,
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

_BINOM4 = (1.0, -4.0, 6.0, -4.0, 1.0)  # (-1)^m * C(4, m)
# values per chunk of the ex5_4 series; the whole (255, 3201) power array at
# once raised the peak memory of a 3200-cell solve from 63 to 75 MB
_SERIES_CHUNK = 2**14


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


def case_ex5_1(alpha, lam, j=5, T=0.1):
    """Left-sided case with exact solution e^{-t - lam x} x**j on (0, 1)."""
    if j < 1 or int(j) != j:
        raise ValueError(f"exponent j must be a positive integer, got {j}")
    params = TemperedParams(alpha, lam)

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t - lam * x) * x**j

    def profile(x):
        return -np.exp(-lam * x) * _power_bracket(x, j, alpha, lam)

    source = SeparableSource(profile, _decay)

    def build_spec(h):
        M = round(1.0 / h)
        return lambda N: ProblemSpec1D(
            grid=Grid1D(0.0, 1.0, M),
            time=TimeGrid(T, N),
            params=params,
            side="left",
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: 0.0,
            boundary_right=lambda t: np.exp(-t - lam),
            source=source,
        )

    return ManufacturedCase(
        ident="ex5_1",
        params={"alpha": alpha, "lam": lam, "j": j},
        exact=exact,
        source=source,
        build_spec=build_spec,
        solve=solve_left,
        horizon=T,
    )


def case_ex5_2(alpha, lam, j=5, T=0.1):
    """Right-sided case with exact solution e^{-t + lam x} (1-x)**j on (0, 1)."""
    if j < 1 or int(j) != j:
        raise ValueError(f"exponent j must be a positive integer, got {j}")
    params = TemperedParams(alpha, lam)

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t + lam * x) * (1.0 - x) ** j

    def profile(x):
        return -np.exp(lam * x) * (
            (1.0 - x) ** j
            + math.gamma(j + 1.0) / math.gamma(1.0 + j - alpha)
            * np.where(1.0 - x > 0.0, (1.0 - x) ** (j - alpha), 0.0)
            + alpha * lam ** (alpha - 1.0) * (lam * (1.0 - x) ** j - j * (1.0 - x) ** (j - 1))
            - lam**alpha * (1.0 - x) ** j
        )

    source = SeparableSource(profile, _decay)

    def build_spec(h):
        M = round(1.0 / h)
        return lambda N: ProblemSpec1D(
            grid=Grid1D(0.0, 1.0, M),
            time=TimeGrid(T, N),
            params=params,
            side="right",
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: np.exp(-t),
            boundary_right=lambda t: 0.0,
            source=source,
        )

    return ManufacturedCase(
        ident="ex5_2",
        params={"alpha": alpha, "lam": lam, "j": j},
        exact=exact,
        source=source,
        build_spec=build_spec,
        solve=solve_right,
        horizon=T,
    )


def _bracket_2d(s, order, lam):
    """Conjugated-derivative bracket for e^{-lam s} s**4 (1-s) along one axis.

    Returns the terms multiplying -e^{...} in the manufactured 2D source:
    (power-rule, advection and normalization terms for s**4 minus those for
    s**5), without the s**4 (1-s) part that the caller may add.
    """
    t4 = (
        math.gamma(5.0) / math.gamma(5.0 - order) * s ** (4.0 - order)
        - order * lam ** (order - 1.0) * (4.0 * s**3 - lam * s**4)
        - lam**order * s**4
    )
    t5 = (
        math.gamma(6.0) / math.gamma(6.0 - order) * s ** (5.0 - order)
        - order * lam ** (order - 1.0) * (5.0 * s**4 - lam * s**5)
        - lam**order * s**5
    )
    return t4 - t5


def case_ex5_3(alpha, beta, lam1, lam2, T=1.0):
    """2D case with exact solution e^{-t - lam1 x - lam2 y} x^4 (1-x) y^4 (1-y)."""
    params_x = TemperedParams(alpha, lam1)
    if not 1.0 < beta < 2.0:  # TemperedParams would name it alpha
        raise ValueError(f"beta must lie in (1, 2), got {beta}")
    params_y = TemperedParams(beta, lam2)

    def exact(X, Y, t):
        return np.exp(-t - lam1 * X - lam2 * Y) * X**4 * (1.0 - X) * Y**4 * (1.0 - Y)

    def profile(X, Y):
        xpart = X**4 * (1.0 - X) + _bracket_2d(X, alpha, lam1)
        ypart = _bracket_2d(Y, beta, lam2)
        return -np.exp(-lam1 * X - lam2 * Y) * (
            xpart * Y**4 * (1.0 - Y) + ypart * X**4 * (1.0 - X)
        )

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


def build_example_5_4_source(alpha, lam, x, t, n_terms=50):
    """Source of the two-sided case, series form truncated at ``n_terms``.

    The right-derivative part expands e^{-2 lam x} x^4 (1-x)^4 in powers of
    (1 - x); each series term uses log-Gamma to keep ratios of large Gamma
    values in range.  For lam = 0 only the first term survives.  The terms
    are evaluated a chunk at a time, one power array per chunk of at most
    _SERIES_CHUNK values, and added in series order, so that an array of
    nodes gets the values of a term-by-term loop bit for bit.
    """
    x = np.asarray(x, dtype=float)
    one_m_x = 1.0 - x

    left = x**4 * one_m_x**4 - 2.0 * lam**alpha * x**4 * one_m_x**4
    for m in range(5):
        left = left + _BINOM4[m] * math.gamma(5.0 + m) / math.gamma(5.0 + m - alpha) * x ** (
            4.0 + m - alpha
        )

    coeffs, exponents = [], []
    log2lam = math.log(2.0 * lam) if lam > 0.0 else None
    for jj in range(n_terms + 1 if lam != 0.0 else 1):
        log_cj = 0.0 if jj == 0 else jj * log2lam - math.lgamma(jj + 1.0)
        cj = math.exp(log_cj)
        for m in range(5):
            coeffs.append(cj * _BINOM4[m] * math.exp(
                math.lgamma(5.0 + m + jj) - math.lgamma(5.0 + m + jj - alpha)
            ))
            exponents.append(jj + 4.0 + m - alpha)
    coeffs, exponents = np.array(coeffs)[:, None], np.array(exponents)[:, None]
    # each chunk is added to the running sum, its row 0, in series order:
    # NumPy sums over axis 0 row by row given two or more columns (a single
    # column it sums pairwise), so a lone node is doubled
    base = one_m_x.reshape(1, -1)
    if base.size == 1:
        base = np.repeat(base, 2, axis=1)
    rows = max(1, _SERIES_CHUNK // max(1, base.shape[1]))
    right = np.zeros_like(base)
    for start in range(0, len(coeffs), rows):
        chunk = coeffs[start:start + rows] * base ** exponents[start:start + rows]
        right = np.concatenate((right, chunk)).sum(axis=0, keepdims=True)
    right = right[0, :x.size].reshape(x.shape)

    out = -math.exp(-t) * (np.exp(-lam * x) * left + np.exp(lam * (x - 2.0)) * right)
    return float(out) if out.ndim == 0 else out


def case_ex5_4(alpha, lam, T=1.0, n_terms=50):
    """Two-sided case with exact solution e^{-t - lam x} x^4 (1-x)^4."""
    params = TemperedParams(alpha, lam)

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-t - lam * x) * x**4 * (1.0 - x) ** 4

    def profile(x):
        return build_example_5_4_source(alpha, lam, x, 0.0, n_terms=n_terms)

    source = SeparableSource(profile, _decay)

    def build_spec(h):
        M = round(1.0 / h)
        return lambda N: ProblemSpec1D(
            grid=Grid1D(0.0, 1.0, M),
            time=TimeGrid(T, N),
            params=params,
            side="two_sided",
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: 0.0,
            boundary_right=lambda t: 0.0,
            source=source,
        )

    return ManufacturedCase(
        ident="ex5_4",
        params={"alpha": alpha, "lam": lam},
        exact=exact,
        source=source,
        build_spec=build_spec,
        solve=solve_two_sided,
        horizon=T,
    )


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

    Returns math.inf for non-finite numerical values instead of raising.
    """
    if isinstance(solution, Solution2D):
        gx, gy = solution.grid_x, solution.grid_y
        X, Y = np.meshgrid(gx.interior(), gy.interior(), indexing="ij")
        diff = exact(X, Y, solution.time.T) - solution.values
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
