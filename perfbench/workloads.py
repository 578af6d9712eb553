"""The benchmark's workloads, each a list of operations built from a seed.

Every workload is a closed loop: one caller issues its operations one after
another through the public entry points of ``tempfrac`` (``cli.main``, the
case builders and ``error_norm``, the solvers and the ``spectral`` checks).
An operation has a ``run`` step, which the benchmark times, and a ``check``
step, which runs after the timed pass and turns the raw result into one
``Outcome`` per counted operation.  Entry points are looked up on their
modules at call time, so the traced run can wrap them.

``scale="full"`` gives the sizes the benchmark measures; ``scale="toy"`` the
small sizes of the self-test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref
from tempfrac import calculus, cli, operators, solver1d, solver2d, spectral, verification

@dataclass(frozen=True)
class Outcome:
    """One counted operation: its time, its work and whether its check failed."""

    label: str
    seconds: float
    work: int  # interior unknowns x time steps; 0 for operations that are not solves
    failed: bool
    detail: str = ""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # (result, exception raised by run or None, seconds) -> outcomes
    check: Callable[[object, Optional[BaseException], float], list]


def _fail_all(labels, seconds, detail):
    return [Outcome(lbl, seconds / len(labels), 0, True, detail) for lbl in labels]


def _cli_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- studies

def _converge_op(case_id, params, horizon, dim, h0, levels, coupling, refs):
    """One ``tempfrac converge`` run; each refinement level is one operation."""
    argv = ["converge", "--case", case_id]
    for flag, value in params:
        argv += [flag, repr(value)]
    argv += ["--h", repr(h0), "--levels", str(levels), "--coupling", coupling,
             "--format", "csv"]
    label = "converge " + " ".join(argv[2:-2])
    hs = [h0 / 2**k for k in range(levels)]
    level_labels = [f"{label} h={h:g}" for h in hs]

    def check(result, exc, seconds):
        if exc is not None:
            return _fail_all(level_labels, seconds, f"raised {exc!r}")
        code, text = result
        if code != 0:
            return _fail_all(level_labels, seconds, f"exit code {code}")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != levels:
            return _fail_all(level_labels, seconds, f"{len(rows)} rows, expected {levels}")
        outcomes = []
        for k, (row, lbl) in enumerate(zip(rows, level_labels)):
            h, tau, err = float(row["h"]), float(row["tau"]), float(row["error"])
            rate = float(row["rate"]) if row["rate"] else None
            problems = []
            if not math.isclose(h, hs[k], rel_tol=1e-12):
                problems.append(f"h={h}")
            if not math.isfinite(err):
                problems.append(f"error={err}")
            err_ref, rate_ref = next(
                (v for hh, v in refs.items() if math.isclose(hh, h, rel_tol=1e-9)),
                (None, None))
            if err_ref is not None and abs(err / err_ref - 1.0) > ref.ERR_RTOL:
                problems.append(f"error {err:.4e} vs table {err_ref:.4e}")
            # the first level of a study has no rate, whatever the table says
            if k > 0 and rate_ref is not None and (
                    rate is None or abs(rate - rate_ref) > ref.RATE_ATOL):
                problems.append(f"rate {rate} vs table {rate_ref}")
            work = (round(1.0 / h) - 1) ** dim * round(horizon / tau)
            outcomes.append(Outcome(lbl, float(row["wall_ms"]) / 1e3, work,
                                    bool(problems), "; ".join(problems)))
        return outcomes

    return Op(label, lambda: _cli_call(argv), check)


def study1d(rng, scale):
    levels, split_levels = (3, 2) if scale == "full" else (2, 2)
    a_left = rng.choice(sorted(ref.TABLE_LEFT))
    a_right = rng.choice(sorted(ref.TABLE_RIGHT))
    a_split = rng.choice(sorted(ref.TABLE_SPLIT))
    return [
        _converge_op("ex5_1", (("--alpha", a_left), ("--lambda", 1.0), ("--j", 5)),
                     0.1, 1, 0.1, levels, "h3", ref.level_refs(*ref.TABLE_LEFT[a_left])),
        _converge_op("ex5_2", (("--alpha", a_right), ("--lambda", 1.0), ("--j", 5)),
                     0.1, 1, 0.1, levels, "h3", ref.level_refs(*ref.TABLE_RIGHT[a_right])),
        _converge_op("ex5_4", (("--alpha", a_split), ("--lambda", 0.1)),
                     1.0, 1, 0.1, split_levels, "h3",
                     ref.level_refs(None, ref.TABLE_SPLIT[a_split])),
    ]


def _solve_op(module, solver_name, case_id, orders, case, M, N):
    """One direct solve of a case's spec, checked against its recorded error."""
    spec = case.build_spec(1.0 / M)(N)
    expected = ref.RECORDED_ERRORS[(case_id, orders, M, N)]
    label = f"{solver_name} {case_id} orders={orders} M={M} N={N}"
    dim = case.dim

    def check(sol, exc, seconds):
        if exc is not None:
            return [Outcome(label, seconds, 0, True, f"raised {exc!r}")]
        err = verification.error_norm(sol, case.exact)
        failed = not math.isclose(err, expected, rel_tol=ref.RECORDED_RTOL)
        return [Outcome(label, seconds, (M - 1) ** dim * N, failed,
                        f"error {err!r} vs recorded {expected!r}" if failed else "")]

    return Op(label, lambda: getattr(module, solver_name)(spec), check)


def adi2d(rng, scale):
    alpha, beta = rng.choice(sorted(ref.TABLE_2D))
    levels, sizes = (4, (120, 160)) if scale == "full" else (2, (12, 16))
    case = verification.make_case("ex5_3", alpha=alpha, beta=beta, lam1=0.1, lam2=0.1)
    return [
        _converge_op("ex5_3", (("--alpha", alpha), ("--beta", beta), ("--lambda", 0.1)),
                     1.0, 2, 0.1, levels, "h32", ref.level_refs(None, ref.TABLE_2D[(alpha, beta)])),
        *[_solve_op(solver2d, "solve_adi", "ex5_3", (alpha, beta), case, M,
                    100 if scale == "full" else 10) for M in sizes],
    ]


_WIDE_CASES = (
    ("ex5_1", "solve_left", {"alpha": 1.5, "lam": 1.0, "j": 5}),
    ("ex5_2", "solve_right", {"alpha": 1.5, "lam": 1.0, "j": 5}),
    ("ex5_4", "solve_two_sided", {"alpha": 1.5, "lam": 0.1}),
)


def wide1d(rng, scale):
    sizes = (1600, 3200) if scale == "full" else (40, 80)
    ops = []
    for case_id, solver_name, kwargs in _WIDE_CASES:
        case = verification.make_case(case_id, **kwargs)
        ops += [_solve_op(solver1d, solver_name, case_id, 1.5, case, M, 16) for M in sizes]
    # the seed only orders the operations; the inputs are fixed
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- stability

_LAM_H = (0.0, 0.5, 1.0, 5.0)


def _spectral_ops(alpha, lam_h, M):
    grid = operators.Grid1D(0.0, 1.0, M)
    lam = lam_h / grid.h
    params = calculus.TemperedParams(alpha, lam)
    stable = lam_h <= 1.0
    tag = f"alpha={alpha} lam*h={lam_h} M={M}"
    verdict_ref, hplus_ref = ref.STABILITY_LH5[alpha]

    def check_p(rep, exc, seconds):
        want = "negative-definite" if stable else verdict_ref
        bad = exc is not None or rep.verdict != want
        return [Outcome(f"check_P_definiteness {tag}", seconds, 0, bad,
                        f"{exc!r}" if exc else f"verdict {rep.verdict}, expected {want}")]

    def check_b(rep, exc, seconds):
        if exc is not None:
            bad = True
        else:
            inside = 1.0 / 12.0 < rep.eig_min and rep.eig_max < 2.0
            bad = inside != stable
        return [Outcome(f"check_B_bounds {tag}", seconds, 0, bad,
                        f"{exc!r}" if exc else f"spectrum [{rep.eig_min}, {rep.eig_max}]")]

    def run_hplus():
        try:
            spectral.hplus_split(params, grid, 1.0)
        except spectral.RegimeError:
            return "regime"
        except RuntimeError:
            return "fails"
        return "ok"

    def check_h(outcome, exc, seconds):
        applies = alpha > spectral.w3_sign_root()
        want = ("ok" if applies else "regime") if stable else hplus_ref
        bad = exc is not None or outcome != want
        return [Outcome(f"hplus_split {tag}", seconds, 0, bad,
                        f"{exc!r}" if exc else f"{outcome}, expected {want}")]

    return [
        Op(f"check_P_definiteness {tag}",
           lambda: spectral.check_P_definiteness(params, grid, 1.0), check_p),
        Op(f"check_B_bounds {tag}", lambda: spectral.check_B_bounds(lam, grid.h, M), check_b),
        Op(f"hplus_split {tag}", run_hplus, check_h),
    ]


def _stability_cli_op(alpha, lam_h, M):
    h = 1.0 / M
    argv = ["stability", "--alpha", repr(alpha), "--lambda", repr(lam_h / h),
            "--h", repr(h), "--M", str(M)]
    label = "stability " + " ".join(argv[1:])

    def check(result, exc, seconds):
        if exc is not None:
            return [Outcome(label, seconds, 0, True, f"raised {exc!r}")]
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if lam_h <= 1.0:
            if "-> negative-definite" not in text or ": STABLE" not in text:
                problems.append("stable configuration not reported negative-definite")
        elif ": UNSTABLE" not in text:
            problems.append("unstable configuration not reported")
        return [Outcome(label, seconds, 0, bool(problems), "; ".join(problems))]

    return Op(label, lambda: _cli_call(argv), check)


def _blowup_op():
    case = verification.make_case("ex5_1", alpha=1.9, lam=50.0, j=5)
    spec = case.build_spec(0.1)(100)
    label = "solve_left ex5_1 alpha=1.9 lam=50 h=0.1 N=100 (blows up)"
    M = spec.grid.M

    def check(sol, exc, seconds):
        step = getattr(exc, "step", None)
        failed = not isinstance(exc, solver1d.BlowupError) or step != ref.BLOWUP_STEP
        detail = f"{exc!r}, step {step}" if exc else "did not blow up"
        return [Outcome(label, seconds, (M - 1) * (step or 0), failed,
                        detail if failed else "")]

    return Op(label, lambda: solver1d.solve_left(spec), check)


def _zero_source(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def _history_op(rng, M, N):
    """Homogeneous run from seeded sine data; its B-energy must not grow."""
    alpha = round(rng.uniform(1.05, 1.95), 6)
    lam_h = round(rng.uniform(0.0, 1.0), 6)
    coeffs = [rng.gauss(0.0, 1.0) for _ in range(5)]
    grid = operators.Grid1D(0.0, 1.0, M)
    lam = lam_h / grid.h

    def initial(x):
        x = np.asarray(x, dtype=float)
        return sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coeffs))

    spec = solver1d.ProblemSpec1D(
        grid=grid, time=operators.TimeGrid(0.5, N),
        params=calculus.TemperedParams(alpha, lam), side="left", initial=initial,
        boundary_left=lambda t: 0.0, boundary_right=lambda t: 0.0, source=_zero_source)
    label = f"solve_left history alpha={alpha} lam*h={lam_h} M={M} N={N}"

    def check(sol, exc, seconds):
        if exc is not None:
            return [Outcome(label, seconds, 0, True, f"raised {exc!r}")]
        hist = sol.history
        problems = []
        if hist is None or hist.shape != (N + 1, M + 1):
            problems.append(f"history shape {getattr(hist, 'shape', None)}")
        else:
            # h U^T B U with the compact filter's bands (e^{-lam h}/6, 2/3, e^{lam h}/6)
            u = hist[:, 1:-1]
            elh = math.exp(lam * grid.h)
            energy = grid.h * (2.0 / 3.0 * np.sum(u * u, axis=1)
                               + (elh + 1.0 / elh) / 6.0 * np.sum(u[:, :-1] * u[:, 1:], axis=1))
            if not np.all(np.isfinite(energy)):
                problems.append("non-finite energy")
            elif np.any(energy[1:] > energy[:-1] * (1.0 + 1e-12)):
                problems.append("energy increased")
        return [Outcome(label, seconds, (M - 1) * N, bool(problems), "; ".join(problems))]

    return Op(label, lambda: solver1d.solve_left(spec, store_history=True), check)


def stability(rng, scale):
    if scale == "full":
        alphas, M, runs, hist_M, hist_N = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9), 400, 4, 200, 2000
    else:
        alphas, M, runs, hist_M, hist_N = (1.5, 1.9), 400, 1, 40, 100
    ops = [_stability_cli_op(rng.choice(alphas), lam_h, M) for lam_h in _LAM_H]
    for alpha in alphas:
        for lam_h in _LAM_H:
            ops += _spectral_ops(alpha, lam_h, M)
    ops.append(_blowup_op())
    ops += [_history_op(rng, hist_M, hist_N) for _ in range(runs)]
    return ops


# Workloads whose timings are scaled to the host's speed (see run.execute).
# Their time is per-step interpreter and small-array numpy overhead, which
# other tenants' load slows alike with the calibration kernel; scaling cut the
# spread of 20-second medians about threefold on them.  wide1d and adi2d
# spend their time in dense assembly and two-thread BLAS factorizations and
# sweeps, which the same load slows far less than the kernel: scaling did not
# steady wide1d and doubled the spread of adi2d, so they report seconds.
HOST_SCALED = frozenset({"study1d", "stability"})

WORKLOADS = {"study1d": study1d, "wide1d": wide1d, "adi2d": adi2d, "stability": stability}


def build(name, seed, scale="full"):
    """The operations of one workload; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), scale)
