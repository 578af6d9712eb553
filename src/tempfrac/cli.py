"""Command-line front end: weight tables, convergence studies, stability checks.

Exit codes: 0 on success, 1 when a convergence study deviates from third
order on a stable configuration, 2 on usage errors.  Output is buffered and
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from .calculus import TemperedParams, tempered_weights, weight_sum_limit
from .operators import Grid1D
from .spectral import RegimeError, check_B_bounds, check_P_definiteness, hplus_split, stability_predicate
from .verification import make_case, run_convergence_study


@functools.cache  # parse_args leaves the parser as it is, so one serves every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tempfrac",
        description="Quasi-compact schemes for tempered fractional diffusion: "
        "weights, convergence studies and stability diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="print Grunwald and tempered weight tables")
    w.add_argument("--alpha", type=float, default=1.5)
    w.add_argument("--lambda", type=float, default=1.0, dest="lam")
    w.add_argument("--h", type=float, default=0.1)
    w.add_argument("--n", type=int, default=10)
    w.add_argument("--format", choices=("table", "csv"), default="table")

    c = sub.add_parser("converge", help="run a manufactured-solution convergence study")
    c.add_argument("--case", default="ex5_1", help="ex5_1 | ex5_2 | ex5_3 | ex5_4")
    c.add_argument("--alpha", type=float, default=1.5)
    c.add_argument("--beta", type=float, default=None, help="second order (2D case)")
    c.add_argument("--lambda", type=float, default=1.0, dest="lam")
    c.add_argument("--j", type=int, default=5, help="monomial exponent (1D one-sided cases)")
    c.add_argument("--h", type=float, default=0.1, help="coarsest resolution")
    c.add_argument("--levels", type=int, default=4, help="number of halvings of h")
    c.add_argument("--coupling", choices=("h3", "h32", "fixed"), default=None,
                   help="step-size coupling (default: h32 for ex5_3, else h3)")
    c.add_argument("--tau", type=float, default=None, help="step size for fixed coupling")
    c.add_argument("--out", default=None, help="CSV output path")
    c.add_argument("--format", choices=("table", "csv"), default="table")

    s = sub.add_parser("stability", help="stability predicate and spectral diagnostics")
    s.add_argument("--alpha", type=float, default=1.5)
    s.add_argument("--lambda", type=float, default=1.0, dest="lam")
    s.add_argument("--h", type=float, default=0.05)
    s.add_argument("--M", type=int, default=None, help="cells (default round(1/h))")
    return parser


def _cmd_weights(args):
    try:
        params = TemperedParams(args.alpha, args.lam)
        table = tempered_weights(params, args.h, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    g, w = table.grunwald, table.values
    partial = np.cumsum(w)
    limit = weight_sum_limit(params, args.h)
    lines = []
    if args.format == "csv":
        lines.append("k,g_k,w_k,partial_sum")
        for k in range(len(w)):
            lines.append(f"{k},{g[k]:.16e},{w[k]:.16e},{partial[k]:.16e}")
    else:
        lines.append(f"alpha={args.alpha} lambda={args.lam} h={args.h}")
        lines.append(f"{'k':>4} {'g_k':>24} {'w_k':>24} {'partial sum':>24}")
        for k in range(len(w)):
            lines.append(f"{k:>4} {g[k]:>24.16e} {w[k]:>24.16e} {partial[k]:>24.16e}")
        lines.append(f"full-sum limit: {limit:.16e}")
    print("\n".join(lines))
    return 0


def _case_kwargs(args):
    if args.case == "ex5_3":
        beta = args.beta if args.beta is not None else 1.5
        return {"alpha": args.alpha, "beta": beta, "lam1": args.lam, "lam2": args.lam}
    if args.case == "ex5_4":
        return {"alpha": args.alpha, "lam": args.lam}
    return {"alpha": args.alpha, "lam": args.lam, "j": args.j}


def _cmd_converge(args):
    try:
        case = make_case(args.case, **_case_kwargs(args))
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.levels < 2:
        print("error: need at least two levels", file=sys.stderr)
        return 2
    if not args.h > 0.0:
        print(f"error: h must be > 0, got {args.h}", file=sys.stderr)
        return 2
    cells = round(1.0 / args.h)  # the coarsest level's cells on [0, 1]
    if cells < 4:
        print(f"error: h = {args.h} gives fewer than 4 cells on [0, 1]", file=sys.stderr)
        return 2
    coupling = args.coupling or ("h32" if args.case == "ex5_3" else "h3")
    if coupling == "fixed" and args.tau is None:
        print("error: fixed coupling requires --tau", file=sys.stderr)
        return 2
    if args.tau is not None and not args.tau > 0.0:
        print(f"error: tau must be > 0, got {args.tau}", file=sys.stderr)
        return 2
    # the spacings the levels run, each half the one before
    h_levels = [1.0 / (cells * 2**k) for k in range(args.levels)]
    report = run_convergence_study(case, h_levels, coupling=coupling, fixed_tau=args.tau)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            report.to_csv(fh)
    if args.format == "csv":
        report.to_csv(sys.stdout)
    else:
        print(f"case={case.ident} params={case.params} coupling={coupling}")
        print(f"{'h':>12} {'tau':>14} {'error':>16} {'rate':>10} {'wall_ms':>10}")
        for row in report.rows:
            err = "Inf" if math.isinf(row.error) else f"{row.error:.4e}"
            rate = "" if row.rate is None else (
                "NaN" if math.isnan(row.rate) else f"{row.rate:.4f}")
            print(f"{row.h:>12.6g} {row.tau:>14.6g} {err:>16} {rate:>10} {row.wall_ms:>10.1f}")

    # CI contract: on stable configurations the observed order must stay near 3
    deviated = False
    for row in report.rows:
        if row.rate is None:
            continue
        stable = stability_predicate(case.params.get("lam", case.params.get("lam1", 0.0)), row.h)
        if stable and math.isfinite(row.rate) and abs(row.rate - 3.0) > 0.5:
            deviated = True
        if stable and not math.isfinite(row.error):
            deviated = True
    return 1 if deviated else 0


def _cmd_stability(args):
    if not args.h > 0.0:
        print(f"error: h must be > 0, got {args.h}", file=sys.stderr)
        return 2
    M = args.M if args.M is not None else round(1.0 / args.h)
    try:
        params = TemperedParams(args.alpha, args.lam)
        grid = Grid1D(0.0, M * args.h, M)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = check_P_definiteness(params, grid, tau=1.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = stability_predicate(args.lam, args.h)
    print(f"alpha={args.alpha} lambda={args.lam} h={args.h} M={M} lambda*h={args.lam * args.h:.6g}")
    print(f"stability predicate (lambda*h <= 1): {'STABLE' if ok else 'UNSTABLE'}")
    print(
        f"sym(P) eigenvalues in [{rep.eig_min:.6e}, {rep.eig_max:.6e}] -> {rep.verdict}"
    )
    brep = check_B_bounds(args.lam, args.h, M)
    inside = 1.0 / 12.0 < brep.eig_min and brep.eig_max < 2.0
    print(
        f"sym(B) eigenvalues in [{brep.eig_min:.6e}, {brep.eig_max:.6e}] "
        f"(inside (1/12, 2): {'yes' if inside else 'NO'})"
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hplus_split(params, grid, tau=1.0)
        print("pentadiagonal splitting: applies (third weight negative), checks pass")
    except RegimeError:
        print("pentadiagonal splitting: not applicable (third weight nonnegative)")
    except RuntimeError as exc:
        print(f"pentadiagonal splitting: verification FAILS beyond the threshold ({exc})")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "weights":
        return _cmd_weights(args)
    if args.command == "converge":
        return _cmd_converge(args)
    if args.command == "stability":
        return _cmd_stability(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
