"""Stability machinery in action: spectra, splitting, and a real blowup.

The implicit schemes are provably stable while lam * h <= 1.  This demo
evaluates the spectral certificates on both sides of that threshold and then
drives a solve into the unstable regime to show the blowup diagnostic.

Run:  python demos/stability_diagnostics.py
"""

import warnings

from tempfrac import (
    BlowupError,
    Grid1D,
    RegimeError,
    TemperedParams,
    case_ex5_1,
    check_B_bounds,
    check_P_definiteness,
    hplus_split,
    solve_left,
    stability_predicate,
    w3_sign_root,
)

print("=== Stability predicate ===")
for lam, h in ((1.0, 0.05), (10.0, 0.05), (50.0, 0.1)):
    verdict = "stable" if stability_predicate(lam, h) else "UNSTABLE"
    print(f"rate {lam:>5}, h = {h}: lam*h = {lam * h:>5} -> {verdict}")
print()

print("=== Negative definiteness of the spatial operator ===")
for alpha in (1.1, 1.5, 1.9):
    for lam_h in (0.0, 1.0):
        grid = Grid1D(0.0, 1.0, 40)
        rep = check_P_definiteness(TemperedParams(alpha, lam_h / grid.h), grid, tau=1.0)
        print(
            f"order {alpha}, lam*h = {lam_h}: sym(P) spectrum within "
            f"[{rep.eig_min:.3e}, {rep.eig_max:.3e}] -> {rep.verdict} ({rep.rung})"
        )
print()

print("=== Compact filter spectrum stays inside (1/12, 2) ===")
for lam_h in (0.0, 0.5, 1.0):
    rep = check_B_bounds(lam_h / 0.025, 0.025, 40)
    print(f"lam*h = {lam_h}: [{rep.eig_min:.6f}, {rep.eig_max:.6f}]")
print()

print("=== Pentadiagonal splitting for steep orders ===")
root = w3_sign_root()
print(f"the third weight changes sign at order {root:.6f}")
grid = Grid1D(0.0, 1.0, 30)
for alpha in (1.5, 1.9):
    try:
        split = hplus_split(TemperedParams(alpha, 0.0), grid, tau=1.0)
        print(f"order {alpha}: splitting applies, corner band h_c = {split.h_c:.4e}")
    except RegimeError as exc:
        print(f"order {alpha}: {exc}")
print()

print("=== Driving a solve past the threshold ===")
case = case_ex5_1(1.9, 50.0, j=5)  # lam*h = 5 on the coarse grid
spec = case.build_spec(0.1)(100)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        solve_left(spec)
        print("unexpectedly survived")
    except BlowupError as exc:
        print(f"blowup diagnostic raised: {exc}")
