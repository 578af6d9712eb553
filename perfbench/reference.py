"""Reference values the benchmark checks every result against.

The refinement tables are copied from ``tests/test_acceptance.py`` (errors
and observed orders of the four-level studies starting at h = 0.1).  The
``RECORDED_ERRORS`` and ``STABILITY_LH5`` entries were recorded from the
unmodified solvers at the commit that introduced this benchmark.
"""

ERR_RTOL = 0.10
RATE_ATOL = 0.15
# Round-off, not discretization: switching OpenBLAS between 1 and 2 threads
# moves the recorded errors below by at most 5e-10 relative, while refining
# M from 1600 to 3200 moves them by about 1e-6.
RECORDED_RTOL = 1e-8

H_LEVELS = (0.1, 0.05, 0.025, 0.0125)

# left-sided case ex5_1, lam = 1, j = 5: errors per level, rates per halving
TABLE_LEFT = {
    1.1: ([6.0259e-06, 7.6037e-07, 9.5387e-08, 1.1945e-08], [2.9864, 2.9948, 2.9974]),
    1.5: ([9.1408e-05, 1.1772e-05, 1.4927e-06, 1.8791e-07], [2.9569, 2.9794, 2.9898]),
    1.9: ([2.7192e-04, 3.4977e-05, 4.4201e-06, 5.5510e-07], [2.9587, 2.9842, 2.9933]),
}
# right-sided case ex5_2, lam = 1, j = 5
TABLE_RIGHT = {
    1.1: ([1.6380e-05, 2.0669e-06, 2.5929e-07, 3.2469e-08], [2.9864, 2.9948, 2.9974]),
    1.5: ([2.4847e-04, 3.2000e-05, 4.0577e-06, 5.1080e-07], [2.9569, 2.9794, 2.9898]),
    1.9: ([7.3915e-04, 9.5077e-05, 1.2015e-05, 1.5089e-06], [2.9587, 2.9842, 2.9933]),
}
# 2D case ex5_3, lam = 0.1, tau = h^(3/2): rates only
TABLE_2D = {
    (1.2, 1.5): [3.0070, 2.9962, 3.0017],
    (1.5, 1.9): [2.9725, 2.9807, 2.9947],
}
# two-sided case ex5_4, lam = 0.1, tau = h^3: rates only
TABLE_SPLIT = {
    1.2: [2.8309, 2.9121, 2.9516],
    1.5: [2.9090, 2.9944, 3.0067],
    1.8: [3.1093, 3.2168, 3.1724],
}


def level_refs(errors, rates):
    """Map each tabulated h to its (error, rate) pair; None where absent."""
    refs = {}
    for k, h in enumerate(H_LEVELS):
        err = errors[k] if errors else None
        rate = rates[k - 1] if k > 0 else None
        refs[h] = (err, rate)
    return refs


# L2 errors of direct solves, keyed by (case, orders, M, N): the alpha = 1.5
# one-dimensional cases and both 2D order pairs
RECORDED_ERRORS = {
    ("ex5_1", 1.5, 40, 16): 1.8308042163640355e-05,
    ("ex5_2", 1.5, 40, 16): 4.976641832830905e-05,
    ("ex5_4", 1.5, 40, 16): 1.2747160768182568e-05,
    ("ex5_1", 1.5, 80, 16): 1.922316256202044e-05,
    ("ex5_2", 1.5, 80, 16): 5.2253973477866964e-05,
    ("ex5_4", 1.5, 80, 16): 1.2757821910056038e-05,
    ("ex5_1", 1.5, 1600, 16): 1.935851463780578e-05,
    ("ex5_2", 1.5, 1600, 16): 5.262189860667945e-05,
    ("ex5_4", 1.5, 1600, 16): 1.276697056896804e-05,
    ("ex5_1", 1.5, 3200, 16): 1.9358529475247703e-05,
    ("ex5_2", 1.5, 3200, 16): 5.262193915614792e-05,
    ("ex5_4", 1.5, 3200, 16): 1.2767232915752972e-05,
    ("ex5_3", (1.2, 1.5), 12, 10): 6.290096770434055e-06,
    ("ex5_3", (1.2, 1.5), 16, 10): 4.926519753766371e-06,
    ("ex5_3", (1.2, 1.5), 120, 100): 4.401292811352833e-08,
    ("ex5_3", (1.2, 1.5), 160, 100): 4.346440985389349e-08,
    ("ex5_3", (1.5, 1.9), 12, 10): 1.3576261680204617e-05,
    ("ex5_3", (1.5, 1.9), 16, 10): 1.1993771695748615e-05,
    ("ex5_3", (1.5, 1.9), 120, 100): 1.096787221790596e-07,
    ("ex5_3", (1.5, 1.9), 160, 100): 1.088014903576069e-07,
}

# Beyond the lam*h <= 1 threshold (lam*h = 5, M = 400) the diagnostics are
# informational; pin the verdict of sym(P) and the outcome of the
# pentadiagonal splitting ("regime": not applicable, "fails": its
# verification rejects the matrix).
STABILITY_LH5 = {
    1.1: ("positive-definite", "regime"),
    1.2: ("positive-definite", "regime"),
    1.3: ("positive-definite", "regime"),
    1.4: ("positive-definite", "regime"),
    1.5: ("positive-definite", "regime"),
    1.6: ("indefinite", "regime"),
    1.7: ("indefinite", "regime"),
    1.8: ("indefinite", "fails"),
    1.9: ("indefinite", "fails"),
}
BLOWUP_STEP = 69
