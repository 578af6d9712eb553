"""Quadrature evaluators against closed forms and the composition identities."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tempfrac
from tempfrac.calculus import TemperedParams, exact_power_derivative
from tempfrac.oracle import (
    OracleConvergenceError,
    quadrature_oracle,
    tempered_derivative,
    tempered_integral,
)


def monomial(lam, a, j, side="left", b=None):
    """u = e^{-lam x} (x-a)^j (left) or e^{lam x} (b-x)^j (right), with u'."""
    if side == "left":
        u = lambda s: math.exp(-lam * s) * (s - a) ** j
        du = lambda s: math.exp(-lam * s) * (j * (s - a) ** (j - 1) - lam * (s - a) ** j)
    else:
        u = lambda s: math.exp(lam * s) * (b - s) ** j
        du = lambda s: math.exp(lam * s) * (lam * (b - s) ** j - j * (b - s) ** (j - 1))
    return u, du


class TestAgainstPowerRule:
    def test_left_monomial_family(self):
        p = TemperedParams(1.5, 1.0)
        u, _ = monomial(1.0, 0.0, 5)
        for x in (0.4, 0.7, 1.0):
            got = tempered_derivative("left", 1.5, p, 0.0, u, x, tol=1e-9)
            want = exact_power_derivative("left", p, 0.0, 5, x)
            assert got == pytest.approx(want, abs=1e-7)

    def test_right_monomial_family(self):
        p = TemperedParams(1.5, 1.0)
        u, _ = monomial(1.0, None, 5, side="right", b=1.0)
        got = tempered_derivative("right", 1.5, p, 1.0, u, 0.5, tol=1e-9)
        want = exact_power_derivative("right", p, 1.0, 5, 0.5)
        assert got == pytest.approx(want, abs=1e-8)

    def test_untempered_reduces_to_riemann_liouville(self):
        # lam = 0: the normalized derivative of (x-a)^3 is the plain power rule
        p = TemperedParams.for_testing(1.5, 0.0)
        u = lambda s: s**3
        for x in (0.5, 0.9):
            got = quadrature_oracle("left", p, 0.0, u, x, tol=1e-9)
            want = math.gamma(4) / math.gamma(2.5) * x**1.5
            assert got == pytest.approx(want, abs=1e-7)

    def test_normalized_oracle_matches_analytic_assembly(self):
        lam, alpha = 1.0, 1.5
        p = TemperedParams(alpha, lam)
        u, du = monomial(lam, 0.0, 5)
        for x in (0.5, 0.9):
            got = quadrature_oracle("left", p, 0.0, u, x, tol=1e-9)
            want = (
                exact_power_derivative("left", p, 0.0, 5, x)
                - lam**alpha * u(x)
                - alpha * lam ** (alpha - 1.0) * du(x)
            )
            assert got == pytest.approx(want, abs=1e-7)

    def test_supplied_derivative_is_used(self):
        lam, alpha = 0.7, 1.3
        p = TemperedParams(alpha, lam)
        u, du = monomial(lam, 0.0, 4)
        with_fd = quadrature_oracle("left", p, 0.0, u, 0.6, tol=1e-9)
        with_du = quadrature_oracle("left", p, 0.0, u, 0.6, tol=1e-9, du=du)
        assert with_fd == pytest.approx(with_du, abs=1e-8)


class TestTemperedIntegral:
    def test_order_one_untempered_is_plain_integral(self):
        p = TemperedParams.for_testing(1.5, 0.0)
        got = tempered_integral("left", 1.0, p, 0.0, math.cos, 1.3)
        assert got == pytest.approx(math.sin(1.3), abs=1e-12)

    def test_mirror_symmetry(self):
        # right integral of u on [a,b] at x equals left integral of the
        # reflected function at the reflected point, same tempering rate
        p = TemperedParams(1.5, 0.6)
        a, b, x, order = 0.0, 2.0, 0.7, 0.8
        u = lambda s: math.sin(s) + 1.5
        refl = lambda s: u(a + b - s)
        right = tempered_integral("right", order, p, b, u, x, tol=1e-11)
        left = tempered_integral("left", order, p, a, refl, a + b - x, tol=1e-11)
        assert right == pytest.approx(left, abs=1e-10)

    def test_power_rule_for_integrals(self):
        # left integral of e^{-lam x}(x-a)^j is Gamma(j+1)/Gamma(j+1+p) e^{-lam x}(x-a)^{j+p}
        p = TemperedParams(1.5, 0.9)
        u, _ = monomial(0.9, 0.0, 3)
        got = tempered_integral("left", 0.7, p, 0.0, u, 0.8, tol=1e-11)
        want = math.gamma(4) / math.gamma(4.7) * math.exp(-0.9 * 0.8) * 0.8**3.7
        assert got == pytest.approx(want, abs=1e-10)

    def test_rejects_nonpositive_order(self):
        p = TemperedParams(1.5, 0.0)
        with pytest.raises(ValueError):
            tempered_integral("left", 0.0, p, 0.0, math.sin, 0.5)


class TestAppendixIdentities:
    def test_semigroup_left(self):
        p = TemperedParams(1.5, 0.5)
        inner = lambda s: tempered_integral("left", 0.7, p, 0.0, math.sin, s, tol=1e-11)
        lhs = tempered_integral("left", 0.7, p, 0.0, inner, 1.2, tol=1e-9)
        rhs = tempered_integral("left", 1.4, p, 0.0, math.sin, 1.2, tol=1e-11)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_semigroup_right(self):
        p = TemperedParams(1.5, 0.5)
        inner = lambda s: tempered_integral("right", 0.7, p, 2.0, math.sin, s, tol=1e-11)
        lhs = tempered_integral("right", 0.7, p, 2.0, inner, 0.6, tol=1e-9)
        rhs = tempered_integral("right", 1.4, p, 2.0, math.sin, 0.6, tol=1e-11)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_composition_boundary_term_left(self):
        # D^(p)(D^(1) u) = D^(1+p) u - e^{lam a} u(a) e^{-lam x} (x-a)^{-p-1} / Gamma(-p)
        lam, p_ord, a, x = 0.5, 1.3, 0.0, 1.5
        params = TemperedParams(1.5, lam)
        u = lambda s: math.sin(s) + 2.0
        du = lambda s: math.cos(s)
        inner = lambda s: lam * u(s) + du(s)  # integer-order tempered derivative
        lhs = tempered_derivative("left", p_ord, params, a, inner, x, tol=1e-8)
        full = tempered_derivative("left", 1.0 + p_ord, params, a, u, x, tol=1e-8)
        boundary = (
            math.exp(lam * a) * u(a) * math.exp(-lam * x) * (x - a) ** (-p_ord - 1.0)
            / math.gamma(-p_ord)
        )
        assert lhs - full == pytest.approx(-boundary, abs=1e-6)

    def test_composition_boundary_term_right(self):
        # mirror of the left identity; the boundary term enters with the same
        # sign (analytic check: u constant, lam = 0 makes the left side vanish)
        lam, p_ord, b, x = 0.5, 1.3, 2.0, 0.5
        params = TemperedParams(1.5, lam)
        u = lambda s: math.sin(s) + 2.0
        du = lambda s: math.cos(s)
        inner = lambda s: lam * u(s) - du(s)
        lhs = tempered_derivative("right", p_ord, params, b, inner, x, tol=1e-8)
        full = tempered_derivative("right", 1.0 + p_ord, params, b, u, x, tol=1e-8)
        boundary = (
            math.exp(-lam * b) * u(b) * math.exp(lam * x) * (b - x) ** (-p_ord - 1.0)
            / math.gamma(-p_ord)
        )
        assert lhs - full == pytest.approx(-boundary, abs=1e-6)

    def test_composition_right_constant_analytic(self):
        # with u = 1 and lam = 0 the composed derivative vanishes identically,
        # pinning the boundary-term sign
        params = TemperedParams.for_testing(1.4, 0.0)
        p_ord, b, x = 1.4, 2.0, 0.5
        full = tempered_derivative("right", 1.0 + p_ord, params, b, lambda s: 1.0, x, tol=1e-8)
        want = (b - x) ** (-p_ord - 1.0) / math.gamma(-p_ord)
        assert full == pytest.approx(want, abs=1e-6)


class TestFailureSignals:
    def test_nonconvergence_raises(self):
        # integrable interior singularity that adaptive refinement cannot tame
        p = TemperedParams(1.5, 0.0)
        nasty = lambda s: abs(s - 0.37) ** (-0.7)
        with pytest.raises(OracleConvergenceError):
            tempered_integral("left", 0.6, p, 0.0, nasty, 1.0, tol=1e-12)

    def test_rejects_evaluation_at_endpoint(self):
        p = TemperedParams(1.5, 0.0)
        with pytest.raises(ValueError):
            tempered_derivative("left", 1.5, p, 0.0, math.sin, 0.0)

    def test_rejects_out_of_range_order(self):
        p = TemperedParams(1.5, 0.0)
        with pytest.raises(ValueError):
            tempered_derivative("left", 3.5, p, 0.0, math.sin, 0.5)


class TestStartUp:
    def test_import_leaves_quadrature_unloaded(self):
        # scipy.integrate (and with it scipy.optimize) is loaded by the first
        # quadrature, not by every start-up of the package or the CLI
        src = str(pathlib.Path(tempfrac.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = "import sys, tempfrac; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.split() == ["False"]
        # the first quadrature still finds it
        assert tempered_integral("left", 1.0, TemperedParams(1.5, 0.5), 0.0, lambda s: 1.0,
                                 0.5) == pytest.approx((1.0 - math.exp(-0.25)) / 0.5, rel=1e-10)
