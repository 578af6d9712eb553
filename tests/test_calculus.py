"""Coefficient sequences: recurrences, closed forms, sign patterns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempfrac.calculus import (
    TemperedParams,
    exact_power_derivative,
    expansion_coefficients,
    grunwald_weights,
    quasi_compact_coefficients,
    tempered_weights,
    w2_closed_form,
    w3_closed_form,
    weight_sum_limit,
)

ALPHAS = [round(1.05 + 0.05 * k, 2) for k in range(19)]  # 1.05 .. 1.95
LAM_H = [0.0, 0.1, 0.5, 1.0]


class TestTemperedParams:
    def test_rejects_alpha_outside_open_interval(self):
        for bad in (0.5, 1.0, 2.0, 2.5):
            with pytest.raises(ValueError):
                TemperedParams(bad, 0.0)

    def test_rejects_negative_rate_and_diffusivity(self):
        with pytest.raises(ValueError):
            TemperedParams(1.5, -0.1)
        with pytest.raises(ValueError):
            TemperedParams(1.5, 0.0, diffusivity=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rate_and_diffusivity(self, bad):
        with pytest.raises(ValueError, match="tempering rate must be finite"):
            TemperedParams(1.5, bad)
        with pytest.raises(ValueError, match="diffusivity must be finite"):
            TemperedParams(1.5, 0.0, diffusivity=bad)
        with pytest.raises(ValueError, match="tempering rate must be finite"):
            TemperedParams.for_testing(2.0, bad)

    def test_testing_constructor_accepts_boundary_orders(self):
        assert TemperedParams.for_testing(1.0, 0.0).alpha == 1.0
        assert TemperedParams.for_testing(2.0, 1.0).alpha == 2.0
        with pytest.raises(ValueError):
            TemperedParams.for_testing(2.5, 0.0)


class TestGrunwaldWeights:
    def test_binomial_series_alpha_15(self):
        g = grunwald_weights(1.5, 2).values
        assert g == pytest.approx([1.0, -1.5, 0.375], abs=0.0)

    def test_alpha_two_is_exact_quadratic(self):
        g = grunwald_weights(2.0, 3).values
        assert g == pytest.approx([1.0, -2.0, 1.0, 0.0], abs=0.0)

    def test_partial_sums_decay_to_zero(self):
        # sum of all g_k is (1-1)^alpha = 0; the tail decays algebraically
        g = grunwald_weights(1.1, 500).values
        assert abs(g.sum()) < 1e-3

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            grunwald_weights(0.0, 5)
        with pytest.raises(ValueError):
            grunwald_weights(2.1, 5)
        with pytest.raises(ValueError):
            grunwald_weights(1.5, -1)

    @given(alpha=st.floats(1.01, 1.99), n=st.integers(2, 120))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_and_signs(self, alpha, n):
        g = grunwald_weights(alpha, n).values
        k = np.arange(1, n + 1)
        recur = g[:-1] * (k - 1 - alpha) / k
        assert np.max(np.abs(recur - g[1:])) <= 1e-14 * np.max(np.abs(g))
        assert g[0] == 1.0
        assert g[1] == -alpha
        assert np.all(g[2:] > 0.0)


class TestQuasiCompactCoefficients:
    def test_alpha_one_averages_two_shifts(self):
        mu = quasi_compact_coefficients(1.0)
        assert mu.as_tuple() == pytest.approx((0.0, 0.5, 0.5), abs=1e-16)

    def test_alpha_15_closed_values(self):
        mu = quasi_compact_coefficients(1.5)
        assert mu.as_tuple() == pytest.approx((1 / 96, 11 / 48, 73 / 96), rel=1e-15)

    @given(alpha=st.floats(1.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_sum_is_one(self, alpha):
        mu = quasi_compact_coefficients(alpha)
        assert abs(mu.mu_minus + mu.mu_zero + mu.mu_plus - 1.0) <= 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_moment_system(self, alpha):
        # the defining 3x3 system: sum mu_p a_p^k = (1, 0, 1/6) for k = 0, 1, 2
        mu = quasi_compact_coefficients(alpha).as_tuple()
        coeffs = [expansion_coefficients(alpha, p) for p in (-1, 0, 1)]
        for k, target in ((0, 1.0), (1, 0.0), (2, 1.0 / 6.0)):
            total = sum(m * getattr(c, f"a{k}") for m, c in zip(mu, coeffs))
            assert abs(total - target) < 1e-13


class TestExpansionCoefficients:
    def test_first_order_term(self):
        for alpha in (1.2, 1.5, 1.8):
            assert expansion_coefficients(alpha, 0).a1 == pytest.approx(-alpha / 2, rel=1e-15)

    def test_second_order_term_shift_one(self):
        c = expansion_coefficients(1.5, 1)
        assert c.a2 == pytest.approx((1.5 + 6.75 - 18.0 + 12.0) / 24.0, rel=1e-15)
        assert c.a2 == pytest.approx(0.09375, rel=1e-15)


class TestTemperedWeights:
    def test_rejects_bad_inputs(self):
        p = TemperedParams(1.5, 1.0)
        with pytest.raises(ValueError):
            tempered_weights(p, 0.0, 10)
        with pytest.raises(ValueError):
            tempered_weights(p, 0.1, 1)
        for h in (math.nan, math.inf):
            with pytest.raises(ValueError, match="spacing h must be finite"):
                tempered_weights(p, h, 10)

    def test_leading_weight_value(self):
        # w_0 = mu_plus * e^{lam h}; independent evaluation of the recombination
        p = TemperedParams(1.5, 1.0)
        w = tempered_weights(p, 0.1, 10).values
        mu_plus = (4 + 5 * 1.5 + 3 * 1.5**2) / 24
        assert w[0] == pytest.approx(mu_plus * math.exp(0.1), rel=1e-15)
        assert w[0] == pytest.approx(0.8403904, abs=5e-7)

    def test_sum_converges_to_closed_form(self):
        p = TemperedParams(1.5, 1.0)
        table = tempered_weights(p, 0.1, 400)
        total = math.fsum(table.values)
        assert total == pytest.approx(weight_sum_limit(p, 0.1), abs=1e-8)

    def test_untempered_sum_vanishes(self):
        p = TemperedParams.for_testing(1.5, 0.0)
        w = tempered_weights(p, 0.1, 4000).values
        assert abs(math.fsum(w)) < 1e-3
        assert weight_sum_limit(p, 0.1) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("lam_h", LAM_H)
    def test_closed_forms_and_signs(self, alpha, lam_h):
        p = TemperedParams(alpha, lam_h)
        h = 1.0  # lam_h == lam * h with h = 1
        w = tempered_weights(p, h, 60).values
        assert w[2] == pytest.approx(w2_closed_form(alpha, p.lam, h), rel=1e-13, abs=1e-16)
        assert w[3] == pytest.approx(w3_closed_form(alpha, p.lam, h), rel=1e-13, abs=1e-16)
        assert w[0] > 0.0
        assert w[1] <= 0.0
        assert np.all(w[4:] >= 0.0)

    def test_cache_returns_identical_readonly_table(self):
        p = TemperedParams(1.4, 0.7)
        t1 = tempered_weights(p, 0.05, 30)
        t2 = tempered_weights(TemperedParams(1.4, 0.7), 0.05, 30)
        assert t1 is t2
        assert not t1.values.flags.writeable
        with pytest.raises(ValueError):
            t1.values[0] = 99.0


class TestExactPowerDerivative:
    def test_untempered_square(self):
        p = TemperedParams.for_testing(1.5, 0.0)
        got = exact_power_derivative("left", p, 0.0, 2, 1.0)
        assert got == pytest.approx(math.gamma(3) / math.gamma(1.5), rel=1e-15)
        assert got == pytest.approx(2.256758, abs=5e-7)

    def test_constant_case(self):
        # j = 0 reduces to e^{-lam x} (x-a)^{-alpha} / Gamma(1 - alpha)
        p = TemperedParams(1.5, 0.8)
        x = 0.7
        want = math.exp(-0.8 * x) * x ** (-1.5) / math.gamma(-0.5)
        assert exact_power_derivative("left", p, 0.0, 0, x) == pytest.approx(want, rel=1e-14)

    def test_right_side_mirror(self):
        p = TemperedParams(1.3, 0.5)
        got = exact_power_derivative("right", p, 1.0, 4, 0.25)
        want = math.gamma(5) / math.gamma(5 - 1.3) * math.exp(0.5 * 0.25) * 0.75 ** (4 - 1.3)
        assert got == pytest.approx(want, rel=1e-14)

    def test_singular_at_endpoint(self):
        p = TemperedParams(1.5, 0.0)
        with pytest.raises(ValueError):
            exact_power_derivative("left", p, 0.0, 1, 0.0)

    def test_rejects_bad_exponent(self):
        p = TemperedParams(1.5, 0.0)
        with pytest.raises(ValueError):
            exact_power_derivative("left", p, 0.0, -1, 0.5)
        with pytest.raises(ValueError):
            exact_power_derivative("left", p, 0.0, 2.5, 0.5)
