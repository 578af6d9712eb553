"""Stability diagnostics: definiteness, spectrum bounds, splitting, predicate."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from tempfrac.calculus import TemperedParams, w3_closed_form
from tempfrac import spectral
from tempfrac.operators import Grid1D, P_column_row, assemble_B, assemble_P
from tempfrac.spectral import (
    RegimeError,
    check_B_bounds,
    check_P_definiteness,
    generating_function_range,
    hplus_split,
    stability_predicate,
    w3_sign_root,
)


def grid_for(lam_h, M, lam=None):
    """Unit-interval grid with h = 1/M; the tempering rate realizes lam*h."""
    g = Grid1D(0.0, 1.0, M)
    rate = lam_h / g.h if lam is None else lam
    return g, rate


def dense_sym_P(params, grid, tau):
    """The oracle: sym(P) assembled densely, and its eigenvalues."""
    P = assemble_P("left", params, grid, tau)
    sym = 0.5 * (P + P.T)
    return sym, np.linalg.eigvalsh(sym)


def dense_compensated(params, grid, tau):
    """Diagonal and off-diagonal row sums of sym(P)/(K tau) + H_plus, written out densely.

    H_plus is the pentadiagonal compensator where w_3 < 0, else None.
    """
    sym, _ = dense_sym_P(params, grid, tau)
    combined = sym / (params.diffusivity * tau)
    w3 = w3_closed_form(params.alpha, params.lam, grid.h)
    if w3 < 0.0:
        h_c = -w3 / (2.0 * grid.h**params.alpha)
        for k, band in ((0, 6.0 * h_c), (1, -4.0 * h_c), (2, h_c)):
            combined += np.diag(np.full(grid.M - 1 - k, band), k)
            if k:
                combined += np.diag(np.full(grid.M - 1 - k, band), -k)
    diag = np.diag(combined)
    return w3, diag, np.sum(np.abs(combined), axis=1) - np.abs(diag)


class TestPDefiniteness:
    def test_reference_configuration(self):
        params = TemperedParams(1.5, 1.0)
        rep = check_P_definiteness(params, Grid1D(0.0, 1.0, 20), tau=1.0)
        assert rep.verdict == "negative-definite"
        assert rep.eig_max < 0.0

    def test_splitting_regime_configuration(self):
        g, rate = grid_for(1.0, 40)
        rep = check_P_definiteness(TemperedParams(1.9, rate), g, tau=1.0)
        assert rep.verdict == "negative-definite"

    def test_untempered_configuration(self):
        rep = check_P_definiteness(TemperedParams(1.1, 0.0), Grid1D(0.0, 1.0, 20), tau=1.0)
        assert rep.verdict == "negative-definite"

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("lam_h", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("M", [20, 40])
    def test_sampled_grid_negative_definite(self, alpha, lam_h, M):
        g, rate = grid_for(lam_h, M)
        rep = check_P_definiteness(TemperedParams(alpha, rate), g, tau=0.5)
        assert rep.verdict == "negative-definite"

    def test_transpose_shares_symmetric_part(self):
        params = TemperedParams(1.7, 2.0)
        g = Grid1D(0.0, 1.0, 16)
        Pl = assemble_P("left", params, g, 1.0)
        Pr = assemble_P("right", params, g, 1.0)
        assert np.allclose(Pl + Pl.T, Pr + Pr.T)

    def test_dimension_cap(self):
        # the cap binds only the dense rung: a 499-unknown sym(P) is certified
        # from its symbol, agreeing with the oracle
        params = TemperedParams(1.5, 0.0)
        g = Grid1D(0.0, 1.0, 500)
        rep = check_P_definiteness(params, g, tau=1.0)
        _, eigs = dense_sym_P(params, g, 1.0)
        assert (rep.rung, rep.verdict) == ("symbol", "negative-definite")
        assert rep.eig_min <= eigs[0] and eigs[-1] <= rep.eig_max < 0.0
        # with the first two rungs forced undecided it reaches the dense rung,
        # which runs up to 399 unknowns and raises beyond
        real = spectral._symbol_bracket
        undecided = lambda c, n: dataclasses.replace(real(c, n), hi=1.0)
        with mock.patch.object(spectral, "_symbol_bracket", side_effect=undecided), \
                mock.patch.object(spectral, "_compensated_rows",
                                  return_value=(0.0, np.zeros(1))):
            with pytest.raises(ValueError, match="capped"):
                check_P_definiteness(params, g, tau=1.0)
            small = Grid1D(0.0, 1.0, 400)
            rep = check_P_definiteness(params, small, tau=1.0)
        _, eigs = dense_sym_P(params, small, 1.0)
        assert rep.rung == "dense"
        assert (rep.eig_min, rep.eig_max) == (eigs[0], eigs[-1])
        assert rep.verdict == "negative-definite"

    @pytest.mark.parametrize("alpha", [1.95, 1.99])
    def test_gershgorin_rung_where_bracket_reaches_zero(self, alpha):
        # steep orders at lam = 0: the symbol's maximum, -0.049 and -0.010,
        # lies within the sampling slack of zero, and the compensated
        # Gershgorin bound proves negative definiteness instead
        params = TemperedParams(alpha, 0.0)
        g = Grid1D(0.0, 1.0, 400)
        col, row = P_column_row(params, g, 1.0)
        bracket = spectral._symbol_bracket(0.5 * (col + row), spectral._OVERSAMPLE * 399)
        assert bracket.samples.max() < 0.0 < bracket.hi
        rep = check_P_definiteness(params, g, tau=1.0)
        _, eigs = dense_sym_P(params, g, 1.0)
        assert (rep.rung, rep.verdict) == ("gershgorin", "negative-definite")
        assert eigs[-1] <= rep.eig_max < 0.0

    def test_large_grid_certified(self):
        # beyond any dense eigen-solve: M = 10,000, where w_3 < 0
        rep = check_P_definiteness(TemperedParams(1.9, 0.0), Grid1D(0.0, 1.0, 10_000), tau=1.0)
        assert rep.dim == 9999
        assert rep.verdict == "negative-definite"

    def test_warns_beyond_threshold(self):
        g = Grid1D(0.0, 1.0, 40)
        with pytest.warns(RuntimeWarning, match="lam\\*h"):
            check_P_definiteness(TemperedParams(1.5, 5.0 / g.h), g, tau=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 5.0),
        M=st.integers(4, 401),
        tau=st.floats(1e-3, 1.0),
    )
    def test_certificate_agrees_with_dense_oracle(self, alpha, lam_h, M, tau):
        g, rate = grid_for(lam_h, M)
        params = TemperedParams(alpha, rate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = check_P_definiteness(params, g, tau)
            col, row = P_column_row(params, g, tau)
            _, eigs = dense_sym_P(params, g, tau)
        slack = 1e-12 * np.max(np.abs(eigs))  # eigen-solver round-off
        assert rep.verdict == spectral._classify(eigs[0], eigs[-1])
        assert rep.eig_min - slack <= eigs[0] and eigs[-1] <= rep.eig_max + slack
        if rep.rung == "dense":
            assert (rep.eig_min, rep.eig_max) == (eigs[0], eigs[-1])
        bracket = spectral._symbol_bracket(0.5 * (col + row), spectral._OVERSAMPLE * (M - 1))
        assert bracket.lo - slack <= eigs[0] and eigs[-1] <= bracket.hi + slack
        r_lo, r_hi, _ = bracket.witnesses()
        assert eigs[0] - slack <= r_lo <= eigs[-1] + slack
        assert eigs[0] - slack <= r_hi <= eigs[-1] + slack


class TestBBounds:
    def test_untempered_closed_spectrum(self):
        rep = check_B_bounds(0.0, 0.1, 10)
        j = np.arange(1, 10)
        eigs = 2 / 3 + (1 / 3) * np.cos(j * np.pi / 10)
        assert rep.eig_min == pytest.approx(eigs.min(), rel=1e-12)
        assert rep.eig_max == pytest.approx(eigs.max(), rel=1e-12)

    def test_threshold_rate_bounds(self):
        rep = check_B_bounds(1.0 / 0.025, 0.025, 40)  # lam*h = 1
        assert rep.eig_min > 1 / 12
        assert rep.eig_max < 2.0
        assert rep.verdict == "positive-definite"

    @settings(max_examples=30, deadline=None)
    @given(lam_h=st.floats(0.0, 5.0), M=st.integers(4, 400))
    def test_tridiagonal_spectrum_matches_dense_solve(self, lam_h, M):
        # four LDL^T factorizations of shifted sym(B) certify the closed-form
        # extremes: definite just below the bottom one and just above the top
        # one, indefinite just inside either
        g, lam = grid_for(lam_h, M)
        pttrf, = get_lapack_funcs(("pttrf",))
        found = []

        def recorded(*args, **kwargs):
            found.append(pttrf(*args, **kwargs))
            return found[-1]

        with mock.patch.object(spectral, "_pttrf", side_effect=recorded):
            rep = check_B_bounds(lam, g.h, M)
        B = assemble_B("left", g, lam).to_dense()
        dense = np.linalg.eigvalsh(0.5 * (B + B.T))
        extremes = np.array([dense[0], dense[-1]])
        infos = [info for *_, info in found]
        assert len(infos) == 4
        assert infos[0] == infos[2] == 0 and infos[1] > 0 and infos[3] > 0
        got = np.array([rep.eig_min, rep.eig_max])
        assert np.max(np.abs(got - extremes)) <= 1e-12 * np.max(np.abs(dense))

    def test_disagreeing_eigen_solve_raises(self):
        # a factorization that finds every shift definite, or none, puts an
        # extreme eigenvalue outside the closed form's 1e-10 window
        for info in (0, 1):
            reported = lambda d, e, **kwargs: (d, e, info)
            with mock.patch.object(spectral, "_pttrf", side_effect=reported), \
                    pytest.raises(RuntimeError, match="disagrees"):
                check_B_bounds(1.0, 0.1, 10)

    def test_no_dimension_cap(self):
        rep = check_B_bounds(1.0, 1e-4, 10_000)
        assert rep.dim == 9999
        assert 1.0 / 12.0 < rep.eig_min < rep.eig_max < 2.0


class TestHPlusSplit:
    def test_succeeds_above_sign_root(self):
        g = Grid1D(0.0, 1.0, 20)  # h = 0.05
        split = hplus_split(TemperedParams(1.9, 0.0), g, tau=1.0)
        assert split.h_c > 0.0
        assert split.h_a == pytest.approx(6.0 * split.h_c, rel=1e-15)
        assert split.h_b == pytest.approx(-4.0 * split.h_c, rel=1e-15)

    def test_regime_mismatch_below_root(self):
        g = Grid1D(0.0, 1.0, 20)
        with pytest.raises(RegimeError):
            hplus_split(TemperedParams(1.5, 0.0), g, tau=1.0)

    def test_generating_polynomial_root_at_one(self):
        g = Grid1D(0.0, 1.0, 20)
        split = hplus_split(TemperedParams(1.85, 0.0), g, tau=1.0)
        assert split.generating_polynomial(1.0) == pytest.approx(0.0, abs=1e-12)
        y = np.linspace(-1.0, 1.0, 101)
        assert np.all(split.generating_polynomial(y) >= -1e-12)

    def test_weyl_bound(self):
        # eigenvalues of the symmetric part are dominated by the compensated
        # matrix plus the negated compensator
        params = TemperedParams(1.9, 0.0)
        g = Grid1D(0.0, 1.0, 30)
        split = hplus_split(params, g, tau=1.0)
        P = assemble_P("left", params, g, 1.0)
        H = 0.5 * (P + P.T)
        lhs = np.linalg.eigvalsh(H).max()
        rhs = np.linalg.eigvalsh(H + split.matrix).max() + np.linalg.eigvalsh(-split.matrix).max()
        assert lhs <= rhs + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 5.0),
        M=st.integers(4, 401),
        tau=st.floats(1e-3, 1.0),
    )
    def test_prefix_sum_dominance_matches_dense(self, alpha, lam_h, M, tau):
        g, rate = grid_for(lam_h, M)
        params = TemperedParams(alpha, rate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            w3, diag, off = dense_compensated(params, g, tau)
            col, row = P_column_row(params, g, tau)
            try:
                hplus_split(params, g, tau)
                outcome = "ok"
            except RegimeError:
                outcome = "regime"
            except RuntimeError:
                outcome = "fails"
        bands = spectral._compensator_bands(params, g.h) if w3 < 0.0 else 0.0
        got_diag, got_off = spectral._compensated_rows(0.5 * (col + row) / tau, bands)
        scale = np.max(np.abs(diag))
        assert np.all(np.abs(got_diag - diag) <= 1e-12 * scale)
        assert np.max(np.abs(got_off - off)) <= 1e-12 * scale
        margin = np.min(-diag - off)
        assume(abs(margin) > 1e-9 * scale)  # a near-tie is decided by round-off
        dense = "regime" if w3 >= 0.0 else ("ok" if margin > 0.0 else "fails")
        assert outcome == dense


class TestSignRoot:
    def test_value(self):
        assert w3_sign_root() == pytest.approx(1.7646, abs=1e-3)

    def test_quartic_vanishes_at_one(self):
        alpha = 1.0
        quartic = 80 - 86 * alpha - 11 * alpha**2 + 14 * alpha**3 + 3 * alpha**4
        assert quartic == 0.0

    def test_w3_changes_sign_across_root(self):
        root = w3_sign_root()
        assert w3_closed_form(root - 1e-3, 0.0, 1.0) > 0.0
        assert w3_closed_form(root + 1e-3, 0.0, 1.0) < 0.0

    def test_bisection_residual(self):
        a = w3_sign_root()
        assert abs(3 * a**3 + 17 * a**2 + 6 * a - 80) < 1e-9


class TestStabilityPredicate:
    def test_examples(self):
        assert stability_predicate(10.0, 0.05) is True
        assert stability_predicate(50.0, 0.1) is False
        assert stability_predicate(0.0, 123.0) is True
        assert stability_predicate(1.0, -0.1) is False


class TestGeneratingFunction:
    @pytest.mark.parametrize("alpha,lam_h", [(1.2, 0.0), (1.5, 0.5), (1.9, 1.0)])
    def test_range_brackets_spectrum(self, alpha, lam_h):
        g, rate = grid_for(lam_h, 32)
        params = TemperedParams(alpha, rate)
        P = assemble_P("left", params, g, 1.0)
        sym = 0.5 * (P + P.T)
        eigs = np.linalg.eigvalsh(sym)
        fmin, fmax = generating_function_range(P[:, 0], P[0, :])
        assert fmin - 1e-10 <= eigs[0]
        assert eigs[-1] <= fmax + 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0),
        M=st.integers(4, 400),
        tau=st.floats(1e-3, 1.0),
    )
    def test_weyl_bracket_of_sym_P(self, alpha, lam_h, M, tau):
        # sym(P) is the Toeplitz section of the cosine series built from P's
        # column and row, so the oracle's spectrum lies inside that series' range
        g, rate = grid_for(lam_h, M)
        params = TemperedParams(alpha, rate)
        col, row = P_column_row(params, g, tau)
        _, eigs = dense_sym_P(params, g, tau)
        fmin, fmax = generating_function_range(col, row)
        slack = 1e-12 * np.max(np.abs(eigs))  # eigen-solver round-off
        assert fmin - slack <= eigs[0]
        assert eigs[-1] <= fmax + slack

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40),
        n_samples=st.integers(2, 64),
    )
    def test_bracket_encloses_symbol_between_samples(self, c, n_samples):
        # a coarse FFT grid misses the extremes of the cosine series; the
        # slack must cover them
        c = np.array(c)
        theta = np.linspace(0.0, np.pi, 20_001)
        k = np.arange(1, len(c))
        f = c[0] + 2.0 * np.cos(np.outer(theta, k)) @ c[1:]
        fmin, fmax = generating_function_range(c, c, n_samples=n_samples)
        # round-off of the reference sum, relative and, in underflow, absolute
        pad = 1e-13 * np.sum(np.abs(c)) + len(c) * np.finfo(float).smallest_subnormal
        assert fmin <= f.min() + pad
        assert f.max() - pad <= fmax

    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generating_function_range([1.0, 2.0], [3.0, 4.0])

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        n_samples=st.integers(1, 300),
    )
    def test_bracket_samples_are_those_of_the_plain_formula(self, c, n_samples):
        # the buffer-reusing bracket changes no sample and no end
        c = np.array(c)
        m = len(c)
        n_fft = spectral.next_fast_len(max(n_samples, 2 * m - 1), real=True)
        k = np.arange(m)
        gap = np.zeros(n_fft - 2 * m + 1)
        f = spectral.rfft(np.concatenate((c, gap, c[:0:-1]))).real
        df = spectral.rfft(np.concatenate((k * c, gap, -(k * c)[:0:-1]))).imag
        reach = np.abs(df) * (np.pi / n_fft)
        bracket = spectral._symbol_bracket(c, n_samples)
        assert np.array_equal(bracket.samples, f)
        slack = float(np.sum(k * np.abs(k * c)) * (np.pi / n_fft) ** 2 + bracket.roundoff)
        assert bracket.lo == float(np.min(f - reach) - slack)
        assert bracket.hi == float(np.max(f + reach) + slack)
