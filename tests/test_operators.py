"""Matrix assembly, pointwise operators, and third-order consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempfrac.calculus import TemperedParams, exact_power_derivative, tempered_weights
from tempfrac.operators import (
    Grid1D,
    TimeGrid,
    apply_compact,
    apply_quasi_compact_derivative,
    assemble_B,
    assemble_H,
    assemble_P,
)


class TestGrids:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 3)
        g = Grid1D(0.0, 1.0, 10)
        assert g.h * g.M == pytest.approx(1.0, rel=1e-14)
        assert len(g.nodes()) == 11

    def test_time_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        assert TimeGrid(0.1, 100).tau == pytest.approx(1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grids_are_rejected(self, value):
        # a NaN horizon would otherwise reach the solvers as tau = NaN and
        # fail deep inside SciPy
        with pytest.raises(ValueError, match="horizon must be"):
            TimeGrid(value, 10)
        for a, b in ((value, 1.0), (0.0, value), (value, value)):
            with pytest.raises(ValueError, match="grid ends must be finite"):
                Grid1D(a, b, 10)


class TestCompactMatrix:
    def test_untempered_bands_are_symmetric(self):
        g = Grid1D(0.0, 1.0, 8)
        B = assemble_B("left", g, 0.0)
        assert (B.sub, B.diag, B.sup) == pytest.approx((1 / 6, 2 / 3, 1 / 6))

    def test_tempered_bands(self):
        g = Grid1D(0.0, 1.0, 10)  # h = 0.1, lam = 1 -> lam*h = 0.1
        B = assemble_B("left", g, 1.0)
        assert B.sup == pytest.approx(math.exp(0.1) / 6, rel=1e-15)
        assert B.sub == pytest.approx(math.exp(-0.1) / 6, rel=1e-15)

    def test_right_variant_is_transpose(self):
        g = Grid1D(0.0, 1.0, 10)
        L = assemble_B("left", g, 0.7).to_dense()
        R = assemble_B("right", g, 0.7).to_dense()
        assert np.array_equal(R, L.T)

    def test_interior_row_sums(self):
        g = Grid1D(0.0, 1.0, 12)
        lam = 0.9
        B = assemble_B("left", g, lam).to_dense()
        expect = 2 / 3 + (math.exp(lam * g.h) + math.exp(-lam * g.h)) / 6
        assert B[1:-1].sum(axis=1) == pytest.approx(np.full(g.M - 3, expect), rel=1e-14)

    def test_matvec_matches_dense(self):
        g = Grid1D(0.0, 1.0, 9)
        B = assemble_B("left", g, 0.4)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(g.M - 1)
        assert B.matvec(v.copy()) == pytest.approx(B.to_dense() @ v, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        side=st.sampled_from(["left", "right"]),
        lam_h=st.floats(0.0, 1.0),
        M=st.integers(4, 400),
        k=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_matvec_and_solve_match_dense(self, side, lam_h, M, k, seed):
        g = Grid1D(0.0, 1.0, M)
        B = assemble_B(side, g, lam_h / g.h)
        shape = (g.M - 1,) if k is None else (g.M - 1, k)
        v = np.random.default_rng(seed).standard_normal(shape)
        dense = B.to_dense()
        assert B.matvec(v) == pytest.approx(dense @ v, rel=1e-14, abs=1e-14)
        x = B.solve(v)
        assert x.shape == v.shape
        want = np.linalg.solve(dense, v)
        assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))


def dense_reference_P(params, grid, tau):
    """Left-sided P built diagonal by diagonal from dense A, C and B."""
    alpha, lam, h, dim = params.alpha, params.lam, grid.h, grid.M - 1
    w = tempered_weights(params, h, grid.M).values
    A = np.zeros((dim, dim))
    for off in range(-(dim - 1), 2):  # off = column - row; w_{1 - off} on it
        np.fill_diagonal(A[max(0, -off):, max(0, off):], w[1 - off])
    A /= h**alpha
    elh = math.exp(lam * h)
    C = np.zeros((dim, dim))
    np.fill_diagonal(C[1:], -1.0 / elh)
    np.fill_diagonal(C[:, 1:], elh)
    C /= 2.0 * h
    B = np.zeros((dim, dim))
    np.fill_diagonal(B, 2.0 / 3.0)
    np.fill_diagonal(B[1:], 1.0 / elh / 6.0)
    np.fill_diagonal(B[:, 1:], elh / 6.0)
    P = A - alpha * lam ** (alpha - 1.0) * C + lam**alpha * (alpha - 1.0) * B
    return P * (params.diffusivity * tau)


class TestToeplitzStructure:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0),
        M=st.integers(4, 400),
        K=st.floats(0.1, 4.0),
        tau=st.floats(1e-4, 1.0),
    )
    def test_P_is_toeplitz_and_matches_dense_reference(self, alpha, lam_h, M, K, tau):
        g = Grid1D(0.0, 1.0, M)
        params = TemperedParams(alpha, lam_h / g.h, diffusivity=K)
        P = assemble_P("left", params, g, tau)
        assert np.array_equal(P[1:, 1:], P[:-1, :-1])  # constant along diagonals
        assert np.array_equal(assemble_P("right", params, g, tau), P.T)
        ref = dense_reference_P(params, g, tau)
        assert np.max(np.abs(P - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestSystemMatrix:
    def test_untempered_is_pure_weight_toeplitz(self):
        boundary = TemperedParams.for_testing(2.0, 0.0, diffusivity=2.0)
        g = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            assemble_P("left", boundary, g, 1.0)  # boundary alpha rejected

        params = TemperedParams(1.5, 0.0, diffusivity=2.0)
        tau = 0.25
        P = assemble_P("left", params, g, tau)
        w = tempered_weights(params, g.h, g.M).values
        dim = g.M - 1
        expect = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                k = i - j + 1
                if 0 <= k <= g.M:
                    expect[i, j] = w[k]
        expect *= 2.0 * tau / g.h**1.5
        assert P == pytest.approx(expect, rel=1e-13)

    def test_diagonal_entry_closed_form(self):
        # independent scalar evaluation of a single matrix entry
        alpha, lam = 1.5, 1.0
        params = TemperedParams(alpha, lam)
        g = Grid1D(0.0, 1.0, 10)
        P = assemble_P("left", params, g, 1.0)
        mu_plus = (4 + 5 * alpha + 3 * alpha**2) / 24
        mu_zero = (8 + alpha - 3 * alpha**2) / 12
        w1 = mu_plus * (-alpha) + mu_zero
        want = w1 / g.h**alpha + (2 / 3) * lam**alpha * (alpha - 1)
        assert np.diag(P) == pytest.approx(np.full(g.M - 1, want), rel=1e-13)
        assert want == pytest.approx(-28.4895, abs=1e-3)

    def test_right_variant_is_transpose(self):
        params = TemperedParams(1.7, 0.5)
        g = Grid1D(0.0, 1.0, 8)
        Pl = assemble_P("left", params, g, 0.5)
        Pr = assemble_P("right", params, g, 0.5)
        assert np.array_equal(Pr, Pl.T)

    def test_tau_flag(self):
        params = TemperedParams(1.5, 0.3)
        g = Grid1D(0.0, 1.0, 8)
        tau = 0.125
        with_tau = assemble_P("left", params, g, tau)
        without = assemble_P("left", params, g, tau, include_tau=False)
        assert with_tau == pytest.approx(tau * without, rel=1e-15)

    def test_large_rate_warns(self):
        params = TemperedParams(1.5, 30.0)
        g = Grid1D(0.0, 1.0, 10)
        with pytest.warns(RuntimeWarning, match="unstable"):
            assemble_P("left", params, g, 1.0)

    def test_matrix_matches_pointwise_operator(self):
        # P @ v / (K tau) equals the pointwise operator when v vanishes at both ends
        params = TemperedParams(1.6, 0.8, diffusivity=1.3)
        g = Grid1D(0.0, 1.0, 16)
        tau = 0.01
        P = assemble_P("left", params, g, tau)
        rng = np.random.default_rng(3)
        v = np.zeros(g.M + 1)
        v[1:-1] = rng.standard_normal(g.M - 1)
        direct = apply_quasi_compact_derivative("left", params, g, v)
        via_matrix = P @ v[1:-1] / (params.diffusivity * tau)
        assert via_matrix == pytest.approx(direct, rel=1e-12, abs=1e-12)

        Pr = assemble_P("right", params, g, tau)
        direct_r = apply_quasi_compact_derivative("right", params, g, v)
        assert Pr @ v[1:-1] / (params.diffusivity * tau) == pytest.approx(
            direct_r, rel=1e-12, abs=1e-12
        )


class TestBoundaryVector:
    def _weights(self, params, g):
        return tempered_weights(params, g.h, g.M)

    def test_homogeneous_data_gives_zero(self):
        params = TemperedParams(1.5, 1.0)
        g = Grid1D(0.0, 1.0, 10)
        H = assemble_H("left", params, g, 1e-3, (0.0, 0.0), (0.0, 0.0), 0.0, 0.0,
                       self._weights(params, g))
        assert np.array_equal(H, np.zeros(g.M - 1))

    def test_left_case_only_far_boundary_enters(self):
        # zero left trace and zero boundary sources: only the x_M terms survive
        params = TemperedParams(1.5, 1.0)
        g = Grid1D(0.0, 1.0, 10)
        H = assemble_H("left", params, g, 1e-3, (0.0, 0.0), (1.0, 0.9), 0.0, 0.0,
                       self._weights(params, g))
        assert np.all(H[:-1] == 0.0)
        assert H[-1] != 0.0

    def test_short_weight_table_rejected(self):
        params = TemperedParams(1.5, 1.0)
        g = Grid1D(0.0, 1.0, 10)
        short = tempered_weights(params, g.h, g.M - 1)
        with pytest.raises(ValueError):
            assemble_H("left", params, g, 1e-3, (0.0, 0.0), (0.0, 0.0), 0.0, 0.0, short)

    def test_right_vector_is_flipped_mirror(self):
        params = TemperedParams(1.4, 0.6)
        g = Grid1D(0.0, 1.0, 9)
        w = self._weights(params, g)
        args = ((0.3, 0.2), (0.9, 1.1), 0.5, -0.7)
        right = assemble_H("right", params, g, 1e-3, *args, w)
        mirrored = assemble_H(
            "left", params, g, 1e-3, args[1], args[0], args[3], args[2], w
        )
        assert np.array_equal(right, mirrored[::-1])

    def test_scheme_truncation_residual(self):
        # plugging the exact solution into the one-step scheme leaves a
        # residual of size O(tau * (tau + h^3)); with tau = h^3 halving h
        # shrinks it by about 2^6
        alpha, lam, j = 1.5, 1.0, 5
        params = TemperedParams(alpha, lam)

        def exact(x, t):
            return np.exp(-t - lam * x) * x**j

        def source(x, t):
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(x > 0, x ** (j - alpha), 0.0)
            return -np.exp(-t - lam * x) * (
                x**j
                + math.gamma(j + 1) / math.gamma(1 + j - alpha) * frac
                - alpha * lam ** (alpha - 1) * (j * x ** (j - 1) - lam * x**j)
                - lam**alpha * x**j
            )

        def residual(M):
            g = Grid1D(0.0, 1.0, M)
            tau = g.h**3
            B = assemble_B("left", g, lam).to_dense()
            P = assemble_P("left", params, g, tau)
            x = g.nodes()
            t0, t1 = 0.0, tau
            u0, u1 = exact(x, t0), exact(x, t1)
            f1 = source(x, t1)
            H = assemble_H(
                "left", params, g, tau,
                (u0[0], u1[0]), (u0[-1], u1[-1]), f1[0], f1[-1],
                tempered_weights(params, g.h, g.M),
            )
            r = (B - P) @ u1[1:-1] - B @ u0[1:-1] - tau * (B @ f1[1:-1]) - H
            return np.max(np.abs(r))

        r20, r40 = residual(20), residual(40)
        assert r40 < r20
        ratio = r20 / r40
        assert 20.0 < ratio < 200.0


class TestElementProperties:
    """Element-wise structure of P/(K tau) on the sampled parameter grid."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("lam_h", [0.0, 0.5, 1.0])
    def test_entries_and_row_inequality(self, alpha, lam_h):
        M = 16
        g = Grid1D(0.0, 1.0, M)
        lam = lam_h / g.h
        params = TemperedParams(alpha, lam)
        Pn = assemble_P("left", params, g, tau=1.0)  # K = 1, tau = 1
        w = tempered_weights(params, g.h, g.M).values
        h, ha = g.h, g.h**alpha
        elh, emlh = math.exp(lam * h), math.exp(-lam * h)
        adv = alpha * lam ** (alpha - 1.0) / (2.0 * h)
        cmp6 = lam**alpha * (alpha - 1.0) / 6.0

        # diagonal strictly negative, with its closed form
        diag_want = w[1] / ha + (2.0 / 3.0) * lam**alpha * (alpha - 1.0)
        assert np.diag(Pn) == pytest.approx(np.full(M - 1, diag_want), rel=1e-13)
        assert np.all(np.diag(Pn) < 0.0)

        # first off-diagonals and their positivity in pairs
        sup_want = w[0] / ha - adv * elh + cmp6 * elh
        sub_want = w[2] / ha + adv * emlh + cmp6 * emlh
        assert np.diag(Pn, 1) == pytest.approx(np.full(M - 2, sup_want), rel=1e-12)
        assert np.diag(Pn, -1) == pytest.approx(np.full(M - 2, sub_want), rel=1e-12)
        assert sup_want + sub_want > 0.0

        # deeper bands are pure weight columns
        for n in range(2, M - 1):
            assert np.diag(Pn, -n) == pytest.approx(
                np.full(M - 1 - n, w[n + 1] / ha), rel=1e-13, abs=1e-300
            )

        # scaled full-row inequality: weight sum plus advection and filter
        # terms stays nonpositive
        from tempfrac.calculus import weight_sum_limit

        total = (
            weight_sum_limit(params, h)
            - alpha * lam_h ** (alpha - 1.0) / 2.0 * (elh - emlh)
            + lam_h**alpha * (alpha - 1.0) * (2.0 / 3.0 + (elh + emlh) / 6.0)
        )
        assert total <= 1e-15


class TestPointwiseOperators:
    def test_compact_preserves_constants_untempered(self):
        v = np.ones(12)
        out = apply_compact("left", 0.0, 0.1, v)
        assert out == pytest.approx(np.ones(10), rel=1e-15)

    def test_compact_reproduces_decaying_exponential(self):
        # the filter applied to e^{-lam x} returns e^{-lam x}: exponentials cancel
        lam, h = 0.8, 0.05
        x = np.linspace(0.0, 1.0, 21)
        v = np.exp(-lam * x)
        out = apply_compact("left", lam, h, v)
        assert out == pytest.approx(v[1:-1], rel=1e-14)

    def test_compact_matches_matrix_plus_boundary(self):
        lam, M = 0.6, 10
        g = Grid1D(0.0, 1.0, M)
        B = assemble_B("left", g, lam)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(M + 1)
        out = apply_compact("left", lam, g.h, v)
        expect = B.to_dense() @ v[1:-1]
        expect[0] += math.exp(-lam * g.h) / 6 * v[0]
        expect[-1] += math.exp(lam * g.h) / 6 * v[-1]
        assert out == pytest.approx(expect, rel=1e-14)

    def test_quasi_compact_linearity_zero(self):
        params = TemperedParams(1.5, 1.0)
        g = Grid1D(0.0, 1.0, 10)
        out = apply_quasi_compact_derivative("left", params, g, np.zeros(11))
        assert np.array_equal(out, np.zeros(9))

    def test_untempered_matches_independent_path(self):
        # lam = 0 reduces to the pure-fractional three-shift combination,
        # coded here directly from the shifted convolutions
        alpha = 1.5
        params = TemperedParams(alpha, 0.0)
        g = Grid1D(0.0, 1.0, 16)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(g.M + 1)
        v[0] = 0.0
        got = apply_quasi_compact_derivative("left", params, g, v)

        from tempfrac.calculus import grunwald_weights, quasi_compact_coefficients

        gw = grunwald_weights(alpha, g.M).values
        mu = quasi_compact_coefficients(alpha)
        want = np.zeros(g.M - 1)
        for idx, i in enumerate(range(1, g.M)):
            acc = 0.0
            for p, m in ((-1, mu.mu_minus), (0, mu.mu_zero), (1, mu.mu_plus)):
                for k in range(0, i + p + 1):
                    acc += m * gw[k] * v[i - k + p]
            want[idx] = acc / g.h**alpha
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_third_order_consistency(self):
        # compact filter of the exact derivative vs the discrete operator:
        # the gap shrinks ~8x per halving
        alpha, lam, j = 1.5, 1.0, 5
        params = TemperedParams(alpha, lam)

        def exact_tempered_derivative(x):
            x = np.asarray(x, dtype=float)
            u = np.exp(-lam * x) * x**j
            du = np.exp(-lam * x) * (j * x ** (j - 1) - lam * x**j)
            core = np.array([
                exact_power_derivative("left", params, 0.0, j, xi) if xi > 0 else 0.0
                for xi in x
            ])
            return core - lam**alpha * u - alpha * lam ** (alpha - 1) * du

        def gap(M):
            g = Grid1D(0.0, 1.0, M)
            x = g.nodes()
            v = np.exp(-lam * x) * x**j
            discrete = apply_quasi_compact_derivative("left", params, g, v)
            filtered = apply_compact("left", lam, g.h, exact_tempered_derivative(x))
            return np.max(np.abs(discrete - filtered))

        gaps = [gap(M) for M in (10, 20, 40, 80)]
        orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(3)]
        for order in orders:
            assert 2.7 <= order <= 3.3
