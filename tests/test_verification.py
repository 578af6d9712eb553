"""Manufactured cases: PDE residuals via the oracle, norms, studies, CSV."""

import io
import math
import warnings

import numpy as np
import pytest

from tempfrac.calculus import TemperedParams
from tempfrac.operators import Grid1D, TimeGrid
from tempfrac.oracle import quadrature_oracle
from tempfrac.solver1d import Solution1D, solve_left
from tempfrac.verification import (
    build_example_5_4_source,
    case_ex5_1,
    case_ex5_2,
    case_ex5_3,
    case_ex5_4,
    error_norm,
    make_case,
    run_convergence_study,
)


class TestErrorNorm:
    def test_exact_nodal_values_give_zero(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        g, tg = Grid1D(0.0, 1.0, 10), TimeGrid(0.1, 4)
        vals = case.exact(g.nodes(), tg.T)
        sol = Solution1D(grid=g, time=tg, values=vals)
        assert error_norm(sol, case.exact) == 0.0

    def test_nonfinite_solution_marks_infinite_error(self):
        g, tg = Grid1D(0.0, 1.0, 10), TimeGrid(0.1, 4)
        vals = np.zeros(11)
        vals[4] = np.nan
        sol = Solution1D(grid=g, time=tg, values=vals)
        assert math.isinf(error_norm(sol, lambda x, t: np.zeros_like(x)))

    def test_reference_value_alpha_11(self):
        case = case_ex5_1(1.1, 1.0, j=5)
        spec = case.build_spec(0.1)(100)
        sol = solve_left(spec)
        assert error_norm(sol, case.exact) == pytest.approx(6.0259e-06, rel=0.10)


class TestOracleResiduals:
    """The source and exact solution satisfy the governing equation."""

    def _residual_1d(self, case, x, t, sides):
        # u_t = K * sum of tempered derivatives + f; all cases have u_t = -u
        params = TemperedParams(**{
            k: v for k, v in [("alpha", case.params["alpha"]), ("lam", case.params["lam"])]
        })
        u_at_t = lambda s: float(case.exact(np.asarray(s, dtype=float), t))
        ut = -u_at_t(x)
        deriv = 0.0
        for side, endpoint in sides:
            deriv += quadrature_oracle(side, params, endpoint, u_at_t, x, tol=1e-9)
        f = float(case.source(np.asarray(x, dtype=float), t))
        return ut - deriv - f

    @pytest.mark.parametrize("seed", range(4))
    def test_left_case(self, seed):
        rng = np.random.default_rng(100 + seed)
        case = case_ex5_1(1.5, 1.0, j=5)
        x, t = rng.uniform(0.15, 0.9), rng.uniform(0.0, 0.1)
        assert abs(self._residual_1d(case, x, t, [("left", 0.0)])) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_right_case(self, seed):
        rng = np.random.default_rng(200 + seed)
        case = case_ex5_2(1.3, 0.8, j=5)
        x, t = rng.uniform(0.1, 0.85), rng.uniform(0.0, 0.1)
        assert abs(self._residual_1d(case, x, t, [("right", 1.0)])) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_two_sided_case(self, seed):
        rng = np.random.default_rng(300 + seed)
        case = case_ex5_4(1.5, 0.1)
        x, t = rng.uniform(0.15, 0.85), rng.uniform(0.0, 1.0)
        assert abs(self._residual_1d(case, x, t, [("left", 0.0), ("right", 1.0)])) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dimensional_case(self, seed):
        # the exact surface separates, so each directional derivative reduces
        # to a one-dimensional oracle call on its own factor
        rng = np.random.default_rng(400 + seed)
        alpha, beta, lam1, lam2 = 1.2, 1.5, 0.1, 0.1
        case = case_ex5_3(alpha, beta, lam1, lam2)
        x, y, t = rng.uniform(0.15, 0.85, size=3)
        t = float(t)

        px, py = TemperedParams(alpha, lam1), TemperedParams(beta, lam2)
        phi = lambda s: math.exp(-lam1 * s) * s**4 * (1.0 - s)
        psi = lambda s: math.exp(-lam2 * s) * s**4 * (1.0 - s)
        u = math.exp(-t) * phi(x) * psi(y)
        ut = -u
        dx = math.exp(-t) * psi(y) * quadrature_oracle("left", px, 0.0, phi, x, tol=1e-9)
        dy = math.exp(-t) * phi(x) * quadrature_oracle("left", py, 0.0, psi, y, tol=1e-9)
        f = float(case.source(np.asarray(x), np.asarray(y), t))
        assert abs(ut - dx - dy - f) < 1e-6


class TestTimeFunctions:
    def test_manufactured_time_functions_accept_arrays(self):
        # so that a solve samples each of them in one call
        t = np.linspace(0.0, 1.0, 7)
        for case in (case_ex5_1(1.5, 1.0), case_ex5_2(1.5, 1.0),
                     case_ex5_3(1.5, 1.5, 0.1, 0.1), case_ex5_4(1.5, 0.1)):
            np.testing.assert_allclose(case.source.temporal(t), np.exp(-t), rtol=1e-15)
        for case, far in ((case_ex5_1(1.5, 1.0), "boundary_right"),
                          (case_ex5_2(1.5, 1.0), "boundary_left")):
            trace = getattr(case.build_spec(0.1)(10), far)
            np.testing.assert_allclose(trace(t), [trace(s) for s in t.tolist()], rtol=1e-15)


class TestSharedBrackets:
    """Every 1D case is built by one builder and every power rule by one bracket."""

    # the hand-written spec fields of each case: side, traces, initial data
    _SPECS = {
        "ex5_1": ("left", lambda t, lam: 0.0, lambda t, lam: np.exp(-t - lam),
                  lambda x, lam: np.exp(-0.0 - lam * x) * x**3),
        "ex5_2": ("right", lambda t, lam: np.exp(-t), lambda t, lam: 0.0,
                  lambda x, lam: np.exp(-0.0 + lam * x) * (1.0 - x) ** 3),
        "ex5_4": ("two_sided", lambda t, lam: 0.0, lambda t, lam: 0.0,
                  lambda x, lam: np.exp(-0.0 - lam * x) * x**4 * (1.0 - x) ** 4),
    }

    @pytest.mark.parametrize("ident", sorted(_SPECS))
    def test_specs_equal_the_hand_written_ones(self, ident):
        side, left, right, initial = self._SPECS[ident]
        alpha, lam, T = 1.5, 0.7, 0.3
        extra = {} if ident == "ex5_4" else {"j": 3}
        case = make_case(ident, alpha=alpha, lam=lam, T=T, **extra)
        spec = case.build_spec(0.05)(12)
        assert spec.grid == Grid1D(0.0, 1.0, 20)
        assert spec.time == TimeGrid(T, 12)
        assert spec.params == TemperedParams(alpha, lam)
        assert spec.side == side
        assert spec.source is case.source
        for t in (0.0, 0.125, np.linspace(0.0, T, 13)):
            for got, want in ((spec.boundary_left, left), (spec.boundary_right, right)):
                assert type(got(t)) is type(want(t, lam))
                assert np.array_equal(got(t), want(t, lam))
        x = spec.grid.nodes()
        assert np.array_equal(spec.initial(x), initial(x, lam))

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_one_sided_profiles_raise_no_warning(self, j):
        # the (1-x)**(j - alpha) power of ex5_2 divided by zero at x = 1
        x = np.linspace(0.0, 1.0, 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for case in (case_ex5_1(1.5, 1.0, j=j), case_ex5_2(1.5, 1.0, j=j)):
                assert np.all(np.isfinite(case.source.profile(x)))

    def test_right_profile_is_the_mirrored_left_bracket(self):
        x = np.linspace(0.0, 1.0, 41)
        for alpha in (1.1, 1.5, 1.99):
            for lam in (0.0, 0.5, 1.0, 3.0):
                for j in (1, 2, 5):
                    with np.errstate(divide="ignore"):
                        want = -np.exp(lam * x) * (
                            (1.0 - x) ** j
                            + math.gamma(j + 1.0) / math.gamma(1.0 + j - alpha)
                            * np.where(1.0 - x > 0.0, (1.0 - x) ** (j - alpha), 0.0)
                            + alpha * lam ** (alpha - 1.0)
                            * (lam * (1.0 - x) ** j - j * (1.0 - x) ** (j - 1))
                            - lam**alpha * (1.0 - x) ** j
                        )
                    got = case_ex5_2(alpha, lam, j=j).source.profile(x)
                    assert np.array_equal(got, want), (alpha, lam, j)

    @staticmethod
    def _axis_bracket(s, order, lam):
        """Power-rule, advection and normalization terms of s**4 minus s**5."""
        t4 = (math.gamma(5.0) / math.gamma(5.0 - order) * s ** (4.0 - order)
              - order * lam ** (order - 1.0) * (4.0 * s**3 - lam * s**4) - lam**order * s**4)
        t5 = (math.gamma(6.0) / math.gamma(6.0 - order) * s ** (5.0 - order)
              - order * lam ** (order - 1.0) * (5.0 * s**4 - lam * s**5) - lam**order * s**5)
        return t4 - t5

    def test_two_dimensional_profile_matches_the_axis_brackets(self):
        g = np.linspace(0.0, 1.0, 161)
        X, Y = np.meshgrid(g, g, indexing="ij")
        for alpha, beta, lam1, lam2 in ((1.5, 1.5, 0.1, 0.1), (1.2, 1.8, 0.0, 2.0),
                                        (1.99, 1.01, 3.0, 0.5)):
            xpart = X**4 * (1.0 - X) + self._axis_bracket(X, alpha, lam1)
            ypart = self._axis_bracket(Y, beta, lam2)
            want = -np.exp(-lam1 * X - lam2 * Y) * (
                xpart * Y**4 * (1.0 - Y) + ypart * X**4 * (1.0 - X))
            got = case_ex5_3(alpha, beta, lam1, lam2).source.profile(X, Y)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestSeriesSource:
    def test_untempered_series_collapses_to_first_term(self):
        # lam = 0 kills every series term beyond j = 0; compare against the
        # directly coded pure-fractional two-sided source
        alpha, x, t = 1.5, 0.37, 0.2
        got = build_example_5_4_source(alpha, 0.0, x, t)
        binom = (1.0, -4.0, 6.0, -4.0, 1.0)
        left = x**4 * (1 - x) ** 4 - 2.0 * 0.0 * x**4
        right = 0.0
        for m in range(5):
            left += binom[m] * math.gamma(5 + m) / math.gamma(5 + m - alpha) * x ** (4 + m - alpha)
            right += binom[m] * math.gamma(5 + m) / math.gamma(5 + m - alpha) * (1 - x) ** (4 + m - alpha)
        want = -math.exp(-t) * (left + right)
        assert got == pytest.approx(want, rel=1e-13)

    @staticmethod
    def _series_term_by_term(alpha, lam, x, t, n_terms=50):
        """The ex5_4 source with its series added one term at a time."""
        binom = (1.0, -4.0, 6.0, -4.0, 1.0)
        one_m_x = 1.0 - x
        left = x**4 * one_m_x**4 - 2.0 * lam**alpha * x**4 * one_m_x**4
        for m in range(5):
            left = left + binom[m] * math.gamma(5.0 + m) / math.gamma(5.0 + m - alpha) * x ** (
                4.0 + m - alpha)
        right = np.zeros_like(x)
        for jj in range(n_terms + 1 if lam > 0.0 else 1):
            cj = math.exp(0.0 if jj == 0 else jj * math.log(2.0 * lam) - math.lgamma(jj + 1.0))
            for m in range(5):
                coeff = cj * binom[m] * math.exp(
                    math.lgamma(5.0 + m + jj) - math.lgamma(5.0 + m + jj - alpha))
                right = right + coeff * one_m_x ** (jj + 4.0 + m - alpha)
        return -math.exp(-t) * (np.exp(-lam * x) * left + np.exp(lam * (x - 2.0)) * right)

    @staticmethod
    def _normwise(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("nodes", [1, 11, 3201])
    def test_closed_form_matches_the_series(self, nodes):
        x = np.linspace(0.0, 1.0, nodes) if nodes > 1 else np.array([0.3])
        for alpha in (1.01, 1.1, 1.5, 1.8, 1.99):
            for lam in (0.0, 0.1, 1.0, 3.0):
                got = build_example_5_4_source(alpha, lam, x, 0.25)
                want = self._series_term_by_term(alpha, lam, x, 0.25)
                assert got.shape == x.shape
                assert self._normwise(got, want) < 2e-10, (alpha, lam)

    def test_scalar_node_gives_a_float(self):
        got = build_example_5_4_source(1.5, 0.1, 0.4, 0.0)
        assert type(got) is float
        assert got == pytest.approx(float(self._series_term_by_term(1.5, 0.1, 0.4, 0.0)), rel=1e-12)

    @pytest.mark.parametrize("nodes", [41, 3201])
    def test_large_rates_match_the_long_series(self, nodes):
        # the 50-term series was off by 3e-2 at lam = 20 and by 2.3 at lam = 30
        x = np.linspace(0.0, 1.0, nodes)
        for alpha in (1.01, 1.5, 1.99):
            for lam in (20.0, 30.0):
                want = self._series_term_by_term(alpha, lam, x, 0.0, n_terms=250)
                got = build_example_5_4_source(alpha, lam, x, 0.0)
                assert self._normwise(got, want) < 1e-8, (alpha, lam)

    def test_large_rate_study_errors_decrease(self):
        # lam * h <= 1 on every level; with the 50-term series the errors
        # were 5.00e-7, 8.79e-8, 1.94e-7
        rep = run_convergence_study(case_ex5_4(1.5, 20.0), [0.05, 0.025, 0.0125])
        errors = rep.errors()
        assert errors[0] > errors[1] > errors[2]
        assert errors == pytest.approx([5.8676e-07, 1.7257e-07, 2.7151e-08], rel=1e-3)

    def test_matches_oracle_at_sample_point(self):
        alpha, lam, x = 1.5, 0.1, 0.5
        params = TemperedParams(alpha, lam)
        u = lambda s: math.exp(-lam * s) * s**4 * (1.0 - s) ** 4
        d_left = quadrature_oracle("left", params, 0.0, u, x, tol=1e-9)
        d_right = quadrature_oracle("right", params, 1.0, u, x, tol=1e-9)
        f = build_example_5_4_source(alpha, lam, x, 0.0)
        assert -u(x) - d_left - d_right == pytest.approx(f, abs=1e-6)


class TestConvergenceStudy:
    def test_requires_two_levels(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        with pytest.raises(ValueError):
            run_convergence_study(case, [0.1])

    def test_identical_levels_rate_zero(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        rep = run_convergence_study(case, [0.1, 0.1], coupling="h3")
        assert rep.rates()[0] == 0.0

    def test_unknown_coupling_rejected(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        with pytest.raises(ValueError):
            run_convergence_study(case, [0.1, 0.05], coupling="h4")

    def test_fixed_coupling_needs_tau(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        with pytest.raises(ValueError):
            run_convergence_study(case, [0.1, 0.05], coupling="fixed")

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_fixed_coupling_needs_positive_tau(self, tau):
        case = case_ex5_1(1.5, 1.0, j=5)
        with pytest.raises(ValueError, match="> 0"):
            run_convergence_study(case, [0.1, 0.05], coupling="fixed", fixed_tau=tau)

    def test_make_case_dispatch(self):
        assert make_case("ex5_1", alpha=1.5, lam=1.0, j=3).ident == "ex5_1"
        with pytest.raises(KeyError):
            make_case("ex9_9")

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            case_ex5_1(1.5, 1.0, j=0)
        with pytest.raises(ValueError):
            case_ex5_2(1.5, 1.0, j=-2)

    def test_wall_time_recorded(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        assert all(row.wall_ms > 0.0 for row in rep.rows)


class TestCsvOutput:
    def _report(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        return run_convergence_study(case, [0.1, 0.05], coupling="h3")

    def test_schema_and_determinism(self):
        rep = self._report()
        buf1, buf2 = io.StringIO(), io.StringIO()
        rep.to_csv(buf1)
        rep.to_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == "case,alpha,beta,lambda,h,tau,error,rate,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "ex5_1"
        assert first[7] == ""  # first row has no rate
        float(first[6])  # error parses as a float

    def test_infinite_error_renders_as_token(self):
        case = case_ex5_1(1.9, 50.0, j=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        buf = io.StringIO()
        rep.to_csv(buf)
        assert ",Inf," in buf.getvalue()
