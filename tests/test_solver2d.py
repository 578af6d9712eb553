"""ADI stepper: fixed point, reference values, symmetry, sweep plumbing,
and the block marcher against the stepwise sweeps."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from tempfrac import _blas, solver1d, solver2d
from tempfrac.calculus import TemperedParams
from tempfrac.operators import (Grid1D, TimeGrid, P_column_row, apply_compact, assemble_B,
                                assemble_P)
from tempfrac.solver1d import BlowupError, SeparableSource
from tempfrac.solver2d import ProblemSpec2D, _adi_march, solve_adi
from tempfrac.verification import case_ex5_3, run_convergence_study


def zero_spec2d(M=8, N=10):
    return ProblemSpec2D(
        grid_x=Grid1D(0.0, 1.0, M),
        grid_y=Grid1D(0.0, 1.0, M),
        time=TimeGrid(1.0, N),
        params_x=TemperedParams(1.3, 0.1),
        params_y=TemperedParams(1.6, 0.2),
        initial=lambda X, Y: np.zeros_like(X),
        source=lambda X, Y, t: np.zeros_like(X),
    )


class TestFixedPoint:
    def test_zero_data_stays_zero(self):
        sol = solve_adi(zero_spec2d())
        assert np.array_equal(sol.values, np.zeros((7, 7)))


class TestAgainstReferenceValues:
    def test_coarse_level_error_and_rate(self):
        case = case_ex5_3(1.2, 1.5, 0.1, 0.1)
        rep = run_convergence_study(case, [0.1, 0.05], coupling="h32")
        assert rep.errors()[0] == pytest.approx(6.7629e-06, rel=0.10)
        assert rep.rates()[0] == pytest.approx(3.0070, abs=0.15)


class TestSymmetry:
    def test_swapping_directions_transposes_solution(self):
        case = case_ex5_3(1.2, 1.7, 0.3, 0.8)
        spec = case.build_spec(0.1)(8)
        sol = solve_adi(spec)

        src = spec.source
        swapped = ProblemSpec2D(
            grid_x=spec.grid_y,
            grid_y=spec.grid_x,
            time=spec.time,
            params_x=spec.params_y,
            params_y=spec.params_x,
            initial=lambda X, Y: spec.initial(Y, X),
            source=lambda X, Y, t: src(Y, X, t),
        )
        sol_t = solve_adi(swapped)
        assert sol_t.values == pytest.approx(sol.values.T, rel=1e-12, abs=1e-15)


class TestSweepPlumbing:
    def test_zero_y_operator_reduces_to_columnwise_1d(self):
        # with P_y = 0 the y-filter cancels between the sweeps and each
        # column must follow the one-dimensional centered implicit step
        case = case_ex5_3(1.4, 1.6, 0.2, 0.4)
        spec = case.build_spec(0.1)(12)
        tau = spec.time.tau
        stage_x = solver1d._stage("left", spec.grid_x, spec.params_x.lam,
                                  P_column_row(spec.params_x, spec.grid_x, tau, include_tau=False),
                                  tau, 0.5)
        By = assemble_B("left", spec.grid_y, spec.params_y.lam)
        U = _adi_march(spec, stage_x, (By.solve, By.matvec))  # the stage of a zero P_y

        # independent column-wise reference
        Bx = assemble_B("left", spec.grid_x, spec.params_x.lam).to_dense()
        Px = assemble_P("left", spec.params_x, spec.grid_x, tau, include_tau=False)
        X, Y = np.meshgrid(spec.grid_x.nodes(), spec.grid_y.nodes(), indexing="ij")
        V = np.asarray(spec.initial(X, Y), dtype=float)[1:-1, 1:-1]
        lu = lu_factor(Bx - 0.5 * tau * Px)
        By_inv = np.linalg.inv(By.to_dense())
        for n in range(spec.time.N):
            F = np.asarray(spec.source(X, Y, (n + 0.5) * tau), dtype=float)
            # compact filter along x (rows), then along y (columns)
            Fx = apply_compact("left", spec.params_x.lam, spec.grid_x.h, F)
            Fxy = apply_compact("left", spec.params_y.lam, spec.grid_y.h, Fx.T).T
            S = Fxy @ By_inv.T
            V = lu_solve(lu, (Bx + 0.5 * tau * Px) @ V + tau * S)
        assert U == pytest.approx(V, rel=1e-10, abs=1e-12)

    def test_sweeps_run_on_one_blas_thread(self):
        # the set-up alternates SciPy's and NumPy's OpenBLAS pools; both are
        # capped for the stages' LU factors and the march, and restored after
        seen = []

        def spy(fn):
            def counted(*args, **kwargs):
                seen.append([get() for get, _ in _blas._pools()])
                return fn(*args, **kwargs)
            return counted

        before = [get() for get, _ in _blas._pools()]
        with mock.patch.object(solver2d, "_march", spy(solver2d._march)), \
                mock.patch.object(solver1d, "lu_factor", spy(solver1d.lu_factor)):
            solve_adi(zero_spec2d())
        assert seen == [[1] * len(before)] * 3
        assert [get() for get, _ in _blas._pools()] == before

    @pytest.mark.parametrize("lam1,lam2,count", [(0.1, 0.1, 0), (15.0, 0.1, 1), (0.1, 15.0, 1),
                                                 (15.0, 15.0, 2)])
    def test_one_lam_h_warning_per_direction_beyond_it(self, lam1, lam2, count):
        spec = case_ex5_3(1.5, 1.5, lam1, lam2).build_spec(0.1)(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_adi(spec)
        assert [str(w.message)[:14] for w in caught] == ["lam*h = 1.5 > "] * count


@contextlib.contextmanager
def block_steps(K):
    """March in blocks of K steps (1: stepwise; None: the solver's own choice)."""
    if K is None:
        yield
        return
    with mock.patch.object(solver1d, "_block_steps", lambda m, N, r=1: K):
        yield


def random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, u, p):
    """Polynomial data vanishing on the boundary ring, a separable source
    with the temporal factor cos t, and rates given as lam * h."""
    gx, gy = Grid1D(0.0, 1.0, Mx), Grid1D(0.0, 1.0, My)
    return ProblemSpec2D(
        grid_x=gx, grid_y=gy, time=TimeGrid(0.1, N),
        params_x=TemperedParams(alpha, lam_hx / gx.h),
        params_y=TemperedParams(beta, lam_hy / gy.h),
        initial=lambda X, Y: X * (1.0 - X) * Y * (1.0 - Y) * np.polyval(u, X - 2.0 * Y),
        source=SeparableSource(lambda X, Y: np.polyval(p, X + 3.0 * Y * Y), math.cos),
    )


def plain_source(spec):
    """``spec`` with its source behind a plain callable."""
    source = spec.source
    return ProblemSpec2D(**{**spec.__dict__, "source": lambda X, Y, t: source(X, Y, t)})


def polynomials(seed):
    """Coefficients of two random cubics: the initial and the source factor."""
    return np.random.default_rng(seed).standard_normal((2, 4))


ORDERS = st.floats(1.01, 1.99)
LAM_H = st.floats(0.0, 1.0)
SIZES = st.integers(4, 40)
# a coefficient below 1e-300 in size scales the data into the subnormal range,
# where no relative bound holds in IEEE arithmetic
COEFFICIENTS = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-300)


class TestBlockMarching:
    @settings(max_examples=30, deadline=None)
    @given(alpha=ORDERS, beta=ORDERS, lam_hx=LAM_H, lam_hy=LAM_H, Mx=SIZES, My=SIZES,
           N=st.integers(1, 300), K=st.integers(2, 80), seed=st.integers(0, 2**16))
    def test_blocks_equal_single_steps(self, alpha, beta, lam_hx, lam_hy, Mx, My, N, K, seed):
        # covers N < K and N not a multiple of K
        spec = random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, *polynomials(seed))
        with block_steps(1):
            ref = solve_adi(spec).values
        with block_steps(K):
            got = solve_adi(spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha,beta", [(1.2, 1.5), (1.5, 1.9)])
    @pytest.mark.parametrize("M", [10, 20, 40])
    def test_study_levels_match_the_sweeps(self, alpha, beta, M):
        # the 2D order pairs of the paper's table at tau = h^1.5; the default
        # block size applies
        N = math.ceil(M**1.5)
        spec = case_ex5_3(alpha, beta, 0.1, 0.1).build_spec(1.0 / M)(N)
        assert solver1d._block_steps(M - 1, N, M - 1) > 1
        with block_steps(1):
            ref = solve_adi(spec).values
        got = solve_adi(spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_wide_square_run_marches_in_blocks_of_8(self):
        # 259 unknowns a direction: the forcing stack of 8 steps, 8 x 259^2
        # floats, holds no more than the 4 pairs of squarings, so a square
        # run this wide still takes blocks
        spec = case_ex5_3(1.5, 1.5, 1.0, 1.0).build_spec(1.0 / 260)(64)
        assert solver1d._block_steps(259, 64, 259) == 8
        with block_steps(1):
            ref = solve_adi(spec).values
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            got = solve_adi(spec).values
        assert blocks.call_args.args[5] == 8
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [3, None])
    def test_zero_data_stays_exactly_zero(self, K):
        spec = ProblemSpec2D(**{
            **zero_spec2d(N=100).__dict__,
            "source": SeparableSource(lambda X, Y: np.zeros_like(X), math.exp),
        })
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            with block_steps(K):
                sol = solve_adi(spec)
        assert blocks.call_count == 1
        assert np.array_equal(sol.values, np.zeros((7, 7)))

    @settings(max_examples=20, deadline=None)
    @given(K=st.sampled_from([1, 7, None]), a=COEFFICIENTS, b=COEFFICIENTS,
           seed=st.integers(0, 2**16))
    def test_solution_is_linear_in_initial_and_source(self, K, a, b, seed):
        (u1, p1), (u2, p2) = polynomials(seed), polynomials(seed + 1)

        def solve(u, p):
            return solve_adi(random_spec2d(1.6, 1.3, 0.5, 0.2, 12, 9, 150, u, p)).values

        with block_steps(K):
            s1, s2 = solve(u1, p1), solve(u2, p2)
            combined = solve(a * u1 + b * u2, a * p1 + b * p2)
        scale = abs(a) * np.max(np.abs(s1)) + abs(b) * np.max(np.abs(s2))
        assert np.max(np.abs(combined - (a * s1 + b * s2))) <= 1e-12 * scale

    @pytest.mark.parametrize("K", [1, None])
    def test_unstable_rate_blows_up_at_the_same_step(self, K):
        # lam*h = 5 along both axes; step 34 is the stepwise sweeps' verdict
        spec = case_ex5_3(1.9, 1.9, 50.0, 50.0).build_spec(0.1)(1000)
        assert solver1d._block_steps(9, 1000, 9) > 1
        with block_steps(K), pytest.warns(RuntimeWarning, match="lam\\*h"):
            with pytest.raises(BlowupError) as err:
                solve_adi(spec)
        assert err.value.step == 34


def sweep_march(spec):
    """The factored two-sweep scheme one step at a time, through its LU
    solves: the reference of the compiled step L U R^T + D."""
    gx, gy, tau = spec.grid_x, spec.grid_y, spec.time.tau
    Bx = assemble_B("left", gx, spec.params_x.lam).to_dense()
    By = assemble_B("left", gy, spec.params_y.lam).to_dense()
    Px = assemble_P("left", spec.params_x, gx, tau, include_tau=False)
    Py = assemble_P("left", spec.params_y, gy, tau, include_tau=False)
    lu_x, lu_y = lu_factor(Bx - 0.5 * tau * Px), lu_factor(By - 0.5 * tau * Py)
    Ax, Ay = Bx + 0.5 * tau * Px, By + 0.5 * tau * Py
    X, Y = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
    U = spec.initial(X, Y)[1:-1, 1:-1]
    for n in range(spec.time.N):
        F = spec.source(X, Y, (n + 0.5) * tau)
        S = apply_compact("left", spec.params_x.lam, gx.h, F)
        S = tau * apply_compact("left", spec.params_y.lam, gy.h, S.T).T
        U_star = lu_solve(lu_x, Ax @ U @ Ay.T + S)
        U = lu_solve(lu_y, U_star.T).T
    return U


class TestCompiledStep:
    @settings(max_examples=30, deadline=None)
    @given(alpha=ORDERS, beta=ORDERS, lam_hx=LAM_H, lam_hy=LAM_H, Mx=SIZES, My=SIZES,
           N=st.integers(1, 120), K=st.sampled_from([1, None]), plain=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_compiled_step_matches_the_lu_sweeps(self, alpha, beta, lam_hx, lam_hy, Mx, My,
                                                 N, K, plain, seed):
        spec = random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, *polynomials(seed))
        if plain:
            spec = plain_source(spec)
        ref = sweep_march(spec)
        with block_steps(K):
            got = solve_adi(spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [1, None])
    def test_separable_run_solves_no_system_per_step(self, K):
        # the LU solves form L, R and the forcing maps once a run, and a
        # plain source's field reaches each step through two products
        for plain in (False, True):
            counts = []
            for N in (10, 200):
                spec = case_ex5_3(1.5, 1.5, 0.1, 0.1).build_spec(0.1)(N)
                if plain:
                    spec = plain_source(spec)
                with block_steps(K), \
                        mock.patch.object(solver1d, "lu_solve", wraps=lu_solve) as solves:
                    solve_adi(spec)
                counts.append(solves.call_count)
            assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("plain", [False, True])
    def test_generator_stages_match_the_lu_sweeps(self, plain):
        # from 600 unknowns on both sweeps run on generators and FFT products
        # (lam*h <= 1): no stage matrix is expanded or LU-factored
        spec = random_spec2d(1.5, 1.7, 0.5, 0.001, 601, 601, 2, *polynomials(7))
        if plain:
            spec = plain_source(spec)
        ref = sweep_march(spec)
        with mock.patch.object(solver1d, "lu_factor", side_effect=AssertionError("LU")):
            got = solve_adi(spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [160, 602])
    def test_forcing_maps_from_the_step_factor_match_a_solve(self, M):
        # A^{-1} C with A = B - tau/2 P, from L = A^{-1} (B + tau/2 P) and a
        # solve of C's two end columns: LU stages at 159 unknowns, generator
        # stages at 601
        grid, params = Grid1D(0.0, 1.0, M), TemperedParams(1.5, 1.0)
        tau = grid.h**1.5
        P = P_column_row(params, grid, tau, include_tau=False)
        lu = mock.patch.object(solver1d, "lu_factor", side_effect=AssertionError("LU"))
        with lu if M - 1 >= solver1d._TOEPLITZ_DIM else contextlib.nullcontext():
            solve, apply = solver1d._stage("left", grid, params.lam, P, tau, 0.5)
        L = solve(apply(np.eye(M - 1)))
        want = solve(apply_compact("left", params.lam, grid.h, np.eye(M + 1)))
        got = solver2d._forcing_map(solve, L, grid, params.lam)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestUserFields:
    """Initial data, plain source values and source profiles may be scalars."""

    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("K", [1, None])
    def test_constants_equal_their_full_fields(self, separable, K):
        def solve(form):
            source = SeparableSource(form(2.0), math.cos) if separable else form(1.0)
            spec = ProblemSpec2D(**{**zero_spec2d(N=50).__dict__,
                                    "initial": form(0.5), "source": source})
            with block_steps(K), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # u(x, y, 0) = 0.5 misses the ring
                return solve_adi(spec).values

        got = solve(lambda c: lambda *_: c)
        want = solve(lambda c: lambda X, *_: np.full(np.shape(X), c))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("field,name", [
        ("initial", "the initial data"), ("source", "the source has"),
        ("profile", "the source profile"),
    ])
    def test_a_field_of_the_wrong_shape_raises(self, field, name):
        short = lambda X, *_: np.ones_like(X)[:-1]
        spec = zero_spec2d()
        if field == "initial":
            spec = ProblemSpec2D(**{**spec.__dict__, "initial": short})
        else:
            source = short if field == "source" else SeparableSource(short, math.cos)
            spec = ProblemSpec2D(**{**spec.__dict__, "source": source})
        with pytest.raises(ValueError, match=name):
            solve_adi(spec)


class TestSymmetryOfRandomData:
    @settings(max_examples=20, deadline=None)
    @given(alpha=ORDERS, beta=ORDERS, lam_hx=LAM_H, lam_hy=LAM_H, Mx=SIZES, My=SIZES,
           N=st.integers(1, 200), K=st.integers(2, 80), seed=st.integers(0, 2**16))
    def test_swapping_directions_transposes_solution(self, alpha, beta, lam_hx, lam_hy,
                                                     Mx, My, N, K, seed):
        spec = random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, *polynomials(seed))
        src = spec.source
        swapped = ProblemSpec2D(
            grid_x=spec.grid_y, grid_y=spec.grid_x, time=spec.time,
            params_x=spec.params_y, params_y=spec.params_x,
            initial=lambda X, Y: spec.initial(Y, X),
            source=SeparableSource(lambda X, Y: src.profile(Y, X), src.temporal),
        )
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            with block_steps(K):
                sol = solve_adi(spec).values
                sol_t = solve_adi(swapped).values
        assert blocks.call_count == 2
        assert np.max(np.abs(sol_t - sol.T)) <= 1e-12 * np.max(np.abs(sol))
