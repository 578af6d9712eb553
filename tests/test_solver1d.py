"""One-dimensional steppers: fixed points, mirrors, blowups, energy, orders,
and the block marcher against the stepwise path."""

import contextlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve, solve_toeplitz, toeplitz

from tempfrac import _blas, solver1d
from tempfrac.calculus import TemperedParams
from tempfrac.operators import (CompactMatrixB, Grid1D, TimeGrid, P_column_row, apply_compact,
                                assemble_B, assemble_P)
from tempfrac.solver1d import (
    BlowupError,
    ProblemSpec1D,
    SeparableSource,
    solve_left,
    solve_right,
    solve_two_sided,
)
from tempfrac.verification import case_ex5_1, case_ex5_2, case_ex5_4, error_norm, run_convergence_study

ZERO = lambda *_: 0.0


def zero_spec(side, alpha=1.5, lam=1.0, M=10, N=20):
    return ProblemSpec1D(
        grid=Grid1D(0.0, 1.0, M),
        time=TimeGrid(0.1, N),
        params=TemperedParams(alpha, lam),
        side=side,
        initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary_left=ZERO,
        boundary_right=ZERO,
        source=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
    )


class TestFixedPoints:
    @pytest.mark.parametrize("side,solver", [
        ("left", solve_left), ("right", solve_right), ("two_sided", solve_two_sided),
    ])
    def test_zero_data_stays_zero(self, side, solver):
        sol = solver(zero_spec(side))
        assert np.array_equal(sol.values, np.zeros(11))


class TestValidation:
    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            solve_left(zero_spec("right"))

    def test_nonzero_near_trace_rejected(self):
        spec = zero_spec("left")
        bad = ProblemSpec1D(**{**spec.__dict__, "boundary_left": lambda t: 1.0})
        with pytest.raises(ValueError, match="must vanish"):
            solve_left(bad)
        spec_r = zero_spec("right")
        bad_r = ProblemSpec1D(**{**spec_r.__dict__, "boundary_right": lambda t: 0.5})
        with pytest.raises(ValueError, match="must vanish"):
            solve_right(bad_r)

    def test_corner_mismatch_warns(self):
        spec = zero_spec("left")
        bumped = ProblemSpec1D(**{**spec.__dict__, "initial": lambda x: np.ones_like(x)})
        with pytest.warns(RuntimeWarning, match="corner"):
            solve_left(bumped)

    def test_history_shape_and_traces(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        spec = case.build_spec(0.1)(10)
        sol = solve_left(spec, store_history=True)
        assert sol.history.shape == (11, 11)
        # boundary columns carry the prescribed traces at every stored time
        for n, row in enumerate(sol.history):
            t = n * spec.time.tau
            assert row[0] == 0.0
            assert row[-1] == pytest.approx(math.exp(-t - 1.0), rel=1e-15)


class TestAgainstReferenceValues:
    def test_left_coarse_error(self):
        case = case_ex5_1(1.5, 1.0, j=5)
        rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        assert rep.errors()[0] == pytest.approx(9.1408e-05, rel=0.10)
        assert rep.errors()[1] == pytest.approx(1.1772e-05, rel=0.10)
        assert rep.rates()[0] == pytest.approx(2.9569, abs=0.15)

    def test_right_coarse_error(self):
        case = case_ex5_2(1.1, 1.0, j=5)
        rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        assert rep.errors()[0] == pytest.approx(1.6380e-05, rel=0.10)
        assert rep.rates()[0] == pytest.approx(2.9864, abs=0.15)

    def test_two_sided_coarse_error(self):
        case = case_ex5_4(1.5, 0.1)
        rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        assert rep.errors()[0] == pytest.approx(5.8747e-06, rel=0.10)
        assert rep.rates()[0] == pytest.approx(2.9090, abs=0.15)


class TestMirrorSymmetry:
    def test_right_solver_is_flipped_left_solver(self):
        # solve the mirrored problem with the right-sided scheme and compare
        # against the flipped left-sided solution
        alpha, lam, j = 1.5, 1.0, 5
        case = case_ex5_1(alpha, lam, j=j)
        h, N = 0.1, 50
        spec_l = case.build_spec(h)(N)
        sol_l = solve_left(spec_l)

        src = spec_l.source
        spec_r = ProblemSpec1D(
            grid=spec_l.grid,
            time=spec_l.time,
            params=spec_l.params,
            side="right",
            initial=lambda x: spec_l.initial(1.0 - np.asarray(x, dtype=float)),
            boundary_left=spec_l.boundary_right,
            boundary_right=spec_l.boundary_left,
            source=lambda x, t: src(1.0 - np.asarray(x, dtype=float), t),
        )
        sol_r = solve_right(spec_r)
        assert sol_r.values == pytest.approx(sol_l.values[::-1], rel=1e-12, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0),
        M=st.integers(4, 60),
        N=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_mirrored_random_data(self, alpha, lam_h, M, N, seed):
        # random data with a nonzero far trace e^{-t} c and a separable
        # source; the initial data meets both traces at the corners
        (c, *u), p = np.random.default_rng(seed).standard_normal((2, 4))
        grid = Grid1D(0.0, 1.0, M)
        params = TemperedParams(alpha, lam_h / grid.h)
        far = lambda t: c * math.exp(-t)
        initial = lambda x: x * (c + (1.0 - x) * np.polyval(u, x))
        profile = lambda x: np.polyval(p, x)
        spec_l = ProblemSpec1D(
            grid=grid, time=TimeGrid(0.1, N), params=params, side="left",
            initial=initial, boundary_left=ZERO, boundary_right=far,
            source=SeparableSource(profile, math.cos),
        )
        spec_r = ProblemSpec1D(
            grid=grid, time=TimeGrid(0.1, N), params=params, side="right",
            initial=lambda x: initial(1.0 - np.asarray(x, dtype=float)),
            boundary_left=far, boundary_right=ZERO,
            source=SeparableSource(lambda x: profile(1.0 - x), math.cos),
        )
        got = solve_right(spec_r).values
        want = solve_left(spec_l).values[::-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBlowupDiagnostics:
    def test_unstable_rate_blows_up(self):
        # lam*h = 5 with the steepest order: growth reaches the diagnostic
        # threshold within the run
        case = case_ex5_1(1.9, 50.0, j=5)
        spec = case.build_spec(0.1)(100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BlowupError) as err:
                solve_left(spec)
        assert err.value.step == 69

    def test_study_records_infinite_error(self):
        case = case_ex5_1(1.9, 50.0, j=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_convergence_study(case, [0.1, 0.05], coupling="h3")
        # the coarse run trips the blowup diagnostic; the next level grows
        # more slowly but is still unmistakably unstable
        assert math.isinf(rep.errors()[0])
        assert all(e > 1e6 for e in rep.errors())


class TestEnergyDecay:
    @pytest.mark.parametrize("lam_h", [0.0, 0.5, 1.0])
    def test_homogeneous_energy_monotone(self, lam_h):
        M, N = 24, 60
        g = Grid1D(0.0, 1.0, M)
        lam = lam_h / g.h
        params = TemperedParams(1.6, lam)
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(4)

        def u0(x):
            x = np.asarray(x, dtype=float)
            return sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coeffs))

        spec = ProblemSpec1D(
            grid=g, time=TimeGrid(0.5, N), params=params, side="left",
            initial=u0, boundary_left=ZERO, boundary_right=ZERO,
            source=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        )
        sol = solve_left(spec, store_history=True)
        B = assemble_B("left", g, lam).to_dense()
        energies = [
            g.h * row[1:-1] @ (B @ row[1:-1]) for row in sol.history
        ]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1.0 + 1e-12)


class TestUnconditionalTauStability:
    @pytest.mark.parametrize("n_steps", [12, 48, 192])  # tau = h, h/4, h/16
    def test_energy_never_grows_for_any_step_size(self, n_steps):
        M = 24
        g = Grid1D(0.0, 1.0, M)
        lam = 0.75 / g.h
        params = TemperedParams(1.5, lam)

        def u0(x):
            x = np.asarray(x, dtype=float)
            return np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)

        T = 12 * g.h  # so the three step counts realize tau = h, h/4, h/16
        spec = ProblemSpec1D(
            grid=g, time=TimeGrid(T, n_steps), params=params, side="left",
            initial=u0, boundary_left=ZERO, boundary_right=ZERO,
            source=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        )
        sol = solve_left(spec, store_history=True)
        B = assemble_B("left", g, lam).to_dense()
        energy = [g.h * row[1:-1] @ (B @ row[1:-1]) for row in sol.history]
        for before, after in zip(energy, energy[1:]):
            assert after <= before * (1.0 + 1e-12)


class TestTemporalOrder:
    def test_first_order_in_time(self):
        # fine spatial grid, halving tau: the error should roughly halve
        case = case_ex5_1(1.5, 1.0, j=5)
        errs = []
        for N in (5, 10, 20):
            spec = case.build_spec(1.0 / 64)(N)
            sol = solve_left(spec)
            errs.append(error_norm(sol, case.exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 0.8 <= order <= 1.2


@contextlib.contextmanager
def block_steps(K):
    """March in blocks of K steps (1: stepwise) whatever the size of the run."""
    with mock.patch.object(solver1d, "_block_steps", lambda *args, **kwargs: K):
        yield


SOLVERS = {"left": solve_left, "right": solve_right, "two_sided": solve_two_sided}
# a coefficient below 1e-300 in size scales the data into the subnormal range,
# where no relative bound holds in IEEE arithmetic
COEFFICIENTS = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-300)


def plain_source(spec):
    """``spec`` with its source behind a plain callable."""
    source = spec.source
    return ProblemSpec1D(**{**spec.__dict__, "source": lambda x, t: source(x, t)})


def manufactured_spec(side, alpha, M, N):
    # left and right carry a nonzero far trace, e^{-t - lam} and e^{-t}
    case = {
        "left": lambda: case_ex5_1(alpha, 1.0, j=5),
        "right": lambda: case_ex5_2(alpha, 1.0, j=5),
        "two_sided": lambda: case_ex5_4(alpha, 0.1),
    }[side]()
    return case.build_spec(1.0 / M)(N)


# the rank at K of the samples of a run's blocks of K steps, where the run has
# more such blocks than K
RANKS = {"zero": lambda K: 0, "exp": lambda K: 1, "cos": lambda K: 2, "rough": lambda K: K}


def rank_samples(kind, N):
    """The samples, one row a step, of a temporal factor whose blocks have
    the rank RANKS[kind]: zero, e^{-t}, cos(20 t) or a seeded table."""
    t = (np.arange(N) + 0.5) / N
    return {"zero": np.zeros(N), "exp": np.exp(-t), "cos": np.cos(20.0 * t),
            "rough": np.random.default_rng(1).standard_normal(N)}[kind][:, None]


class TestBlockMarching:
    @settings(max_examples=40, deadline=None)
    @given(
        side=st.sampled_from(sorted(SOLVERS)),
        alpha=st.floats(1.05, 1.95),
        M=st.integers(5, 24),
        N=st.integers(1, 300),
        K=st.integers(2, 80),
    )
    # runs over several chunks of blocks that end in a leftover block: at
    # 9 unknowns a chunk is K blocks, 4096 steps for K = 64 and 49 for K = 7
    @example(side="left", alpha=1.5, M=10, N=2 * 4096 + 3 * 64 + 17, K=64)
    @example(side="two_sided", alpha=1.5, M=10, N=3 * 448 + 5, K=7)
    def test_blocks_equal_single_steps(self, side, alpha, M, N, K):
        # covers N < K and N not a multiple of K
        spec = manufactured_spec(side, alpha, M, N)
        with block_steps(1):
            ref = SOLVERS[side](spec).values
        with block_steps(K):
            got = SOLVERS[side](spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.sampled_from(sorted(SOLVERS)),
        K=st.sampled_from([1, 7, 64]),
        a=COEFFICIENTS,
        b=COEFFICIENTS,
        seed=st.integers(0, 2**16),
    )
    def test_solution_is_linear_in_initial_and_source(self, side, K, a, b, seed):
        rng = np.random.default_rng(seed)
        (u1, u2), (p1, p2) = rng.standard_normal((2, 2, 4))

        def spec(u, p):
            return ProblemSpec1D(
                grid=Grid1D(0.0, 1.0, 12), time=TimeGrid(0.1, 150),
                params=TemperedParams(1.6, 2.0), side=side,
                initial=lambda x: x * (1.0 - x) * np.polyval(u, x),
                boundary_left=ZERO, boundary_right=ZERO,
                source=SeparableSource(lambda x: np.polyval(p, x), math.cos),
            )

        with block_steps(K):
            s1 = SOLVERS[side](spec(u1, p1)).values
            s2 = SOLVERS[side](spec(u2, p2)).values
            combined = SOLVERS[side](spec(a * u1 + b * u2, a * p1 + b * p2)).values
        scale = abs(a) * np.max(np.abs(s1)) + abs(b) * np.max(np.abs(s2))
        assert np.max(np.abs(combined - (a * s1 + b * s2))) <= 1e-12 * scale

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    @pytest.mark.parametrize("K", [3, 64])
    def test_zero_data_stays_exactly_zero(self, side, K):
        spec = ProblemSpec1D(**{
            **zero_spec(side, N=100).__dict__,
            "source": SeparableSource(np.zeros_like, math.exp),
        })
        with block_steps(K):
            sol = SOLVERS[side](spec)
        assert np.array_equal(sol.values, np.zeros(11))

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(1.5, 1.95), lam_h=st.floats(3.0, 6.0), K=st.integers(2, 80))
    def test_blowup_step_is_the_same_for_blocks(self, alpha, lam_h, K):
        spec = case_ex5_1(alpha, lam_h / 0.1, j=5).build_spec(0.1)(100)

        def blowup_step(K):
            with block_steps(K), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    solve_left(spec)
                except BlowupError as err:
                    return err.step
            return None

        assert blowup_step(K) == blowup_step(1)

    @pytest.mark.parametrize("matrix_state", [False, True])
    def test_growth_inside_a_block_is_replayed(self, matrix_state):
        # a nilpotent factor carries the state past the blowup limit at step
        # 1 and back to zero at step 2, so the endpoint of a 2-step block
        # is harmless and only the growth bound can send the block back to
        # the stepwise path; in a matrix state the jump sits in R
        jump = np.array([[0.0, 1e31], [0.0, 0.0]])
        if matrix_state:
            U0, factors = np.array([[0.0, 1.0], [0.0, 0.0]]), (np.eye(2), jump)
            step = lambda U, f: U @ jump.T + f[0]
        else:
            U0, factors = np.array([0.0, 1.0]), None
            step = lambda U, f: jump @ U + f[0]
        terms = (solver1d._Term(ZERO, 0.0, (np.zeros_like(U0),)),)
        with block_steps(2), pytest.raises(BlowupError) as err:
            solver1d._march(step, 1, U0, TimeGrid(1.0, 2), terms, factors=factors)
        assert err.value.step == 1

    @pytest.mark.parametrize("m,N,r,K", [
        (199, 2000, 1, 32),  # a history run at M = 200: K^2 <= N
        (9, 100, 1, 8),  # study1d's first level at tau = h^3
        (39, 6400, 1, 64),  # at most _BLOCK
        (9, 6400, 1, 64),  # no bound by the size of the state
        (599, 30000, 1, 64),
        (159, 100, 159, 8),  # matrix states at w = 1: K^2 <= N
        (119, 100, 119, 8),
        (79, 716, 79, 16),
        (319, 5724, 319, 64),
        (39, 6400, 159, 64),  # a rectangle
    ])
    def test_block_length_is_the_largest_power_of_two_that_fits(self, m, N, r, K):
        # wherever compiling pays, one rule: the largest power of two up to
        # _BLOCK = 64 with r_K K ceil(K / w) <= N, here K^2 <= N: r_K = 1
        # without a sample rank and w = 1 without a spatial one
        fits = [k for k in (1, 2, 4, 8, 16, 32, 64) if k * k <= N]
        assert solver1d._block_steps(m, N, r) == max(fits) == K

    @pytest.mark.parametrize("kind,w,K", [
        ("zero", 1, 64),  # no forcing: K^2 <= N
        ("exp", 1, 64),  # e^{-t}, rank 1: K^2 <= N
        ("cos", 1, 32),  # cos(w t), rank 2: 2 K^2 <= N
        ("rough", 1, 16),  # rough samples at full rank: K^3 <= N
        ("cos", 2, 64),  # pieces of w = 2 steps (S = 80): 2 K ceil(K / 2) <= N
        ("rough", 2, 16),  # K^2 ceil(K / 2) <= N
        ("cos", 64, 64),  # ex5_3's profile (S = 2), pieces of w = 64: 2 K <= N
        ("rough", 64, 64),  # K^2 <= N
    ], ids=["zero", "rank 1", "rank 2", "full rank", "rank 2, w = 2", "full rank, w = 2",
            "rank 2, w = 64", "full rank, w = 64"])
    def test_block_length_is_priced_by_the_sample_rank(self, kind, w, K):
        # a matrix state's forcing takes, for each of r_K basis vectors, one
        # product a piece of w steps and a pair of Horner products joining
        # the pieces, so r_K K ceil(K / w) <= N, w the largest power of two
        # with w S <= max(m, r); at M = 320 and tau = h^1.5, where a forcing
        # of full spatial rank (S = m) takes pieces of one step.  The samples
        # of the run's blocks of K steps have rank 0, 1, 2 and K
        N = 5724
        samples = rank_samples(kind, N)
        assert [len(solver1d._sample_basis(samples[:N // k * k].reshape(N // k, k))[0])
                for k in (16, 32, 64)] == [RANKS[kind](k) for k in (16, 32, 64)]
        assert solver1d._block_steps(319, N, 319, w, samples) == K

    @pytest.mark.parametrize("m,r,S,w", [
        (159, 159, 2, 64),  # ex5_3 at M = 160: 128 rows a stack
        (128, 100, 2, 64),  # w S = max(m, r) fits
        (127, 127, 2, 32),
        (9, 9, 2, 4),
        (3, 40, 2, 16),  # the larger dimension counts
        (9, 9, 0, 64),  # no forcing: at most _BLOCK
        (9, 9, 9, 1),  # full spatial rank
        (9, 9, 30, 1),  # at least 1
    ])
    def test_piece_length_is_the_largest_power_of_two_that_fits(self, m, r, S, w):
        assert solver1d._piece_steps(m, r, S) == w

    @pytest.mark.parametrize("m,N,w,K", [
        (9, 32, 4, 8),  # the converge levels of ex5_3 at tau = h^1.5, M = 10 to 80
        (19, 90, 8, 16),
        (39, 253, 16, 32),
        (79, 716, 32, 64),
        (119, 100, 32, 32),  # the direct solves at M = 120 and 160
        (159, 100, 64, 64),
    ])
    def test_2d_study_takes_long_blocks(self, m, N, w, K):
        # ex5_3's e^{-t} (r_K = 1) on its profile of spatial rank 2: pieces
        # of 4, 8, 16, 32, 32 and 64 steps
        assert solver1d._piece_steps(m, m, 2) == w
        assert solver1d._block_steps(m, N, m, w, rank_samples("exp", N)) == K

    def test_a_1d_run_takes_no_svd(self):
        # a vector state prices its blocks without the rank of its samples:
        # ex5_1 at the study1d size, M = 40 and tau = h^3, marches in blocks
        # of 64 steps without an SVD
        spec = case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 40)(6400)
        assert solver1d._block_steps(39, 6400) == 64
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            solve_left(spec)
        assert svd.call_count == 0

    def test_block_path_only_where_dense_G_pays(self):
        # long runs on study grids march in blocks; wide grids with few
        # steps stay on the LU path and never form a dense G
        assert solver1d._block_steps(39, 6400) > 1
        assert solver1d._block_steps(79, 512000) > 1
        assert solver1d._block_steps(1599, 16) == 1
        assert solver1d._block_steps(3199, 16) == 1

    def test_history_and_plain_sources_step_on_the_compiled_G(self):
        # a stored history and a plain-callable source march on G = step(I)
        # in one-step blocks, one row a step, filled in groups of the run's
        # block length; the LU solves only form G and the forcing maps.  A
        # separable run without a history takes blocks of that length, one
        # row a block
        case = case_ex5_1(1.5, 1.0, j=5)
        spec = case.build_spec(0.1)(200)
        plain = plain_source(spec)
        K = solver1d._block_steps(9, 200, 1)
        assert K == 8
        for run, rows, steps in ((lambda: solve_left(spec, store_history=True), 200, K),
                                 (lambda: solve_left(plain), 200, K),
                                 (lambda: solve_left(plain, store_history=True), 200, K),
                                 (lambda: solve_left(spec), 200 // K, 1)):
            with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks, \
                    mock.patch.object(solver1d, "_fill_groups", wraps=solver1d._fill_groups) as fill, \
                    mock.patch.object(solver1d, "lu_solve", wraps=lu_solve) as solves:
                run()
            assert blocks.call_count == 1
            shapes = [c.args[0].shape[:2] for c in fill.call_args_list]
            assert sum(J * q for J, q in shapes) == rows
            assert {q for _, q in shapes} == {steps}  # rows a group
            assert solves.call_count <= 3

    @settings(max_examples=40, deadline=None)
    @given(
        side=st.sampled_from(sorted(SOLVERS)),
        plain=st.booleans(),
        alpha=st.floats(1.05, 1.95),
        M=st.integers(5, 24),
        N=st.integers(1, 200),
    )
    def test_history_on_G_equals_stepwise_history(self, side, plain, alpha, M, N):
        # left and right carry a nonzero far trace; the compiled path must
        # reproduce every stored row of the stepwise reference
        spec = manufactured_spec(side, alpha, M, N)
        if plain:
            spec = plain_source(spec)
        with block_steps(1):
            ref = SOLVERS[side](spec, store_history=True).history
        with block_steps(64), mock.patch.object(solver1d, "_march_blocks",
                                                wraps=solver1d._march_blocks) as blocks:
            got = SOLVERS[side](spec, store_history=True).history
        assert blocks.call_count == 1
        assert got.shape == ref.shape == (N + 1, M + 1)
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("variant", ["history", "plain", "plain history"])
    def test_blowup_step_on_G(self, variant):
        spec = case_ex5_1(1.9, 50.0, j=5).build_spec(0.1)(100)
        if "plain" in variant:
            spec = plain_source(spec)
        with warnings.catch_warnings(), \
                mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            warnings.simplefilter("ignore")
            with pytest.raises(BlowupError) as err:
                solve_left(spec, store_history="history" in variant)
        assert blocks.call_count == 1
        assert err.value.step == 69

    @pytest.mark.parametrize("K", [1, 64])
    def test_forcing_spike_blows_up_at_its_step(self, K):
        # a stable step driven past the limit by one step's source alone:
        # the growth bound of that step must send it back to the stages
        spec = manufactured_spec("left", 1.5, 10, 50)
        tau = spec.time.tau
        spike = lambda x, t: np.full_like(x, 1e40 if abs(t - 20 * tau) < 0.5 * tau else 0.0)
        with block_steps(K), pytest.raises(BlowupError) as err:
            solve_left(ProblemSpec1D(**{**spec.__dict__, "source": spike}), store_history=True)
        assert err.value.step == 20

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    def test_plain_source_is_sampled_once_per_group(self, side):
        # a broadcasting source takes one array call a group of K steps, its
        # times a column against the nodes, and two scalar calls that check
        # the group's first and last time
        N = 150
        spec = manufactured_spec(side, 1.5, 10, N)
        calls = []

        def counted(x, t):
            calls.append(t)
            return spec.source(x, t)

        counted_spec = ProblemSpec1D(**{**spec.__dict__, "source": counted})
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            got = SOLVERS[side](counted_spec, store_history=True)
        assert blocks.call_count == 1
        K = solver1d._block_steps(9, N)
        shift = 0.5 if side == "two_sided" else 1.0
        arrays = [t for t in calls if np.ndim(t)]
        assert all(t.shape == (len(t), 1) for t in arrays)
        assert np.array_equal(np.concatenate(arrays)[:, 0], (np.arange(N) + shift) * spec.time.tau)
        assert [t for t in calls if not np.ndim(t)] == [t[j, 0] for t in arrays for j in (0, -1)]
        assert len(calls) <= 3 * math.ceil(N / K) + 3
        with block_steps(1):
            want = SOLVERS[side](counted_spec, store_history=True)
        assert np.max(np.abs(got.history - want.history)) <= 1e-12 * np.max(np.abs(want.history))

    @pytest.mark.parametrize("plain,store_history", [(False, True), (True, True), (False, False)])
    def test_fft_stages_never_form_a_dense_G(self, plain, store_history):
        # on the Levinson + FFT stage path a step costs O(m log m), less than
        # the product with a dense G: even where the price says blocks pay,
        # a run keeps its stages
        assert solver1d._block_steps(1599, 30000) > 1
        spec = case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 1600)(4)
        if plain:
            spec = plain_source(spec)
        with block_steps(64), \
                mock.patch.object(solver1d, "_march_blocks", side_effect=AssertionError), \
                mock.patch.object(solver1d, "lu_factor", side_effect=AssertionError):
            got = solve_left(spec, store_history=store_history)
        with toeplitz_from(10**9):
            want = solve_left(spec, store_history=store_history)
        assert np.max(np.abs(got.values - want.values)) <= 1e-11 * np.max(np.abs(want.values))
        if store_history:
            assert got.history.shape == (5, 1601)
            assert np.max(np.abs(got.history - want.history)) <= 1e-11 * np.max(np.abs(want.history))

    def test_every_stage_takes_its_forcing(self):
        # a forcing list shorter or longer than the scheme's stages is an
        # error, not a stage silently dropped
        stages = ((lambda b: b, lambda U: U), (lambda b: 2.0 * b, lambda U: U))
        U = np.ones(3)
        assert np.array_equal(solver1d._apply_stages(stages, U, [0.0, 1.0]), [4.0, 4.0, 4.0])
        for forcing in ([], [0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                solver1d._apply_stages(stages, U, forcing)


def polynomial_spec(side, u, p, M=12, N=150):
    """Initial data x (1 - x) poly(u) and the plain source cos(t) poly(p)."""
    return ProblemSpec1D(
        grid=Grid1D(0.0, 1.0, M), time=TimeGrid(0.1, N),
        params=TemperedParams(1.6, 2.0), side=side,
        initial=lambda x: x * (1.0 - x) * np.polyval(u, x),
        boundary_left=ZERO, boundary_right=ZERO,
        source=lambda x, t: math.cos(t) * np.polyval(p, x),
    )


class TestChunkMarching:
    """Blocks of one step on the compiled G: forcing written into the rows,
    one product a step, one check a chunk."""

    @settings(max_examples=12, deadline=None)
    @given(
        side=st.sampled_from(["left", "right"]),
        plain=st.booleans(),
        alpha=st.floats(1.05, 1.95),
        M=st.integers(200, 230),
        N=st.integers(130, 300),
    )
    def test_history_at_full_chunks_equals_stepwise_history(self, side, plain, alpha, M, N):
        # in groups of 8 steps a chunk is 8 groups, 64 steps, with a plain
        # source or a separable one, so a run spans at least two full chunks
        # and mostly ends in a partial one.  Two-sided runs are left out: at
        # this size their compiled G, a product through the explicit
        # half-step of 2-norm up to 1e5, is itself off by up to 3e-12
        spec = manufactured_spec(side, alpha, M, N)
        if plain:
            spec = plain_source(spec)
        with block_steps(1):
            ref = SOLVERS[side](spec, store_history=True).history
        with block_steps(8), mock.patch.object(solver1d, "_fill_groups",
                                               wraps=solver1d._fill_groups) as fill:
            got = SOLVERS[side](spec, store_history=True).history
        shapes = [c.args[0].shape[:2] for c in fill.call_args_list]
        assert shapes[:2] == [(8, 8)] * 2
        assert sum(J * q for J, q in shapes) == N  # one row a step
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * scale)

    @settings(max_examples=20, deadline=None)
    @given(
        side=st.sampled_from(sorted(SOLVERS)),
        a=COEFFICIENTS,
        b=COEFFICIENTS,
        seed=st.integers(0, 2**16),
    )
    def test_history_is_linear_in_initial_and_plain_source(self, side, a, b, seed):
        rng = np.random.default_rng(seed)
        (u1, u2), (p1, p2) = rng.standard_normal((2, 2, 4))
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            h1 = SOLVERS[side](polynomial_spec(side, u1, p1), store_history=True).history
            h2 = SOLVERS[side](polynomial_spec(side, u2, p2), store_history=True).history
            combined = SOLVERS[side](polynomial_spec(side, a * u1 + b * u2, a * p1 + b * p2),
                                     store_history=True).history
        assert blocks.call_count == 3
        scale = abs(a) * np.max(np.abs(h1)) + abs(b) * np.max(np.abs(h2))
        assert np.max(np.abs(combined - (a * h1 + b * h2))) <= 1e-12 * scale

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    def test_zero_data_with_a_plain_source_keeps_a_zero_history(self, side):
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            sol = SOLVERS[side](zero_spec(side, N=100), store_history=True)
        assert blocks.call_count == 1
        assert np.array_equal(sol.history, np.zeros((101, 11)))

    def test_replayed_chunk_that_stays_finite_keeps_every_row(self):
        # one step's source drives the state past _BLOCK_LIMIT but not past
        # _BLOWUP_LIMIT: its chunk is replayed stepwise, raises nothing, and
        # the chunks after it resume from the replayed state
        spec = case_ex5_1(1.5, 1.0, j=5, T=1.0).build_spec(0.1)(200)
        tau = spec.time.tau
        spike = lambda x, t: np.full_like(x, 3e26 if abs(t - 20 * tau) < 0.5 * tau else 0.0)
        spec = ProblemSpec1D(**{**spec.__dict__, "source": spike})
        with block_steps(1):
            ref = solve_left(spec, store_history=True).history
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks, \
                mock.patch.object(solver1d, "_fill_groups", wraps=solver1d._fill_groups) as fill:
            got = solve_left(spec, store_history=True).history
        assert blocks.call_count == 1
        peak = np.max(np.abs(ref), axis=1)
        assert solver1d._BLOCK_LIMIT < peak.max() < solver1d._BLOWUP_LIMIT
        assert peak[-1] < solver1d._BLOCK_LIMIT  # the last chunks are accepted
        assert fill.call_count > 2  # the run spans more than two chunks
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * peak)

    @pytest.mark.parametrize("variant", ["history", "plain history"])
    def test_blowup_on_G_leaks_no_floating_point_warning(self, variant):
        spec = case_ex5_1(1.9, 50.0, j=5).build_spec(0.1)(100)
        if "plain" in variant:
            spec = plain_source(spec)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(BlowupError) as err:
            warnings.simplefilter("always")
            solve_left(spec, store_history=True)
        assert err.value.step == 69
        assert [str(w.message) for w in caught] == [
            "lam*h = 5 > 1: the implicit schemes may be unstable"]

    def test_growth_inside_a_chunk_is_replayed(self):
        # a nilpotent step carries the state past the blowup limit at step 1
        # and back to zero at step 2: only the check of every row of the
        # chunk, not of its last, sends it back to the stages
        jump = np.array([[0.0, 1e31], [0.0, 0.0]])
        terms = (solver1d._Term(ZERO, 0.0, (np.zeros(2),)),)
        with block_steps(64), pytest.raises(BlowupError) as err:
            solver1d._march(lambda U, f: jump @ U + f[0], 1, np.array([0.0, 1.0]),
                            TimeGrid(1.0, 2), terms, history=np.empty((3, 2)))
        assert err.value.step == 1

    def test_growth_inside_a_later_block_of_a_chunk_is_replayed(self):
        # a nilpotent step driven by one spike, in one chunk of two 2-step
        # blocks: the first stays at zero, the second carries the state past
        # the blowup limit at step 3 and back to zero at step 4.  Every
        # endpoint is zero; only the growth bound of the second block sends
        # the chunk back to the stages
        jump = np.array([[0.0, 1.0], [0.0, 0.0]])
        spike = lambda t: np.where(np.asarray(t) == 3.0, 1e31, 0.0)
        terms = (solver1d._Term(spike, 1.0, (np.array([1.0, 0.0]),)),)
        with block_steps(2), pytest.raises(BlowupError) as err:
            solver1d._march(lambda U, f: jump @ U + f[0], 1, np.zeros(2), TimeGrid(4.0, 4), terms)
        assert err.value.step == 3

    def test_overflowing_chunk_leaks_no_floating_point_warning(self):
        # G = 1e200 I overflows to inf at the chunk's second step and to NaN
        # (0 * inf) at its third; the replay raises at the first
        U0 = np.ones(3)
        terms = (solver1d._Term(ZERO, 0.0, (np.zeros(3),)),)
        with block_steps(64), warnings.catch_warnings(), pytest.raises(BlowupError) as err:
            warnings.simplefilter("error")
            solver1d._march(lambda U, f: 1e200 * U + f[0], 1, U0, TimeGrid(1.0, 10), terms,
                            history=np.empty((11, 3)))
        assert err.value.step == 1


MATVECS = []


class CountingMatrix(np.ndarray):
    """An array that counts the matrix-vector products taken with it, and
    passes the count on to the matrices formed from it (its powers)."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, CountingMatrix) else x

        result = getattr(ufunc, method)(*map(plain, inputs), **{
            key: tuple(map(plain, value)) if key == "out" else value
            for key, value in kwargs.items()})
        if ufunc is not np.matmul:
            return result
        if min(np.ndim(x) for x in inputs) == 1:
            MATVECS.append(1)
            return result
        return result.view(CountingMatrix)


def group_steps(N):
    """The block length of a long run of N steps on a narrow state: the
    largest power of two up to 64 whose square is at most N."""
    return min(64, 1 << (math.isqrt(N).bit_length() - 1))


class TestGroupedFill:
    """Chunks of one-step blocks filled in groups of q steps: q - 1 products
    of all the groups with G^T for their particular parts and as many for
    their homogeneous ones, the group ends chained through G^q."""

    @settings(max_examples=10, deadline=None)
    @given(
        side=st.sampled_from(["left", "right"]),
        plain=st.booleans(),
        store_history=st.booleans(),
        alpha=st.floats(1.05, 1.95),
        M=st.integers(150, 230),
        N=st.integers(128, 3000),
    )
    @example(side="left", plain=True, store_history=True, alpha=1.5, M=200, N=2999)
    def test_fill_equals_stepwise_history(self, side, plain, store_history, alpha, M, N):
        # groups of q steps, q^2 <= N < 4 q^2: with N >= 2 q^2 a run spans
        # at least two chunks of at most q groups, and the N mod q steps
        # left over go as one more group.  A separable source without a
        # history marches in blocks of K > 1, and two-sided runs are left
        # out as in TestChunkMarching: their compiled G is itself off
        # stepwise by up to 3e-12
        q = group_steps(N)
        assume(N >= 2 * q * q and N % q and (plain or store_history))
        spec = manufactured_spec(side, alpha, M, N)
        if plain:
            spec = plain_source(spec)
        with block_steps(1):
            ref = SOLVERS[side](spec, store_history=store_history)
        with block_steps(q), mock.patch.object(solver1d, "_fill_groups",
                                               wraps=solver1d._fill_groups) as fill:
            got = SOLVERS[side](spec, store_history=store_history)
        lengths = [c.args[0].shape[1] for c in fill.call_args_list]
        assert len(lengths) >= 3
        assert set(lengths) == {q, N % q}
        if store_history:
            scale = np.max(np.abs(ref.history), axis=1)
            assert np.all(np.max(np.abs(got.history - ref.history), axis=1) <= 1e-12 * scale)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    def test_zero_data_keeps_an_exactly_zero_history_and_forms_no_forcing_map(self, side):
        # the LU solves form G and, with a far trace, the trace terms' D; a
        # plain source's forcing map is formed only for a nonzero field
        setup = 1 if side == "two_sided" else 2
        with block_steps(64), mock.patch.object(solver1d, "lu_solve", wraps=lu_solve) as solves:
            sol = SOLVERS[side](zero_spec(side, M=200, N=2000), store_history=True)
        assert np.array_equal(sol.history, np.zeros((2001, 201)))
        assert solves.call_count == setup
        spec = plain_source(manufactured_spec(side, 1.5, 200, 2000))
        with block_steps(64), mock.patch.object(solver1d, "lu_solve", wraps=lu_solve) as solves:
            SOLVERS[side](spec, store_history=True)
        assert solves.call_count == setup + 1

    def spiked(self, size, T):
        # a source that is zero but at step 45, inside the second group of
        # 32 steps (33 to 64)
        spec = case_ex5_1(1.5, 1.0, j=5, T=T).build_spec(1.0 / 200)(2000)
        tau = spec.time.tau
        spike = lambda x, t: np.full_like(x, size if abs(t - 45 * tau) < 0.5 * tau else 0.0)
        assert solver1d._block_steps(199, 2000, 1) == 32
        return ProblemSpec1D(**{**spec.__dict__, "source": spike})

    def test_spike_inside_a_group_blows_up_at_its_step(self):
        with pytest.raises(BlowupError) as err:
            solve_left(self.spiked(1e40, 1.0), store_history=True)
        assert err.value.step == 45

    def test_replayed_group_chunk_keeps_every_row(self):
        # tau 0.005: the spike's row reaches 1.5e24, past _BLOCK_LIMIT and
        # short of _BLOWUP_LIMIT, so only the first chunk (steps 1 to 1024,
        # 32 groups of 32) is replayed, and the chunks after it resume from
        # its state
        spec = self.spiked(3e26, 10.0)
        with block_steps(1):
            ref = solve_left(spec, store_history=True).history
        replays = []
        march = solver1d._march_blocks

        def spy(U, *, stepwise, **kwargs):
            def replay(U, start, stop):
                replays.append((start, stop))
                return stepwise(U, start, stop)
            return march(U, stepwise=replay, **kwargs)

        with mock.patch.object(solver1d, "_march_blocks", spy):
            got = solve_left(spec, store_history=True).history
        assert replays == [(0, 1024)]
        peak = np.max(np.abs(ref), axis=1)
        assert solver1d._BLOCK_LIMIT < peak.max() < solver1d._BLOWUP_LIMIT
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * peak)

    def test_growing_step_keeps_to_the_stepwise_history(self):
        # at lam*h = 3 G grows round-off by orders of magnitude over a group,
        # so a group's parts dwarf its states: the growth bound sends the
        # chunks back to the stages (one product a step on G drifted by
        # 2.4e-6 here)
        alpha, lam_h, M = 1.5263556156623375, 3.0125267724554714, 53
        spec = case_ex5_1(alpha, lam_h * M, j=5).build_spec(1.0 / M)(300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with block_steps(1):
                ref = solve_left(spec, store_history=True).history
            with block_steps(64):
                got = solve_left(spec, store_history=True).history
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-12 * scale)

    def test_fill_runs_on_one_blas_thread(self):
        # a solve builds its stages (the LU factor of the 199-unknown stage
        # matrix), forms G and marches with every OpenBLAS pool capped at
        # one thread, restored afterwards: a history run in groups of 32
        # one-step blocks and a separable run in blocks of 32 steps, whose
        # march forms G's powers and the forcing stack inside the cap too
        seen = []

        def spy(fn):
            def counted(*args, **kwargs):
                seen.append((fn.__name__, [get() for get, _ in _blas._pools()]))
                return fn(*args, **kwargs)
            return counted

        spec = case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 200)(2000)
        assert solver1d._block_steps(199, 2000, 1) == 32
        before = [get() for get, _ in _blas._pools()]
        with mock.patch.object(solver1d, "lu_factor", spy(solver1d.lu_factor)), \
                mock.patch.object(solver1d, "_fill_groups", spy(solver1d._fill_groups)), \
                mock.patch.object(solver1d, "_march_blocks", spy(solver1d._march_blocks)):
            solve_left(spec, store_history=True)
            solve_left(spec)
        names = [name for name, _ in seen]
        assert names.count("lu_factor") == 2 and names.count("_march_blocks") == 2
        assert names.count("_fill_groups") >= 4
        assert [counts for _, counts in seen] == [[1] * len(before)] * len(seen)
        assert [get() for get, _ in _blas._pools()] == before

    def test_history_run_takes_one_product_with_G_per_group(self):
        # a 2000-step history run at 199 unknowns: the group ends chain
        # through G^32, so about N / 32 dependent matrix-vector products,
        # against N one step at a time
        spec = case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 200)(2000)
        march = solver1d._march_blocks

        def counting(K=None):
            # the run's own groups, or groups of K
            def march_counting(U, *, factors, **kwargs):
                (G,) = factors
                return march(U, **{**kwargs, "factors": (G.view(CountingMatrix),),
                                   "K": K or kwargs["K"]})
            return march_counting

        MATVECS.clear()
        with mock.patch.object(solver1d, "_march_blocks", counting()):
            got = solve_left(spec, store_history=True).history
        assert solver1d._block_steps(199, 2000, 1) == 32
        assert 2000 / 32 <= len(MATVECS) <= 2000 / 16
        MATVECS.clear()
        with mock.patch.object(solver1d, "_march_blocks", counting(1)):
            want = solve_left(spec, store_history=True).history
        assert len(MATVECS) == 2000
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * np.max(np.abs(want), axis=1))

    def test_plain_source_run_holds_one_chunk_beyond_its_matrices(self):
        # without a history, a chunk's scratch rows take K groups of K rows,
        # K^2 m floats, and the source's fields are stacked one group at a
        # time, 2 K (m + 2) floats as returned and stacked.  Besides that the
        # run holds the stage's LU factor, G, its five squarings up to G^32
        # and the forcing map, and forming the map holds three more
        # m x (m + 2) arrays for a moment.  The allowance: eight floats a
        # step for the samples and bounds of the run and its groups, and the
        # forcing stack, here the two trace terms' D alone (2 m floats).
        m, N = 199, 4000
        spec = plain_source(case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 200)(N))
        K = solver1d._block_steps(m, N, 1)
        assert K == 32
        solve_left(spec)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            solve_left(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = (1 + 1 + 5) * m * m + 4 * m * (m + 2)
        assert peak <= 8 * (matrices + K * K * m + 2 * K * (m + 2) + 8 * N + 2 * m)


def with_source(spec, source):
    """``spec`` with ``source``, a callable that records each time it is called with."""
    calls = []

    def recorded(x, t):
        calls.append(t)
        return source(x, t)

    return ProblemSpec1D(**{**spec.__dict__, "source": recorded}), calls


class TestGroupSampling:
    """A plain source on the grouped path: one call a group with the group's
    times as a column against the nodes where it broadcasts, checked at the
    group's first and last time, else one call a step."""

    @settings(max_examples=10, deadline=None)
    @given(
        side=st.sampled_from(["left", "right"]),
        kind=st.sampled_from(["sine", "where"]),
        store_history=st.booleans(),
        c=st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3),
        k=st.integers(1, 6),
        M=st.integers(150, 230),
        N=st.integers(128, 3000),
    )
    @example(side="left", kind="where", store_history=True, c=1.0, k=3, M=200, N=2999)
    def test_broadcasting_source_equals_a_scalar_only_twin_stepwise(self, side, kind, store_history,
                                                                    c, k, M, N):
        # each group's fields come from one array call; a twin that accepts
        # scalar times only, stepped one step at a time, is the reference.
        # Two-sided runs are left out as in TestGroupedFill
        q = group_steps(N)
        assume(N % q)
        spec = manufactured_spec(side, 1.5, M, N)
        switch = 0.4 * spec.time.T
        if kind == "sine":
            source = lambda x, t: c * np.sin(k * np.pi * x) * np.exp(-t)
            twin = lambda x, t: c * np.sin(k * np.pi * x) * math.exp(-t)
        else:
            source = lambda x, t: np.where(t < switch, c * np.sin(k * np.pi * x), -c * x * (1 - x))
            twin = lambda x, t: c * np.sin(k * np.pi * x) if t < switch else -c * x * (1 - x)
        got_spec, calls = with_source(spec, source)
        with block_steps(q):
            got = SOLVERS[side](got_spec, store_history=store_history)
        twin_spec, twin_calls = with_source(spec, twin)
        with block_steps(1):
            want = SOLVERS[side](twin_spec, store_history=store_history)
        assert len(twin_calls) == N
        # a group of one step makes one scalar call
        assert sum(np.ndim(t) > 0 for t in calls) == N // q + (N % q > 1)
        assert len(calls) <= 3 * math.ceil(N / q) + 3
        if store_history:
            scale = np.max(np.abs(want.history), axis=1)
            assert np.all(np.max(np.abs(got.history - want.history), axis=1) <= 1e-12 * scale)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))

    @pytest.mark.parametrize("source", [
        lambda x, t: np.sin(np.pi * x) * (1.0 if t < 0.05 else 0.5),  # branches on t
        lambda x, t: np.sin(np.pi * x) * math.exp(-t),  # TypeError on an array
        lambda x, t: np.sin(np.pi * x) * np.max(t),  # fails the check at the first time
    ], ids=["branch", "math.exp", "max"])
    @pytest.mark.parametrize("store_history", [False, True])
    def test_rejected_array_call_falls_back_to_one_call_a_step(self, source, store_history):
        spec = manufactured_spec("left", 1.5, 10, 150)
        tau = spec.time.tau
        got_spec, calls = with_source(spec, source)
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            got = solve_left(got_spec, store_history=store_history)
        assert blocks.call_count == 1
        scalars = {t for t in calls if not np.ndim(t)}
        assert scalars >= {(n + 1.0) * tau for n in range(150)}
        with block_steps(1):
            want = solve_left(ProblemSpec1D(**{**spec.__dict__, "source": source}),
                              store_history=store_history)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))
        if store_history:
            assert np.max(np.abs(got.history - want.history)) <= 1e-12 * np.max(np.abs(want.history))

    @pytest.mark.parametrize("store_history", [False, True])
    def test_misshaped_source_raises_naming_it(self, store_history):
        # a column of values a step, though the array call would pass: the
        # checks at the group's ends take the shape of each step's field
        source = lambda x, t: np.sin(np.pi * x) * np.exp(-t) if np.ndim(t) else np.ones((np.size(x), 1))
        spec = ProblemSpec1D(**{**manufactured_spec("left", 1.5, 10, 150).__dict__,
                                "source": source})
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks, \
                pytest.raises(ValueError, match="the source has shape"):
            solve_left(spec, store_history=store_history)
        assert blocks.call_count == 1

    def spike(self, spec, size, step):
        tau = spec.time.tau
        source = lambda x, t: np.where(np.abs(t - step * tau) < 0.5 * tau, size, 0.0) * np.ones_like(x)
        return with_source(spec, source)

    @pytest.mark.parametrize("variant", ["plain history", "spike at 20", "spike at 45"])
    def test_broadcasting_source_blows_up_at_its_step(self, variant):
        # the array calls are taken, and a chunk that blows up is replayed
        # one step at a time, which raises at the exact step
        if variant == "plain history":
            spec = case_ex5_1(1.9, 50.0, j=5).build_spec(0.1)(100)
            spec, calls = with_source(spec, spec.source)
            step = 69
        elif variant == "spike at 20":  # at K = 64, one group of all 50 steps
            spec, calls = self.spike(manufactured_spec("left", 1.5, 10, 50), 1e40, 20)
            step = 20
        else:  # inside the second group of 32 steps (33 to 64)
            spec = case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 200)(2000)
            spec, calls = self.spike(spec, 1e40, 45)
            step = 45
        sizing = block_steps(64) if variant == "spike at 20" else contextlib.nullcontext()
        with sizing, warnings.catch_warnings(), \
                mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            warnings.simplefilter("ignore")
            with pytest.raises(BlowupError) as err:
                solve_left(spec, store_history=True)
        assert blocks.call_count == 1
        assert any(np.ndim(t) for t in calls)
        assert err.value.step == step


def field_spec(side, initial, source):
    return ProblemSpec1D(
        grid=Grid1D(0.0, 1.0, 12), time=TimeGrid(0.1, 150),
        params=TemperedParams(1.6, 2.0), side=side, initial=initial,
        boundary_left=ZERO, boundary_right=ZERO, source=source,
    )


class TestUserFields:
    """Initial data, plain source values and source profiles may be scalars."""

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("store_history", [False, True])
    def test_constants_equal_their_full_fields(self, side, separable, store_history):
        def solve(form):
            source = SeparableSource(form(2.0), math.cos) if separable else form(1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # u(x, 0) = 0.5 misses the zero traces
                return SOLVERS[side](field_spec(side, form(0.5), source), store_history)

        got = solve(lambda c: lambda *_: c)
        want = solve(lambda c: lambda x, *_: np.full(np.shape(x), c))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.history, want.history)

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    @pytest.mark.parametrize("field,name", [
        ("initial", "the initial data"), ("source", "the source has"),
        ("profile", "the source profile"),
    ])
    def test_a_field_of_the_wrong_length_raises(self, side, field, name):
        short = lambda x, *_: np.ones(np.size(x) - 1)
        initial, source = ZERO, ZERO
        if field == "initial":
            initial = short
        else:
            source = short if field == "source" else SeparableSource(short, math.cos)
        with pytest.raises(ValueError, match=name):
            SOLVERS[side](field_spec(side, initial, source))


class TestForcingSamples:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("K", [1, 64])
    def test_far_trace_is_sampled_in_one_array_call(self, side, K):
        # an array-capable far trace is called once with all N + 1 time
        # levels; a scalar-only one still sees one call per level
        lam, N = 1.0, 150
        case = case_ex5_1(1.5, lam, j=5) if side == "left" else case_ex5_2(1.5, lam, j=5)
        spec = case.build_spec(0.1)(N)
        far = "boundary_right" if side == "left" else "boundary_left"
        offset = -lam if side == "left" else 0.0
        levels = [n * spec.time.tau for n in range(N + 1)]

        def run(trace):
            calls = []

            def counted(t):
                calls.append(t)
                return trace(t)

            with block_steps(K):
                sol = SOLVERS[side](ProblemSpec1D(**{**spec.__dict__, far: counted}))
            return sol.values, calls

        array_values, calls = run(lambda t: np.exp(offset - t))
        # the corner check at t = 0, the levels at once, the spot checks at
        # the first and last level, then the boundary value of the returned
        # solution at T
        assert len(calls) == 5
        assert np.array_equal(calls[1], levels)
        assert [calls[0], *calls[2:]] == [0.0, levels[0], levels[-1], spec.time.T]
        scalar_values, calls = run(lambda t: math.exp(offset - t))
        assert len(calls) == N + 4 and np.array_equal(calls[1], levels)  # the array call raised
        per_level = calls[2:-1]
        assert len(per_level) == len(set(per_level)) == N + 1 and per_level == levels
        np.testing.assert_allclose(array_values, scalar_values, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        shifts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=4),
        tau=st.floats(1e-5, 0.5),
        N=st.integers(2, 300),
    )
    def test_array_path_equals_the_per_level_path(self, shifts, tau, N):
        array_calls = []

        def fn(t):
            if np.ndim(t):
                array_calls.append(t)
            return np.exp(-t) * (2.0 + np.cos(3.0 * t))

        def scalar_only(t):
            if np.ndim(t):
                raise TypeError("scalar times only")
            return fn(t)

        got = solver1d._sample([solver1d._Term(fn, s, ()) for s in shifts], N, tau)
        want = solver1d._sample([solver1d._Term(scalar_only, s, ()) for s in shifts], N, tau)
        # one array call per run of shifts a whole number of steps apart
        assert len(array_calls) == len({math.modf(s)[0] for s in shifts})
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_shared_callable_gives_the_same_samples(self):
        tau, N = 0.01, 40
        fn = math.cos
        shared = (solver1d._Term(fn, 0.0, ()), solver1d._Term(fn, 1.0, ()),
                  solver1d._Term(fn, 0.5, ()))
        apart = (solver1d._Term(fn, 0.0, ()), solver1d._Term(lambda t: fn(t), 1.0, ()),
                 solver1d._Term(lambda t: fn(t), 0.5, ()))
        samples = solver1d._sample(shared, N, tau)
        assert np.array_equal(samples, solver1d._sample(apart, N, tau))
        assert np.array_equal(samples[:, 1], [fn((n + 1.0) * tau) for n in range(N)])

    @staticmethod
    def _sampled(fn, N=20, tau=0.05, shift=0.5):
        """One term's samples, every call of fn, and the times of its levels."""
        calls = []

        def counted(t):
            calls.append(t)
            return fn(t)

        samples = solver1d._sample((solver1d._Term(counted, shift, ()),), N, tau)[:, 0]
        return samples, calls, [(n + shift) * tau for n in range(N)]

    @pytest.mark.parametrize("fn", [
        math.exp,  # TypeError on an array
        lambda t: 1.0 if t < 0.5 else math.cos(t),  # ValueError from the truth test
        lambda t: np.exp(-t) if np.ndim(t) == 0 else np.exp(-t)[:, None],  # wrong shape
        # a spot check fails at the first, or only at the last, time
        lambda t: np.exp(-t) if np.ndim(t) == 0 else np.where(t > t[0], np.exp(-t), 0.0),
        lambda t: np.exp(-t) if np.ndim(t) == 0 else np.exp(-t) * (1.0 + 1e-9 * (t == t[-1])),
        # non-finite between the spot checks only
        lambda t: np.exp(-t) if np.ndim(t) == 0 else np.where(abs(t - 0.5) < 0.1, np.nan, np.exp(-t)),
    ], ids=["TypeError", "ValueError", "shape", "mismatch-first", "mismatch-last", "non-finite"])
    def test_rejected_array_call_falls_back_to_one_call_per_level(self, fn):
        samples, calls, levels = self._sampled(fn)
        assert np.ndim(calls[0]) == 1
        assert calls[-len(levels):] == levels
        assert np.array_equal(samples, [fn(t) for t in levels])

    def test_constant_scalar_result_is_broadcast(self):
        samples, calls, levels = self._sampled(lambda t: 2.5)
        assert len(calls) == 3 and np.array_equal(calls[0], levels)
        assert np.array_equal(samples, np.full(len(levels), 2.5))

    def test_single_time_gets_one_scalar_call(self):
        samples, calls, levels = self._sampled(math.exp, N=1)
        assert calls == levels and np.array_equal(samples, [math.exp(levels[0])])

    def test_history_boundary_columns_are_sampled_in_one_call(self):
        spec = case_ex5_2(1.5, 1.0, j=5).build_spec(0.1)(200)
        calls = []

        def left(t):
            calls.append(t)
            return spec.boundary_left(t)

        hist = solve_right(ProblemSpec1D(**{**spec.__dict__, "boundary_left": left}),
                           store_history=True).history
        times = np.arange(201) * spec.time.tau
        # the far trace's forcing and its history column: one array call each
        assert sum(np.ndim(t) == 1 for t in calls) == 2
        np.testing.assert_allclose(hist[:, 0], [math.exp(-t) for t in times], rtol=1e-15)
        assert np.array_equal(hist[:, -1], np.zeros(201))


class TestTwoSidedStep:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1.05, 1.95),
        lam_h=st.floats(0.0, 1.0),
        M=st.integers(5, 80),
        tau=st.floats(1e-4, 1e-2),
        seed=st.integers(0, 2**16),
    )
    def test_banded_step_equals_dense_lu_step(self, alpha, lam_h, M, tau, seed):
        # one step of the solver against the scheme written out with dense
        # LU factorizations of B_l and of B_r - tau P_r
        g = Grid1D(0.0, 1.0, M)
        lam = lam_h / g.h
        params = TemperedParams(alpha, lam)
        u, p = np.random.default_rng(seed).standard_normal((2, 4))
        spec = ProblemSpec1D(
            grid=g, time=TimeGrid(tau, 1), params=params, side="two_sided",
            initial=lambda x: x * (1.0 - x) * np.polyval(u, x),
            boundary_left=ZERO, boundary_right=ZERO,
            source=lambda x, t: math.exp(-t) * np.polyval(p, x),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = solve_two_sided(spec).values[1:-1]
            Pl = assemble_P("left", params, g, tau, include_tau=False)
        Bl = assemble_B("left", g, lam).to_dense()
        Br = Bl.T
        F = spec.source(g.nodes(), 0.5 * tau)
        U0 = spec.initial(g.interior())
        star = lu_solve(lu_factor(Bl), (Bl + tau * Pl) @ U0
                        + 0.5 * tau * apply_compact("left", lam, g.h, F))
        want = lu_solve(lu_factor(Br - tau * Pl.T), Br @ star
                        + 0.5 * tau * apply_compact("right", lam, g.h, F))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def stage_matrices(alpha, lam_h, M, tau):
    """Columns and rows of the 1D stage matrices with their maps: B - P and
    B_r - tau P_l^T are solved, B_l + tau P_l is applied."""
    grid = Grid1D(0.0, 1.0, M)
    params = TemperedParams(alpha, lam_h / grid.h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        P_col, P_row = P_column_row(params, grid, tau, include_tau=False)
    B_col, B_row = assemble_B("left", grid, params.lam).column_row()
    return [
        (B_col - tau * P_col, B_row - tau * P_row, True),
        (B_col + tau * P_col, B_row + tau * P_row, False),
        (B_row - tau * P_row, B_col - tau * P_col, True),
    ]


def unit_columns(m):
    E = np.zeros((m, 2))
    E[0, 0] = E[-1, 1] = 1.0
    return E


def refined_generators(col, row):
    """T^{-1} e_1 and T^{-1} e_m by a dense solve refined in long double."""
    T = toeplitz(col, row)
    E = unit_columns(len(col))
    lu = lu_factor(T)
    X = lu_solve(lu, E).astype(np.longdouble)
    for _ in range(3):
        X += lu_solve(lu, (E - T.astype(np.longdouble) @ X).astype(float))
    return X


def generator_error(X, ref):
    """Largest error of each generator relative to its largest entry."""
    return (np.abs(X - ref).max(axis=0) / np.abs(ref).max(axis=0)).astype(float)


def fft_length(m):
    return solver1d.next_fast_len(2 * m - 1, real=True)


def recording(fn, results):
    """fn, appending each result to ``results``."""
    def recorded(*args):
        results.append(fn(*args))
        return results[-1]
    return recorded


@contextlib.contextmanager
def toeplitz_from(dim):
    """Take the Toeplitz stage path from ``dim`` unknowns on."""
    with mock.patch.object(solver1d, "_TOEPLITZ_DIM", dim):
        yield


class TestToeplitzStages:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0),
        tau=st.floats(1e-6, 1e3),
        M=st.integers(4, 900),
        k=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_fft_apply_and_solve_match_dense(self, alpha, lam_h, tau, M, k, seed):
        shape = (M - 1,) if k is None else (M - 1, k)
        b = np.random.default_rng(seed).standard_normal(shape)
        for col, row, inverse in stage_matrices(alpha, lam_h, M, tau):
            T = toeplitz(col, row)
            with toeplitz_from(2), mock.patch.object(solver1d, "lu_factor",
                                                     side_effect=AssertionError):
                got = solver1d._toeplitz_map(col, row, lam_h)(b)
            assert got.shape == shape
            # an FFT product is accurate relative to ||T|| ||b||
            scale = np.abs(T).sum(axis=1).max() * np.abs(b).max()
            assert np.max(np.abs(got - T @ b)) <= 1e-13 * scale
            if not inverse:
                continue
            with toeplitz_from(2), mock.patch.object(solver1d, "lu_factor",
                                                     side_effect=AssertionError):
                got = solver1d._toeplitz_map(col, row, lam_h, inverse=True)(b)
            want = lu_solve(lu_factor(T), b)
            assert got.shape == shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_size_and_regime_choose_the_path(self):
        m = solver1d._TOEPLITZ_DIM
        col, row, _ = stage_matrices(1.5, 1.0, m + 1, 0.1)[0]
        with mock.patch.object(solver1d, "lu_factor", wraps=lu_factor) as lu:
            solver1d._toeplitz_map(col, row, 1.0, inverse=True)
            assert lu.call_count == 0
            solver1d._toeplitz_map(col, row, 1.5, inverse=True)
            assert lu.call_count == 1
            col, row, _ = stage_matrices(1.5, 1.0, m, 0.1)[0]
            solver1d._toeplitz_map(col, row, 1.0, inverse=True)
            assert lu.call_count == 2

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.sampled_from(sorted(SOLVERS)),
        alpha=st.floats(1.05, 1.95),
        M=st.integers(5, 24),
        N=st.integers(1, 200),
        K=st.integers(2, 80),
    )
    def test_blocks_equal_single_steps_on_the_toeplitz_path(self, side, alpha, M, N, K):
        spec = manufactured_spec(side, alpha, M, N)
        with toeplitz_from(2), mock.patch.object(solver1d, "lu_factor", side_effect=AssertionError):
            with block_steps(1):
                ref = SOLVERS[side](spec).values
            with block_steps(K):
                got = SOLVERS[side](spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_unstable_rate_on_a_large_grid_takes_the_lu_path(self):
        M = solver1d._TOEPLITZ_DIM + 1
        spec = case_ex5_1(1.5, 1.5 * M, j=5).build_spec(1.0 / M)(2)
        with mock.patch.object(solver1d, "solve_toeplitz", side_effect=AssertionError), \
                mock.patch.object(solver1d, "lu_factor", wraps=lu_factor) as lu, \
                pytest.warns(RuntimeWarning, match="lam\\*h = 1.5 > 1"):
            solve_left(spec)
        assert lu.call_count == 1

    @pytest.mark.parametrize("case,side", [
        (case_ex5_1(1.5, 1.0, j=5), "left"),
        (case_ex5_2(1.5, 1.0, j=5), "right"),
        (case_ex5_4(1.5, 0.1), "two_sided"),
    ])
    def test_large_grid_matches_the_lu_path(self, case, side):
        spec = case.build_spec(1.0 / 1600)(16)
        with mock.patch.object(solver1d, "lu_factor", side_effect=AssertionError):
            got = SOLVERS[side](spec).values
        with toeplitz_from(10**9):
            want = SOLVERS[side](spec).values
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0),
        tau=st.floats(1e-6, 1e3),
        M=st.integers(4, 1000),
    )
    def test_accepted_generators_are_never_less_accurate_than_levinson(self, alpha, lam_h, tau, M):
        for col, row, inverse in stage_matrices(alpha, lam_h, M, tau):
            if not inverse:
                continue
            m = len(col)
            X = solver1d._krylov_generators(col, row, fft_length(m), unit_columns(m))
            if X is None:
                continue
            ref = refined_generators(col, row)
            levinson = solve_toeplitz((col, row), unit_columns(m))
            # within the rounding of the reference where Levinson is exact too
            assert (generator_error(X, ref)
                    <= np.maximum(generator_error(levinson, ref), np.finfo(float).eps)).all()

    @pytest.mark.parametrize("m", [600, 601])
    def test_preconditioner_is_strangs_circulant(self, m):
        # T circulant is its own Strang circulant: one iteration per GMRES
        # call solves it exactly, so a mis-indexed column falls back
        s = np.zeros(m)
        s[[0, 1, 2, -2, -1]] = 6.0, -1.0, 0.5, 0.25, -2.0
        col, row = s, np.r_[s[0], s[:0:-1]]
        with mock.patch.object(solver1d, "_GMRES_CAP", 1), \
                mock.patch.object(solver1d, "solve_toeplitz", side_effect=AssertionError):
            x, y = solver1d._generators(col, row, fft_length(m))
        ref = refined_generators(col, row)
        assert generator_error(np.column_stack((x, y)), ref).max() <= 2 * np.finfo(float).eps

    def test_wide_grids_never_call_levinson(self):
        for M in (1600, 3200):
            for case, side in ((case_ex5_1(1.5, 1.0, j=5), "left"),
                               (case_ex5_2(1.5, 1.0, j=5), "right"),
                               (case_ex5_4(1.5, 0.1), "two_sided")):
                with mock.patch.object(solver1d, "solve_toeplitz", side_effect=AssertionError):
                    SOLVERS[side](case.build_spec(1.0 / M)(16))

    @pytest.mark.parametrize("case,side", [
        (case_ex5_1(1.5, 1.0, j=5), "left"),
        (case_ex5_2(1.5, 1.0, j=5), "right"),
        (case_ex5_4(1.5, 0.1), "two_sided"),
    ])
    def test_certified_pair_takes_two_gmres_calls_and_two_long_double_products(self, case, side):
        # the residual after the one refinement certifies the pair: no third
        # solve, and no residual formed twice
        circulant_product, extended = solver1d._circulant_product, []

        def product(col, row, n, dtype=float):
            apply = circulant_product(col, row, n, dtype)
            return recording(apply, extended) if dtype is solver1d._EXTENDED else apply

        with mock.patch.object(solver1d, "solve_toeplitz", side_effect=AssertionError), \
                mock.patch.object(solver1d, "_gmres", wraps=solver1d._gmres) as gmres, \
                mock.patch.object(solver1d, "_circulant_product", product):
            SOLVERS[side](case.build_spec(1.0 / 1600)(16))
        assert gmres.call_count == 2
        assert len(extended) == 2

    def test_a_passing_unrefined_solve_is_still_refined_once(self):
        # here the unrefined GMRES solve already meets the bound
        col, row, _ = stage_matrices(1.5, 100.0 / 6400, 6400, 1e-5)[0]
        m, n = len(col), fft_length(len(col))
        E = unit_columns(m)
        solves = []
        with mock.patch.object(solver1d, "_gmres", recording(solver1d._gmres, solves)):
            X = solver1d._krylov_generators(col, row, n, E)
        extended = solver1d._circulant_product(col, row, n, solver1d._EXTENDED)
        assert np.abs(E - extended(solves[0])).max() <= solver1d._GENERATOR_RESIDUAL
        assert len(solves) == 2
        assert np.array_equal(X, solves[0] + solves[1])

    def test_generators_are_far_more_accurate_than_levinson_on_a_wide_grid(self):
        # a residual taken in double precision leaves them less accurate
        col, row, _ = stage_matrices(1.5, 1.0 / 1600, 1600, 1.0 / 16)[0]
        ref = refined_generators(col, row)
        x, y = solver1d._generators(col, row, fft_length(len(col)))
        error = generator_error(np.column_stack((x, y)), ref)
        levinson = generator_error(solve_toeplitz((col, row), unit_columns(len(col))), ref)
        assert error.max() <= 4 * np.finfo(float).eps
        assert (error * 10 <= levinson).all()

    @pytest.mark.parametrize("name,value", [
        pytest.param("_GMRES_TOL", 0.0, id="gmres-stall"),  # every call runs to the cap
        pytest.param("_REFINEMENTS", 0, id="unrefined"),  # the residual misses the bound
        pytest.param("_EXTENDED", np.float64, id="no-long-double"),
        pytest.param(None, None, id="singular-preconditioner"),
    ])
    def test_fallbacks_return_levinsons_generators(self, name, value):
        m = 999
        if name is None:  # Strang's circulant of tridiag(-1/2, 1, -1/2) is singular
            col = row = np.r_[1.0, -0.5, np.zeros(m - 2)]
        else:
            col, row, _ = stage_matrices(1.99, 0.0, m + 1, 1e3)[0]
        patches = contextlib.ExitStack()
        if name is not None:
            patches.enter_context(mock.patch.object(solver1d, name, value))
        with patches, mock.patch.object(solver1d, "solve_toeplitz", wraps=solve_toeplitz) as levinson:
            x, y = solver1d._generators(col, row, fft_length(m))
        assert levinson.call_count == 1
        want = solve_toeplitz((col, row), unit_columns(m), check_finite=False)
        assert np.array_equal(np.column_stack((x, y)), want)

    def test_import_leaves_scipy_sparse_unloaded(self):
        src = str(pathlib.Path(solver1d.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = "import sys, tempfrac; print('scipy.sparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.split() == ["False"]


class TestThetaStage:
    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.sampled_from([0.0, 0.5, 1.0]),
        side=st.sampled_from(["left", "right"]),
        alpha=st.floats(1.01, 1.99),
        lam_h=st.floats(0.0, 1.0) | st.floats(1.0, 1.3),
        M=st.integers(5, 80) | st.integers(590, 700),
        tau=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_stage_matches_dense_lu(self, theta, side, alpha, lam_h, M, tau, seed):
        # (B - a P)^{-1} (B + b P) V with a = theta tau, b = (1 - theta) tau,
        # on both sides of the Toeplitz threshold; beyond lam*h = 1 only
        # below it, where the stage is LU-factored either way.  Past
        # lam*h = 1.3 the condition number of B itself grows like
        # e^(c m) (1.2e7 at lam*h = 1.5 and m = 79), so that no two solvers
        # of a theta = 0 stage need agree
        assume(lam_h <= 1.0 or M - 1 < solver1d._TOEPLITZ_DIM)
        grid = Grid1D(0.0, 1.0, M)
        lam = lam_h / grid.h
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            P = P_column_row(TemperedParams(alpha, lam), grid, tau, include_tau=False)
        with mock.patch.object(solver1d, "lu_factor", wraps=lu_factor) as lu:
            solve, apply = solver1d._stage(side, grid, lam, P, tau, theta)
        B = assemble_B(side, grid, lam)
        Pd = toeplitz(*P) if side == "left" else toeplitz(*P).T
        a, b = theta * tau, (1.0 - theta) * tau
        V = np.random.default_rng(seed).standard_normal((M - 1, 2))
        want = lu_solve(lu_factor(B.to_dense() - a * Pd), (B.to_dense() + b * Pd) @ V)
        got = solve(apply(V))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if theta == 0.0:  # B solved banded
            assert lu.call_count == 0 and solve.__func__ is CompactMatrixB.solve
        if theta == 1.0:  # B applied banded
            assert apply.__func__ is CompactMatrixB.matvec

    @pytest.mark.parametrize("side", sorted(SOLVERS))
    def test_one_lam_h_warning_a_run(self, side):
        # lam*h = 1.5: one warning, however many stages share the operator
        case = {"left": lambda: case_ex5_1(1.5, 15.0, j=5),
                "right": lambda: case_ex5_2(1.5, 15.0, j=5),
                "two_sided": lambda: case_ex5_4(1.5, 15.0)}[side]()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SOLVERS[side](case.build_spec(0.1)(2))
        assert [str(w.message)[:14] for w in caught] == ["lam*h = 1.5 > "]
        assert caught[0].category is RuntimeWarning
