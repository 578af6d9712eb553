"""ADI stepper: fixed point, reference values, symmetry, sweep plumbing,
and the block marcher against the stepwise sweeps."""

import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from tempfrac import _blas, solver1d, solver2d, verification
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
    with mock.patch.object(solver1d, "_block_steps", lambda *args, **kwargs: K):
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
        assert solver1d._block_steps(M - 1, N, M - 1, 2) > 1
        with block_steps(1):
            ref = solve_adi(spec).values
        got = solve_adi(spec).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_wide_square_run_marches_in_one_block_of_64(self):
        # 259 unknowns a direction and 64 steps on ex5_3's profile of spatial
        # rank 2: K <= N and 2 K < m + r give one block of 64, its forcing
        # one product of its samples with the stacks
        spec = case_ex5_3(1.5, 1.5, 1.0, 1.0).build_spec(1.0 / 260)(64)
        assert solver1d._block_steps(259, 64, 259, 2) == 64
        with block_steps(1):
            ref = solve_adi(spec).values
        with products_counted() as products, \
                mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            got = solve_adi(spec).values
        assert blocks.call_args.kwargs["K"] == 64
        At, Bt = blocks.call_args.kwargs["heads"]
        assert len(At) == len(Bt) == 2  # S = 2, the forcing's spatial rank
        assert products.call_count == 1
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N,svds", [(8, 0), (253, 1)])
    def test_no_svd_is_taken_below_the_break_even_gate(self, N, svds):
        # ex5_3 at M = 40 pays for blocks from N = 12 on: below, the run
        # steps without factoring its forcing.  At N = 253 one SVD, of the
        # sketch's 8 x 39 matrix, factors the forcing; no rank of the
        # samples is taken
        spec = case_ex5_3(1.2, 1.5, 0.1, 0.1).build_spec(1.0 / 40)(N)
        assert (solver1d._block_steps(39, N, 39, 0) > 1) == (N >= 12)
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            solve_adi(spec)
        assert svd.call_count == svds

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
        assert solver1d._block_steps(9, 1000, 9, 2) > 1
        with block_steps(K), pytest.warns(RuntimeWarning, match="lam\\*h"):
            with pytest.raises(BlowupError) as err:
                solve_adi(spec)
        assert err.value.step == 34


def temporal_factor(kind, omega, seed, time):
    """A temporal factor whose samples over the blocks have rank 1
    (e^{-t}), 2 (cos w t) or full (``rough``: a seeded table of one random
    value a step time, read through np.interp)."""
    if kind == "exp":
        return lambda t: np.exp(-t)
    if kind == "cos":
        return lambda t: np.cos(omega * t)
    times = (np.arange(time.N) + 0.5) * time.tau  # the times of the ADI source
    table = np.random.default_rng(seed).standard_normal(time.N)
    return lambda t: np.interp(t, times, table)


FACTORS = ["cos", "exp", "rough"]


def block_length(m, r, N, S):
    """The block length of a run of N steps on an (m, r) state forced at
    spatial rank S, past the break-even gate: the largest power of two up
    to 64 with K <= N and K S < m + r."""
    return max(k for k in (1, 2, 4, 8, 16, 32, 64) if k == 1 or k <= N and k * S < m + r)


@contextlib.contextmanager
def replays_recorded(replays, spatial=None):
    """Patch _march_blocks to record the (start, stop) of each chunk it
    replays stepwise, and the block length it runs with; and in
    ``spatial``, when given, the spatial rank S of the run's forcing and
    the block length K that _spatial_factors gives (S None where it takes
    no heads)."""
    march, factors = solver1d._march_blocks, solver1d._spatial_factors

    def spy(U, *, K, stepwise, **kwargs):
        def recorded(U, start, stop):
            replays.append((start, stop))
            return stepwise(U, start, stop)
        replays.append(K)
        return march(U, K=K, stepwise=recorded, **kwargs)

    def found(D, N):
        heads, K = factors(D, N)
        spatial.append((None if heads is None else len(heads[0]), K))
        return heads, K

    with mock.patch.object(solver1d, "_march_blocks", spy):
        if spatial is None:
            yield
        else:
            with mock.patch.object(solver1d, "_spatial_factors", found):
                yield


def products_counted():
    """Patch _stack_forcing to count the block forcings formed by a
    product with the stacks."""
    return mock.patch.object(solver1d, "_stack_forcing", wraps=solver1d._stack_forcing)


def with_factor(spec, factor):
    """``spec`` with its separable source's temporal factor replaced."""
    return ProblemSpec2D(**{**spec.__dict__,
                            "source": SeparableSource(spec.source.profile, factor)})


class TestSampleRank:
    """2D blocks take their forcing from their own samples, whatever their
    rank, one state in flight; a block whose samples are a multiple of an
    earlier block's takes that block's forcing times the multiple."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(FACTORS), omega=st.floats(1.0, 30.0),
           alpha=ORDERS, beta=ORDERS, lam_hx=LAM_H, lam_hy=LAM_H, Mx=st.integers(4, 12),
           My=st.integers(4, 12), N=st.integers(40, 1500), seed=st.integers(0, 2**16))
    def test_blocks_equal_single_steps_at_every_sample_rank(self, kind, omega, alpha, beta,
                                                            lam_hx, lam_hy, Mx, My, N, seed):
        # K is the largest power of two up to 64 with K <= N and K S < m + r,
        # S the profile's spatial rank, whatever the factor; a leftover block
        # of N mod K steps may follow
        spec = random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, *polynomials(seed))
        spec = with_factor(spec, temporal_factor(kind, omega, seed, spec.time))
        with block_steps(1):
            ref = solve_adi(spec).values
        replays, spatial = [], []
        with replays_recorded(replays, spatial):
            got = solve_adi(spec).values
        [(S, K)] = spatial
        assume(K > 1)
        assert K == block_length(Mx - 1, My - 1, N, S)
        assert replays == [K]  # no chunk replayed
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,products", [("exp", 2), ("rough", 32)])
    def test_a_block_takes_a_product_only_for_new_samples(self, kind, products):
        # ex5_3 at M = 40, N = 1000: 31 blocks of K = 32 and a leftover of 8.
        # The samples of e^{-t} over a block are those of the first block of
        # its length times a constant: one product for each length.  A rough
        # factor's are not: one product a block
        spec = case_ex5_3(1.2, 1.5, 0.1, 0.1).build_spec(1.0 / 40)(1000)
        spec = with_factor(spec, temporal_factor(kind, 0.0, 3, spec.time))
        with block_steps(1):
            ref = solve_adi(spec).values
        replays = []
        with replays_recorded(replays), products_counted() as counted:
            got = solve_adi(spec).values
        assert replays == [32]
        assert counted.call_count == products
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,products", [("noise", 2), ("kink", 4), ("sin", 2),
                                               ("growth", 2)])
    def test_reused_forcing_keeps_to_single_steps(self, kind, products):
        # e^{-t} with a multiplicative noise of 1e-13 (blocks that agree to
        # 1e-12 reuse the first block's forcing), e^{-t} with a kink of 1e-9
        # at step 300 (its block and the next take their own products), a
        # sine that is 0 at the first step and changes sign every block
        # (each block minus the one before, its zeros off by round-off only:
        # one product for each block length), and e^{t}, whose later blocks
        # take the first one's forcing times more than 1
        N = 1000
        spec = case_ex5_3(1.2, 1.5, 0.1, 0.1).build_spec(1.0 / 40)(N)
        tau = spec.time.tau
        times = (np.arange(N) + 0.5) * tau
        table = np.exp(-times)
        if kind == "noise":
            table *= 1.0 + 1e-13 * np.random.default_rng(4).uniform(-1.0, 1.0, N)
        elif kind == "kink":
            table[300] *= 1.0 + 1e-9
        elif kind == "sin":
            table = np.sin(np.pi / (32 * tau) * (times - times[0]))
            assert table[0] == 0.0
        else:
            table = np.exp(times)
        spec = with_factor(spec, lambda t: np.interp(t, times, table))
        with block_steps(1):
            ref = solve_adi(spec).values
        replays = []
        with replays_recorded(replays), products_counted() as counted:
            got = solve_adi(spec).values
        assert replays == [32]
        assert counted.call_count == products
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("zeros,products", [("first half", 3), ("second half", 2),
                                                ("every other block", 1)])
    def test_blocks_of_zero_samples_take_no_product(self, zeros, products):
        # e^{-t} set to 0 on steps 0 to 499, on steps 500 on, or on every
        # other block of 32 steps (the leftover of 8 among them): a block of
        # zero samples adds nothing and is no block to reuse; a block of
        # some zero samples takes its own product
        N = 1000
        spec = case_ex5_3(1.2, 1.5, 0.1, 0.1).build_spec(1.0 / 40)(N)
        times = (np.arange(N) + 0.5) * spec.time.tau
        steps = np.arange(N)
        zero = {"first half": steps < 500, "second half": steps >= 500,
                "every other block": steps // 32 % 2 == 1}[zeros]
        table = np.where(zero, 0.0, np.exp(-times))
        spec = with_factor(spec, lambda t: np.interp(t, times, table))
        with block_steps(1):
            ref = solve_adi(spec).values
        replays = []
        with replays_recorded(replays), products_counted() as counted:
            got = solve_adi(spec).values
        assert replays == [32]
        assert counted.call_count == products
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_a_spike_replays_its_chunk_and_later_chunks_are_accepted(self):
        # a sample of 1e28 at step 300 pushes the growth bound past the
        # limit, so its chunk of 16 blocks goes back to the stepwise path;
        # the state decays, and the chunks after it march in blocks again
        N, spike = 1000, 300
        grid, time = Grid1D(0.0, 1.0, 12), TimeGrid(2.0, N)

        def factor(t):
            return np.where(np.round(t / time.tau - 0.5) == spike, 1e28, np.exp(-t))

        spec = ProblemSpec2D(
            grid_x=grid, grid_y=grid, time=time,
            params_x=TemperedParams(1.9, 0.0), params_y=TemperedParams(1.8, 0.0),
            initial=lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y),
            source=SeparableSource(lambda X, Y: X * (1.0 - X) * Y * (1.0 - Y), factor),
        )
        with block_steps(1):
            ref = solve_adi(spec).values
        replays = []
        with replays_recorded(replays), block_steps(16):
            got = solve_adi(spec).values
        # blocks of 16 steps, the run's own K, in chunks of 256
        assert replays == [16, (256, 512)]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [1, None])
    def test_a_non_finite_sample_blows_up_at_its_step(self, K):
        # the factor is inf from the source time of step 151, (150 + 1/2)
        # tau, on: the forcing of the block holding it is not finite, and
        # the chunk holding that block is replayed to that step
        spec = random_spec2d(1.5, 1.5, 0.5, 0.5, 10, 10, 400, *polynomials(5))
        tau = spec.time.tau
        spec = with_factor(spec, lambda t: np.where(t > 150 * tau, np.inf, np.exp(-t)))
        with block_steps(K), pytest.raises(BlowupError) as err:
            solve_adi(spec)
        assert err.value.step == 151

    @pytest.mark.parametrize("profile", ["ex5_3", "rough factor", "full rank"])
    def test_memory_holds_no_term_in_the_block_length(self, profile):
        # ex5_3 at M = 160, N = 100 runs in one block of 64 steps and a
        # leftover block of 36: its profile has spatial rank 2, so its
        # forcing stacks hold 64 entries of two rows of m floats each.  With
        # a rough factor at N = 4096 each of 64 blocks takes its own product
        # with those stacks, and the march keeps one block's forcing at a
        # time.  A seeded random profile of full spatial rank steps.  The
        # bound, set for blocks of 8 by Horner, stays: each direction's LU
        # factor and applied stage matrix, L and R, six squarings, the
        # forcing maps and the node fields X, Y and U0, then eight m x m
        # matrices and eight floats a step.  In place of the squarings the
        # run now holds the powers its blocks take and the squaring being
        # formed; besides, the mapped profile D, the stacks, the forcing of
        # the last block that took a product and of the block in flight,
        # the state a chunk starts from, the state in flight and two
        # temporaries of a block step
        m, N = 159, 4096 if profile == "rough factor" else 100
        spec = case_ex5_3(1.2, 1.5, 1.0, 1.0).build_spec(1.0 / (m + 1))(N)
        if profile == "rough factor":
            spec = with_factor(spec, temporal_factor("rough", 0.0, 1, spec.time))
        if profile == "full rank":
            table = np.random.default_rng(1).standard_normal((m + 2, m + 2))
            source = SeparableSource(lambda X, Y: table, spec.source.temporal)
            spec = ProblemSpec2D(**{**spec.__dict__, "source": source})
        # imports and caches outside the measurement
        with mock.patch.object(solver1d, "_march_blocks", wraps=solver1d._march_blocks) as blocks:
            solve_adi(spec)
        if profile == "full rank":
            assert not blocks.called
        else:
            assert blocks.call_args.kwargs["K"] == 64
            assert [len(H) for H in blocks.call_args.kwargs["heads"]] == [2, 2]
        tracemalloc.start()
        try:
            solve_adi(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = (2 + 2 + 2 + 6) * m * m + 2 * m * (m + 2) + 3 * (m + 2) ** 2
        assert peak <= 8 * (matrices + 8 * m * m + 8 * N)


def spatial_profile(kind, seed):
    """A source profile of spatial rank 1 (e^{-x-y}), 2 (ex5_3's, at the
    spec's orders and rates) or full (``random``: a seeded nodal table)."""
    if kind == "rank 1":
        return lambda spec: lambda X, Y: np.exp(-X - Y)
    if kind == "rank 2":
        return lambda spec: case_ex5_3(spec.params_x.alpha, spec.params_y.alpha,
                                       spec.params_x.lam, spec.params_y.lam).source.profile
    return lambda spec: lambda X, Y: np.random.default_rng(seed).standard_normal(X.shape)


def svd_factors(D, N):
    """The heads of the forcing stacks of D from a full SVD and the block
    length, the rank counted as _spatial_factors counts it: the reference
    for its checked sketch."""
    m, r = D.shape
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    S = np.count_nonzero(s > np.finfo(float).eps * max(m, r) * s[:1])
    K = solver1d._block_steps(m, N, r, S)
    return (None if K == 1 else (s[:S, None] * U[:, :S].T, Vt[:S])), K


def svd_shapes():
    """Patch numpy.linalg.svd to record the shape of each matrix it takes
    and whether its singular vectors were asked for."""
    calls, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    return calls, mock.patch("numpy.linalg.svd", recorded)


class TestSpatialRank:
    """2D blocks take their forcing from thin stacks of the profile's
    spatial factors, L^i A and R^i B, K entries of S rows each."""

    @pytest.mark.parametrize("m", [9, 39, 159])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 7, 8, 9, "full"])
    def test_the_sketch_keeps_the_rank_of_the_full_svd(self, m, rank):
        # S, as priced by _block_steps, is the full SVD's count: below 8 from
        # the sketch alone, with no SVD of D; from 8 on from the singular
        # values of D, its vectors taken only where blocks pay at that rank
        rng = np.random.default_rng(m)
        r, N = m + 3, 1000
        S = m if rank == "full" else rank
        D = rng.standard_normal((m, S)) @ rng.standard_normal((S, r))
        want, K = svd_factors(D, N)
        assert K == block_length(m, r, N, S)  # the SVD's count is S
        calls, patch = svd_shapes()
        with patch, mock.patch.object(solver1d, "_block_steps",
                                      wraps=solver1d._block_steps) as steps:
            heads, got_K = solver1d._spatial_factors(D, N)
        assert {call.args[3] for call in steps.call_args_list} == {S}
        assert got_K == K
        assert (heads is None) == (want is None) == (K == 1)
        of_D = [uv for shape, uv in calls if shape == (m, r)]
        assert of_D == ([] if S < 8 else [False, True] if K > 1 else [False])
        if heads is not None:  # A B^T within the bounds of the rank's cut and of the check
            At, Bt = heads
            assert At.shape == want[0].shape and Bt.shape == want[1].shape
            off = np.linalg.norm(At.T @ Bt - D, 2)
            assert off <= 2.0 * np.finfo(float).eps * max(m, r) * np.linalg.norm(D, 2)

    def test_a_full_rank_profile_takes_no_singular_vectors(self):
        # a seeded table at M = 160: no block of two steps pays at S = m = r,
        # so the run needs D's rank alone and steps, to the stepwise bytes
        m, N = 159, 100
        spec = case_ex5_3(1.2, 1.5, 1.0, 1.0).build_spec(1.0 / (m + 1))(N)
        table = np.random.default_rng(1).standard_normal((m + 2, m + 2))
        spec = ProblemSpec2D(**{**spec.__dict__,
                                "source": SeparableSource(lambda X, Y: table, np.exp)})
        calls, patch = svd_shapes()
        with patch, mock.patch.object(solver1d, "_march_blocks",
                                      wraps=solver1d._march_blocks) as blocks:
            got = solve_adi(spec).values
        assert ((m, m), False) in calls and ((m, m), True) not in calls
        assert not blocks.called
        with block_steps(1):
            want = solve_adi(spec).values
        assert np.array_equal(got, want)

    def test_ex5_3_from_the_sketch_keeps_to_the_full_svd(self):
        # the sketch factors ex5_3's rank-2 forcing otherwise than the SVD,
        # so the two final states differ at round-off
        spec = case_ex5_3(1.2, 1.5, 0.1, 0.1).build_spec(1.0 / 160)(100)
        calls, patch = svd_shapes()
        with patch:
            got = solve_adi(spec).values
        assert calls and all(shape != (159, 159) for shape, _ in calls)
        with mock.patch.object(solver1d, "_spatial_factors", svd_factors):
            want = solve_adi(spec).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(profile=st.sampled_from(["rank 1", "rank 2", "random"]),
           kind=st.sampled_from(FACTORS), omega=st.floats(1.0, 30.0),
           alpha=ORDERS, beta=ORDERS, lam_hx=LAM_H, lam_hy=LAM_H, Mx=st.integers(4, 24),
           My=st.integers(4, 24), N=st.integers(40, 1500), seed=st.integers(0, 2**16))
    def test_blocks_equal_single_steps_at_every_spatial_rank(self, profile, kind, omega, alpha,
                                                             beta, lam_hx, lam_hy, Mx, My, N,
                                                             seed):
        # S = 1, 2 or min(m, r), and K the largest power of two up to 64 with
        # K <= N and K S < m + r; a leftover block of N mod K steps follows
        m, r = Mx - 1, My - 1
        S = {"rank 1": 1, "rank 2": 2, "random": min(m, r)}[profile]
        K = block_length(m, r, N, S)
        assume(K > 1 and N % K)
        spec = random_spec2d(alpha, beta, lam_hx, lam_hy, Mx, My, N, *polynomials(seed))
        source = SeparableSource(spatial_profile(profile, seed)(spec),
                                 temporal_factor(kind, omega, seed, spec.time))
        spec = ProblemSpec2D(**{**spec.__dict__, "source": source})
        with block_steps(1):
            ref = solve_adi(spec).values
        replays, spatial = [], []
        with replays_recorded(replays, spatial):
            got = solve_adi(spec).values
        assert spatial == [(S, K)]
        assert replays == [K]  # no chunk replayed
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [1, None])
    def test_a_non_finite_profile_blows_up_at_step_1(self, K):
        # such a D takes no blocks: the run steps, and its first step blows up
        spec = random_spec2d(1.5, 1.5, 0.5, 0.5, 10, 10, 400, *polynomials(5))
        polynomial = spec.source.profile

        def profile(X, Y):
            F = polynomial(X, Y)
            F[4, 6] = np.nan
            return F

        spec = ProblemSpec2D(**{**spec.__dict__, "source": SeparableSource(profile, np.exp)})
        with block_steps(K), pytest.raises(BlowupError) as err:
            solve_adi(spec)
        assert err.value.step == 1

    @pytest.mark.parametrize("kind", FACTORS)
    def test_a_zero_profile_stays_exactly_zero(self, kind):
        # S = 0: blocks of 64 steps, no stack rows and no forcing at all
        spec = zero_spec2d(N=300)
        source = SeparableSource(lambda X, Y: np.zeros_like(X),
                                 temporal_factor(kind, 3.0, 1, spec.time))
        replays, spatial = [], []
        with replays_recorded(replays, spatial):
            sol = solve_adi(ProblemSpec2D(**{**spec.__dict__, "source": source}))
        assert spatial == [(0, 64)] and len(replays) == 1
        assert np.array_equal(sol.values, np.zeros((7, 7)))

    @pytest.mark.parametrize("K", [1, None])
    def test_a_non_finite_sample_of_a_zero_profile_blows_up_at_its_step(self, K):
        # 0 inf is NaN on the stepwise path at step 257; the run's own path
        # takes four blocks of 64 and a leftover of one step, which no
        # forcing makes non-finite, so its forcing bound sends it back
        spec = zero_spec2d(N=257)
        tau = spec.time.tau
        source = SeparableSource(lambda X, Y: np.zeros_like(X),
                                 lambda t: np.where(t > 256 * tau, np.inf, np.exp(-t)))
        replays = []
        with replays_recorded(replays), block_steps(K), pytest.raises(BlowupError) as err:
            solve_adi(ProblemSpec2D(**{**spec.__dict__, "source": source}))
        assert err.value.step == 257
        assert replays == ([] if K == 1 else [64, (256, 257)])


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


FIELD_NAMES = [("initial", "the initial data"), ("source", "the source has"),
               ("profile", "the source profile")]


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

    @staticmethod
    def solve_with(field, fn):
        spec = zero_spec2d()
        if field == "initial":
            spec = ProblemSpec2D(**{**spec.__dict__, "initial": fn})
        else:
            source = fn if field == "source" else SeparableSource(fn, math.cos)
            spec = ProblemSpec2D(**{**spec.__dict__, "source": source})
        return solve_adi(spec)

    @pytest.mark.parametrize("field,name", FIELD_NAMES)
    def test_a_field_of_the_wrong_shape_raises(self, field, name):
        short = lambda X, *_: np.ones_like(X)[:-1]
        with pytest.raises(ValueError, match=name):
            self.solve_with(field, short)

    @pytest.mark.parametrize("field,name", FIELD_NAMES)
    def test_a_field_of_one_column_raises(self, field, name):
        # it broadcasts on the grids of the nodes, but not on the frame of
        # their end rows and columns
        column = lambda X, *_: np.ones_like(X)[:, :1]
        with pytest.raises(ValueError, match=name):
            self.solve_with(field, column)


def node_grids(Mx, My):
    """The broadcasting grids of the nodes of the unit square and the full
    meshgrid."""
    x, y = Grid1D(0.0, 1.0, Mx).nodes(), Grid1D(0.0, 1.0, My).nodes()
    return (np.meshgrid(x, y, indexing="ij", sparse=True),
            np.meshgrid(x, y, indexing="ij"))


# elementwise callables of (X, Y, t), built from three coefficients
ELEMENTWISE = {
    "polynomial": lambda c: lambda X, Y, t: np.polyval(c, X - 2.0 * Y) * X * Y + t,
    "exp": lambda c: lambda X, Y, t: np.exp(c[0] * X + c[1] * Y - t),
    "sin": lambda c: lambda X, Y, t: np.sin(c[0] * X) * np.cos(c[1] * Y + c[2] * t),
    "where": lambda c: lambda X, Y, t: np.where(X > Y, X**2, c[0] * Y),
    "x only": lambda c: lambda X, Y, t: np.exp(c[0] * X) * (1.0 - X) * np.cos(t),
    "y only": lambda c: lambda X, Y, t: np.sin(c[1] * Y) ** 3,
    "ex5_3": lambda c: lambda X, Y, t: case_ex5_3(
        1.5 + 0.15 * c[0], 1.5 + 0.15 * c[1], 1.0, 0.5).source(X, Y, t),
}


class TestBroadcastingGrids:
    """2D fields are taken on the broadcasting grids of the nodes where the
    result passes its checks, else on the full meshgrid."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(ELEMENTWISE)), Mx=st.integers(4, 60),
           My=st.integers(4, 60), t=st.floats(0.0, 1.0),
           c=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_elementwise_callables_give_the_bytes_of_the_full_grid(self, kind, Mx, My, t, c):
        (X, Y), (Xf, Yf) = node_grids(Mx, My)
        fn, shapes = ELEMENTWISE[kind](c), []

        def recorded(X, Y, t):
            shapes.append(np.shape(X))
            return fn(X, Y, t)

        got = solver1d._grid_field(recorded, "the field", Xf.shape, X, Y, t)
        want = fn(Xf, Yf, t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert shapes == [(Mx + 1, 1), (2, Mx + My + 2)]  # no call on the full grid

    @pytest.mark.parametrize("kind", ["table on X", "table on Y", "write at [4, 6]",
                                      "needs equal shapes"])
    def test_other_callables_take_the_full_grid(self, kind):
        shapes = []

        def fn(X, Y):
            shapes.append(np.shape(X))
            if kind == "table on X":
                return np.random.default_rng(3).standard_normal(X.shape)
            if kind == "table on Y":
                return np.random.default_rng(3).standard_normal(Y.shape)
            if kind == "write at [4, 6]":
                F = X * Y + 1.0
                F[4, 6] = 7.0
                return F
            return np.hypot(*np.stack((X, Y)))  # raises on the thin grids

        (X, Y), (Xf, Yf) = node_grids(10, 12)
        got = solver1d._grid_field(fn, "the field", Xf.shape, X, Y)
        assert shapes[-1] == Xf.shape
        assert np.array_equal(got, fn(Xf, Yf))

    def test_a_solve_and_its_error_take_ex5_3_from_thin_calls_alone(self):
        # two calls a field: on the grids of the nodes, then on the frame of
        # the end rows and columns; error_norm's on the interior nodes
        case = case_ex5_3(1.2, 1.5, 1.0, 1.0)
        spec = case.build_spec(1.0 / 40)(60)
        shapes = []

        def recorded(fn):
            def wrapped(X, Y, *t):
                shapes.append(np.shape(X))
                return fn(X, Y, *t)
            return wrapped

        traced = ProblemSpec2D(**{
            **spec.__dict__, "initial": recorded(spec.initial),
            "source": SeparableSource(recorded(case.source.profile), case.source.temporal)})
        sol = solve_adi(traced)
        error = verification.error_norm(sol, recorded(case.exact))
        assert shapes == [(41, 1), (2, 82)] * 2 + [(39, 1), (2, 78)]
        # the error of the exact solution on the full interior meshgrid
        X, Y = np.meshgrid(sol.grid_x.interior(), sol.grid_y.interior(), indexing="ij")
        diff = case.exact(X, Y, spec.time.T) - sol.values
        assert error == float(np.sqrt(sol.grid_x.h * sol.grid_y.h * np.sum(diff**2)))


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
