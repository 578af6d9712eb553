"""ADI stepper: fixed point, reference values, symmetry, sweep plumbing."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from tempfrac.calculus import TemperedParams
from tempfrac.operators import Grid1D, TimeGrid, apply_compact, assemble_B, assemble_P
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
        Bx = assemble_B("left", spec.grid_x, spec.params_x.lam).to_dense()
        By = assemble_B("left", spec.grid_y, spec.params_y.lam).to_dense()
        Px = assemble_P("left", spec.params_x, spec.grid_x, spec.time.tau, include_tau=False)
        Py = np.zeros_like(By)
        U = _adi_march(spec, Bx, Px, By, Py)

        # independent column-wise reference
        tau = spec.time.tau
        X, Y = np.meshgrid(spec.grid_x.nodes(), spec.grid_y.nodes(), indexing="ij")
        V = np.asarray(spec.initial(X, Y), dtype=float)[1:-1, 1:-1]
        lu = lu_factor(Bx - 0.5 * tau * Px)
        By_inv = np.linalg.inv(By)
        for n in range(spec.time.N):
            F = np.asarray(spec.source(X, Y, (n + 0.5) * tau), dtype=float)
            # compact filter along x (rows), then along y (columns)
            Fx = apply_compact("left", spec.params_x.lam, spec.grid_x.h, F)
            Fxy = apply_compact("left", spec.params_y.lam, spec.grid_y.h, Fx.T).T
            S = Fxy @ By_inv.T
            V = lu_solve(lu, (Bx + 0.5 * tau * Px) @ V + tau * S)
        assert U == pytest.approx(V, rel=1e-10, abs=1e-12)
