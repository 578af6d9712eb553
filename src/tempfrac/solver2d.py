"""Alternating-direction implicit stepper for the 2D tempered diffusion problem.

Solves  u_t = D_x u + D_y u + f  on a rectangle with homogeneous Dirichlet
boundaries, where D_x and D_y are left-sided tempered derivatives of orders
alpha and beta with rates lam_1 and lam_2.  The factored two-sweep step is

    (B_x - tau/2 P_x) U*      = (B_x + tau/2 P_x) U^n (B_y + tau/2 P_y)^T
                                + tau * S^{n+1/2}
    U^{n+1} (B_y - tau/2 P_y)^T = U*

with P assembled without the tau factor and S the compact-filtered source,
including its boundary-ring samples (the full stencil reaches one node past
each edge; without those samples the scheme loses its spatial order).  Both
directional factorizations are computed once per run from dense B and P
(the grids stay small enough for dense matrices), and the forcing is
compiled once: for a :class:`~tempfrac.solver1d.SeparableSource` each step
only scales the precomputed D below by the temporal factor.

The step is U^{n+1} = L U^n R^T + c(t_{n+1/2}) D with the constant factors
L = (B_x - tau/2 P_x)^{-1} (B_x + tau/2 P_x), R the same along y, and
D = tau (B_x - tau/2 P_x)^{-1} S (B_y - tau/2 P_y)^{-T}.  L and R are formed
once per run and a step is their two products with U: the LU solves of the
sweeps act only on the forcing, once per run on a separable source's
profile and once per step on a plain source's field.  The marcher of
:mod:`tempfrac.solver1d` takes the step in blocks of steps,
U <- L^K U (R^K)^T + sum_j g_j L^j D (R^j)^T.  A run with a plain-callable
source, a run too short or too wide for blocks to pay, and any chunk of
blocks whose growth bound comes near the blowup limit take it one step at a
time.  The march runs on one BLAS thread (see :mod:`tempfrac._blas`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._blas import single_thread
from .calculus import TemperedParams
from .operators import Grid1D, TimeGrid, apply_compact, assemble_B, assemble_P
from .solver1d import _field, _march, _source_term

__all__ = ["ProblemSpec2D", "Solution2D", "solve_adi"]


@dataclass(frozen=True)
class ProblemSpec2D:
    """Rectangle problem with homogeneous Dirichlet boundary.

    ``initial`` maps meshgrid arrays (X, Y) to u(x, y, 0); ``source`` maps
    (X, Y, t) to f, either as a :class:`~tempfrac.solver1d.SeparableSource`,
    whose profile is evaluated once per run, or as a plain callable evaluated
    once per step.  Directional operator parameters live in ``params_x`` and
    ``params_y`` (diffusivities fold into the assembled matrices).
    """

    grid_x: Grid1D
    grid_y: Grid1D
    time: TimeGrid
    params_x: TemperedParams
    params_y: TemperedParams
    initial: Callable
    source: Callable


@dataclass(frozen=True)
class Solution2D:
    """Interior nodal values at the final time, shape (M_x - 1, M_y - 1)."""

    grid_x: Grid1D
    grid_y: Grid1D
    time: TimeGrid
    values: np.ndarray


def _initial_surface(spec):
    """The meshgrid arrays X, Y and the initial data on every node."""
    X, Y = np.meshgrid(spec.grid_x.nodes(), spec.grid_y.nodes(), indexing="ij")
    return X, Y, _field(spec.initial, "the initial data", X.shape, X, Y)


@single_thread()
def _adi_march(spec, Bx, Px, By, Py, surface=None):
    """Compile the step and march; matrices are injectable so tests can zero a direction.

    ``surface`` is the caller's ``_initial_surface(spec)``, evaluated here
    when not given.
    """
    gx, gy, tau = spec.grid_x, spec.grid_y, spec.time.tau
    lu_x = lu_factor(Bx - 0.5 * tau * Px)
    lu_y = lu_factor(By - 0.5 * tau * Py)
    L = lu_solve(lu_x, Bx + 0.5 * tau * Px, check_finite=False)
    R = lu_solve(lu_y, By + 0.5 * tau * Py, check_finite=False)

    def forcing(F):
        # tau lu_x^{-1} Tx F Ty^T lu_y^{-T}: the compact filter along x, then
        # along y, then the solve of each sweep
        S = apply_compact("left", spec.params_x.lam, gx.h, F)
        S = tau * apply_compact("left", spec.params_y.lam, gy.h, S.T).T
        return (lu_solve(lu_y, lu_solve(lu_x, S, check_finite=False).T, check_finite=False).T,)

    X, Y, U0 = surface or _initial_surface(spec)
    return _march(lambda U, f: L @ U @ R.T + f[0], 1, U0[1:-1, 1:-1], spec.time,
                  (_source_term(spec.source, (X, Y), 0.5, forcing),), factors=lambda: (L, R))


def solve_adi(spec):
    """Run the factored two-sweep scheme; returns the final interior slice.

    The problem is posed with homogeneous Dirichlet boundaries; initial data
    that fails to vanish on the boundary ring draws a warning.
    """
    surface = _initial_surface(spec)
    U0 = surface[2]
    ring = max(
        np.max(np.abs(U0[0, :])), np.max(np.abs(U0[-1, :])),
        np.max(np.abs(U0[:, 0])), np.max(np.abs(U0[:, -1])),
    )
    if ring > 1e-10:
        warnings.warn(
            "initial surface does not vanish on the boundary ring",
            RuntimeWarning,
            stacklevel=2,
        )
    Bx = assemble_B("left", spec.grid_x, spec.params_x.lam).to_dense()
    By = assemble_B("left", spec.grid_y, spec.params_y.lam).to_dense()
    Px = assemble_P("left", spec.params_x, spec.grid_x, spec.time.tau, include_tau=False)
    Py = assemble_P("left", spec.params_y, spec.grid_y, spec.time.tau, include_tau=False)
    U = _adi_march(spec, Bx, Px, By, Py, surface)
    return Solution2D(grid_x=spec.grid_x, grid_y=spec.grid_y, time=spec.time, values=U)
