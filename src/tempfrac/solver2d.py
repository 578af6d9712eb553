"""Alternating-direction implicit stepper for the 2D tempered diffusion problem.

Solves  u_t = D_x u + D_y u + f  on a rectangle with homogeneous Dirichlet
boundaries, where D_x and D_y are left-sided tempered derivatives of orders
alpha and beta with rates lam_1 and lam_2.  The factored two-sweep step is

    (B_x - tau/2 P_x) U*      = (B_x + tau/2 P_x) U^n (B_y + tau/2 P_y)^T
                                + tau * S^{n+1/2}
    U^{n+1} (B_y - tau/2 P_y)^T = U*

with P taken without the tau factor and S the compact-filtered source,
including its boundary-ring samples (the full stencil reaches one node past
each edge; without those samples the scheme loses its spatial order).

Each sweep is the theta-stage of :mod:`tempfrac.solver1d` at theta = 1/2,
a (solve, apply) pair for B - tau/2 P and B + tau/2 P built from B's and
P's first columns and rows by the same helper as every 1D stage, so 2D
follows the 1D size rule: dense LU factors below 600 unknowns or beyond
lam*h = 1, generators and FFT products otherwise.  No dense B or P is
assembled here.  The step is U^{n+1} = L U^n R^T + Fx F(t_{n+1/2}) Fy^T
with the constant factors L = (B_x - tau/2 P_x)^{-1} (B_x + tau/2 P_x), R
the same along y, and the forcing maps Fx = tau (B_x - tau/2 P_x)^{-1} C_x
and Fy = (B_y - tau/2 P_y)^{-1} C_y, where C is the compact filter from the
nodes to the interior (S = C_x F C_y^T).  L and R take one solve each,
and the maps come from them: C's interior block is B, and
(B - tau/2 P)^{-1} B = (L + I)/2, so only C's two end columns take a solve.
All four are formed once per run, so a step solves no system: it is two
products with U, plus two with the source field for a plain-callable
source, none for a :class:`~tempfrac.solver1d.SeparableSource`, whose
profile is mapped once.
The run hands the marcher of :mod:`tempfrac.solver1d` the compiled step:
the factors (L, R) and one forcing term, D = Fx (profile) Fy^T times the
temporal factor for a separable source, or Fx F(t) Fy^T for a plain
callable.  The march takes it in blocks of K steps with one state in
flight, each block's forcing one product of its own samples with stacks
of L^i A and R^i B, D = A B^T of spatial rank S, by the rule of a 1D
block; that rule and the one for K (K S < m + r) are stated once, in
:func:`~tempfrac.solver1d._march_blocks` and
:func:`~tempfrac.solver1d._block_steps`.  A run with a plain-callable
source, a run too short for blocks to pay, a profile of full spatial rank
on a square grid, and any chunk of blocks whose growth bound comes near
the blowup limit take it one step at a time.  The
stages are built and the march runs on one BLAS thread (see
:mod:`tempfrac._blas`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._blas import single_thread
from .calculus import TemperedParams
from .operators import Grid1D, TimeGrid, P_column_row, apply_compact
from .solver1d import _grid_field, _march, _source_term, _stage

__all__ = ["ProblemSpec2D", "Solution2D", "solve_adi"]


@dataclass(frozen=True)
class ProblemSpec2D:
    """Rectangle problem with homogeneous Dirichlet boundary.

    ``initial`` maps node arrays (X, Y) to u(x, y, 0); ``source`` maps
    (X, Y, t) to f, either as a :class:`~tempfrac.solver1d.SeparableSource`,
    whose profile is evaluated once per run, or as a plain callable evaluated
    once per step.  Each returns one value per node or a scalar, constant on
    the nodes.  X and Y are at first the broadcasting grids of the nodes, of
    shapes (M_x + 1, 1) and (1, M_y + 1): there an elementwise callable
    (``np.exp(-X) * np.sin(Y)``) returns the full field and takes its
    functions of x alone or of y alone once per grid line, not once per
    node.  That result is taken where it broadcasts to the node shape, is
    finite and agrees, to 1e-12 relative, with one more call, on a frame of
    the full grid's first and last rows and its first and last columns.
    Otherwise the callable is called once more, on the full
    (M_x + 1, M_y + 1) meshgrid, as one that draws or writes by the shape of
    its arguments needs.  Directional operator parameters live in
    ``params_x`` and ``params_y`` (diffusivities fold into the assembled
    matrices).
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
    """The broadcasting grids X, Y of the nodes, of shapes (M_x + 1, 1) and
    (1, M_y + 1), and the initial data on every node (see
    :func:`~tempfrac.solver1d._grid_field`)."""
    X, Y = np.meshgrid(spec.grid_x.nodes(), spec.grid_y.nodes(), indexing="ij", sparse=True)
    shape = (spec.grid_x.M + 1, spec.grid_y.M + 1)
    return X, Y, _grid_field(spec.initial, "the initial data", shape, X, Y)


def _forcing_map(solve, L, grid, lam):
    """A^{-1} C for a direction's stage (solve A, apply 2B - A): C the
    compact filter from the nodes to the interior, L = A^{-1} (2B - A).

    C's interior block is B, and A^{-1} B = (L + I) / 2, so only C's two end
    columns take a solve.
    """
    m = len(L)
    F = np.empty((m, m + 2))
    F[:, 1:-1] = 0.5 * (L + np.eye(m))
    F[:, [0, -1]] = solve(apply_compact("left", lam, grid.h, np.eye(m + 2)[:, [0, -1]]))
    return F


def _adi_march(spec, stage_x, stage_y, surface=None):
    """Compile the step and march on the (solve, apply) stage of each
    direction, a theta = 1/2 stage (solve B - a P, apply B + a P); the stages
    are injectable so tests can zero a direction.

    ``surface`` is the caller's ``_initial_surface(spec)``, evaluated here
    when not given.
    """
    (solve_x, apply_x), (solve_y, apply_y) = stage_x, stage_y
    gx, gy = spec.grid_x, spec.grid_y
    L, R = solve_x(apply_x(np.eye(gx.M - 1))), solve_y(apply_y(np.eye(gy.M - 1)))
    # a nodal field F reaches the step as Fx F Fy^T: the compact filter of
    # each direction, then the solve of its sweep
    Fx = spec.time.tau * _forcing_map(solve_x, L, gx, spec.params_x.lam)
    Fy = _forcing_map(solve_y, R, gy, spec.params_y.lam)
    X, Y, U0 = surface or _initial_surface(spec)
    return _march(lambda U, f: L @ U @ R.T + f[0], 1, U0[1:-1, 1:-1], spec.time,
                  (_source_term(spec.source, (X, Y), 0.5, lambda F: (Fx @ F @ Fy.T,)),),
                  factors=(L, R))


def solve_adi(spec):
    """Run the factored two-sweep scheme; returns the final interior slice.

    The problem is posed with homogeneous Dirichlet boundaries; initial data
    that fails to vanish on the boundary ring draws a warning.  The initial
    data, a separable profile and a plain source's values are taken on the
    broadcasting grids of the nodes where they pass the checks stated in
    :class:`ProblemSpec2D`, else on the full meshgrid.
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
    tau = spec.time.tau

    # through this helper, P_column_row's lam*h > 1 warning points at the
    # line of each direction below, so a default filter shows both
    def stage(grid, params):
        P = P_column_row(params, grid, tau, include_tau=False)
        return _stage("left", grid, params.lam, P, tau, 0.5)

    with single_thread():  # the stages' LU factors too, not only the march
        U = _adi_march(spec, stage(spec.grid_x, spec.params_x),
                       stage(spec.grid_y, spec.params_y), surface)
    return Solution2D(grid_x=spec.grid_x, grid_y=spec.grid_y, time=spec.time, values=U)
