"""Implicit time steppers for the one-dimensional tempered diffusion problems.

Three schemes share the spatial machinery of :mod:`tempfrac.operators`:

* ``solve_left``  - backward Euler for  u_t = K D_left u + f  with zero trace
  at the left boundary,
* ``solve_right`` - its mirror for the right-sided operator with zero trace at
  the right boundary,
* ``solve_two_sided`` - Lie splitting for  u_t = K (D_left + D_right) u + f
  with homogeneous boundaries: one implicit half with the right-sided
  operator after an explicit half with the left-sided one, the source applied
  half-and-half at the midpoint time.

Every scheme is an affine step  U <- G U + f_n  with a constant G.  A run
assembles and factors its matrices once and compiles its forcing once, into
terms that are each a fixed vector times a scalar function of time (the far
boundary trace always is, and so is a :class:`SeparableSource`) or, for a
plain source callable, one source evaluation per step.  One marcher then
takes one of two paths:

* stepwise: the LU solves of the scheme, one step at a time.  This is the
  reference path, and the only one for plain-callable sources, stored
  histories, two dimensions and runs too short for a dense G to pay;
* block: K steps at once, U <- G^K U + W g, with G^K and the columns
  G^j d of W precomputed and g holding the K temporal samples of each term.

Any non-finite value, or a sup-norm beyond 1e30, aborts with
:class:`BlowupError` carrying the failing step index; that is the diagnostic
the stability experiments rely on, so overflow is never masked.  A block is
accepted only when its endpoint is finite and a precomputed bound shows that
no step inside it can have come near the limit; otherwise it is replayed
stepwise, so the index is exact on both paths.  Runs share no mutable state
and may execute concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .calculus import TemperedParams, tempered_weights
from .operators import Grid1D, TimeGrid, apply_compact, assemble_B, assemble_H, assemble_P

__all__ = [
    "ProblemSpec1D",
    "Solution1D",
    "SeparableSource",
    "BlowupError",
    "solve_left",
    "solve_right",
    "solve_two_sided",
]

_BLOWUP_LIMIT = 1e30
# A block is accepted only when its bound stays this far below the limit, so
# that round-off between the paths cannot change which step crosses it.
_BLOCK_LIMIT = 1e-6 * _BLOWUP_LIMIT
_BLOCK = 64


class BlowupError(RuntimeError):
    """Numerical blowup detected while stepping; carries the step index."""

    def __init__(self, step, detail=""):
        self.step = step
        super().__init__(f"solution blew up at step {step}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class SeparableSource:
    """A source f = temporal(t) * profile(space), callable as ``source(x, t)``.

    ``profile`` maps the space arguments (the nodes in 1D, the meshgrid arrays
    X, Y in 2D) to the space factor, and ``temporal`` maps a time to a scalar.
    The solvers evaluate the profile once per run, and the 1D solvers march
    such problems in blocks of steps.  A boundary trace is a scalar function
    of time, so it is separable as it stands and needs no such wrapper.
    """

    profile: Callable
    temporal: Callable

    def __call__(self, *args):
        *space, t = args
        return self.temporal(t) * self.profile(*(np.asarray(a, dtype=float) for a in space))


@dataclass(frozen=True)
class ProblemSpec1D:
    """One initial-boundary value problem on grid x time.

    ``initial`` maps x to u(x, 0); ``boundary_left`` / ``boundary_right`` map
    t to the traces at x = a and x = b; ``source`` maps (x, t) to f and must
    accept a vector of nodes.  A :class:`SeparableSource` lets long runs march
    in blocks of steps; a plain callable is evaluated once per step.
    ``side`` selects the scheme.
    """

    grid: Grid1D
    time: TimeGrid
    params: TemperedParams
    side: str
    initial: Callable
    boundary_left: Callable
    boundary_right: Callable
    source: Callable


@dataclass(frozen=True)
class Solution1D:
    """Nodal values at the final time (boundary nodes included), plus optional history."""

    grid: Grid1D
    time: TimeGrid
    values: np.ndarray
    history: Optional[np.ndarray] = None


def _require_zero_trace(fn, which, T):
    for t in (0.0, 0.5 * T, T):
        if abs(fn(t)) > 1e-12:
            raise ValueError(
                f"the {which} boundary trace must vanish identically for this scheme"
            )


def _warn_corner_mismatch(spec):
    u0 = spec.initial
    for x, fn, name in (
        (spec.grid.a, spec.boundary_left, "left"),
        (spec.grid.b, spec.boundary_right, "right"),
    ):
        if abs(float(u0(x)) - float(fn(0.0))) > 1e-10:
            warnings.warn(
                f"initial data and {name} boundary trace disagree at the corner",
                RuntimeWarning,
                stacklevel=3,
            )


def _check_finite(U, step):
    m = np.max(np.abs(U))  # NaN or inf whenever any value is
    if not m <= _BLOWUP_LIMIT:
        raise BlowupError(step, f"sup-norm {m:.3e}" if np.isfinite(m) else "non-finite values")


def _with_boundaries(spec, interior, t):
    full = np.empty(spec.grid.M + 1)
    full[0] = spec.boundary_left(t)
    full[-1] = spec.boundary_right(t)
    full[1:-1] = interior
    return full


# ------------------------------------------------------------ the marcher


@dataclass(frozen=True)
class _Term:
    """One forcing term of step n, taken at t = (n + shift) * tau.

    With ``vectors`` (one per stage of the step) ``fn(t)`` is their scalar
    factor; without, ``fn(t)`` returns the per-stage vectors itself.
    """

    fn: Callable
    shift: float
    vectors: Optional[tuple] = None


def _source_term(source, space, shift, stencil):
    """Forcing term of ``source`` on the nodes ``space``; ``stencil`` maps a
    nodal field to the per-stage forcing vectors."""
    if isinstance(source, SeparableSource):
        profile = np.asarray(source.profile(*space), dtype=float)
        return _Term(source.temporal, shift, stencil(profile))
    return _Term(lambda t: stencil(np.asarray(source(*space, t), dtype=float)), shift)


def _block_steps(m, N):
    """Steps per block for m unknowns and N steps; 1 selects the stepwise path.

    Forming G and its powers costs about 32 m^3 flops; each block step saves
    the per-step overhead (some 40 us) and an LU solve's 2 m^2 flops.  At
    0.5 ns per flop the block path pays when N (4e4 + m^2) >= 16 m^3.
    """
    return _BLOCK if N * (4e4 + m * m) >= 16.0 * m**3 else 1


def _march(step, U, time, terms, store_history=False):
    """Run ``U <- step(U, forcing of step n)`` for the N steps of ``time``.

    ``step`` is linear in (U, forcing); the forcing of each stage is the sum
    of ``terms`` at step n.  A vector U whose terms are all scalar-times-
    vector may take the block path, which needs ``step`` to map a matrix
    column by column.  Returns the final state and, with ``store_history``,
    the list of every state.
    """
    N, tau = time.N, time.tau
    scalar = [term for term in terms if term.vectors is not None]
    general = [term for term in terms if term.vectors is None]
    # samples[n, k]: factor of scalar term k at step n; per_stage[i][k]: its
    # vector in stage i
    samples = np.empty((N, len(scalar)))
    for k, term in enumerate(scalar):
        samples[:, k] = np.fromiter((term.fn((n + term.shift) * tau) for n in range(N)), float, N)
    per_stage = list(zip(*(term.vectors for term in scalar)))
    live = samples.any(axis=1)  # steps where some scalar term is nonzero
    history = [U] if store_history else None

    def forcing(n):
        parts = [term.fn((n + term.shift) * tau) for term in general]
        if live[n]:
            parts.append([sum(c * v for c, v in zip(samples[n], vectors) if c)
                          for vectors in per_stage])
        if not parts:
            return [0.0] * len(per_stage)
        return [functools.reduce(operator.add, stage) for stage in zip(*parts)]

    def stepwise(U, start, stop):
        for n in range(start, stop):
            U = step(U, forcing(n))
            _check_finite(U, n + 1)
            if history is not None:
                history.append(U)
        return U

    K = _block_steps(len(U), N) if U.ndim == 1 and not general and not store_history else 1
    if K == 1:
        return stepwise(U, 0, N), history
    return _march_blocks(step, U, samples, per_stage, K, stepwise), None


def _march_blocks(step, U, samples, per_stage, K, stepwise):
    """Blocks of K steps, then one block of the N mod K steps left over.

    A block maps U to G^k U + W g, where g = samples[n:n+k].ravel() and the
    column of W for term t at step j of the block is G^(k-1-j) d_t, with
    d_t = step(0, vectors of t).
    """
    N, T = samples.shape
    m = len(U)
    G = step(np.eye(m), [0.0] * len(per_stage))
    D = step(np.zeros((m, T)), [np.column_stack(vectors) for vectors in per_stage])
    # G^(2^i) for every bit of K; the product of their norms (at least 1
    # each) bounds ||G^j|| for every j <= K
    powers = [G]
    for _ in range(K.bit_length() - 1):
        powers.append(powers[-1] @ powers[-1])
    gamma = math.prod(max(1.0, np.linalg.norm(P, np.inf)) for P in powers)
    # sup-norm bound of each step's forcing, summed per block below
    forcing_bound = np.abs(samples) @ np.max(np.abs(D), axis=0)

    n = 0
    u_norm = np.max(np.abs(U))
    for k in (K, N % K):
        if k == 0 or n + k > N:
            continue
        Gk, W = _block_operator(powers, D, k)
        while n + k <= N:
            V = Gk @ U + W @ samples[n:n + k].ravel()
            v_norm = np.max(np.abs(V))
            bound = gamma * (u_norm + forcing_bound[n:n + k].sum())
            if bound <= _BLOCK_LIMIT and v_norm <= _BLOCK_LIMIT:
                U, u_norm = V, v_norm
            else:
                U = stepwise(U, n, n + k)
                u_norm = np.max(np.abs(U))
            n += k
    return U


def _block_operator(powers, D, k):
    """G^k and W = [G^(k-1) D, ..., G D, D] for blocks of k steps."""
    Gk = None
    for i, P in enumerate(powers):
        if k >> i & 1:
            Gk = P if Gk is None else P @ Gk
    X, T = D, D.shape[1]  # [D, G D, ..., G^(w-1) D], doubled with G^w
    for P in powers:
        if X.shape[1] >= k * T:
            break
        X = np.hstack([X, P @ X])
    m = len(D)
    return Gk, X[:, :k * T].reshape(m, k, T)[:, ::-1].reshape(m, k * T)


def _solve(spec, stages, terms, store_history):
    tau = spec.time.tau
    U0 = np.asarray(spec.initial(spec.grid.interior()), dtype=float)
    U, history = _march(functools.partial(_apply_stages, stages), U0, spec.time, terms, store_history)
    if store_history:
        states, history = history, np.empty((len(history), spec.grid.M + 1))
        for n, V in enumerate(states):  # row by row: no second copy of the run
            history[n] = _with_boundaries(spec, V, n * tau)
    values = _with_boundaries(spec, U, spec.time.T)
    return Solution1D(grid=spec.grid, time=spec.time, values=values, history=history)


def _apply_stages(stages, U, forcing):
    """One scheme step: U <- lu^{-1} (A U + f) for each stage (lu, A)."""
    for (lu, A), f in zip(stages, forcing):
        U = lu_solve(lu, A @ U + f, check_finite=False)
    return U


# ------------------------------------------------------------ the schemes


def _solve_one_sided(spec, side, store_history):
    """(B - P) U^{n+1} = B U^n + tau T F^{n+1} + H^{n+1}.

    T F is the compact filter on all nodes, the boundary samples of the
    source included; H holds the far trace at both time levels (the near
    trace is required to vanish).  H is linear in that trace, so two unit
    vectors from ``assemble_H`` carry it.
    """
    grid, params, tau = spec.grid, spec.params, spec.time.tau
    B = assemble_B(side, grid, params.lam).to_dense()
    P = assemble_P(side, params, grid, tau)
    weights = tempered_weights(params, grid.h, grid.M)

    def trace_vector(now, nxt):
        far, near = (now, nxt), (0.0, 0.0)
        a, b = (near, far) if side == "left" else (far, near)
        return assemble_H(side, params, grid, tau, a, b, 0.0, 0.0, weights)

    far = spec.boundary_right if side == "left" else spec.boundary_left
    terms = (
        _source_term(spec.source, (grid.nodes(),), 1.0,
                     lambda F: (tau * apply_compact(side, params.lam, grid.h, F),)),
        _Term(far, 0.0, (trace_vector(1.0, 0.0),)),
        _Term(far, 1.0, (trace_vector(0.0, 1.0),)),
    )
    return _solve(spec, ((lu_factor(B - P), B),), terms, store_history)


def solve_left(spec, store_history=False):
    """Backward-Euler run of the left-sided scheme; requires u(a, t) = 0."""
    if spec.side != "left":
        raise ValueError(f"spec.side is {spec.side!r}, expected 'left'")
    _require_zero_trace(spec.boundary_left, "left", spec.time.T)
    _warn_corner_mismatch(spec)
    return _solve_one_sided(spec, "left", store_history)


def solve_right(spec, store_history=False):
    """Backward-Euler run of the right-sided scheme; requires u(b, t) = 0."""
    if spec.side != "right":
        raise ValueError(f"spec.side is {spec.side!r}, expected 'right'")
    _require_zero_trace(spec.boundary_right, "right", spec.time.T)
    _warn_corner_mismatch(spec)
    return _solve_one_sided(spec, "right", store_history)


def solve_two_sided(spec, store_history=False):
    """Lie-splitting run for the two-sided problem with homogeneous boundaries.

    Per step, with P assembled without the tau factor:

        B_l U*      = (B_l + tau P_l) U^n + (tau/2) B_l f^{n+1/2}
        (B_r - tau P_r) U^{n+1} = B_r U* + (tau/2) B_r f^{n+1/2}

    The compact-filtered source includes its boundary-node samples; dropping
    them costs an order of accuracy.
    """
    if spec.side != "two_sided":
        raise ValueError(f"spec.side is {spec.side!r}, expected 'two_sided'")
    _require_zero_trace(spec.boundary_left, "left", spec.time.T)
    _require_zero_trace(spec.boundary_right, "right", spec.time.T)
    _warn_corner_mismatch(spec)

    grid, tau, lam = spec.grid, spec.time.tau, spec.params.lam
    Bl = assemble_B("left", grid, lam).to_dense()
    Br = Bl.T
    Pl = assemble_P("left", spec.params, grid, tau, include_tau=False)
    lu_star = lu_factor(Bl)
    lu_step = lu_factor(Br - tau * Pl.T)
    stages = ((lu_star, Bl + tau * Pl), (lu_step, Br))
    half = 0.5 * tau
    term = _source_term(spec.source, (grid.nodes(),), 0.5, lambda F: (
        half * apply_compact("left", lam, grid.h, F),
        half * apply_compact("right", lam, grid.h, F),
    ))
    return _solve(spec, stages, (term,), store_history)
