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

Every scheme is an affine step  U <- G U + f_n  with a constant G; so is
the 2D ADI step of :mod:`tempfrac.solver2d`, U <- L U R^T + f_n on a matrix
U, whose G is R (x) L.  A run assembles and factors its matrices once and
compiles its forcing once, into terms that are each a fixed vector times a
scalar function of time (the far boundary trace always is, and so is a
:class:`SeparableSource`) or, for a plain source callable, a nodal field
a step.  Each scalar function is sampled once for all the time levels of the
run: one call with the array of those times where it accepts one
(``np.exp`` does), else one call per level (``math.exp``).

A step is a sequence of theta-stages, each a (solve, apply) pair for
(B - theta tau P) U' = (B + (1 - theta) tau P) U + f, all built by one
helper (``_stage``) from P's first column and row without tau (see
:func:`~tempfrac.operators.P_column_row`): the one-sided schemes take one
stage at theta = 1, the two-sided split one at theta = 0 (left) and one at
theta = 1 (right), and each direction of the 2D ADI step one at
theta = 1/2.  Where a side of the stage has no P (theta 0 or 1) the compact
filter B stays banded, applied by
:meth:`~tempfrac.operators.CompactMatrixB.matvec` and inverted by
:meth:`~tempfrac.operators.CompactMatrixB.solve` in O(M).  The Toeplitz
stage matrices are served by size and regime, in one place
(``_toeplitz_map``): below 600 unknowns, or where lam*h > 1, a dense system
is LU-factored once, in place; from 600 unknowns on where lam*h <= 1, the
range in which every stage matrix that is solved is positive real, a solve
uses two generators found once and the Gohberg-Semencul formula, every
product one FFT (O(m log m) a step instead of O(m^2), no dense matrix).  The
generators come from GMRES preconditioned with Strang's circulant and
refined against residuals taken in extended precision, each residual both
the stop test and the certificate, O(m log m) as well; a pair that fails
to certify its residual is replaced by Levinson's (O(m^2)).  All of them
act column by column on matrices.
One marcher then takes one of two paths:

* stepwise: the step itself, one step at a time: the stages of a 1D
  scheme, the compiled L U R^T + f of the 2D one.  This is the reference
  path, and the only one for runs too short for a dense G to pay, for the
  generator + FFT stages (whose O(m log m) step beats a product with a
  dense G) and for 2D runs with a plain-callable source;
* block: the step compiled once, K steps at once on an (m, r) state.  The
  marcher (_march_blocks) takes the compiled step as arrays: the factors,
  (G,) for a vector state, G = step(I, 0), and (L, R) for a matrix state;
  the forcing D, one row D_t = step(0, vectors of term t) per
  scalar-times-vector term of a vector state and the one term's (m, r)
  matrix of a matrix state; the temporal samples; K; and for a matrix
  state the stacks of D's spatial factors (_spatial_factors).  A block is
  U <- L^K U (R^K)^T plus the sum over its steps j of g_j L^j D (R^j)^T,
  g_j the samples of its steps: for a vector state (r = 1, L = G) one
  product of the samples with a forcing stack of the terms L^j D_t; for a
  matrix state (2D) a combination of r_K matrices formed from thin stacks
  of L^i A and R^i B, D = A B^T by a thin SVD (rank 2 for ex5_3), r_K the
  rank of the samples of all blocks (1 for e^{-t}), with one state held at
  a time.  A 1D run with a stored history or a plain-callable source
  marches in blocks of one step, U <- G U + d_n: a plain source is called
  once per group with an array of times where it broadcasts, else once
  per step, and the fields of a group of steps reach their d_n through one
  product with the forcing map step(0, stencil(I)), formed like G, and
  only once some field is not all zero.  The d_n are written straight into
  the rows of the history, which are then filled in place in groups of K
  steps: the group ends one after another through G^K, and everything
  else in products of all the groups at once with G^T, so that the chain
  of dependent products is N / K long instead of N.  Blocks and groups
  take one length K, chosen by one rule (_block_steps), and one loop
  serves both: the units go in chunks, K a chunk, its states checked once.

The block and group paths agree with the stepwise one to round-off: to
1e-12 relative to the run's peak, and to 1e-12 per stored row for runs of
up to 10^4 steps.  Two round-off paths drift apart about linearly in the
step count, so a row that has decayed far below the peak of a longer run
may differ by more (2.1e-12 at 20,000 steps on a history at M = 400 whose
rows decay 40-fold).  A solve builds its stages, forms G and marches on one
BLAS thread (see :mod:`tempfrac._blas`).

Any non-finite value, or a sup-norm beyond 1e30, aborts with
:class:`BlowupError` carrying the failing step index; that is the diagnostic
the stability experiments rely on, so overflow is never masked.  A chunk is
accepted only when every state it holds is finite and, for blocks of more
than one step or groups of one-step blocks, a precomputed growth bound
shows that no step inside a block, and no part a group's states are summed
from, can have come near the limit; otherwise it is replayed stepwise, so
the index is exact on every path.
Runs share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import lu_factor, lu_solve, solve_toeplitz, toeplitz

from ._blas import single_thread
from .calculus import TemperedParams, tempered_weights
from .operators import Grid1D, TimeGrid, P_column_row, apply_compact, assemble_B, assemble_H

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
# a block is at most this many steps (see _block_steps)
_BLOCK = 64
# stage matrices of at least this dimension are solved and applied through
# their Toeplitz structure where lam*h <= 1 (see _toeplitz_map)
_TOEPLITZ_DIM = 600
# the two generators of such a solve come from GMRES (see _krylov_generators)
# where each call meets _GMRES_TOL within _GMRES_CAP iterations and, within
# _REFINEMENTS refinements, a refined residual taken in _EXTENDED precision
# is at most _GENERATOR_RESIDUAL; otherwise from Levinson
_GMRES_TOL = 1e-10
_GMRES_CAP = 12
_REFINEMENTS = 3
_GENERATOR_RESIDUAL = 1e-15
_EXTENDED = np.longdouble


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
    The solvers evaluate the profile once per run and march such problems
    in blocks of steps.  A ``temporal`` that also maps an array of times to
    the array of its values (``np.exp``, not ``math.exp``) is called once per
    run; otherwise once per time level.  A boundary trace is a scalar
    function of time, so it is separable as it stands and needs no such
    wrapper.
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
    in blocks of steps; a long run with a plain callable, or with a stored
    history, still steps on the compiled G, in groups of steps whose states
    are filled by products of all the groups at once, the states checked
    once per chunk of steps, and forcing that is exactly zero free.  There
    a plain source is called once per group with an array of times where it
    broadcasts, else once per step: called with ``t`` a column of times, it
    broadcasts where it returns one row of nodal values a time, or values
    that broadcast to those rows (``np.exp(-t) * np.sin(x)`` does; one that
    calls ``math.exp(-t)`` or branches on t takes the calls per step).  A
    trace that also accepts an array of times is called once per run for
    all the time levels, otherwise once per level.  ``side`` selects the
    scheme.  ``initial``, a plain ``source`` and a separable source's
    profile return one value per node or a scalar, constant on the nodes.
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
        if abs(_field(u0, "the initial data", (), x) - float(fn(0.0))) > 1e-10:
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
    factor; without, ``fn(t)`` is a nodal field and ``stencil`` maps it, or
    nodal fields stacked column by column, to the per-stage vectors, and
    ``batch(times)`` takes many times at once (see _sample_run).
    """

    fn: Callable
    shift: float
    vectors: Optional[tuple] = None
    stencil: Optional[Callable] = None
    batch: Optional[Callable] = None


def _field(fn, name, shape, *args):
    """fn(*args) as a float array of the node shape ``shape``: a scalar is
    broadcast to it, and any other shape raises a ValueError naming ``name``."""
    value = np.asarray(fn(*args), dtype=float)
    if value.shape == shape:
        return value
    if value.ndim:
        raise ValueError(f"{name} has shape {value.shape}; expected a scalar or shape {shape}")
    return np.full(shape, value)


def _source_term(source, space, shift, stencil):
    """Forcing term of ``source`` on the nodes ``space``; ``stencil`` maps a
    nodal field to the per-stage forcing vectors."""
    shape = np.shape(space[0])
    if isinstance(source, SeparableSource):
        profile = _field(source.profile, "the source profile", shape, *space)
        return _Term(source.temporal, shift, stencil(profile))
    # the times down a first axis, against the nodes
    column = (-1,) + (1,) * len(shape)
    return _Term(functools.partial(_field, source, "the source", shape, *space), shift,
                 stencil=stencil, batch=lambda times: source(*space, times.reshape(column)))


def _block_steps(m, N, r=1, w=1, samples=None):
    """The block length K of a run of N steps on an (m, r) state; 1 selects
    the stepwise path.  A matrix state gives the piece length w of its
    forcing (see _spatial_factors) and its temporal ``samples``, one row a
    step; the rank of the samples is taken only where blocks may pay.

    Forming the factors L, R and their powers costs about 32 (m^3 + r^3)
    flops.  Each compiled step saves the per-step overhead (some 40 us) and
    the flops of a stepwise step: 2 m^2 for a vector state (r = 1, one LU
    solve) and 2 m r (m + r) in 2D (the two dense products of L U R^T).  At
    0.5 ns per flop compiling pays when N (4e4 + half those flops) >=
    16 (m^3 + r^3), which in 2D means from about 12 to 16 steps at
    m = r = 39 to 239; measured on 2 cores (best of 5), the 2D block path
    breaks even with the stepwise one between 8 and 32 steps there.

    Where it pays, K is the largest power of two up to _BLOCK with
    r_K K ceil(K / w) <= N: r_K the rank of the samples of the run's blocks
    of K steps (see _sample_basis) for a matrix state and 1 for a vector
    state, whose w is 1.  Setting up blocks costs about r_K ceil(K / w)
    products against the N / K dependent ones of the march: a matrix
    state's block forcing takes, for each of r_K basis vectors, one product
    of its stacks' heads a piece of w steps and a pair of products joining
    the pieces (see _block_forcing), a vector state's forcing stack K
    products at any rank.  A temporal factor such as e^{-t}, whose samples
    over a block are one vector times a scalar, has rank 1; a rough one has
    full rank r_K = K.  So at w = 1 (a forcing of full spatial rank)
    K^2 <= N for e^{-t} and K^3 <= N for a rough factor, and where w >= K
    (ex5_3, of spatial rank 2, from 159 unknowns a direction) K <= N for
    e^{-t}.  At w = _BLOCK and without samples K is the longest block any
    forcing allows, 1 only where blocks cannot pay or N = 1.
    """
    saved = m * m if r == 1 else m * r * (m + r)
    if N * (4e4 + saved) < 16.0 * (m**3 + r**3):
        return 1
    K = _BLOCK
    while K > 1 and (K * -(-K // w) > N or samples is not None and len(
            _sample_basis(samples[:N // K * K].reshape(N // K, -1))[0]) * K * -(-K // w) > N):
        K //= 2
    return K


def _piece_steps(m, r, S):
    """w, the steps of a piece of a matrix state's block forcing whose
    spatial rank is S: the largest power of two up to _BLOCK with
    w S <= max(m, r), at least 1.  Each of the forcing stacks then holds at
    most max(m, r) rows, or S where S alone is more (see _spatial_factors)."""
    w = _BLOCK
    while w > 1 and w * S > max(m, r):
        w //= 2
    return w


def _march(step, stages, U, time, terms, history=None, factors=None, toeplitz_stages=False):
    """Run ``U <- step(U, forcing of step n)`` for the N steps of ``time``;
    returns the final state.

    ``step`` is linear in (U, forcing), where the forcing is a list with one
    entry per stage (``stages`` of them); the forcing of each stage is the
    sum of ``terms`` at step n.  The state is an (m, r) matrix U and a step
    is U <- L U R^T + f_n with constant ``factors`` = (L, R) and one stage,
    f_n the forcing of its one scalar-times-vector term or of its general
    ones; a vector U is the case r = 1, whose step may take several stages
    and must map a matrix column by column.  Row n of ``history``, an
    (N + 1, m) array when given, receives the state after n steps.

    Where _block_steps gives a block length K > 1, the step is compiled
    once and _march_blocks marches on it: a vector state on G = step(I, 0)
    and the forcing rows D_t = step(0, vectors of term t), a matrix state
    on (L, R) and its term's vector D, factored into its forcing stacks
    (see _spatial_factors) before K is priced.  A run whose terms are all
    scalar-times-vector marches in blocks of K steps, and a vector state
    with a general term or a history in blocks of one step, in groups of
    K.  ``toeplitz_stages`` marks steps served through their Toeplitz
    structure (see _toeplitz_map): their O(m log m) solves beat any dense
    G, so those runs always take the stages.  A matrix state with a
    general term steps on ``step`` itself, which in 2D is the compiled
    L U R^T + f.
    """
    N, tau = time.N, time.tau
    scalar = [term for term in terms if term.vectors is not None]
    general = [term for term in terms if term.vectors is None]
    # samples[n, k]: factor of scalar term k at step n; per_stage[i][k]: its
    # vector in stage i
    samples = _sample(scalar, N, tau)
    per_stage = [[term.vectors[i] for term in scalar] for i in range(stages)]
    live = samples.any(axis=1)  # steps where some scalar term is nonzero
    if history is not None:
        history[0] = U

    def forcing(n):
        parts = [term.stencil(term.fn((n + term.shift) * tau)) for term in general]
        if live[n]:
            parts.append([sum(c * v for c, v in zip(samples[n], vectors) if c)
                          for vectors in per_stage])
        if not parts:
            return [0.0] * stages
        return [functools.reduce(operator.add, stage) for stage in zip(*parts, strict=True)]

    def stepwise(U, start, stop):
        for n in range(start, stop):
            U = step(U, forcing(n))
            _check_finite(U, n + 1)
            if history is not None:
                history[n + 1] = U
        return U

    m, r = U.reshape(len(U), -1).shape
    vector = U.ndim == 1
    # for a matrix state first the longest block any forcing allows: no SVD
    # is taken below the break-even gate
    K = 1 if toeplitz_stages or general and not vector else _block_steps(
        m, N, r, 1 if vector else _BLOCK)
    stacks = None
    if K > 1 and not vector:  # the step is L U R^T + f: the term's forcing is its own vector
        (D,) = per_stage[0]
        stacks = _spatial_factors(D)
        K = _block_steps(m, N, r, stacks[2], samples)
    if K == 1:
        return stepwise(U, 0, N)
    if vector:  # a vector step maps a matrix column by column: one call for all terms
        factors = (step(np.eye(m), [0.0] * stages),)
        D = step(np.zeros((m, len(scalar))), [np.column_stack(v) for v in per_stage]).T \
            if scalar else np.empty((0, m))

    @functools.cache
    def forcing_map(term):
        # step(0, stencil(I)), formed once like G, transposed, and only for a
        # term with a nonzero field; a nodal field has one more value at
        # each end than the state
        return step(np.zeros((m, m + 2)), term.stencil(np.eye(m + 2))).T

    def general_forcing(start, stop, rows):
        # one row a step: each term's nodal fields, sampled for the group at
        # once, one product with its map unless they are all zero; whether
        # any was not
        forced = False
        for term in general:
            fields = _sample_run(term.fn, start + term.shift, stop - start, tau, term.batch)
            if fields.any():
                rows += fields @ forcing_map(term)
                forced = True
        return forced

    return _march_blocks(U, factors=factors, D=D, samples=samples, K=K, stepwise=stepwise,
                         history=history, general=general_forcing if general else None,
                         stacks=stacks)


def _sample(terms, N, tau):
    """samples[n, k] = terms[k].fn((n + shift_k) * tau).

    Terms with one callable whose shifts differ by whole steps read one run
    of samples, taken by _sample_run at the distinct times of the run (the
    far boundary trace enters at shifts 0 and 1).
    """
    samples = np.empty((N, len(terms)))
    runs = {}
    for k, term in enumerate(terms):
        runs.setdefault((id(term.fn), math.modf(term.shift)[0]), []).append(k)
    for ks in runs.values():
        # the shifts share their fractional part, so j + first is exactly
        # n + shift_k for j = n + lag_k
        first = min(terms[k].shift for k in ks)
        lags = [int(terms[k].shift - first) for k in ks]
        values = _sample_run(terms[ks[0]].fn, first, N + max(lags), tau)
        for k, lag in zip(ks, lags):
            samples[:, k] = values[lag:lag + N]
    return samples


def _sample_run(fn, first, count, tau, batch=None):
    """fn((j + first) * tau) for j = 0, ..., count - 1, stacked along a new
    first axis: scalar factors, or the nodal fields of a plain source.

    From two times on (one time is one call either way), one call takes the
    array of those times, the same floats a call per time would receive:
    fn itself, or ``batch``, which passes them to a plain source as a column
    against its nodes.  The result is taken where it broadcasts to the
    stacked shape, is finite and agrees, element by element, with fn at the
    first and last time to 1e-12 relative; otherwise, or where the array
    call raises, fn is called once per time, as a scalar-only callable
    (``math.exp``, or one that branches on t) needs.
    """
    if count > 1:
        times = (np.arange(count) + first) * tau
        try:
            values = np.asarray((batch or fn)(times), dtype=float)
            ends = np.array([fn((j + first) * tau) for j in (0, count - 1)], dtype=float)
            values = np.ascontiguousarray(np.broadcast_to(values, (count,) + ends.shape[1:]))
            got = values[[0, -1]]
            if np.isfinite(values).all() and (
                    np.abs(got - ends) <= 1e-12 * np.maximum(np.abs(got), np.abs(ends))).all():
                return values
        except Exception:  # a genuine error is raised again by the calls per time
            pass
    return np.array([fn((j + first) * tau) for j in range(count)], dtype=float)


def _march_blocks(U, *, factors, D, samples, K, stepwise, history=None, general=None,
                  stacks=None):
    """Units of K steps, then one unit of the N mod K steps left over, all
    by one loop; ``stepwise`` is the reference it falls back on.

    The step is compiled: ``factors`` is (G,) for a vector state and (L, R)
    for an (m, r) matrix state, whose step maps U to L U R^T + sum_t c_t D_t
    (for a vector, R = [[1]] and L = G), with c_t = ``samples[n, t]`` and
    D_t row t of ``D`` for a vector state; a matrix state has one term, D
    an (m, r) matrix, and ``stacks`` = (XL, XR, w) its forcing stacks and
    their piece length (see _spatial_factors).  A unit of k steps maps the
    state to L^k U (R^k)^T plus the unit's forcing.  A vector state that
    records every state (a stored ``history``) or has general terms
    (``general(start, stop, rows)`` adds their forcing to the rows of those
    steps and says whether it added any) takes groups of one-step blocks
    for units: one row a step, holding d_n = sum_t samples[n, t] D_t.  Any
    other run takes blocks of steps, whose forcing is the sum over its
    steps i of samples[n + i] L^(k-1-i) D (R^(k-1-i))^T: for a vector state
    the product of the block's samples g, last step first, with the head of
    the forcing stack, whose row i T + t holds L^i D_t; for a matrix state
    sum_j (g V^T)_j Z_j, with V an orthonormal basis of the row space of the
    samples of all blocks of that length (see _sample_basis) and
    Z_j = sum_i V[j, i] L^i D (R^i)^T formed from the heads of the stacks of
    L^i A and R^i B, D = A B^T, in pieces of w steps (see _block_forcing):
    both block lengths use the same stacks.

    The stacks are filled by doubling, the first 2^i entries through
    L^(2^i) (R^(2^i)) giving the next 2^i, one product each, as the
    squarings of the factors are formed one after another.  A squaring is
    held only while it is still needed: L^K and R^K, the product of those
    at the bits of N mod K, and L^w, R^w where the pieces are shorter than
    a block.

    The units go a chunk at a time, K of them (fewer only where fewer are
    left).  A matrix state's chunk holds one state at a time besides the
    state it starts from: each block is U <- L^k U (R^k)^T + its forcing.
    A vector state's chunk is filled in rows of ``history`` or of one
    scratch buffer, K^2 rows of m floats at most, no more than a history
    would hold (K^2 <= N for a vector state, see _block_steps).  The rows receive the chunk's forcing in one
    product, none where its samples are all zero, and a general term's one
    group at a time, its fields stacked for that group's steps alone; then
    _fill_groups fills them with the states, the unit ends following one
    another through G^k.

    With gamma, the product of the infinity norms of the squarings of the
    factors, bounding the growth of any j <= K steps, a chunk is accepted
    only when every state it holds is finite and within _BLOCK_LIMIT and so
    is gamma (|state before a unit| + the sup-norm bound of the forcing in
    it): no step inside a block, and no part a group's rows are summed
    from, can then have come near the limit.  A one-step unit is its own
    only state, accepted on its row alone, and for a matrix state on a
    finite forcing bound (a non-finite sample of a zero forcing makes no
    state non-finite).  A chunk that fails is replayed from its start by
    ``stepwise``, which rewrites its rows and raises at the exact step.
    Where G grows states, gamma is large and such chunks go back to the
    stepwise path: stored histories of ex5_1 at lam*h from 1.5 to 6 kept
    within 2.1e-13 of it, where one product a step on G drifted by up to
    2.4e-6.
    """
    N, T = samples.shape
    vector = U.ndim == 1
    m = len(factors[0])
    grouped = history is not None or general is not None
    # the stacks hold w entries of ``height`` rows: a block's forcing or a
    # piece of it, one step for a group's rows
    if vector:
        sizes = np.abs(D).max(axis=1)
        height, w = T, 1 if grouped else K
        stacks = (np.empty((w * T, m)),)
        stacks[0][:T] = D
    else:  # S rows an entry, none at w = 1, where a piece is one step's forcing
        XL, XR, w = stacks
        sizes = np.array([np.abs(D).max()])
        height, w = len(XL) // w, min(w, K)
        stacks = XL[:w * height], XR[:w * height]
    # sup-norm bound of each step's forcing, summed per unit below
    forcing_bound = np.abs(samples) @ sizes

    # The squarings of the factors for every bit of K, formed one at a time
    # and kept only in power[k], the k-th powers of the factors for the unit
    # lengths k and the piece length w.  Since
    # ||L V R^T||_max <= ||L||_inf ||V||_max ||R||_inf, the product of their
    # norms (at least 1 each) bounds the growth of any j <= K steps.  An
    # unstable step may overflow them: gamma is then inf or NaN, and every
    # chunk is replayed.
    power = {k: None for k in (K, N % K, w) if k}
    norms = []
    squarings = factors
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(K.bit_length()):
            if i:
                squarings = [P @ P for P in squarings]
            norms += [np.abs(P).sum(axis=1).max() for P in squarings]
            done = 1 << i  # entries of the stacks filled
            if done < w:
                c = min(done, w - done) * height
                for X, P in zip(stacks, squarings):
                    np.matmul(X[:c], P.T, out=X[done * height:done * height + c])
            for k, Pk in power.items():
                if k >> i & 1:
                    power[k] = squarings if Pk is None else [P @ Q for P, Q in zip(squarings, Pk)]
    # Python floats overflow to inf silently; np.maximum keeps a NaN
    gamma = math.prod(np.maximum(1.0, norms).tolist())

    n = 0
    u_norm = abs(U).max()
    for length in (K, N % K):
        units = (N - n) // length if length else 0
        if not units:
            continue
        k, q = (1, length) if grouped else (length, 1)
        bounds = forcing_bound[n:n + units * length].reshape(units, length).sum(axis=1)
        # one row of samples a row of the chunk, a block's last step first
        g = samples[n:n + units * length].reshape(units * q, k, T)[:, ::-1].reshape(units * q, k * T)
        if not vector:  # the blocks' forcing in the row space of their samples, none for D = 0
            V, coordinates = (_sample_basis(g) if sizes.any()
                              else (np.empty((0, k)), np.empty((len(g), 0))))
            Z = _block_forcing(stacks, D, V, w, power[w])
        elif history is None:  # the rows of a chunk of K units
            scratch = np.empty((min(units, K) * q, m))
        for first in range(0, units, K):
            last = min(first + K, units)
            start, stop = n + first * length, n + last * length
            if vector:
                rows = (scratch[:(last - first) * q] if history is None
                        else history[start + 1:stop + 1])
                forced = g[first * q:last * q].any()
                if forced:
                    np.matmul(g[first * q:last * q], stacks[0][:k * T], out=rows)
                else:
                    rows[...] = 0.0
                if general is not None:
                    for a in range(start, stop, q):
                        forced |= general(a, a + q, rows[a - start:a - start + q])
                groups = rows.reshape(-1, q, m)
            with np.errstate(over="ignore", invalid="ignore"):
                pushed = bounds[first:last]  # the forcing bound of each unit
                if not vector:
                    previous, ends = _march_states(U, *power[length], Z, coordinates[first:last])
                    # False for inf or NaN
                    accepted = (ends <= _BLOCK_LIMIT).all() and np.isfinite(pushed).all()
                else:
                    if grouped and forced:  # general terms too, before the fill, without |rows|
                        pushed = np.maximum(groups.max(axis=2), -groups.min(axis=2)).sum(axis=1)
                    previous = _fill_groups(groups, U, factors[0], power[length][0], forced)
                    ends = np.abs(groups[:, -1]).max(axis=1)
                    accepted = (ends <= _BLOCK_LIMIT).all()
                    if q > 1:  # the rows inside the groups, without holding their |.|
                        inner = groups[:, :-1]
                        accepted &= inner.max() <= _BLOCK_LIMIT and -inner.min() <= _BLOCK_LIMIT
                if length > 1:
                    before = np.concatenate(([u_norm], ends[:-1]))
                    accepted &= (gamma * (before + pushed) <= _BLOCK_LIMIT).all()
            if accepted:  # a vector state's last row is a view
                U, u_norm = previous.copy() if vector else previous, ends[-1]
            else:
                U = stepwise(U, start, stop)
                u_norm = abs(U).max()
        n += units * length
    return U


def _sample_basis(g):
    """(V, g V^T): an orthonormal basis V of the row space of the samples
    g, one basis vector a row, and the rows of g in it.

    The rank counts the singular values above eps max(g.shape) times the
    largest, of g with each nonzero row scaled to a largest entry of 1:
    every row then keeps its own accuracy in the basis, however small it is
    beside the others (a row's part outside the basis is at most
    eps max(g.shape) sqrt(rows) times its size).  Samples that are not all
    finite are taken as they stand, V the identity: their blocks' states
    are then not finite either, and are replayed stepwise.
    """
    if not np.isfinite(g).all():
        return np.eye(g.shape[1]), g
    size = np.abs(g).max(axis=1)
    _, s, V = np.linalg.svd(g[size > 0] / size[size > 0, None], full_matrices=False)
    V = V[:np.count_nonzero(s > np.finfo(float).eps * max(g.shape) * s[:1])]
    return V, g @ V.T


def _spatial_factors(D):
    """The forcing stacks of a matrix state whose step is forced by the
    (m, r) matrix D, and their piece length: (XL, XR, w).

    D is factored as A B^T by a thin SVD, its spatial rank S the count of
    singular values above eps max(m, r) times the largest (0 for a zero D);
    a D that is not all finite is taken at full rank, A = D and B = I, so
    that the blocks it forces are not finite either and are replayed
    stepwise.  w is the piece length of rank S (see _piece_steps).  The
    stacks hold L^i A and R^i B for i < w, transposed: rows i S + c.  Only
    the heads, A^T and B^T, are written here; _march_blocks fills the rest
    by doubling.  At w = 1 the stacks are empty: a piece of one step is
    that step's forcing, a multiple of D, which takes no product (see
    _block_forcing).
    """
    m, r = D.shape
    if np.isfinite(D).all():
        U, s, Vt = np.linalg.svd(D, full_matrices=False)
        S = np.count_nonzero(s > np.finfo(float).eps * max(m, r) * s[:1])
        At, Bt = s[:S, None] * U[:, :S].T, Vt[:S]
    else:
        At, Bt = D.T, np.eye(r)
    w = _piece_steps(m, r, len(Bt))
    if w == 1:
        return np.empty((0, m)), np.empty((0, r)), w
    XL, XR = np.empty((w * len(Bt), m)), np.empty((w * len(Bt), r))
    XL[:len(Bt)], XR[:len(Bt)] = At, Bt
    return XL, XR, w


def _block_forcing(stacks, D, V, w, power):
    """Z_j = sum_i V[j, i] L^i D (R^i)^T for each j, from the ``stacks``
    (XL, XR) of a matrix state forced by D (see _spatial_factors), their w
    entries of S rows each.

    The k steps of the block go in pieces of w.  The piece from step p on
    is L^p P (R^p)^T, with P = sum_i V[j, p + i] (L^i A)(R^i B)^T one
    product of the stacks' heads: (XL^T scaled by V's row) XR; for w = 1,
    P = V[j, p] D takes no product.  The pieces are joined by Horner
    through (L^w, R^w) = ``power``, a pair of products each; a block of at
    most w steps takes one piece and no Horner.  Returns the Z_j
    flattened, one a row.
    """
    rank, k = V.shape
    (XL, XR), (Lw, Rw) = stacks, power
    Z = np.empty((rank,) + D.shape)
    for j, v in enumerate(V):
        for p in range((k - 1) // w * w, -1, -w):  # the pieces, the last first
            if w == 1:
                piece = v[p] * D if v[p] else 0.0
            else:
                scale = np.repeat(v[p:p + w], len(XL) // w)[:, None]
                piece = (scale * XL[:len(scale)]).T @ XR[:len(scale)]
            Z[j] = piece if p + w >= k else Lw @ Z[j] @ Rw.T + piece
    return Z.reshape(rank, D.size)


def _march_states(U, Lk, Rk, Z, coordinates):
    """The blocks from U on, one state at a time: U <- Lk U Rk^T plus the
    forcing c Z of the block's ``coordinates`` c against the flattened
    maps Z (see _block_forcing); returns the last state and the sup-norm
    of each."""
    ends = np.empty(len(coordinates))
    RkT = Rk.T
    for b, c in enumerate(coordinates):
        U = Lk @ U @ RkT
        if c.any():
            U += (c @ Z).reshape(U.shape)
        ends[b] = np.maximum(U.max(), -U.min())  # NaN where U holds one
    return U, ends


def _fill_groups(groups, U, L, Lq, forced):
    """Fill ``groups``, J groups of q rows each holding one block's forcing
    (for q > 1 one step's), with the states of the blocks from the vector
    U on; returns the last.  ``forced`` is False where all the forcing is
    zero.

    The states of a group from its start S are L^(i+1) S plus the
    particular part, the sum of L^(i-l) d_l over its steps l <= i.  Three
    passes: the particular parts of all J groups at once, q - 1 products of
    a (J, m) block with L^T, none for zero forcing; the group ends, one
    after the other, S_(j+1) = L^q S_j + particular part, the only
    dependent products; then the homogeneous parts of all groups at once,
    q - 1 more products with L^T.  For q = 1 only the ends are left: one
    product a block.
    """
    q = groups.shape[1]
    if q > 1 and forced:
        for i in range(1, q):
            groups[:, i] += groups[:, i - 1] @ L.T
    ends = groups[:, -1]
    previous = U
    for state in ends:
        state += Lq @ previous
        previous = state
    if q > 1:
        Y = np.concatenate((U[None], ends[:-1]))  # the group starts
        for i in range(q - 1):
            Y = Y @ L.T
            groups[:, i] += Y
    return previous


def _solve(spec, thetas, P, terms, store_history):
    """Run the scheme whose step is the theta-stage on ``side`` for each
    (side, theta) of ``thetas`` in turn (see _stage), with the forcing
    ``terms``.  The stages are built and the run marches on one BLAS thread
    (see :mod:`tempfrac._blas`)."""
    grid, time, lam = spec.grid, spec.time, spec.params.lam
    U0 = _field(spec.initial, "the initial data", (grid.M - 1,), grid.interior())
    history = None
    if store_history:  # the march fills the interior columns in place
        history = np.empty((time.N + 1, grid.M + 1))
        for column, trace in ((0, spec.boundary_left), (-1, spec.boundary_right)):
            history[:, column] = _sample_run(trace, 0.0, time.N + 1, time.tau)
    with single_thread():
        stages = [_stage(side, grid, lam, P, time.tau, theta) for side, theta in thetas]
        U = _march(functools.partial(_apply_stages, stages), len(stages), U0, time, terms,
                   None if history is None else history[:, 1:-1],
                   toeplitz_stages=_toeplitz_stages(grid.M - 1, lam * grid.h))
    values = _with_boundaries(spec, U, time.T)
    return Solution1D(grid=grid, time=time, values=values, history=history)


def _apply_stages(stages, U, forcing):
    """One scheme step: U <- solve(apply(U) + f) for each stage (solve, apply)."""
    for (solve, apply), f in zip(stages, forcing, strict=True):
        U = solve(apply(U) + f)
    return U


def _stage(side, grid, lam, P, tau, theta):
    """The (solve, apply) pair of the theta-stage (B - a P) U' = (B + b P) U + f
    on ``side``, with a = theta tau and b = (1 - theta) tau.

    ``P`` is the first column and row of the left-sided P without tau (see
    :func:`~tempfrac.operators.P_column_row`); the right-sided stage takes
    its transpose, and B is that side's compact filter.  A side with a = 0
    solves B banded, one with b = 0 applies it banded; every other stage
    matrix is served by _toeplitz_map.
    """
    B = assemble_B(side, grid, lam)
    (B_col, B_row), (col, row) = B.column_row(), P if side == "left" else P[::-1]
    a, b, lam_h = theta * tau, (1.0 - theta) * tau, lam * grid.h
    solve = B.solve if a == 0 else _toeplitz_map(B_col - a * col, B_row - a * row, lam_h,
                                                 inverse=True)
    apply = B.matvec if b == 0 else _toeplitz_map(B_col + b * col, B_row + b * row, lam_h)
    return solve, apply


def _toeplitz_stages(m, lam_h):
    """Whether stage matrices of dimension m are served through their
    Toeplitz structure (see _toeplitz_map) rather than expanded."""
    return m >= _TOEPLITZ_DIM and lam_h <= 1.0


def _toeplitz_map(col, row, lam_h, inverse=False):
    """b -> T b, or T^{-1} b with ``inverse``, for the stage matrix
    T = toeplitz(col, row); a matrix b is mapped column by column.

    Where lam*h <= 1 every stage matrix that is solved (B - a P with
    a = theta tau > 0, see _stage) is positive real, its symmetric part
    positive definite, so no leading principal minor is singular and
    Levinson recursion cannot break down.  There, from
    _TOEPLITZ_DIM unknowns on, T is never expanded: a product embeds it in a
    circulant, and a solve applies the Gohberg-Semencul formula to the two
    generators T^{-1} e_1 and T^{-1} e_m (see _generators), every triangular
    Toeplitz product one FFT against a precomputed spectrum (O(m log m) a
    step).  Otherwise T is expanded, and LU-factored in place for a solve:
    toeplitz(row, col).T is T in Fortran order, which LAPACK factors without
    a second copy.  Measured per stage on 2 cores (build / step), LU against
    generators and FFT: m = 399, 3 ms / 60 us against 1.1 ms / 95 us (with
    Levinson generators); m = 3199, 410 ms / 6.5 ms against 16-18 ms /
    0.37-0.41 ms (Levinson: 45-50 ms); the generators and FFT build in
    9-11 ms at m = 1599.  At m = 1599 and 3199 the generators from GMRES
    are within 1e-17 to 7e-14 of a dense solve refined in long double, 6 to
    5e5 times closer than Levinson's, and the FFT solve is off by up to
    9e-14 relative (with Levinson's generators 7e-11, LU 8e-12).
    """
    m = len(col)
    if not _toeplitz_stages(m, lam_h):
        if not inverse:
            return toeplitz(col, row).dot
        lu = lu_factor(toeplitz(row, col).T, overwrite_a=True)
        return lambda b: lu_solve(lu, b, check_finite=False)
    n = next_fast_len(2 * m - 1, real=True)
    if not inverse:
        return _circulant_product(col, row, n)
    x, y = _generators(col, row, n)
    # T^{-1} = (L(x) U(Jy) - L(Zy) U(ZJx)) / x_0, with L(v) (U(v)) the lower
    # (upper) triangular Toeplitz matrix of first column (row) v, J the
    # reversal and Z the down shift.  L(v) b is the head of the convolution
    # of v and b, U(v) b that of their correlation: the conjugate spectrum.
    lower = rfft(np.stack((x, np.r_[0.0, y[:-1]])) / x[0], n)
    upper = np.conj(rfft(np.stack((y[::-1], np.r_[0.0, x[:0:-1]])), n))

    def solve(b):
        B = rfft(b.reshape(m, -1), n, axis=0)
        V = irfft(upper[:, :, None] * B, n, axis=1)[:, :m]  # U(Jy) b, U(ZJx) b
        W = rfft(V, n, axis=1)
        return irfft(lower[0][:, None] * W[0] - lower[1][:, None] * W[1],
                     n, axis=0)[:m].reshape(b.shape)

    return solve


def _circulant_product(col, row, n, dtype=float):
    """b -> T b for T = toeplitz(col, row), in ``dtype``: T is the leading
    m x m block of the n-circulant with first column (col, 0, ..., 0, J row)."""
    m = len(col)
    column = np.concatenate((col, np.zeros(n - 2 * m + 1), row[:0:-1])).astype(dtype)
    spectrum = rfft(column)

    def apply(b):
        B = rfft(b.reshape(m, -1).astype(dtype, copy=False), n, axis=0)
        return irfft(spectrum[:, None] * B, n, axis=0)[:m].reshape(b.shape)

    return apply


def _generators(col, row, n):
    """x = T^{-1} e_1 and y = T^{-1} e_m for T = toeplitz(col, row), from
    _krylov_generators where they certify their residual, else by Levinson."""
    m = len(col)
    E = np.zeros((m, 2))
    E[0, 0] = E[-1, 1] = 1.0
    X = _krylov_generators(col, row, n, E)
    if X is None:
        X = solve_toeplitz((col, row), E, check_finite=False)
    return X.T


def _krylov_generators(col, row, n, E):
    """T^{-1} E for the two unit columns E, by GMRES preconditioned with
    T's Strang circulant and refined against residuals in extended
    precision; None unless every GMRES call converged within _GMRES_CAP
    iterations and, within _REFINEMENTS refinements, a refined residual
    max |E - T X| came to at most _GENERATOR_RESIDUAL.

    A residual in double precision cannot certify the generators: the
    rounding of T X alone is about eps |T| |X|, and an unrefined solve
    stopped at a 1e-13 residual left generators 17 to 120 times less
    accurate than Levinson's at m = 3199.  Each refinement
    X <- X + GMRES(E - T X) is followed by one FFT product that takes the
    new residual E - T X in ``np.longdouble``; that residual is both the
    stop test and the certificate: the pair is accepted as soon as it
    passes, and otherwise it is the right-hand side of the next refinement,
    so no residual is formed twice.  At least one refinement runs: an
    unrefined solve is never accepted, even where its residual would pass.
    On the stages of the 1D solvers at m = 1599, 3199 and 102,399 one
    refinement certifies the pair: two GMRES calls and two long-double
    products.  Where that type is no wider than double (Windows, macOS on
    arm64) the caller takes Levinson.
    """
    eps = np.finfo(float).eps
    if np.finfo(_EXTENDED).eps >= eps:
        return None
    m = len(col)
    # Strang's circulant C keeps the central diagonals of T, c_k for
    # k <= m/2 and r_(m-k) above, wrapped around
    half = m // 2
    eigenvalues = rfft(np.concatenate((col[:half + 1], row[m - half - 1:0:-1])))
    size = np.abs(eigenvalues)
    if not size.min() > eps * size.max():
        return None  # singular, or too near it to precondition with
    # a product with C^{-1} is a circular convolution of length m, taken as
    # a linear one at the fast length n of the product with T and wrapped
    inverse = rfft(irfft(1.0 / eigenvalues, m), n)

    def precondition(V):
        W = irfft(inverse[:, None] * rfft(V, n, axis=0), n, axis=0)
        W[:m - 1] += W[m:2 * m - 1]
        return W[:m]

    product = _circulant_product(col, row, n)
    extended = _circulant_product(col, row, n, _EXTENDED)
    X = _gmres(product, precondition, E)
    if X is None:
        return None
    residual = E - extended(X)
    for _ in range(_REFINEMENTS):
        D = _gmres(product, precondition, residual.astype(float))
        if D is None:
            return None
        X = X + D
        residual = E - extended(X)
        if np.abs(residual).max() <= _GENERATOR_RESIDUAL:
            return X
    return None


def _gmres(product, precondition, B):
    """X with product(X) = B by right-preconditioned GMRES, one Krylov space
    per column of B, all columns sharing each call of ``product`` and
    ``precondition``; None unless each column's residual falls to _GMRES_TOL
    of its right-hand side within _GMRES_CAP iterations.

    The basis is orthogonalized by classical Gram-Schmidt, applied twice.
    The least-squares residual after j steps is ||B_c|| / ||z|| for the z
    with z_0 = 1 and z^T H = 0 (H the (j + 1) x j Hessenberg matrix), built
    one entry a step; with right preconditioning it is the residual of
    product(X) = B itself.
    """
    m, k = B.shape
    beta = np.linalg.norm(B, axis=0)
    V = np.empty((k, _GMRES_CAP + 1, m))  # the Arnoldi basis of each column
    V[:, 0] = (B / np.where(beta > 0, beta, 1.0)).T
    H = np.zeros((k, _GMRES_CAP + 1, _GMRES_CAP))
    z = np.zeros((k, _GMRES_CAP + 1))
    z[:, 0] = 1.0
    steps = np.zeros(k, dtype=int)  # the step at which each column converged
    for j in range(_GMRES_CAP):
        w = product(precondition(V[:, j].T)).T.copy()
        for _ in range(2):
            h = V[:, :j + 1] @ w[:, :, None]
            w -= (h.transpose(0, 2, 1) @ V[:, :j + 1])[:, 0]
            H[:, :j + 1, j] += h[:, :, 0]
        norm = np.linalg.norm(w, axis=1)
        H[:, j + 1, j] = norm
        # an exact solve (norm 0) gives an infinite z: its residual is 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z[:, j + 1] = -np.einsum("ci,ci->c", z[:, :j + 1], H[:, :j + 1, j]) / norm
            converged = np.linalg.norm(z[:, :j + 2], axis=1) * _GMRES_TOL >= 1.0
        steps[(steps == 0) & (converged | (beta == 0))] = j + 1
        if steps.all():
            break
        V[:, j + 1] = w / np.where(norm > 0, norm, 1.0)[:, None]
    else:
        return None
    X = np.empty((m, k))
    for c, s in enumerate(steps):  # min ||beta_c e_1 - H y|| over y
        rhs = np.zeros(s + 1)
        rhs[0] = beta[c]
        X[:, c] = np.linalg.lstsq(H[c, :s + 1, :s], rhs, rcond=None)[0] @ V[c, :s]
    return precondition(X)


# ------------------------------------------------------------ the schemes


def _solve_one_sided(spec, side, store_history):
    """(B - tau P) U^{n+1} = B U^n + tau T F^{n+1} + H^{n+1}: the stage at
    theta = 1, with P without tau.

    T F is the compact filter on all nodes, the boundary samples of the
    source included; H holds the far trace at both time levels (the near
    trace is required to vanish).  H is linear in that trace, so two unit
    vectors from ``assemble_H`` carry it.
    """
    grid, params, tau = spec.grid, spec.params, spec.time.tau
    P = P_column_row(params, grid, tau, include_tau=False)
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
    return _solve(spec, ((side, 1.0),), P, terms, store_history)


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
    P = P_column_row(spec.params, grid, tau, include_tau=False)
    half = 0.5 * tau
    term = _source_term(spec.source, (grid.nodes(),), 0.5, lambda F: (
        half * apply_compact("left", lam, grid.h, F),
        half * apply_compact("right", lam, grid.h, F),
    ))
    return _solve(spec, (("left", 0.0), ("right", 1.0)), P, (term,), store_history)
