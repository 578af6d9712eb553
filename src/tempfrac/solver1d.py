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
product one FFT (O(m log m) a step instead of O(m^2), no dense matrix).  A
solved stage matrix is Hessenberg, and the generators come from its
symbol's Wiener-Hopf factor, a direct solve in O(m log m) as well, refined
against a residual taken in extended precision that certifies them (see
``_generators``); a pair that fails to certify is replaced by Levinson's
(O(m^2)).  All of them act column by column on matrices.
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
  matrix of a matrix state; the temporal samples; K; and the heads of the
  forcing stacks: D itself for a vector state, the spatial factors A^T
  and B^T of D = A B^T for a matrix state (_spatial_factors, rank 2 for
  ex5_3).  A block is U <- L^K U (R^K)^T plus the sum over its steps j of
  g_j L^j D (R^j)^T, g_j the samples of its steps, and one rule forms it
  for both states: one product of the block's own samples with the
  stacks, of the terms L^j D_t for a vector state (r = 1, L = G), of
  L^j A and R^j B for a matrix state (2D), where a block whose samples
  are a multiple of an earlier block's takes that block's forcing times
  the multiple (one product for each block length for e^{-t}) and one
  state is held at a time.  A 1D run with a stored history or a
  plain-callable source marches in blocks of one step, U <- G U + d_n: a
  plain source is called once per group with an array of times where it
  broadcasts, else once per step, and the fields of a group of steps reach their d_n through one
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
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import lu_factor, lu_solve, solve_banded, solve_toeplitz, toeplitz

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
# the columns of the sketch that finds a small spatial rank of a 2D forcing
# (see _spatial_factors)
_SKETCH = 8
# stage matrices of at least this dimension are solved and applied through
# their Toeplitz structure where lam*h <= 1 (see _toeplitz_map)
_TOEPLITZ_DIM = 600
# the two generators of such a solve come from the Wiener-Hopf factor of
# the Hessenberg stage matrix (see _generators) where, within _REFINEMENTS
# refinements, a refined residual taken in _EXTENDED precision is at most
# _GENERATOR_RESIDUAL; otherwise from Levinson
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

    ``profile`` maps the space arguments (the nodes in 1D; in 2D the
    broadcasting grids X, Y of the nodes, or the full meshgrid where the
    result on those fails its checks, see
    :class:`~tempfrac.solver2d.ProblemSpec2D`) to the space factor, and
    ``temporal`` maps a time to a scalar.  The solvers evaluate the profile
    once per run and march such problems in blocks of steps.  A
    ``temporal`` that also maps an array of times to the array of its
    values (``np.exp``, not ``math.exp``) is called once per run; otherwise
    once per time level.  A boundary trace is a scalar function of time, so
    it is separable as it stands and needs no such wrapper.
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


def _agree(got, want):
    """Whether two arrays agree, element by element, to 1e-12 relative."""
    return bool((np.abs(got - want) <= 1e-12 * np.maximum(np.abs(got), np.abs(want))).all())


def _grid_field(fn, name, shape, X, Y, *rest):
    """fn(X, Y, *rest) as a float array of the 2D node shape ``shape``, for
    X and Y the broadcasting grids of the nodes, of shapes (M_x + 1, 1) and
    (1, M_y + 1).

    fn is called on those grids, which an elementwise callable needs no
    more than.  The result is taken where it broadcasts to ``shape``, is
    finite and agrees, element by element to 1e-12 relative, with fn on the
    full grid's first and last rows and first and last columns, all in one
    call on a frame of two rows: the first row and column, then the last
    ones (the rule _sample_run applies to times).  Otherwise, or where one
    of those calls raises, fn is called on the full meshgrid and _field's
    rules apply, as a callable that draws or writes by the shape of its
    arguments needs (a seeded table of X.shape, an in-place write at one
    node).  The frame follows _field's rules too, so a result of the wrong
    shape is refused there even where it broadcasts on the grids.
    """
    m, r = shape
    # the nodes (i, j) of the frame: the first row and column, then the last
    i = np.empty((2, m + r), dtype=np.intp)
    i[:, :r], i[:, r:] = [[0], [m - 1]], np.arange(m)
    j = np.empty_like(i)
    j[:, :r], j[:, r:] = np.arange(r), [[0], [r - 1]]

    def frame(a):
        return np.broadcast_to(a, shape)[i, j]

    try:
        value = np.asarray(fn(X, Y, *rest), dtype=float)
        if np.isfinite(value).all() and _agree(
                frame(value), _field(fn, name, i.shape, frame(X), frame(Y), *rest)):
            return value if value.shape == shape else np.broadcast_to(value, shape).copy()
    except Exception:  # a genuine error is raised again by the call on the full grid
        pass
    return _field(fn, name, shape, *np.meshgrid(X.ravel(), Y.ravel(), indexing="ij"), *rest)


def _source_term(source, space, shift, stencil):
    """Forcing term of ``source`` on the nodes ``space``: (x,) in 1D, the
    broadcasting grids (X, Y) in 2D (see _grid_field); ``stencil`` maps a
    nodal field to the per-stage forcing vectors."""
    shape = np.broadcast_shapes(*(np.shape(s) for s in space))
    field = _field if len(space) == 1 else _grid_field
    if isinstance(source, SeparableSource):
        profile = field(source.profile, "the source profile", shape, *space)
        return _Term(source.temporal, shift, stencil(profile))
    # the times down a first axis, against the nodes
    column = (-1,) + (1,) * len(shape)
    return _Term(functools.partial(field, source, "the source", shape, *space), shift,
                 stencil=stencil, batch=lambda times: source(*space, times.reshape(column)))


def _block_steps(m, N, r=1, S=None):
    """The block length K of a run of N steps on an (m, r) state; 1 selects
    the stepwise path.  A matrix state gives the spatial rank S of its
    forcing (see _spatial_factors), 0 for the longest block any forcing
    allows; a vector state gives none.

    Forming the factors L, R and their powers costs about 32 (m^3 + r^3)
    flops.  Each compiled step saves the per-step overhead (some 40 us) and
    the flops of a stepwise step: 2 m^2 for a vector state (r = 1, one LU
    solve) and 2 m r (m + r) in 2D (the two dense products of L U R^T).  At
    0.5 ns per flop compiling pays when N (4e4 + half those flops) >=
    16 (m^3 + r^3), which in 2D means from about 12 to 16 steps at
    m = r = 39 to 239; measured on 2 cores (best of 5), the 2D block path
    breaks even with the stepwise one between 8 and 32 steps there.

    Where it pays, K is the largest power of two up to _BLOCK with
    K^2 <= N for a vector state, and with K <= N and K S < m + r for a
    matrix state.  A vector state's forcing stack costs about K products
    against the N / K dependent ones of the march.  A matrix state's
    stacks hold K entries of S rows, so they are never larger than L and
    R together, and a block's forcing, one product of its samples with
    them (see _march_blocks), costs 2 m r K S flops, less than one step,
    so a block of K steps costs less than two.  Where no block of two
    steps pays, 2 S >= m + r (a forcing of full spatial rank on a square),
    the run steps.  So ex5_3 (S = 2, e^{-t}) takes K = 8, 16, 32
    and 64 at M = 10, 20, 40 and 80, and 64 from there on.
    """
    saved = m * m if r == 1 else m * r * (m + r)
    if N * (4e4 + saved) < 16.0 * (m**3 + r**3):
        return 1
    K = _BLOCK
    while K > 1 and (K * K > N if S is None else K > N or K * S >= m + r):
        K //= 2
    return K


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
    and the forcing rows D_t = step(0, vectors of term t), the heads of
    its forcing stack; a matrix state on (L, R) and its term's vector D,
    whose spatial factors, the heads of its stacks, are found before K is
    priced at their rank (see _spatial_factors).  A run whose terms are all
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
        m, N, r, None if vector else 0)
    if K > 1 and not vector:  # the step is L U R^T + f: the term's forcing is its own vector
        (D,) = per_stage[0]
        heads, K = _spatial_factors(D, N)
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
                         heads=(D,) if vector else heads, history=history,
                         general=general_forcing if general else None)


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
            if np.isfinite(values).all() and _agree(values[[0, -1]], ends):
                return values
        except Exception:  # a genuine error is raised again by the calls per time
            pass
    return np.array([fn((j + first) * tau) for j in range(count)], dtype=float)


def _march_blocks(U, *, factors, D, samples, K, stepwise, heads, history=None, general=None):
    """Units of K steps, then one unit of the N mod K steps left over, all
    by one loop; ``stepwise`` is the reference it falls back on.

    The step is compiled: ``factors`` is (G,) for a vector state and (L, R)
    for an (m, r) matrix state, whose step maps U to L U R^T + sum_t c_t D_t
    (for a vector, R = [[1]] and L = G), with c_t = ``samples[n, t]`` and
    D_t row t of ``D`` for a vector state; a matrix state has one term, D
    an (m, r) matrix.  ``heads`` are the heads of the forcing stacks: (D,)
    for a vector state, (A^T, B^T) for a matrix state, D = A B^T of
    spatial rank S (see _spatial_factors).  A unit of k steps maps the
    state to L^k U (R^k)^T plus the unit's forcing.  A vector state that
    records every state (a stored ``history``) or has general terms
    (``general(start, stop, rows)`` adds their forcing to the rows of those
    steps and says whether it added any) takes groups of one-step blocks
    for units: one row a step, holding d_n = sum_t samples[n, t] D_t.  Any
    other run takes blocks of steps, whose forcing is the sum over its
    steps i of samples[n + i] L^(k-1-i) D (R^(k-1-i))^T, one product of the
    block's samples g, last step first, with the stacks: for a vector state
    g times the stack whose row i T + t holds L^i D_t, for a matrix state
    (XL^T scaled by g, each sample S times) XR, with the stacks XL and XR
    whose rows i S + c hold L^i A and R^i B, transposed (see
    _block_forcings, which also reuses the forcing of a block whose samples
    are a multiple of an earlier one's).  Both block lengths use the same
    stacks.

    The stacks grow from their heads by doubling, the first 2^i entries
    through L^(2^i) (R^(2^i)) giving the next 2^i, one product each, as the
    squarings of the factors are formed one after another: K entries, so
    a matrix state's stacks hold K S < m + r rows (see _block_steps).  A
    squaring is held only while it is still needed: L^K and R^K and the
    product of those at the bits of N mod K.

    The units go a chunk at a time, K of them (fewer only where fewer are
    left).  A matrix state's chunk holds one state at a time besides the
    state it starts from: each block is U <- L^k U (R^k)^T + its forcing,
    and one block's forcing is held besides, that of the last block that
    took a product.  A vector state's chunk is filled in rows of
    ``history`` or of one scratch buffer, K^2 rows of m floats at most, no
    more than a history would hold (K^2 <= N for a vector state, see
    _block_steps).  The rows receive the chunk's forcing in one product,
    none where its samples are all zero, and a general term's one group at
    a time, its fields stacked for that group's steps alone; then
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
    # the stacks grow from their heads to ``entries`` entries of ``height``
    # rows: K for a block's forcing, one step for a group's rows
    height, entries, stacks = len(heads[0]), 1 if grouped else K, heads
    sizes = np.abs(D).max(axis=1) if vector else np.abs(D).max(keepdims=True)[0]
    # sup-norm bound of each step's forcing, summed per unit below
    forcing_bound = np.abs(samples) @ sizes

    # The squarings of the factors for every bit of K, formed one at a time
    # and kept only in power[k], the k-th powers of the factors for the unit
    # lengths k.  Since ||L V R^T||_max <= ||L||_inf ||V||_max ||R||_inf,
    # the product of their norms (at least 1 each) bounds the growth of any
    # j <= K steps.  An unstable step may overflow them: gamma is then inf
    # or NaN, and every chunk is replayed.
    power = {k: None for k in (K, N % K) if k}
    norms = []
    squarings = factors
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(K.bit_length()):
            if i:
                squarings = [P @ P for P in squarings]
            norms += [np.abs(P).sum(axis=1).max() for P in squarings]
            done = 1 << i  # entries of the stacks filled
            if done < entries:
                stacks = [np.concatenate((X, X[:min(done, entries - done) * height] @ P.T))
                          for X, P in zip(stacks, squarings)]
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
        if not vector:  # each block's forcing, one at a time
            forcings = _block_forcings(stacks, height, g)
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
                    previous, ends = _march_states(U, *power[length],
                                                   itertools.islice(forcings, last - first))
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


def _spatial_factors(D, N):
    """The heads (A^T, B^T) of the forcing stacks of a matrix state whose
    step is forced by the (m, r) matrix D = A B^T, and the block length K
    of a run of N steps at D's spatial rank S (see _block_steps); no heads
    where K = 1.

    S is the count of singular values above eps max(m, r) times the
    largest (0 for a zero D).  A small S is found by a checked sketch
    (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011) 217): Q, an orthonormal
    basis of D Omega for an r x _SKETCH Gaussian Omega drawn on each call
    from np.random.default_rng(0), and a thin SVD C = U_C s V_C^T of
    C = Q^T D.  It is taken, A = Q U_C s and B = V_C cut to S, where
    ||D - Q C||_F <= eps max(m, r) s_1 and the count S from s is below
    _SKETCH.  D then lies in the range of Q to round-off, so correctness
    rests on that check, never on the draw.  Otherwise S is counted from
    D's singular values alone, and its singular vectors are taken only
    where blocks pay at that rank.  A D that is not all finite steps: its
    first step blows up.  The stacks hold L^i A and R^i B for i < K,
    transposed: rows i S + c; _march_blocks fills them from the heads by
    doubling.
    """
    m, r = D.shape
    if not np.isfinite(D).all():
        return None, 1
    tol = np.finfo(float).eps * max(m, r)
    Q = np.linalg.qr(D @ np.random.default_rng(0).standard_normal((r, _SKETCH)))[0]
    C = Q.T @ D
    U, s, Bt = np.linalg.svd(C, full_matrices=False)
    U, S = Q @ U, np.count_nonzero(s > tol * s[0])
    if S >= _SKETCH or np.linalg.norm(D - Q @ C) > tol * s[0]:  # no small rank
        s = np.linalg.svd(D, compute_uv=False)
        S = np.count_nonzero(s > tol * s[0])
        if _block_steps(m, N, r, S) > 1:
            U, s, Bt = np.linalg.svd(D, full_matrices=False)
    K = _block_steps(m, N, r, S)
    return (None if K == 1 else (s[:S, None] * U[:, :S].T, Bt[:S])), K


def _block_forcings(stacks, S, g):
    """The forcing of each block of a matrix state, for the rows of g, a
    block's samples each, last step first: sum_i g_i (L^i A)(R^i B)^T from
    the forcing ``stacks`` (XL, XR) of S rows an entry (see
    _spatial_factors); 0 for samples that are all zero.

    A block takes one product of its samples with the stacks
    (_stack_forcing), unless they differ from c times those of the last
    block that took one by at most 1e-12 of their largest, c the ratio of
    the two blocks' samples where that block's is largest in size: it then
    takes that block's forcing times c, within 1e-12 of its largest sample
    times the stacks' norm.  Samples of e^{-t} over a block are those of any
    earlier block of its length times a constant, and so are a sine's whose
    blocks are each minus the one before, zeros included, so such a run
    takes one product for each block length; a rough factor takes one for
    each block.
    """
    # the last block that took a product: its samples (at first NaN, which
    # agree with none), the entry of the largest and its forcing
    samples, peak, forcing = np.full(g.shape[1], np.nan), 0, None
    for row in g:
        c = row[peak] / samples[peak]
        if not row.any():
            yield 0.0
        elif np.abs(row - c * samples).max() <= 1e-12 * np.abs(row).max():
            yield c * forcing
        else:
            samples, peak, forcing = row, np.abs(row).argmax(), _stack_forcing(*stacks, S, row)
            yield forcing


def _stack_forcing(XL, XR, S, g):
    """sum_i g_i (L^i A)(R^i B)^T for the samples g of a block, last step
    first, from the forcing stacks XL, XR, entry i the S rows i S + c:
    (XL^T scaled by g, each sample S times) XR, one product."""
    return (np.repeat(g, S)[:, None] * XL[:len(g) * S]).T @ XR[:len(g) * S]


def _march_states(U, Lk, Rk, forcings):
    """The blocks from U on, one state at a time: U <- Lk U Rk^T plus each
    of ``forcings`` in turn (see _block_forcings); returns the last state
    and the sup-norm of each."""
    ends = []
    for F in forcings:
        U = Lk @ U @ Rk.T
        U += F
        ends.append(np.maximum(U.max(), -U.min()))  # NaN where U holds one
    return U, np.array(ends)


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
    generators T^{-1} e_1 and T^{-1} e_m, found once from T's Wiener-Hopf
    factor and certified (see _generators), every triangular Toeplitz
    product one FFT against a precomputed spectrum (O(m log m) a step).
    Otherwise T is expanded, and LU-factored in place for a solve:
    toeplitz(row, col).T is T in Fortran order, which LAPACK factors without
    a second copy.  Measured per stage on 2 cores (build / step), LU against
    generators and FFT: m = 399, 3 ms / 60 us against 1.1 ms / 95 us (with
    Levinson generators); m = 3199, 410 ms / 6.5 ms against 7-9 ms /
    0.27-0.38 ms (Levinson: 45-50 ms); the generators and FFT build in
    3.4-5.7 ms at m = 1599.  On the stages of ex5_1, ex5_2 and ex5_4 at
    alpha = 1.5, tau = 1/16 and m = 1599 and 3199 the generators are within
    1.3e-17 to 2.3e-16 of a dense solve refined in long double, 10 to 160
    times closer than Levinson's, and the FFT solve is off by up to 1.2e-15
    relative (LU 5.5e-14).
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
    T's Wiener-Hopf factor where T is Hessenberg and the pair certifies its
    residual, else by Levinson (O(m^2)).

    Every stage matrix that is solved, B - a P, is Hessenberg: P's row is
    zero past its second entry (see
    :func:`~tempfrac.operators.P_column_row`) and B is tridiagonal, so a left
    stage has one superdiagonal and a right stage is its transpose.  A lower
    Hessenberg T is solved directly, in O(m log m) (_hessenberg_solve); an
    upper Hessenberg one takes the generators x', y' of the lower
    T^T = toeplitz(row, col) reversed, each for the other, x = J y' and
    y = J x', since J T J = T^T for any Toeplitz T (J the reversal).

    The solve is refined against residuals E - T X taken in
    ``np.longdouble`` by one FFT product each, and that residual is both the
    stop test and the certificate: the pair is accepted as soon as
    max |E - T X| <= _GENERATOR_RESIDUAL, within _REFINEMENTS refinements,
    and otherwise it is the right-hand side of the next refinement, so no
    residual is formed twice.  At least one refinement runs: an unrefined
    solve is never accepted, even where its residual would pass.  A residual
    in double precision could not certify the generators: the rounding of
    T X alone is about eps |T| |X|.  On the stages of the 1D solvers at
    m = 1599, 3199 and 102,399 one refinement certifies the pair: two solves
    and two long-double products.  Levinson is taken where T is not
    Hessenberg, where _hessenberg_solve has no root to factor by, where
    ``np.longdouble`` is no wider than double (Windows, macOS on arm64) and
    where the pair fails to certify.
    """
    m = len(col)
    E = np.zeros((m, 2))
    E[0, 0] = E[-1, 1] = 1.0  # E[::-1, ::-1] is E
    upper = bool(row[2:].any())
    lower_col, lower_row = (row, col) if upper else (col, row)  # of T^T where T is upper
    certifiable = not lower_row[2:].any() and np.finfo(_EXTENDED).eps < np.finfo(float).eps
    solve = _hessenberg_solve(lower_col, lower_row, n) if certifiable else None
    if solve is not None:
        extended = _circulant_product(lower_col, lower_row, n, _EXTENDED)
        X = solve(E)
        residual = E - extended(X)
        for _ in range(_REFINEMENTS):
            X = X + solve(residual.astype(float))
            residual = E - extended(X)
            if np.abs(residual).max() <= _GENERATOR_RESIDUAL:
                return (X[::-1, ::-1] if upper else X).T
    return solve_toeplitz((col, row), E, check_finite=False).T


def _hessenberg_solve(col, row, n):
    """B -> T^{-1} B, column by column, for a lower Hessenberg
    T = toeplitz(col, row) (row zero past its second entry), by the
    Wiener-Hopf factor of T's symbol; None where it has no root to factor by.

    With t_k = T[i + k, i], c(z) = t_-1 + t_0 z + ... + t_(m-1) z^m is z
    times T's symbol a.  Where lam*h <= 1 a solved stage is positive real,
    so a has winding number 0 and c exactly one zero z0 in the unit disk,
    which is real (Boettcher & Silbermann, Introduction to Large Truncated
    Toeplitz Matrices, 1999), found by _inner_root.  Then
    a(z) = (1 - z0 / z) q(z) with q = c / (z - z0), of degree m - 1 and
    without a zero in the disk, whose coefficients follow from the stable
    backward recurrence q_(k-1) = c_k + z0 q_k.  The product T(u) T(q) of
    the upper bidiagonal T(u) (1 on the diagonal, -z0 above it) and the
    lower triangular T(q) is T but for its last row, which lacks
    z0 (q_(m-j))_j, so T = T(u) T(q) - z0 e_m w^T with
    w = (0, q_(m-1), ..., q_1).  A solve is the back substitution with T(u)
    (the recurrence above), one FFT product with T(q)^{-1}, the lower
    triangular Toeplitz matrix of r = 1/q mod z^m (_series_inverse), and a
    Sherman-Morrison correction for the last row.  A root that is not the
    only one in the disk leaves a q with a zero there: its inverse grows,
    and the residual refuses the pair.
    """
    m = len(col)
    c = np.concatenate((row[1:2], col))
    z0 = _inner_root(c)
    if z0 is None:
        return None
    bands = np.array([np.full(m, -z0), np.ones(m)])  # T(u), in solve_banded's layout
    q = solve_banded((0, 1), bands, c[1:], check_finite=False)
    spectrum = rfft(_series_inverse(q), n)[:, None]

    def factor_solve(B):  # (T(u) T(q))^{-1} B
        V = solve_banded((0, 1), bands, B, check_finite=False)
        return irfft(spectrum * rfft(V, n, axis=0), n, axis=0)[:m]

    w = np.concatenate(([0.0], q[:0:-1]))
    s = factor_solve(np.eye(m, 1, 1 - m))[:, 0]
    s *= z0 / (1.0 - z0 * (w @ s))

    def solve(B):
        Y = factor_solve(B)
        return Y + np.outer(s, w @ Y)

    return solve


def _inner_root(c):
    """The zero in (-1, 1) of the polynomial c(z) = sum_k c_k z^k, by
    Newton's method kept inside a bracket and bisecting where a step leaves
    it; None where c(-1) c(1) is not negative (no sign change, or not
    finite).  Each evaluation is a product with the powers z^k.

    The steps end with the Newton step from a z where c(z) is zero to the
    rounding of its evaluation, |c(z)| <= n eps sum_k |c_k z^k| for n
    coefficients: further steps would only follow that rounding, and can
    cycle between neighbouring doubles.  At most as many are taken as
    bisection alone needs to resolve (-1, 1) to the spacing of doubles
    near 1; a root left unresolved only fails to certify (see _generators).
    """
    k = np.arange(len(c))
    sign = np.sign(c.sum())  # of c(1)
    if not c @ (-1.0) ** k * sign < 0:
        return None
    slope, size = k[1:] * c[1:], len(c) * np.finfo(float).eps * np.abs(c)
    lo, hi, z = -1.0, 1.0, 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(np.finfo(float).nmant + 1):
            p = z ** k
            f = c @ p
            lo, hi = (lo, z) if f * sign > 0 else (z, hi)
            new = z - f / (slope @ p[:-1])
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            elif abs(f) <= size @ np.abs(p):
                return new
            z = new
    return z


def _series_inverse(q):
    """r = 1/q mod z^m, m = len(q), by Newton's iteration
    r <- r + r (1 - q r), each pass doubling the coefficients known: where
    q r = 1 + z^j e mod z^k for the first j of them, the next k - j are
    those of -r e.  Each product is one FFT of length at least k, whose
    wrap-around falls on coefficients not kept."""
    r = np.array([1.0 / q[0]])
    while len(r) < len(q):
        j = len(r)
        k = min(2 * j, len(q))
        L = next_fast_len(k, real=True)
        R = rfft(r, L)
        e = irfft(rfft(q[:k], L) * R, L)[j:k]
        r = np.concatenate((r, -irfft(R * rfft(e, L), L)[:k - j]))
    return r


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
