"""Per-layer spans for the traced run.

The tracer wraps public functions at the module boundaries of ``tempfrac``,
under the names the calling modules look up (``solver1d.lu_solve`` is scipy's
``lu_solve`` as ``tempfrac.solver1d`` sees it).  Each call is one span; spans
are aggregated in memory per (parent span, span) edge, which keeps the
million-odd calls of a pass cheap, and the edge table is printed when the
run ends.  A span's self time is its duration minus the durations of its
direct child spans, so the self times of all spans plus the time outside
every span add up to the traced wall time.

A wrapped name that no longer exists is skipped, and its layer reports zero
calls, so later refactors of ``tempfrac`` run the same benchmark unedited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import statistics
import types
from collections import Counter
from time import perf_counter

# (module looking the name up, attribute, span name)
_LU = [(m, f, f"{m}.{f}") for m in ("solver1d", "solver2d") for f in ("lu_factor", "lu_solve")]
_OPERATORS = [
    (m, f, f"operators.{f}")
    for m, names in (
        ("solver1d", ("assemble_P", "assemble_B", "assemble_H", "apply_compact")),
        ("solver2d", ("assemble_P", "assemble_B")),
        ("spectral", ("assemble_P", "assemble_B")),
    )
    for f in names
]
_SPECTRAL = [
    (m, f, f"spectral.{f}")
    for m in ("spectral", "cli")
    for f in ("check_P_definiteness", "check_B_bounds", "hplus_split")
]
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "run_convergence_study", "verification.run_convergence_study"),
    ("verification", "error_norm", "verification.error_norm"),
    *[(m, f, "solver1d.solve") for m in ("solver1d", "verification")
      for f in ("solve_left", "solve_right", "solve_two_sided")],
    *[(m, "solve_adi", "solver2d.solve_adi") for m in ("solver2d", "verification")],
    ("solver1d", "tempered_weights", "calculus.tempered_weights"),
    *_OPERATORS,
    *_LU,
    *_SPECTRAL,
]
SOURCE_SPAN = "verification.source"
# case builders whose cases get their source callables wrapped
_CASE_FACTORIES = [("cli", "make_case"), ("verification", "make_case")]


def _steps_done(spec, exc):
    if exc is None:
        return spec.time.N
    return getattr(exc, "step", 0) or 0


class Tracer:
    """Span recorder; ``install`` patches ``tempfrac``, ``uninstall`` restores it."""

    def __init__(self):
        self.edges = {}  # (parent name or None, name) -> [calls, total_s, child_s]
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def wrap(self, fn, name, on_exit=None):
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            exc = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent else None, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if on_exit is not None:
                    on_exit(args, exc)

        return traced

    def _on_solve1d(self, args, exc):
        self.counts["solver1d.steps"] += _steps_done(args[0], exc)
        if isinstance(exc, self._blowup_error):
            self.counts["solver1d.blowups"] += 1

    def _on_solve2d(self, args, exc):
        self.counts["solver2d.steps"] += _steps_done(args[0], exc)

    def _wrap_case(self, case):
        """Wrap a case's source callable where the case is still built from one."""
        source = getattr(case, "source", None)
        build_spec = getattr(case, "build_spec", None)
        if not isinstance(source, types.FunctionType) or build_spec is None:
            return case
        traced = self.wrap(source, SOURCE_SPAN)

        def build(h):
            inner = build_spec(h)
            return lambda N: dataclasses.replace(inner(N), source=traced)

        return dataclasses.replace(case, source=traced, build_spec=build)

    def _patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        solver1d = importlib.import_module("tempfrac.solver1d")
        self._blowup_error = getattr(solver1d, "BlowupError", ())
        hooks = {"solver1d.solve": self._on_solve1d, "solver2d.solve_adi": self._on_solve2d}
        for mod_name, attr, span in SPANS:
            module = importlib.import_module(f"tempfrac.{mod_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patch(module, attr, self.wrap(fn, span, hooks.get(span)))
        for mod_name, attr in _CASE_FACTORIES:
            module = importlib.import_module(f"tempfrac.{mod_name}")
            factory = getattr(module, attr, None)
            if callable(factory):
                self._patch(module, attr, functools.wraps(factory)(
                    lambda *a, _f=factory, **k: self._wrap_case(_f(*a, **k))))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ reports

    def calls(self, name):
        return sum(r[0] for (_, n), r in self.edges.items() if n == name)

    def total_s(self, name):
        return sum(r[1] for (_, n), r in self.edges.items() if n == name)

    def self_s(self, name):
        return sum(r[1] - r[2] for (_, n), r in self.edges.items() if n == name)

    def outside_s(self, wall_s):
        """Part of the traced wall time that no span covers."""
        return wall_s - sum(r[1] for (p, _), r in self.edges.items() if p is None)

    def table(self):
        lines = [f"{'parent':<36} {'span':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (parent, name), (calls, total, child) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{parent or '-':<36} {name:<36} {calls:>9} {total:>10.4f} "
                         f"{total - child:>10.4f}")
        return "\n".join(lines)


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-layer metrics as {name: (value, unit)}, per traced pass.

    Times and counts are averaged over the traced passes; the overhead of
    tracing is the mean traced pass minus the mean untraced pass, which ran
    interleaved with them.
    """
    t = tracer
    n = len(traced_walls)
    wall = statistics.fmean(traced_walls)
    steps1 = t.counts["solver1d.steps"]
    m = {
        "cli.main.s": (t.total_s("cli.main"), "s"),
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "verification.run_convergence_study.s": (t.total_s("verification.run_convergence_study"), "s"),
        "verification.error_norm.s": (t.total_s("verification.error_norm"), "s"),
        "verification.source.calls": (t.calls(SOURCE_SPAN), "count"),
        "verification.source.s": (t.total_s(SOURCE_SPAN), "s"),
        "verification.self_s": (t.self_s("verification.run_convergence_study")
                                + t.self_s("verification.error_norm"), "s"),
        "solver1d.solve.calls": (t.calls("solver1d.solve"), "count"),
        "solver1d.solve.s": (t.total_s("solver1d.solve"), "s"),
        "solver1d.steps": (steps1, "count"),
        "solver1d.self_s": (t.self_s("solver1d.solve"), "s"),
        "solver1d.lu_factor.s": (t.total_s("solver1d.lu_factor"), "s"),
        "solver1d.lu_solve.calls": (t.calls("solver1d.lu_solve"), "count"),
        "solver1d.lu_solve.s": (t.total_s("solver1d.lu_solve"), "s"),
        "solver1d.blowups": (t.counts["solver1d.blowups"], "count"),
        "solver2d.solve_adi.s": (t.total_s("solver2d.solve_adi"), "s"),
        "solver2d.steps": (t.counts["solver2d.steps"], "count"),
        "solver2d.self_s": (t.self_s("solver2d.solve_adi"), "s"),
        "solver2d.lu_factor.s": (t.total_s("solver2d.lu_factor"), "s"),
        "solver2d.lu_solve.calls": (t.calls("solver2d.lu_solve"), "count"),
        "solver2d.lu_solve.s": (t.total_s("solver2d.lu_solve"), "s"),
        "operators.assemble_P.calls": (t.calls("operators.assemble_P"), "count"),
        "operators.assemble_P.s": (t.total_s("operators.assemble_P"), "s"),
        "operators.assemble_B.s": (t.total_s("operators.assemble_B"), "s"),
        "operators.assemble_H.calls": (t.calls("operators.assemble_H"), "count"),
        "operators.assemble_H.s": (t.total_s("operators.assemble_H"), "s"),
        "operators.apply_compact.calls": (t.calls("operators.apply_compact"), "count"),
        "operators.apply_compact.s": (t.total_s("operators.apply_compact"), "s"),
        "calculus.tempered_weights.calls": (t.calls("calculus.tempered_weights"), "count"),
        "calculus.tempered_weights.s": (t.total_s("calculus.tempered_weights"), "s"),
        "spectral.calls": (sum(t.calls(f"spectral.{f}") for f in
                               ("check_P_definiteness", "check_B_bounds", "hplus_split")), "count"),
        "spectral.check_P_definiteness.s": (t.total_s("spectral.check_P_definiteness"), "s"),
        "spectral.check_B_bounds.s": (t.total_s("spectral.check_B_bounds"), "s"),
        "spectral.hplus_split.s": (t.total_s("spectral.hplus_split"), "s"),
        "spectral.self_s": (sum(t.self_s(f"spectral.{f}") for f in
                                ("check_P_definiteness", "check_B_bounds", "hplus_split")), "s"),
        "trace.untraced_s": (t.outside_s(sum(traced_walls)), "s"),
    }
    m = {k: (v / n, unit) for k, (v, unit) in m.items()}
    # us_per_step is a ratio of two per-pass sums and needs no averaging
    m["solver1d.us_per_step"] = (1e6 * t.total_s("solver1d.solve") / steps1 if steps1 else 0.0, "us")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - statistics.fmean(untraced_walls), "s")
    return m


# Metrics whose sum is the traced wall time: every span's self time (leaf
# spans' totals are their self times) plus the time outside all spans.
ACCOUNTING = (
    "cli.self_s", "verification.self_s", "verification.source.s",
    "solver1d.self_s", "solver1d.lu_factor.s", "solver1d.lu_solve.s",
    "solver2d.self_s", "solver2d.lu_factor.s", "solver2d.lu_solve.s",
    "operators.assemble_P.s", "operators.assemble_B.s", "operators.assemble_H.s",
    "operators.apply_compact.s", "calculus.tempered_weights.s", "spectral.self_s",
    "trace.untraced_s",
)
