"""Benchmark of the tempfrac solvers: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study1d --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.  The run

1. starts itself five times with ``--setup-only`` and reports the median
   time from process start until the workload's inputs are built
   (``setup_s``),
2. runs one warm-up pass, then repeats untraced passes over the workload's
   operations until ``--seconds`` have elapsed, checking every result after
   each pass, outside the timed region, and reports medians over the timed
   passes,
3. with ``--trace 1``, follows each of those passes with one that has every
   layer boundary wrapped (see ``tracing.py``) and reports per-layer metrics,
   per traced pass, instead of end-to-end ones.

The timings of the workloads in ``workloads.HOST_SCALED`` are in reference
seconds: the measured seconds scaled by how much slower than its reference
time a fixed calibration kernel ran right around each operation (see
``host_kernel`` and ``execute``).  Other tenants of a shared host slow every process for
spells of seconds to minutes; the kernel shares them with interpreter-bound
code, so the scaled times track the program, not the spells.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the environment, and any failed
check.  Failed operations count against ``failed_frac`` and never stop the
run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
# seconds host_kernel() takes on an uncontended 2-vCPU Xeon (CPython 3.11,
# numpy 2); scaled times read as seconds on such a host
REFERENCE_KERNEL_S = 1.8e-3

# name -> unit; the order is the print order
END_TO_END = {
    "wall_s": "s",
    "slowest_op_s": "s",
    "unknown_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_tempfrac():
    if not (SRC / "tempfrac" / "__init__.py").is_file():
        print(f"error: no tempfrac sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tempfrac

    if Path(tempfrac.__file__).resolve().parent != SRC / "tempfrac":
        print(f"error: imported tempfrac from {tempfrac.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("study1d", "wide1d", "adi2d", "stability"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy sizes are for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit (setup probe)")
    return p.parse_args(argv)


# ---------------------------------------------------------------- environment

def _openblas_libraries():
    """(path, config, get_threads, set_threads) of each loaded OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.split()[-1].endswith(".so")})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            try:
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            found.append((path, get_config().decode(), get_threads, set_threads))
            break
    return found


def environment(seed):
    """Machine and library facts; caps BLAS threads at nproc, never raises them."""
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = []
    for path, config, get_threads, set_threads in _openblas_libraries():
        if get_threads() > nproc:
            set_threads(nproc)
        blas.append({"library": Path(path).name, "config": config, "threads": get_threads()})
    return {
        "seed": seed,
        "nproc": nproc,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------- measuring

def host_kernel():
    """Seconds one fixed piece of interpreter and small-array numpy work takes.

    It stands for the host's speed at this moment: contention from other
    tenants slows it alike with the solvers' per-step Python and numpy
    overhead.  It calls no BLAS, so nothing a program change does to BLAS
    threading moves it.
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(300):
        a = a * 0.5 + 1.0
    return time.perf_counter() - t0


def _probe_setup(args):
    """Median seconds from starting a fresh process until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


def execute(ops, calibrate=False):
    """Run every operation once; returns (wall seconds, raw results).

    A raw result is (result, exception, seconds, factor).  With ``calibrate``
    the host kernel runs before each operation and after the last, outside
    the operations' timings; ``factor``, the reference kernel time over the
    mean of the two around the operation, scales its seconds to reference
    seconds, and the wall time is the sum of the scaled seconds.  Without it
    ``factor`` is 1.
    """
    raw = []
    kernel = host_kernel() if calibrate else None
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, exc = op.run(), None
        except Exception as e:  # a failing operation is timed and counted
            # without its traceback, which would tie this frame and every
            # result of the pass into a cycle that outlives the pass
            result, exc = None, e.with_traceback(None)
        seconds = time.perf_counter() - t0
        factor = 1.0
        if calibrate:
            before, kernel = kernel, host_kernel()
            factor = REFERENCE_KERNEL_S / (0.5 * (before + kernel))
        raw.append((result, exc, seconds, factor))
    wall = sum(r[2] * r[3] for r in raw) if calibrate else time.perf_counter() - t_pass
    return wall, raw


def check(ops, raw):
    """Outcomes of one pass, their seconds scaled by each operation's factor.

    A result its check cannot read is a failed operation.
    """
    import workloads

    outcomes = []
    for op, (result, exc, seconds, factor) in zip(ops, raw):
        try:
            outs = op.check(result, exc, seconds)
        except Exception as e:
            outs = [workloads.Outcome(op.label, seconds, 0, True, f"check raised {e!r}")]
        outcomes += [dataclasses.replace(o, seconds=o.seconds * factor) for o in outs]
    return outcomes


def end_to_end(passes, setup_s):
    """Medians over the timed passes, in the units ``execute`` gave them.

    ``wall_s`` is the median pass; each operation's time is its median over
    the passes, ``slowest_op_s`` the largest of those and
    ``unknown_steps_per_s`` the solves' work over the sum of theirs.
    """
    times, work = {}, {}
    for _, outcomes in passes:
        for o in outcomes:
            times.setdefault(o.label, []).append(o.seconds)
            work[o.label] = o.work
    median = {label: statistics.median(v) for label, v in times.items()}
    busy = sum(median[label] for label, w in work.items() if w)
    return {
        "wall_s": statistics.median(wall for wall, _ in passes),
        "slowest_op_s": max(median.values()),
        "unknown_steps_per_s": sum(work.values()) / busy if busy else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    args = _parse_args(argv)
    _import_tempfrac()
    sys.path.insert(0, str(HERE))
    import workloads

    warnings.simplefilter("ignore")
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        return 0

    env = environment(args.seed)
    setup_s = None if args.trace else _probe_setup(args)
    ops = workloads.build(args.workload, args.seed, args.scale)

    tracer = traced_ops = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():  # cases built now get traced source callables
            traced_ops = workloads.build(args.workload, args.seed, args.scale)

    # the warm-up pass fills caches and finishes lazy set-up; it is checked
    # and counted, but not timed
    _, raw = execute(ops)
    warmup = check(ops, raw)
    del raw
    # untraced and traced passes alternate, so that both see the same spells
    # of host contention
    passes, traced = [], []
    scaled = not tracer and args.workload in workloads.HOST_SCALED
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        wall, raw = execute(ops, calibrate=scaled)
        passes.append((wall, check(ops, raw)))
        del raw  # the next pass must not share the peak with this one's results
        if tracer:
            with tracer.installed():
                wall, raw = execute(traced_ops)
            traced.append((wall, check(traced_ops, raw)))
            del raw
    outcomes = warmup + [o for _, outs in passes + traced for o in outs]

    if tracer:
        metrics = tracing.layer_metrics(tracer, [w for w, _ in traced], [w for w, _ in passes])
        print(tracer.table())
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(passes, setup_s).items()}

    failed = [o for o in outcomes if o.failed]
    for o in failed:
        print(f"FAILED {o.label}: {o.detail}")
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"operations {len(outcomes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {len(failed) / len(outcomes):.6g} ratio")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
