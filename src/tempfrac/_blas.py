"""One BLAS thread for the length of a call.

The wheels of NumPy and SciPy each bundle an OpenBLAS, each with a pool of
one worker per core.  After a call a pool's workers keep spinning for a
while before they sleep, so code that alternates the two libraries runs
each threaded call on cores the other pool's idle workers still hold.  A 2D
solve does so while it sets up: SciPy's LU factors and solves build its
stages (below 600 unknowns), then map the identity and the compact filter
into its factors L, R and its forcing maps, between NumPy's products.  On a
shared 2-core x86-64 host the first LU factor of a 159-unknown stage took
about 145 ms on the default pools, against 0.4 ms capped.  Earlier, with
those LU solves inside the march, a ``solve_adi`` at M = 160 (N = 100) took
a median 0.088 s a call with the default pools (quartiles 0.070 and 0.147 s
over 63 calls) and 0.041 s with one thread (quartiles 0.040 and 0.043 s).
The march itself is NumPy products only, two a step (four with a
plain-callable source), and there the cap costs little and guards against
a loaded host: at M = 320, N = 100 a solve took 0.31-0.44 s capped and
0.29-0.38 s not in one measurement, and 0.41-0.52 s capped and 2.5-3.8 s
not in another, with a second process loading the other core.  A 1D solve
alternates the pools the same way (the stage's LU factor, then G and its
powers from NumPy's products) and is capped in the same place, once per
solve: over 360 history runs at M = 200, the 199-unknown stage's LU factor
took a median 0.55 ms either way, but up to 131 ms on the default pools
and at most 0.9 ms capped.

:func:`single_thread` caps every OpenBLAS loaded in the process at one
thread and restores the previous counts on exit.  The counts are process
wide: BLAS calls made meanwhile from other Python threads run on one thread
too, which changes their speed, never their results.  So the caps of all
threads are one: the first entry saves the counts, and the last exit, in
whichever thread, restores them, so caps that nest or overlap across
threads leave the counts as they found them.  The libraries are found
through ``/proc/self/maps``; where that cannot be read, or no OpenBLAS is
loaded, nothing is capped.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

# (prefix, suffix) of the thread-count functions: plain OpenBLAS, SciPy's
# LP64 wheel build, NumPy's ILP64 wheel build
_SYMBOLS = (("", ""), ("scipy_", ""), ("scipy_", "64_"), ("", "64_"))
# the counts are process wide, and so is the cap: the number of entries open
# in any thread, and the (set, count) of each pool saved at the first of them
_lock = threading.Lock()
_depth = 0
_saved = ()


@functools.cache
def _pools():
    """(get, set) thread-count functions of each OpenBLAS loaded so far."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            pools.append((get, set_))
            break
    return tuple(pools)


@contextlib.contextmanager
def single_thread():
    """Run the body, or each call of a function it decorates, with every
    loaded OpenBLAS on one thread."""
    global _depth, _saved
    with _lock:
        if not _depth:
            _saved = tuple((set_, get()) for get, set_ in _pools())
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                for set_, count in _saved:
                    set_(count)
