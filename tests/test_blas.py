"""The one-thread BLAS cap: counts inside and after the body."""

import threading

import numpy as np
import pytest

from tempfrac import _blas
from tempfrac.solver1d import solve_left
from tempfrac.solver2d import solve_adi
from tempfrac.verification import case_ex5_1, case_ex5_3


def counts():
    return [get() for get, _ in _blas._pools()]


class TestSingleThread:
    def test_caps_every_pool_and_restores_the_counts(self):
        before = counts()
        with _blas.single_thread():
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_restores_the_counts_when_the_body_raises(self):
        before = counts()
        with pytest.raises(ZeroDivisionError):
            with _blas.single_thread():
                1 / 0
        assert counts() == before

    def test_caps_that_overlap_in_two_threads_restore_the_counts_once(self):
        # A enters, B enters, A exits, B exits: B's body still runs capped
        # after A has left, and the counts come back only at B's exit.  Each
        # thread runs a solve inside its cap, which enters the cap again
        if not _blas._pools():
            pytest.skip("no OpenBLAS is loaded")
        solves = (lambda: solve_left(case_ex5_1(1.5, 1.0, j=5).build_spec(1.0 / 40)(200)).values,
                  lambda: solve_adi(case_ex5_3(1.5, 1.5, 1.0, 1.0).build_spec(1.0 / 20)(90)).values)
        want = [solve() for solve in solves]
        before = counts()
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        got, inside, errors = [None, None], [None, None], []

        def run(i, may_enter, entered, may_exit, exited):
            try:
                assert may_enter is None or may_enter.wait(30)
                with _blas.single_thread():
                    entered.set()
                    assert may_exit.wait(30)
                    got[i] = solves[i]()
                    inside[i] = counts()
                if exited is not None:
                    exited.set()
            except Exception as error:  # reported by the main thread
                errors.append(error)

        threads = [threading.Thread(target=run, args=(0, None, a_in, b_in, a_out)),
                   threading.Thread(target=run, args=(1, a_in, b_in, a_out, None))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert inside == [[1] * len(before)] * 2
        assert counts() == before
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_finds_the_pools_numpy_and_scipy_bundle(self):
        # both packages link an OpenBLAS in their wheels; where the process
        # maps cannot be read nothing is found, and nothing is capped
        try:
            with open("/proc/self/maps") as fh:
                loaded = any("openblas" in line.lower() for line in fh)
        except OSError:
            loaded = False
        assert bool(_blas._pools()) == loaded
