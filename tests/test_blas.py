"""The one-thread BLAS cap: counts inside and after the body."""

import pytest

from tempfrac import _blas


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

    def test_finds_the_pools_numpy_and_scipy_bundle(self):
        # both packages link an OpenBLAS in their wheels; where the process
        # maps cannot be read nothing is found, and nothing is capped
        try:
            with open("/proc/self/maps") as fh:
                loaded = any("openblas" in line.lower() for line in fh)
        except OSError:
            loaded = False
        assert bool(_blas._pools()) == loaded
