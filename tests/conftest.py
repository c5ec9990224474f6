"""Fixtures of the certificate tests: the LAPACK calls and Cholesky verdicts of a test, and checks of
operators.largest_norm and operators.spectrum_within against their all-LAPACK oracles."""
import sys

import numpy as np
import pytest

from holo_lab import operators
from holo_lab.operators import largest_norm, spectrum_within
from holo_lab.rigidity import STRIP_TOL
from oracles import eigvalsh_within, svd_largest_norm


@pytest.fixture
def lapack(monkeypatch):
    """(kernel name, slices) of every eigvalsh and svd call."""
    calls = []
    for name in ("eigvalsh", "svd"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def verdicts(monkeypatch):
    """The per-slice verdicts of operators._cholesky_certifies, one array per call from largest_norm or spectrum_within."""
    recorded, kernel = [], operators._cholesky_certifies

    def certify(M):
        verdict = kernel(M)
        if sys._getframe(1).f_code.co_name in ("largest_norm", "spectrum_within"):
            recorded.append(verdict)
        return verdict

    monkeypatch.setattr(operators, "_cholesky_certifies", certify)
    return recorded


def slices(calls, name):
    return [n for kernel, n in calls if kernel == name]


@pytest.fixture
def norm_check(lapack, verdicts):
    """check(M, floor): largest_norm is the all-SVD svd_largest_norm, bit for bit, and the SVD sees only the
    reference slice (floor None) and the open slices; a zero stack and 1 x 1 slices run no Cholesky and no SVD."""
    def check(M, floor):
        expected = svd_largest_norm(M, floor)
        lapack.clear()
        verdicts.clear()
        assert largest_norm(M, floor) == expected
        if not verdicts:
            assert lapack == [] and (M.shape[-1] == 1 or not np.any(M))
            return expected
        (certified,) = verdicts
        left = int(np.count_nonzero(~certified))
        assert slices(lapack, "svd") == [1] * (floor is None) + [left] * (left > 0) and slices(lapack, "eigvalsh") == []
        return expected
    return check


@pytest.fixture
def strip_check(lapack, verdicts):
    """check(R, low, high), by default the strip of a rigidity verdict: spectrum_within is the all-eigvalsh
    eigvalsh_within, and eigvalsh sees exactly the slices that neither certificate decides."""
    def check(R, low=-STRIP_TOL, high=1 + STRIP_TOL):
        expected = eigvalsh_within(R, low, high)
        lapack.clear()
        verdicts.clear()
        assert spectrum_within(R, low, high) == expected
        if not verdicts:  # a diagonal entry outside: decided with no Cholesky
            assert not expected and lapack == []
            return expected
        lower, upper = verdicts
        left = int(np.count_nonzero(~(lower & upper)))
        assert slices(lapack, "eigvalsh") == ([left] if left else []) and slices(lapack, "svd") == []
        return expected
    return check
