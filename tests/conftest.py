"""Shared fixtures."""

import math

import pytest
from scipy.linalg import lapack


@pytest.fixture(params=["singular", "nan"])
def failing_step_solve(request, monkeypatch):
    """Make the PDE's tridiagonal LAPACK solve report a singular step, or
    leave a NaN in its solution, on every call."""
    dgtsv = lapack.dgtsv

    def broken(dl, d, du, b, *overwrite):
        out = dgtsv(dl, d, du, b, *overwrite)
        if request.param == "nan":
            b[len(b) // 2] = math.nan
            return out
        return (*out[:4], 3)

    monkeypatch.setattr(lapack, "dgtsv", broken)
    return request.param
