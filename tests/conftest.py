"""Shared fixtures: model families are session-scoped, so each deep base
spectrum is built once per run and shared by every test that sweeps it."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from qcgibbs import box_family, homogeneous_family, tabulated


@pytest.fixture(scope="session")
def box1():
    return box_family([1.0])


@pytest.fixture(scope="session")
def wedge():
    return homogeneous_family(1.0)


@pytest.fixture(scope="session")
def oscillator():
    return homogeneous_family(2.0)


@pytest.fixture(scope="session")
def quartic():
    return homogeneous_family(4.0)


@pytest.fixture(scope="session")
def double_well_potential():
    """A tilted double well 3 (x^2 - 1)^2 + 0.2 x + 1 sampled on [-2, 2]."""
    xs = np.linspace(-2.0, 2.0, 81)
    return tabulated(xs, 3.0 * (xs**2 - 1.0) ** 2 + 0.2 * xs + 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_spy(monkeypatch):
    """The OpenBLAS thread count: `.count()` reads it, and `.sets` holds the
    (thread, count) of every change qcgibbs.lapack makes. Skips where numpy
    bundles no OpenBLAS."""
    import qcgibbs.lapack as lapack_mod

    real = lapack_mod._lapacke()
    if real is None or real.set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS with thread-count functions here")
    sets = []

    def set_threads(count):
        sets.append((threading.current_thread(), count))
        real.set_threads(count)

    spied = real._replace(set_threads=set_threads)
    monkeypatch.setattr(lapack_mod, "_lapacke", lambda: spied)
    return SimpleNamespace(count=real.get_threads, sets=sets)
