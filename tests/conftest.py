"""Shared fixtures: model families are session-scoped, so each deep base
spectrum is built once per run and shared by every test that sweeps it."""

import numpy as np
import pytest

from qcgibbs import box_family, homogeneous_family


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
