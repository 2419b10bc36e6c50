"""Shared fixtures: model families are session-scoped, so each deep base
spectrum is built once per run and shared by every test that sweeps it."""

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
