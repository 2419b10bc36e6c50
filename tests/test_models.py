"""The provisioning contract of ModelFamily: every solve reaches the depth
lambda * E_M >= LAMBDA_DEPTH, and the level law lies below the levels of
each source it bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcgibbs import box_family, homogeneous_family, solve_box, tabulated_family
from qcgibbs.models import LAMBDA_DEPTH

SCALING_FAMILIES = {
    "box": lambda: box_family([1.0]),
    "box 1 x 1.3": lambda: box_family([1.0, 1.3]),
    "cube": lambda: box_family([1.0, 1.0, 1.0]),
    "oscillator": lambda: homogeneous_family(2.0),
    "wedge": lambda: homogeneous_family(1.0),
    "quartic": lambda: homogeneous_family(4.0),
}


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from([*SCALING_FAMILIES, "double well"]),
    lam=st.floats(0.05, 5.0),
    planck=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_every_solve_reaches_the_depth(double_well_potential, source, lam, planck):
    # a scaling family's base at h = 1, a tabulated well's solve at h
    if source in SCALING_FAMILIES:
        spec = SCALING_FAMILIES[source]().base_spectrum(lam)
    else:
        spec = tabulated_family(double_well_potential).spectrum(planck, lam)
    assert spec.levels[-1] * lam >= 0.999 * LAMBDA_DEPTH


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.3), (1.0, 1.0, 1.0), (1.0, 0.7, 1.2, 1.0)])
def test_box_law_lies_below_every_level(lengths):
    # each lattice point owns a unit cube inside the ellipsoid orthant
    fam = box_family(list(lengths))
    levels = solve_box(len(lengths), lengths, count=3000).levels
    law = np.array([fam.level_energy(m) for m in range(1, levels.size + 1)])
    assert np.all(law <= levels * (1.0 + 1e-12))


def test_tabulated_law_lies_below_every_level(double_well_potential):
    # min-max against the box on the same interval, outside the level bars
    fam = tabulated_family(double_well_potential)
    for planck in (0.25, 1.0, 2.0):
        spec = fam.spectrum(planck, 0.5)
        law = np.array([fam.level_energy(m, planck) for m in range(1, spec.count + 1)])
        assert np.all(spec.levels - spec.level_errors > law)
