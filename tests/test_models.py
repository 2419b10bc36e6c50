"""The provisioning contract of ModelFamily: every solve takes at least 8
levels and reaches the depth lambda * (E_M - min V) >= LAMBDA_DEPTH, the
level law lies below the levels of each source it bounds, and finite
differences place their walls above the top level."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcgibbs.models as models_mod
from qcgibbs import box_family, homogeneous_family, solve_box, tabulated, tabulated_family
from qcgibbs.errors import ResourceError
from qcgibbs.models import LAMBDA_DEPTH
from qcgibbs.potential import PotentialKind

SCALING_FAMILIES = {
    "box": lambda: box_family([1.0]),
    "box 1 x 1.3": lambda: box_family([1.0, 1.3]),
    "cube": lambda: box_family([1.0, 1.0, 1.0]),
    "oscillator": lambda: homogeneous_family(2.0),
    "wedge": lambda: homogeneous_family(1.0),
    "quartic": lambda: homogeneous_family(4.0),
}

# a harmonic well lifted far above zero: its depth is measured from min V = 50
_XS = np.linspace(-5.0, 5.0, 101)
OFFSET_WELL = tabulated(_XS, 50.0 + 0.2 * _XS**2)


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from([*SCALING_FAMILIES, "2-D box", "double well", "offset well"]),
    lam=st.floats(0.05, 5.0),
    planck=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    side=st.floats(0.3, 3.0),
)
def test_every_solve_reaches_the_depth(double_well_potential, source, lam, planck, side):
    # a scaling family's base at h = 1, a tabulated well's solve at h
    if source in SCALING_FAMILIES:
        fam = SCALING_FAMILIES[source]()
    elif source == "2-D box":
        fam = box_family([1.0, side])
    else:
        fam = tabulated_family(
            double_well_potential if source == "double well" else OFFSET_WELL)
    if fam.potential.kind is PotentialKind.TABULATED:
        spec = fam.spectrum(planck, lam)
    else:
        spec = fam.base_spectrum(lam)
    assert spec.count >= 8
    assert lam * (spec.levels[-1] - fam.min_potential) >= 0.999 * LAMBDA_DEPTH


@pytest.mark.parametrize("nu, lam", [(5.0, 0.5), (3.0, 1.0)])
def test_fd_walls_lie_above_the_top_level(nu, lam, monkeypatch):
    # the Dirichlet walls at +-R of a finite-difference solve obey
    # V(R) >= 1.25 E_M + 10 for the levels it returns
    grids = []
    solve = models_mod.solve_fd_1d

    def reading(potential, planck, half_width, points, count):
        grids.append(half_width)
        return solve(potential, planck, half_width, points, count)

    monkeypatch.setattr(models_mod, "solve_fd_1d", reading)
    spec = homogeneous_family(nu).base_spectrum(lam)
    half_width, = grids
    assert half_width**nu >= 1.25 * spec.levels[-1] + 10.0


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


# every law the count rule reads: Weyl's (with headroom) and the bounds
COUNT_FAMILIES = {
    **SCALING_FAMILIES,
    "cubic": lambda: homogeneous_family(3.0),
    "sextic": lambda: homogeneous_family(6.0),
    "nu = 0.5": lambda: homogeneous_family(0.5),
    "offset well": lambda: tabulated_family(OFFSET_WELL),
}


@pytest.mark.parametrize("source", list(COUNT_FAMILIES))
def test_count_depth_round_trips_through_the_count_rule(source):
    # the depth of law level M provisions max(M, 8) levels plus headroom, not
    # one more (the oscillator's level 64 once read back as 65), and the cap
    # message names the largest count a cap provisions
    fam = COUNT_FAMILIES[source]()
    plancks = (0.5, 1.0, 2.0) if fam.potential.kind is PotentialKind.TABULATED else (1.0,)
    provisioned = lambda count: max(count, 8) + fam._headroom(max(count, 8))
    for planck in plancks:
        for count in [*range(1, 700), 1000, 4096, 19_000, 65_536, 10**6]:
            assert fam.level_count(planck, fam.count_depth(count, planck)) \
                == provisioned(count), (planck, count)
        for cap in range(provisioned(8), 400, 9):
            fam.level_cap = cap
            with pytest.raises(ResourceError) as info:
                fam.spectrum(planck, fam.count_depth(cap + 1, planck))
            top = int(re.search(r"the cap supports (\d+) levels", str(info.value)).group(1))
            assert provisioned(top) <= cap < provisioned(top + 1), (planck, cap)


@pytest.mark.parametrize("make, fetch_error", [
    (lambda: homogeneous_family(2.0), "no scale at h=0.5"),
    (lambda: tabulated_family(OFFSET_WELL), "no solve at h=0.5"),
], ids=["oscillator", "offset well"])
def test_a_sweep_returns_each_set_what_its_own_sweep_returns(make, fetch_error, monkeypatch):
    # two overlapping point sets read in one sweep: each is returned what a
    # sweep of it alone returns on levels as deep as the sweep's, the records
    # of a failed fetch (h = 0.5) and of a failed read (beta = 4, h = 2)
    # included
    from qcgibbs.errors import TruncationError

    def failing(real, message):
        # the step to h = 0.5 (phi with a base) and its solve fail; the
        # depth, lambda_min's phi at the smallest h, does not
        def call(*args):
            if len(args) == 3 and args[1] == 0.5:
                raise ResourceError(message)
            return real(*args)
        return call

    monkeypatch.setattr(models_mod.ModelFamily, "phi",
                        failing(models_mod.ModelFamily.phi, "no scale at h=0.5"))
    monkeypatch.setattr(models_mod.ModelFamily, "_provision",
                        failing(models_mod.ModelFamily._provision, "no solve at h=0.5"))

    def z(point):
        if (point.beta, point.planck) == (4.0, 2.0):
            raise TruncationError("no pass at beta=4, h=2")
        return point.z

    sets = [([1.0, 2.0], [0.5, 1.0], lambda point: point.e),
            ([2.0, 4.0], [1.0, 0.5, 2.0], z)]

    def provisioned():
        # h = 1 at the first set's depth, the deeper, and h = 2 at the
        # second's, as the sweep of both solves them
        fam = make()
        fam.levels_at(1.0, fam.lambda_min(*sets[0][:2]))
        fam.levels_at(2.0, fam.lambda_min(*sets[1][:2]))
        return fam

    together = make().sweep(sets)
    assert together == [provisioned().sweep([one])[0] for one in sets]
    failed = [[(c["beta"], c["h"], c["error"]) for c in values if isinstance(c, dict)]
              for values in together]
    assert failed == [
        [(1.0, 0.5, fetch_error), (2.0, 0.5, fetch_error)],
        [(2.0, 0.5, fetch_error), (4.0, 0.5, fetch_error), (4.0, 2.0, "no pass at beta=4, h=2")],
    ]
    assert all(len(values) == len(betas) * len(hs)
               for values, (betas, hs, _) in zip(together, sets))
