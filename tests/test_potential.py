import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcgibbs import (
    DomainError,
    box,
    check_homogeneity,
    evaluate,
    homogeneous,
    load_tabulated_csv,
    save_tabulated_csv,
    scaling_exponents,
    tabulated,
    volume,
)


def test_box_is_zero_inside():
    pot = box([1.0, 1.0])
    assert evaluate(pot, (0.3, 0.4)) == 0.0


def test_power_law_values():
    assert evaluate(homogeneous(2, dimension=3), (1.0, 2.0, 2.0)) == pytest.approx(9.0, abs=1e-12)
    assert evaluate(homogeneous(4), (2.0,)) == pytest.approx(16.0, abs=1e-12)


def test_box_rejects_outside_points():
    pot = box([1.0])
    with pytest.raises(DomainError):
        evaluate(pot, (1.5,))
    with pytest.raises(DomainError):
        evaluate(pot, (-0.1,))


def test_tabulated_interpolates_and_checks_range():
    xs = np.linspace(0.0, 10.0, 5001)
    pot = tabulated(xs, xs**2)
    assert evaluate(pot, (3.0,)) == pytest.approx(9.0, abs=1e-6)
    # midpoint of a cell shows the full interpolation error, bounded by dx^2/4
    mid = xs[100] + (xs[101] - xs[100]) / 2
    assert abs(evaluate(pot, (mid,)) - mid**2) <= (xs[1] - xs[0]) ** 2 / 4 + 1e-15
    with pytest.raises(DomainError):
        evaluate(pot, (10.5,))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])  # not strictly increasing
    with pytest.raises(ValueError):
        tabulated([0.0, 1.0], [0.0, -1.0])  # negative V


def test_homogeneity_exact():
    assert check_homogeneity(homogeneous(2), [0.5, 2.0], [(1.0,), (3.0,)]) <= 1e-12
    assert check_homogeneity(homogeneous(3, dimension=2), [10.0], [(1.0, 1.0)]) <= 1e-12


def test_homogeneity_tabulated_against_exact_square():
    xs = np.linspace(0.0, 10.0, 5001)
    pot = tabulated(xs, xs**2)
    # oracle: the sampled function is exactly r^2, so the defect is pure
    # interpolation error, bounded well under 1e-6 on this grid
    assert check_homogeneity(pot, [2.0], [(1.0,), (2.0,)], nu=2.0) <= 1e-6


def test_homogeneity_argument_errors():
    with pytest.raises(ValueError):
        check_homogeneity(homogeneous(2), [], [(1.0,)])
    with pytest.raises(ValueError):
        check_homogeneity(box([1.0]), [2.0], [(0.5,)])
    xs = np.linspace(0.0, 4.0, 10)
    with pytest.raises(ValueError):
        check_homogeneity(tabulated(xs, xs), [2.0], [(1.0,)])  # nu missing


def test_homogeneity_invariant_random(rng):
    for nu in (0.5, 1.0, 2.0, 4.0, 7.5):
        pot = homogeneous(nu, dimension=2)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, size=2)
            h = rng.uniform(0.1, 5.0)
            ref = h**nu * evaluate(pot, x)
            assert abs(evaluate(pot, h * x) - ref) <= 1e-12 * (1.0 + ref)


def test_scaling_exponents_values():
    assert scaling_exponents(2.0) == pytest.approx((0.5, 1.0))
    assert scaling_exponents(1.0) == pytest.approx((2.0 / 3.0, 2.0 / 3.0))
    assert abs(scaling_exponents(1e6).energy - 2.0) < 1e-5


def test_scaling_exponents_identity(rng):
    for _ in range(100):
        nu = rng.uniform(0.05, 50.0)
        sub, energy = scaling_exponents(nu)
        assert abs((2.0 - 2.0 * sub) - sub * nu) <= 1e-14 * max(1.0, sub * nu)
        assert abs(energy - sub * nu) <= 1e-14 * energy


def test_scaling_exponents_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaling_exponents(0.0)
    with pytest.raises(ValueError):
        scaling_exponents(-1.0)


def test_evaluate_deterministic():
    pot = homogeneous(2.7, dimension=3)
    x = (0.372, 1.416, 2.9)
    vals = {evaluate(pot, x) for _ in range(20)}
    assert len(vals) == 1


def test_volume():
    assert volume(box([2.0, 3.0])) == 6.0


def test_csv_round_trip(tmp_path):
    xs = np.linspace(0.0, 5.0, 11)
    pot = tabulated(xs, xs**1.5, mass=2.0)
    path = tmp_path / "pot.csv"
    save_tabulated_csv(pot, path)
    text = path.read_text()
    assert text.startswith("x,V\n")
    back = load_tabulated_csv(path, mass=2.0)
    np.testing.assert_array_equal(back.grid_x, pot.grid_x)
    np.testing.assert_array_equal(back.grid_v, pot.grid_v)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(1e-9, 1e9), min_size=1, max_size=40),
       start=st.floats(-1e9, 1e9),
       values=st.lists(st.floats(0.0, 1e12), min_size=41, max_size=41))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, steps, start, values):
    xs = start + np.concatenate(([0.0], np.cumsum(steps)))
    assume(np.all(np.diff(xs) > 0.0))  # a step can vanish in rounding
    pot = tabulated(xs, values[: xs.size])
    path = tmp_path_factory.mktemp("csv") / "pot.csv"
    save_tabulated_csv(pot, path)
    back = load_tabulated_csv(path)
    assert back.grid_x.tobytes() == pot.grid_x.tobytes()
    assert back.grid_v.tobytes() == pot.grid_v.tobytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,0\n1,1\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(path)


def test_csv_rejects_decreasing_x(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,V\n0,0\n2,1\n1,2\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(path)
