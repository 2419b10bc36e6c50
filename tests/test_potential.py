import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcgibbs import (
    box,
    load_tabulated_csv,
    save_tabulated_csv,
    scaling_exponents,
    tabulated,
    volume,
)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])  # not strictly increasing
    with pytest.raises(ValueError):
        tabulated([0.0, 1.0], [0.0, -1.0])  # negative V


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
