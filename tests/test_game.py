import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcgibbs import (
    AccuracyError,
    ContractError,
    ConvergenceError,
    GameState,
    ascend,
    compromise,
    gradient,
    hessian,
    principal_minor_signs,
    stationary_point,
    stationary_state,
    structured_det,
)
from qcgibbs.ensemble import BoltzmannPass
from qcgibbs import game as game_mod
from qcgibbs.game import ASCENT_LOG_FLOOR, minor_log_magnitude, trace_to_csv
from qcgibbs.spectrum import Spectrum, SpectrumSource


def random_state(rng, k_max=8):
    k = int(rng.integers(2, k_max + 1))
    levels = np.sort(rng.uniform(0.1, 10.0, size=k))
    levels += np.arange(k) * 1e-3  # keep levels distinct
    lam = -rng.uniform(0.0, 3.0)
    weights = np.exp(rng.uniform(-2.0, 1.0, size=k))
    return GameState(levels, lam, weights)


def grad_fd(state, order=5):
    """Five-point central differences of F in each weight coordinate."""
    out = np.empty(state.weights.size)
    for k in range(state.weights.size):
        d = 1e-3 * state.weights[k]

        def f_at(delta):
            w = state.weights.copy()
            w[k] += delta
            return compromise(GameState(state.levels, state.lam, w))[0]

        out[k] = (8 * (f_at(d) - f_at(-d)) - (f_at(2 * d) - f_at(-2 * d))) / (12 * d)
    return out


# ---------------------------------------------------------------------------
# the compromise objective


def test_compromise_uniform_at_lambda_zero():
    f, e, s = compromise(GameState(np.array([1.0, 2.0]), 0.0, np.array([1.0, 1.0])))
    assert f == pytest.approx(math.log(2.0), rel=1e-14)
    assert s == pytest.approx(math.log(2.0), rel=1e-14)
    assert e == pytest.approx(1.5, rel=1e-14)


def test_compromise_single_outcome():
    f, e, s = compromise(GameState(np.array([7.0]), -1.0, np.array([3.3])))
    assert f == pytest.approx(-7.0, rel=1e-14)
    assert s == 0.0


def test_compromise_equals_log_z_at_gibbs_point():
    state = stationary_state([1.0, 2.0, 3.0], -1.0)
    f, _, _ = compromise(state)
    oracle = math.log(math.exp(-1) + math.exp(-2) + math.exp(-3))
    assert f == pytest.approx(oracle, rel=1e-14)
    assert f == pytest.approx(-0.5924, abs=5e-5)


def test_compromise_scale_invariance(rng):
    for _ in range(30):
        state = random_state(rng)
        f0, _, _ = compromise(state)
        for c in (0.5, 2.0, 11.0):
            fc, _, _ = compromise(GameState(state.levels, state.lam, c * state.weights))
            assert abs(fc - f0) <= 1e-12 * max(1.0, abs(f0))


def test_state_validation():
    with pytest.raises(ValueError):
        GameState(np.array([1.0]), -1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        GameState(np.array([1.0]), 0.5, np.array([1.0]))
    with pytest.raises(ValueError):
        GameState(np.array([-1.0]), -1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="levels must be finite"):
        GameState(np.array([1.0, np.inf]), -1.0, np.array([1.0, 1.0]))


def test_probabilities_normalized(rng):
    for _ in range(20):
        state = random_state(rng)
        p = state.probabilities
        assert np.all((p > 0) & (p < 1))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_stationary_point(rng):
    # Z * g is the scale-invariant gradient; the raw g carries an unavoidable
    # 1/Z conditioning factor when all weights are exponentially small
    for _ in range(20):
        k = int(rng.integers(1, 9))
        levels = np.sort(rng.uniform(0.1, 10.0, size=k))
        lam = -rng.uniform(0.0, 3.0)
        state = stationary_state(levels, lam)
        g = gradient(state)
        assert np.max(np.abs(state.z * g)) <= 1e-12
    # at order-one Z the raw gradient itself is zero to 1e-12
    g = gradient(stationary_state([1.0, 2.0, 3.0], -1.0))
    assert np.max(np.abs(g)) <= 1e-12


def test_gradient_pushes_toward_uniform():
    state = GameState(np.array([1.0, 2.0]), 0.0, np.array([1.0, 2.0]))
    g = gradient(state)
    assert g[0] > 0.0 > g[1]
    fd = grad_fd(state)
    np.testing.assert_allclose(g, fd, rtol=1e-7)


def test_gradient_against_finite_differences(rng):
    worst = 0.0
    for _ in range(100):
        state = random_state(rng)
        g = gradient(state)
        fd = grad_fd(state)
        scale = np.maximum(np.abs(g), 1e-10 * np.max(np.abs(g)))
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    assert worst < 1e-7


def test_euler_identity(rng):
    for _ in range(100):
        state = random_state(rng)
        g = gradient(state)
        assert abs(float((state.weights * g).sum())) <= 1e-12


# ---------------------------------------------------------------------------
# stationary point


def test_stationary_point_lambda_zero():
    p = stationary_point([3.0, 5.0, 9.0], 0.0)
    np.testing.assert_array_equal(p, [1.0, 1.0, 1.0])


def test_stationary_point_two_levels():
    state = stationary_state([1.0, 2.0], -1.0)
    np.testing.assert_allclose(state.probabilities, [0.7311, 0.2689], atol=5e-5)


def test_stationary_scale_freedom():
    levels = [1.0, 2.0]
    base = stationary_state(levels, -1.0)
    f0, _, _ = compromise(base)
    for c in (0.5, 2.0):
        scaled = GameState(base.levels, -1.0, c * base.weights)
        np.testing.assert_allclose(scaled.probabilities, base.probabilities, rtol=1e-15)
        assert compromise(scaled)[0] == pytest.approx(f0, rel=1e-14)


# ---------------------------------------------------------------------------
# hessian


def test_hessian_two_level_uniform():
    h = hessian(GameState(np.array([1.0, 2.0]), 0.0, np.array([1.0, 1.0])))
    np.testing.assert_allclose(h, [[-0.25, 0.25], [0.25, -0.25]], rtol=1e-14)


def test_hessian_against_finite_differences():
    state = stationary_state([1.0, 2.0, 3.0], -1.0)
    h = hessian(state)
    k = 3
    fd = np.empty((k, k))
    d = 2e-3  # large enough to keep eps/step^2 roundoff under the tolerance
    f0, _, _ = compromise(state)

    def f_at(dw):
        return compromise(GameState(state.levels, state.lam, state.weights + dw))[0]

    for i in range(k):
        for j in range(k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = d * state.weights[i]
            ej[j] = d * state.weights[j]
            if i == j:
                fd[i, i] = (f_at(ei) - 2 * f0 + f_at(-ei)) / (d * state.weights[i]) ** 2
            else:
                fd[i, j] = (
                    f_at(ei + ej) - f_at(ei - ej) - f_at(-ei + ej) + f_at(-ei - ej)
                ) / (4 * d**2 * state.weights[i] * state.weights[j])
    np.testing.assert_allclose(h, fd, rtol=1e-5)


def test_hessian_null_direction(rng):
    for _ in range(20):
        k = int(rng.integers(2, 9))
        levels = np.sort(rng.uniform(0.1, 10.0, size=k))
        state = stationary_state(levels, -rng.uniform(0.1, 3.0))
        h = hessian(state)
        np.testing.assert_allclose(h @ state.weights, np.zeros(k), atol=1e-10)


def test_hessian_contract_away_from_stationary():
    with pytest.raises(ContractError):
        hessian(GameState(np.array([1.0, 2.0]), -1.0, np.array([1.0, 1.0])))


def test_hessian_accepts_scaled_stationary_weights():
    base = stationary_state([1.0, 2.0], -1.0)
    scaled = GameState(base.levels, base.lam, 5.0 * base.weights)
    h = hessian(scaled)
    np.testing.assert_allclose(h @ scaled.weights, np.zeros(2), atol=1e-10)


def test_maximality_transverse_to_scale_ray(rng):
    state = stationary_state(np.array([1.0, 2.0, 4.0, 7.0]), -0.8)
    f0, _, _ = compromise(state)
    p = state.weights
    for _ in range(40):
        d = rng.normal(size=p.size)
        d -= (d @ p) / (p @ p) * p  # orthogonal to the scale ray
        d *= 1e-4 / np.linalg.norm(d)
        f_try, _, _ = compromise(GameState(state.levels, state.lam, p + d))
        assert f_try <= f0 + 1e-12


# ---------------------------------------------------------------------------
# structured determinants and minors


def test_structured_det_examples():
    assert structured_det([5.0], 3.0) == pytest.approx(5.0, rel=1e-14)
    assert structured_det([2.0, 3.0], 1.0) == pytest.approx(5.0, rel=1e-14)


def test_structured_det_against_dense(rng):
    for _ in range(50):
        k = int(rng.integers(1, 7))
        r = rng.uniform(1.0, 5.0, size=k)
        a = float(rng.uniform(0.2, 1.5))
        m = np.full((k, k), a)
        np.fill_diagonal(m, r)
        assert structured_det(r, a) == pytest.approx(
            float(np.linalg.det(m)), rel=1e-10
        )


def test_structured_det_handles_diagonal_hit():
    # some r_i equal to a: f(a) = 0 but the determinant stays finite
    r = np.array([2.0, 1.0, 3.0])
    m = np.full((3, 3), 1.0)
    np.fill_diagonal(m, r)
    assert structured_det(r, 1.0) == pytest.approx(float(np.linalg.det(m)), rel=1e-12)


def test_minor_signs_three_levels():
    assert principal_minor_signs([1.0, 2.0, 3.0], -1.0, 2) == [-1, 1]


def test_minor_signs_five_levels_against_dense():
    levels = [1.0, 2.0, 3.0, 4.0, 5.0]
    lam = -0.5
    signs = principal_minor_signs(levels, lam, 4)
    assert signs == [-1, 1, -1, 1]
    state = stationary_state(np.asarray(levels), lam)
    h = hessian(state)
    for k in range(1, 5):
        sign, log_abs = minor_log_magnitude(levels, lam, k)
        dense = float(np.linalg.det(h[:k, :k]))
        assert sign == math.copysign(1, dense)
        assert abs(math.exp(log_abs) - abs(dense)) <= 1e-9 * abs(dense)


def test_minor_log_magnitude_against_mpmath(rng):
    # 50-digit determinants of the explicit Hessian at the same shifted weights
    for _ in range(30):
        size = int(rng.integers(2, 11))
        levels = np.sort(rng.uniform(0.1, 10.0, size=size))
        lam = -float(rng.uniform(0.05, 5.0))
        with mpmath.workdps(50):
            q = [mpmath.exp(lam * (mpmath.mpf(e) - mpmath.mpf(levels[0]))) for e in levels]
            z = mpmath.fsum(q)
            h = mpmath.matrix(size, size)
            for i in range(size):
                for j in range(size):
                    h[i, j] = -(z - q[i]) / (q[i] * z**2) if i == j else 1 / z**2
            for k in range(1, size):
                exact = mpmath.det(h[:k, :k])
                sign, log_abs = minor_log_magnitude(levels, lam, k)
                assert sign == int(mpmath.sign(exact))
                assert abs(mpmath.exp(log_abs) / abs(exact) - 1) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 100_000), lam=st.floats(-1e4, -1e-3),
       depth=st.floats(1.0, 2_000.0), e1=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(size=40, lam=-20.0, depth=780.0, e1=0.5, seed=0)
@example(size=100_000, lam=-1e4, depth=2_000.0, e1=10.0, seed=0)
def test_game_at_the_gibbs_state(size, lam, depth, e1, seed):
    """Ascending distinct levels from E_1 = e1 up to lam (E_K - E_1) = -depth:
    every minor below K has the theorem's sign, and where the Gibbs weights
    are positive doubles the compromise there is the ensemble's log Z."""
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, size=size - 1)
    levels = e1 + depth / -lam * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    assert principal_minor_signs(levels, lam, size - 1) == [(-1) ** k for k in range(1, size)]
    if depth <= -ASCENT_LOG_FLOOR:
        f, _, _ = compromise(stationary_state(levels, lam))
        log_z = BoltzmannPass(Spectrum(levels, 1.0, SpectrumSource.GIVEN), -lam).log_z
        assert abs(f - log_z) <= 1e-12 * max(1.0, abs(log_z))


def test_minor_signs_at_a_hundred_thousand_levels():
    levels = np.sort(np.random.default_rng(0).uniform(0.1, 1e3, size=100_000))
    start = time.perf_counter()
    signs = principal_minor_signs(levels, -1e4, levels.size - 1)
    assert time.perf_counter() - start < 1.0
    assert signs == [(-1) ** k for k in range(1, levels.size)]


def test_minor_signs_contract_at_full_order():
    with pytest.raises(ValueError, match="below the level count 2"):
        principal_minor_signs([1.0, 2.0], -1.0, 2)
    # the full determinant itself vanishes along the scale ray
    state = stationary_state(np.array([1.0, 2.0]), -1.0)
    assert abs(float(np.linalg.det(hessian(state)))) <= 1e-12


def test_minor_signs_argument_errors():
    with pytest.raises(ValueError):
        principal_minor_signs([1.0, 1.0, 2.0], -1.0, 1)  # repeated levels
    with pytest.raises(ValueError):
        principal_minor_signs([1.0, 2.0], 0.0, 1)  # lam must be < 0


# ---------------------------------------------------------------------------
# ascent


def test_ascend_two_levels():
    result = ascend([1.0, 2.0], -1.0, [1.0, 1.0])
    p = result.weights / result.weights.sum()
    target = stationary_state([1.0, 2.0], -1.0).probabilities
    assert 0.5 * np.abs(p - target).sum() <= 1e-8
    np.testing.assert_allclose(p, [0.7311, 0.2689], atol=1e-4)


def test_ascend_from_stationary_point_is_immediate():
    start = stationary_point([1.0, 2.0, 3.0], -0.7)
    result = ascend([1.0, 2.0, 3.0], -0.7, start)
    assert result.iterations <= 1


def test_ascend_f_non_decreasing():
    result = ascend([1.0, 2.0, 3.0, 4.0], -0.5, [4.0, 1.0, 1.0, 2.0])
    f_col = result.trace[:, 1]
    assert np.all(np.diff(f_col) >= 0.0)


def test_ascend_random_starts_agree(rng):
    levels = np.sort(rng.uniform(0.1, 5.0, size=10))
    finals = []
    for _ in range(20):
        start = np.exp(rng.uniform(-2.0, 2.0, size=10))
        result = ascend(levels, -2.0, start)
        finals.append(result.weights / result.weights.sum())
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            assert 0.5 * np.abs(finals[i] - finals[j]).sum() < 1e-7


def test_ascend_iteration_cap(monkeypatch):
    monkeypatch.setattr(game_mod, "ASCENT_MAX_ITERATIONS", 0)
    monkeypatch.setattr(game_mod, "ASCENT_GRAD_TOL", 1e-300)
    with pytest.raises(ConvergenceError, match="gradient norm"):
        ascend([1.0, 2.0], -1.0, [5.0, 1.0])


def test_ascend_reaches_gibbs_weights_far_below_one():
    # exp(-300 E_n) underflows from E_n = 2.5; the weights relative to E_1 do not
    result = ascend([1.0, 2.0, 3.0], -300.0, [1.0, 1.0, 1.0])
    target = stationary_state([1.0, 2.0, 3.0], -300.0).probabilities
    np.testing.assert_allclose(result.weights / result.weights.sum(), target, rtol=1e-12)


def test_ascend_refuses_gibbs_weights_past_the_doubles():
    with pytest.raises(ValueError, match=r"lam \(E_max - E_min\) >= -700.*got -1600"):
        ascend([1.0, 2.0, 3.0], -800.0, [1.0, 1.0, 1.0])


def test_ascend_rejects_nonnegative_lambda():
    with pytest.raises(ValueError):
        ascend([1.0, 2.0], 0.0, [1.0, 1.0])


def test_trace_csv(tmp_path):
    result = ascend([1.0, 2.0], -1.0, [2.0, 1.0])
    path = tmp_path / "trace.csv"
    trace_to_csv(result.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,F,grad_norm"
    assert len(lines) == result.trace.shape[0] + 1
