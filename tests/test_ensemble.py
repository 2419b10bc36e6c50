import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaln

from qcgibbs import (
    AccuracyError,
    IntegrabilityError,
    Spectrum,
    SpectrumSource,
    TruncationError,
    box,
    entropy_classical,
    entropy_quantum,
    homogeneous,
    mean_energy_classical,
    mean_energy_quantum,
    oscillator_spectrum,
    psi,
    solve_box,
    tabulated,
    thermo_point,
    thermo_table_text,
    z_classical,
    z_quantum,
)
from qcgibbs import ensemble
from qcgibbs.ensemble import (
    boltzmann_pass,
    entropy_quantum_error,
    log_entropy_quantum,
    log_z_quantum,
    mean_energy_quantum_error,
    z_quantum_error,
)
from qcgibbs.spectrum import log_tail_bound, rescale, solve_fd_1d
from qcgibbs.util import log_upper_gamma, logsumexp

PI2 = math.pi**2


def toy(levels):
    return Spectrum(np.asarray(levels, dtype=float), 1.0, SpectrumSource.ANALYTIC_BOX)


# ---------------------------------------------------------------------------
# quantum partition sums


def test_z_quantum_two_levels():
    value, tail = z_quantum(toy([1.0, 2.0]), 1.0)
    assert value == pytest.approx(math.exp(-1) + math.exp(-2), rel=1e-15)
    assert tail == 0.0  # small level sets are complete systems


def test_z_quantum_box_against_direct_sum():
    spec = solve_box(1, [1.0], count=50)
    value, tail = z_quantum(spec, 1.0)
    n = np.arange(1, 201)
    oracle = float(np.exp(-PI2 / 2 * n**2).sum())
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value == pytest.approx(7.192e-3, rel=1e-3)
    assert tail / value < 1e-10


def test_z_quantum_ground_state_domination():
    spec = toy([1.0, 1.0, 2.0])  # doubly degenerate ground level
    for beta in (10.0, 20.0, 40.0):
        value, _ = z_quantum(spec, beta)
        assert value / math.exp(-beta) == pytest.approx(2.0, rel=1e-4)


def test_z_quantum_truncation_gate():
    spec = solve_box(1, [1.0], count=16)
    with pytest.raises(TruncationError):
        z_quantum(spec, 1e-4)


# ---------------------------------------------------------------------------
# classical partition integrals


def test_z_classical_box_values():
    value, err = z_classical(box([1.0]), 1.0)
    assert value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    value3, _ = z_classical(box([2.0, 1.0, 1.0]), 2.0)
    assert value3 == pytest.approx(math.pi**1.5 * 2, rel=1e-14)


def test_z_classical_power_law_against_gamma():
    # oracle: (2 pi m / beta)^(1/2) * 2 * Gamma(1/2) / (2 beta^(1/2)) for nu=2
    value, err = z_classical(homogeneous(2), 1.0)
    assert value == pytest.approx(math.sqrt(2 * math.pi) * math.sqrt(math.pi), rel=1e-12)
    assert err < 1e-8 * value
    value_b, _ = z_classical(homogeneous(3, dimension=2), 0.7)
    oracle = (2 * math.pi / 0.7) * 2 * math.pi * math.gamma(2 / 3) / (3 * 0.7 ** (2 / 3))
    assert value_b == pytest.approx(oracle, rel=1e-10)


def test_z_classical_tabulated_matches_power_law():
    xs = np.linspace(-12.0, 12.0, 20001)
    pot = tabulated(xs, xs**2)
    value, _ = z_classical(pot, 1.0)
    exact, _ = z_classical(homogeneous(2), 1.0)
    assert value == pytest.approx(exact, rel=1e-6)


# ---------------------------------------------------------------------------
# power-law classical sums: the closed forms against mpmath and quadrature

_U_SPLIT = 50.0  # radial integrals switch to the analytic tail where beta*V = 50


# The former runtime path, kept here verbatim as an independent oracle: QAWSE
# quadrature in u = beta r^nu with the algebraic endpoint weight.
def _radial_config_integral(nu: float, n_dim: int, beta: float) -> tuple[float, float]:
    """(value, error) of int_0^inf exp(-beta r^nu) r^(N-1) dr via the
    substitution u = beta r^nu, quadrature on [0, 50] with the algebraic
    endpoint weight u^(N/nu - 1), and an analytic bound for the remainder.
    Cross-checked against the closed form Gamma(N/nu) / (nu beta^(N/nu))."""
    a = n_dim / nu
    scale = math.exp(-a * math.log(beta) - math.log(nu))
    val, err = integrate.quad(
        lambda u: math.exp(-u), 0.0, _U_SPLIT,
        weight="alg", wvar=(a - 1.0, 0.0), epsabs=0.0, epsrel=1e-12, limit=200,
    )
    tail = math.exp(log_upper_gamma(a, _U_SPLIT))
    value = scale * (val + tail)
    closed = math.exp(gammaln(a) - a * math.log(beta) - math.log(nu))
    if not math.isfinite(value) or value <= 0.0:
        raise IntegrabilityError("radial configuration integral did not converge")
    if abs(value - closed) > 1e-8 * closed:
        raise AccuracyError(
            f"radial quadrature {value!r} disagrees with the Gamma closed form {closed!r}"
        )
    return value, scale * err + abs(value - closed) + 1e-14 * value


def _radial_mean_v(nu: float, n_dim: int, beta: float) -> float:
    """<V> under exp(-beta r^nu) r^(N-1) dr, by quadrature in u = beta r^nu."""
    a = n_dim / nu
    num, _ = integrate.quad(
        lambda u: math.exp(-u), 0.0, _U_SPLIT,
        weight="alg", wvar=(a, 0.0), epsabs=0.0, epsrel=1e-12, limit=200,
    )
    num += math.exp(log_upper_gamma(a + 1.0, _U_SPLIT))
    den, _ = integrate.quad(
        lambda u: math.exp(-u), 0.0, _U_SPLIT,
        weight="alg", wvar=(a - 1.0, 0.0), epsabs=0.0, epsrel=1e-12, limit=200,
    )
    den += math.exp(log_upper_gamma(a, _U_SPLIT))
    return num / den / beta


def _mp_classical(nu: float, n_dim: int, beta: float) -> tuple[float, float]:
    """(Z_c, E_c) of r^nu in N dimensions at 30 digits, from the exact doubles."""
    with mpmath.workdps(30):
        nu, beta, n = mpmath.mpf(nu), mpmath.mpf(beta), mpmath.mpf(n_dim)
        kin = (2 * mpmath.pi / beta) ** (n / 2)
        surf = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        radial = mpmath.gamma(n / nu) / (nu * beta ** (n / nu))
        return kin * surf * radial, n * (2 + nu) / (2 * nu * beta)


@settings(max_examples=300, deadline=None)
@given(
    nu=st.floats(0.5, 30.0),
    n_dim=st.sampled_from([1, 2, 3]),
    beta=st.floats(1e-3, 1e3),
)
@example(nu=1.0, n_dim=1, beta=1e-3)  # a = 1 and a = 2: the zeros of gammaln
@example(nu=1.5, n_dim=3, beta=1e3)
@example(nu=0.5, n_dim=3, beta=1e-3)  # a = 6, the largest exponent
def test_power_law_classical_closed_forms(nu, n_dim, beta):
    pot = homogeneous(nu, dimension=n_dim)
    zc, zc_err = z_classical(pot, beta)
    ec = mean_energy_classical(pot, beta)
    zc_mp, ec_mp = _mp_classical(nu, n_dim, beta)
    eps = np.finfo(float).eps
    # each within its claimed bar of the 30-digit value
    assert abs(mpmath.mpf(zc) - zc_mp) <= zc_err
    assert abs(mpmath.mpf(ec) - ec_mp) <= 2.0 * eps * ec_mp
    assert zc_err < 1e-13 * zc
    # and the former quadrature path agrees with both closed forms
    kin = (2.0 * math.pi / beta) ** (n_dim / 2.0)
    surf = 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)
    radial, _ = _radial_config_integral(nu, n_dim, beta)
    assert abs(kin * surf * radial - zc) <= 1e-10 * zc
    e_quad = n_dim / (2.0 * beta) + _radial_mean_v(nu, n_dim, beta)
    assert abs(e_quad - ec) <= 1e-10 * ec


def test_z_classical_underflow_is_an_error():
    # beta^-(N/nu) = 1e-1200: Gamma(6) / (nu beta^6) is below the double range
    with pytest.raises(IntegrabilityError, match="underflows"):
        z_classical(homogeneous(0.5, dimension=3), 1e200)


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.5, 3.0, 4.0, 6.0, 20.0])
def test_radial_closed_form_within_its_rounding_bound(nu):
    # math.lgamma is worst for a in (2, 4), which nu = 0.3 reaches at N = 1
    for n_dim in (1, 2, 3):
        for beta in (1e-3, 0.37, 1.0, 2.9, 1e3):
            value, bound = ensemble._radial_config_integral(nu, n_dim, beta)
            with mpmath.workdps(40):
                a = mpmath.mpf(n_dim) / mpmath.mpf(nu)
                exact = mpmath.gamma(a) / (mpmath.mpf(nu) * mpmath.mpf(beta) ** a)
                assert abs(mpmath.mpf(value) - exact) <= bound, (n_dim, beta)
            assert bound < 1e-12 * value


def _mp_tabulated_classical(xs, vs, beta):
    """(Z_c configuration integral, <V>) of the piecewise-linear interpolant
    at 40 digits, segment by segment from the exact doubles."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        z = num = mpmath.mpf(0)
        for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
            x0, x1, v0, v1 = map(mpmath.mpf, (x0, x1, v0, v1))
            s = (v1 - v0) / (x1 - x0)
            if s == 0:
                z += (x1 - x0) * mpmath.exp(-b * v0)
                num += (x1 - x0) * v0 * mpmath.exp(-b * v0)
                continue
            anti = lambda y: -(y / b + 1 / b**2) * mpmath.exp(-b * y)
            z += (mpmath.exp(-b * v0) - mpmath.exp(-b * v1)) / (b * s)
            num += (anti(v1) - anti(v0)) / s
        return z, num / z


@pytest.mark.parametrize("amplitude", [1e-6, 1e-9, 1e-3, 1.0])
def test_flat_tabulated_segments_keep_their_digits(amplitude):
    # |beta dV| ~ 7e-8 per segment at amplitude 1e-6, where (w1 - w0) / z
    # cancelled to about 1e-11
    xs = np.linspace(-1.0, 1.0, 201)
    pot = tabulated(xs, 1.0 + amplitude * np.sin(7.0 * xs))
    z_ref, mean_v_ref = _mp_tabulated_classical(xs, pot.grid_v, 1.0)
    z, z_err, v_weighted = ensemble._tabulated_sums(pot, 1.0)
    assert abs(mpmath.mpf(z) - z_ref) <= z_err
    mean_v = v_weighted / z
    assert abs(mpmath.mpf(mean_v) - mean_v_ref) <= 1e-13 * abs(mean_v_ref)


# ---------------------------------------------------------------------------
# mean energies


def test_mean_energy_quantum_degenerate():
    assert mean_energy_quantum(toy([1.0, 1.0]), 3.7) == pytest.approx(1.0, rel=1e-14)


def test_mean_energy_quantum_infinite_temperature_limit():
    assert mean_energy_quantum(toy([1.0, 2.0]), 1e-8) == pytest.approx(1.5, abs=1e-7)


def test_mean_energy_quantum_derivative_identity():
    spec = solve_box(1, [1.0], count=4000)
    beta = 0.01
    db = 1e-4 * beta
    lz_p, _ = log_z_quantum(spec, beta + db)
    lz_m, _ = log_z_quantum(spec, beta - db)
    oracle = -(lz_p - lz_m) / (2 * db)
    assert mean_energy_quantum(spec, beta) == pytest.approx(oracle, rel=1e-6)


def test_mean_energy_classical_values():
    assert mean_energy_classical(box([1.0, 1.0, 1.0]), 2.0) == pytest.approx(0.75, rel=1e-14)
    assert mean_energy_classical(homogeneous(2), 1.0) == pytest.approx(1.0, rel=1e-12)
    # nu -> infinity degenerates to the box value N/(2 beta)
    assert mean_energy_classical(homogeneous(1e6, dimension=2), 1.0) == pytest.approx(
        1.0, abs=1e-4
    )


def test_mean_energy_classical_quadrature_oracle():
    # independent quadrature of the phase-space mean of H for nu=4
    beta = 1.3
    num = integrate.quad(lambda x: x**4 * math.exp(-beta * x**4), 0, 20)[0]
    den = integrate.quad(lambda x: math.exp(-beta * x**4), 0, 20)[0]
    oracle = 1 / (2 * beta) + num / den
    assert mean_energy_classical(homogeneous(4), beta) == pytest.approx(oracle, rel=1e-9)


def test_mean_energy_classical_derivative_identity():
    # E_c = -d log Z_c / d beta on every potential kind
    xs = np.linspace(-10.0, 10.0, 5001)
    kinds = [
        tabulated(xs, np.abs(xs) ** 1.5),
        box([1.0, 2.0]),
        homogeneous(2),
        homogeneous(4),
    ]
    beta = 0.8
    db = 1e-4 * beta
    for pot in kinds:
        zp, _ = z_classical(pot, beta + db)
        zm, _ = z_classical(pot, beta - db)
        oracle = -(math.log(zp) - math.log(zm)) / (2 * db)
        assert mean_energy_classical(pot, beta) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# entropies


def test_entropy_quantum_single_level():
    s = entropy_quantum(toy([1.0]), 2.0)
    p = boltzmann_pass(toy([1.0]), 2.0).p
    assert s == 0.0
    assert p.tolist() == [1.0]


def test_entropy_quantum_uniform_limit():
    s = entropy_quantum(toy([1.0, 2.0]), 1e-8)
    assert s == pytest.approx(math.log(2.0), abs=1e-7)


def test_entropy_quantum_three_levels():
    spec = toy([1.0, 2.0, 3.0])
    s, p = entropy_quantum(spec, 1.0), boltzmann_pass(spec, 1.0).p
    w = np.exp([-1.0, -2.0, -3.0])
    p_oracle = w / w.sum()
    oracle = -float((p_oracle * np.log(p_oracle)).sum())
    assert s == pytest.approx(oracle, rel=1e-14)
    assert s == pytest.approx(0.8324, abs=5e-5)
    np.testing.assert_allclose(p, p_oracle, rtol=1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_entropy_identity_everywhere(rng):
    # toy level sets are complete systems: read the pass, past the tail gate
    for _ in range(25):
        levels = np.sort(rng.uniform(0.1, 10.0, size=rng.integers(2, 30)))
        beta = rng.uniform(0.05, 5.0)
        m = boltzmann_pass(toy(levels), beta)
        assert abs(m.s_q - (beta * m.e_q + m.log_z)) < 1e-10


def test_entropy_classical_box():
    s = entropy_classical(box([1.0]), 1.0, 1.0)
    oracle = 0.5 + math.log(math.sqrt(2 * math.pi)) - math.log(2 * math.pi)
    assert s == pytest.approx(oracle, rel=1e-12)
    assert s == pytest.approx(-0.4189, abs=5e-5)


def test_entropy_classical_h_shift():
    pot = homogeneous(2, dimension=2)
    for h1, h2 in ((1.0, 2.0), (0.25, 4.0)):
        d = entropy_classical(pot, 1.3, h1) - entropy_classical(pot, 1.3, h2)
        assert d == pytest.approx(-2 * math.log(h1 / h2), rel=1e-12)


def test_entropy_classical_power_law():
    s = entropy_classical(homogeneous(2), 1.0, 1.0)
    zc, _ = z_classical(homogeneous(2), 1.0)
    assert s == pytest.approx(1.0 + math.log(zc) - math.log(2 * math.pi), rel=1e-12)
    assert s == pytest.approx(0.6534, abs=5e-5)


def test_log_entropy_deep_quantum_regime():
    spec = toy([1.0, 2.0, 3.0])
    # beta where S underflows float64 entirely: log S ~ log(beta) - beta
    beta = 1200.0
    ls = log_entropy_quantum(spec, beta)
    oracle = math.log(beta + 1.0) - beta  # S ~ (1 + beta d) e^{-beta d}, d = 1
    assert ls == pytest.approx(oracle, abs=1e-3)
    # moderate regime agrees with the linear path
    s = entropy_quantum(spec, 2.0)
    assert log_entropy_quantum(spec, 2.0) == pytest.approx(math.log(s), rel=1e-12)


@pytest.mark.parametrize("gap", [0.5, 15.0, 29.0, 31.0, 700.0, 2370.0])
def test_log_entropy_within_its_bar_where_s_is_small(gap):
    # S_q = beta A / (1 + r) + log1p(r) at 60 digits, A and r the excited
    # weights' sums; a direct sum -sum P log P rounds to eps absolute, which
    # near r = e^-29 is 2e-5 in log S_q against a bar of 3e-11
    levels = [1.0, 1.0 + gap, 6.0 + gap]
    value, bar = ensemble.ThermoPoint(box([1.0]), toy(levels), 1.0, 1.0, 1.0).log_s
    with mpmath.workdps(60):
        d = [mpmath.mpf(e) - 1 for e in levels[1:]]
        r = sum(mpmath.exp(-x) for x in d)
        a = sum(x * mpmath.exp(-x) for x in d)
        exact = mpmath.log(a / (1 + r) + mpmath.log1p(r))
    assert abs(value - exact) <= bar


# ---------------------------------------------------------------------------
# the Psi profile


def test_psi_single_level():
    value, deriv = psi([5.0], 2.0)
    assert value == 0.0
    assert deriv == 0.0


def test_psi_sign():
    value, deriv = psi([1.0, 2.0], 1.0)
    # the single pair term: -lam (E2-E1)^2 exp(-lam(E1+E2)) / Phi^2
    phi = math.exp(-1.0) + math.exp(-2.0)
    assert deriv == pytest.approx(-math.exp(-3.0) / phi**2, rel=1e-14)
    assert deriv < 0.0


def test_psi_large_set_contraction_path():
    # psi' is -lam * Var_P(E), the contraction of the pairwise sum
    # -lam * sum_{n>m} (E_n - E_m)^2 w_n w_m / Phi^2, which is the oracle here
    levels = np.linspace(1.0, 9.0, 2050)
    lam = 0.6
    _, deriv = psi(levels, lam)
    w = np.exp(-lam * (levels - levels[0]))
    diff = levels[:, None] - levels[None, :]
    pair = np.triu(w[:, None] * w[None, :], k=1)
    oracle = -lam * float((diff**2 * pair).sum()) / float(w.sum()) ** 2
    assert deriv == pytest.approx(oracle, rel=1e-10)


def test_psi_derivative_against_finite_differences():
    levels = [1.0, 2.0, 3.0]
    lam = 0.7
    _, deriv = psi(levels, lam)
    d = 1e-3
    five_point = (
        8 * (psi(levels, lam + d)[0] - psi(levels, lam - d)[0])
        - (psi(levels, lam + 2 * d)[0] - psi(levels, lam - 2 * d)[0])
    ) / (12 * d)
    assert deriv == pytest.approx(five_point, rel=1e-7)


def test_psi_monotone_decreasing(rng):
    for _ in range(50):
        k = rng.integers(2, 9)
        levels = rng.uniform(0.1, 10.0, size=k)
        levels[1] = levels[0] + rng.uniform(0.05, 2.0)  # ensure two distinct
        l1 = rng.uniform(0.1, 2.0)
        l2 = l1 + rng.uniform(0.1, 2.0)
        v1, d1 = psi(levels, l1)
        v2, _ = psi(levels, l2)
        assert v2 < v1
        assert d1 < 0.0


def test_psi_argument_errors():
    with pytest.raises(ValueError):
        psi([], 1.0)
    with pytest.raises(ValueError):
        psi([1.0], 0.0)


# ---------------------------------------------------------------------------
# properties over the analytic and basis spectra

SWEEP_BETAS = (0.05, 80.0)
SWEEP_HS = (0.5, 2.0)


@pytest.fixture(scope="module")
def swept(box1, oscillator, wedge, quartic):
    """Each family with its lambda_min over the property sweep below."""
    return {
        name: (fam, fam.lambda_min(SWEEP_BETAS, SWEEP_HS))
        for name, fam in (("box", box1), ("oscillator", oscillator),
                          ("wedge", wedge), ("quartic", quartic))
    }


_SWEEP_POINT = dict(
    beta=st.floats(SWEEP_BETAS[0], SWEEP_BETAS[1] / 4.0),
    h=st.floats(*SWEEP_HS),
)


@pytest.mark.parametrize("name", ["box", "oscillator", "wedge", "quartic"])
@settings(max_examples=30, deadline=None)
@given(ratio=st.floats(1.001, 4.0), **_SWEEP_POINT)
def test_z_quantum_strictly_decreasing_in_beta(swept, name, beta, h, ratio):
    # d log Z_q / d beta = -E_q < 0, compared in logs: Z_q itself underflows
    fam, lam_min = swept[name]
    spec = fam.spectrum(h, lam_min)
    assert log_z_quantum(spec, beta * ratio)[0] < log_z_quantum(spec, beta)[0]


@pytest.mark.parametrize("name", ["box", "oscillator", "wedge", "quartic"])
@settings(max_examples=30, deadline=None)
@given(**_SWEEP_POINT)
def test_quantum_entropy_identity_on_every_basis(swept, name, beta, h):
    # the direct sum -sum P log P against beta E_q + log Z_q, unshifted
    fam, lam_min = swept[name]
    spec = fam.spectrum(h, lam_min)
    s_q = entropy_quantum(spec, beta)
    be_q = beta * mean_energy_quantum(spec, beta)
    log_zq = log_z_quantum(spec, beta)[0]
    assert abs(s_q - (be_q + log_zq)) <= 1e-12 * (1.0 + abs(be_q) + abs(log_zq))


# ---------------------------------------------------------------------------
# the cut pass against full-array passes

_EPS = float(np.finfo(float).eps)
# rounding of sums over the cut and the full array, taken in different orders
_ROUND = 64.0 * _EPS


def _full_array_pass(spec, beta):
    """log Z_q, E_q, S_q, log S_q and their bars from weights over every
    level: the formulas of a pass with no cut, kept here as the reference."""
    levels, errs = spec.levels, spec.level_errors
    e0 = levels[0]
    d = levels - e0
    w = np.exp(-beta * d)
    sw = float(w.sum())
    log_z = -beta * e0 + math.log(sw)
    e_q = e0 + float((d * w).sum()) / sw
    p = w / sw
    s_q = 0.0 - float((p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum())
    small = spec.count < 8
    log_tail = -math.inf if small else log_tail_bound(spec, beta)
    log_wtail = -math.inf if small else log_tail_bound(spec, beta, 1)
    z_err = math.exp(log_tail) if log_tail > -700.0 else 0.0
    e_err = math.exp(min(log_wtail - log_z, 50.0)) + e_q * math.exp(min(log_tail - log_z, 50.0))
    if errs is not None:
        z_err += beta * float((errs * w).sum()) * math.exp(max(-beta * e0, -700.0))
        e_err += float((errs * w * (1.0 + beta * np.abs(levels - e_q))).sum()) / sw
    s_err = beta * e_err + z_err / (math.exp(max(-beta * e0, -700.0)) * sw)
    dd = d[1:]
    log_s_round = 0.0
    if dd.size == 0:
        log_s = -math.inf
    else:
        log_r = logsumexp(-beta * dd)
        log_s = (math.log(s_q) if log_r > -30.0 else float(np.logaddexp(
            math.log(beta) + logsumexp(np.log(dd) - beta * dd), log_r)))
        # log of a direct sum that rounds to a few eps of 1
        log_s_round = 8.0 * _EPS / s_q if log_r > -30.0 else 0.0
    log_s_err = 1e-12 * (1.0 + abs(log_s))
    if errs is not None:
        log_s_err += beta * (float(errs[:2].sum()) + float((errs * w).sum()) / sw)
    return dict(log_z=log_z, e_q=e_q, s_q=s_q, log_s=log_s, log_tail=log_tail,
                z_err=z_err, e_err=e_err, s_err=s_err, log_s_err=log_s_err,
                log_s_round=log_s_round)


def _check_cut_pass(spec, beta):
    """The cut pass within its own bars of the full-array pass, and each of
    its bars at least the full-array pass's, to rounding, wherever the pass
    clears the plain-tail gate."""
    m = ensemble.BoltzmannPass(spec, beta)
    assume(m.log_tail - m.log_z < math.log(ensemble.TAIL_RTOL))
    ref = _full_array_pass(spec, beta)
    log_s, log_s_err = ensemble.ThermoPoint(box([1.0]), spec, beta, spec.planck, 1.0).log_s
    z_bar = math.exp(min(m.log_tail - m.log_z, 50.0))
    if spec.level_errors is not None:
        z_bar += m.beta * (float((spec.level_errors[:m.w.size] * m.w).sum()) + m.omitted_bar) / m.sw
    assert abs(m.log_z - ref["log_z"]) <= z_bar + _ROUND * (1.0 + abs(m.log_z))
    assert abs(m.e_q - ref["e_q"]) <= m.e_err + _ROUND * m.e_q
    assert abs(m.s_q - ref["s_q"]) <= m.s_err + _ROUND * (1.0 + m.s_q)
    if math.isinf(ref["log_s"]):
        assert log_s == ref["log_s"]
    else:
        assert abs(log_s - ref["log_s"]) <= (log_s_err + _ROUND * (1.0 + abs(log_s))
                                             + ref["log_s_round"])
    assert m.log_tail >= ref["log_tail"]
    # log S_q's bar holds 1e-12 |log S_q|, which moves with the value's rounding
    if not math.isinf(log_s):
        log_s_err += 1e-12 * abs(log_s - ref["log_s"])
    for bar, ref_bar in ((m.z_err, "z_err"), (m.e_err, "e_err"), (m.s_err, "s_err"),
                         (log_s_err, "log_s_err")):
        assert bar >= ref[ref_bar] * (1.0 - _ROUND), ref_bar
    return m


@settings(max_examples=200, deadline=None)
@given(e1=st.floats(1e-3, 10.0), ground=st.integers(1, 3), gap=st.floats(0.0, 3000.0),
       size=st.integers(0, 20_000), spread=st.floats(1.0, 1e4), power=st.floats(0.3, 3.0),
       beta=st.floats(1e-3, 100.0), bar=st.sampled_from([None, 1e-14, 1e-9]))
@example(e1=1.0, ground=2, gap=0.0, size=0, spread=1.0, power=1.0, beta=1.0, bar=None)
@example(e1=1.0, ground=2, gap=100.0, size=5_000, spread=1e3, power=0.5, beta=1.0,
         bar=1e-9)
@example(e1=1.0, ground=1, gap=2370.0, size=20_000, spread=1e4, power=1.0, beta=10.0,
         bar=1e-9)
def test_cut_pass_on_sorted_level_sets(e1, ground, gap, size, spread, power, beta, bar):
    # a ground level repeated `ground` times, E_2 at beta (E_2 - E_1) = gap,
    # and `size` levels above E_2 up to beta (E_M - E_2) = spread: beta E_n
    # gaps past the cut of 60 on both sides of it
    tail = (np.arange(1, size + 1) / max(size, 1)) ** power * spread
    levels = e1 + np.concatenate((np.zeros(ground), [gap], gap + tail)) / beta
    spec = Spectrum(levels, 1.0, SpectrumSource.GIVEN,
                    None if bar is None else bar * levels)
    m = _check_cut_pass(spec, beta)
    assert m.p.size == spec.count
    np.testing.assert_array_equal(m.p[:m.w.size], m.w / m.sw)


@pytest.mark.parametrize("name", ["box", "oscillator", "wedge", "quartic"])
@settings(max_examples=30, deadline=None)
@given(**_SWEEP_POINT)
def test_cut_pass_on_every_basis(swept, name, beta, h):
    fam, lam_min = swept[name]
    _check_cut_pass(fam.spectrum(h, lam_min), beta)


# ---------------------------------------------------------------------------
# thermo points and tables


def test_thermo_point_identities():
    pot = box([1.0])
    spec = solve_box(1, [1.0], count=200)
    pt = thermo_point(ensemble.ThermoPoint(pot, spec, 1.0, 1.0, 1.0))
    assert pt.s_quantum == pytest.approx(pt.beta * pt.e_quantum + pt.log_z_quantum, abs=1e-10)
    n_log = math.log(2 * math.pi * pt.planck)
    assert pt.s_classical == pytest.approx(
        pt.beta * pt.e_classical + math.log(pt.z_classical) - n_log, abs=1e-10
    )
    assert boltzmann_pass(spec, pt.beta).p.sum() == pytest.approx(1.0, abs=1e-12)
    assert pt.zq_scaled == pytest.approx(2 * math.pi * pt.z_quantum, rel=1e-12)


def test_a_point_reads_each_classical_quantity_once(monkeypatch):
    # S_c reuses the point's own Z_c and E_c, so the comparisons z, e and s
    # call each classical reader once
    calls = []

    def counting(name):
        real = getattr(ensemble, name)

        def reader(*args):
            calls.append(name)
            return real(*args)
        return reader

    for name in ("z_classical", "mean_energy_classical"):
        monkeypatch.setattr(ensemble, name, counting(name))
    pt = ensemble.ThermoPoint(box([1.0]), solve_box(1, [1.0], count=200), 1.0, 1.0, 1.0)
    gaps = pt.z[0], pt.e[0], pt.s[0]
    assert sorted(calls) == ["mean_energy_classical", "z_classical"]
    assert gaps[2] == pt.s_quantum - entropy_classical(box([1.0]), 1.0, pt.planck)


def test_entropy_of_a_ground_state_is_plus_zero():
    # every excited weight underflows: the direct sum is a sum of zeros
    m = boltzmann_pass(toy([1.0, 2.0, 3.0]), 800.0)
    assert m.s_q == 0.0 and math.copysign(1.0, m.s_q) == 1.0


def test_gibbs_maximizes_entropy_under_energy_constraint(rng):
    spec = toy(np.linspace(1.0, 4.0, 12))
    beta = 0.9
    m = boltzmann_pass(spec, beta)  # a complete system, past the tail gate
    s_q, p = m.s_q, m.p
    e = spec.levels
    for _ in range(200):
        d = rng.normal(size=p.size)
        # project onto the simplex tangent with fixed mean energy
        basis = np.stack([np.ones_like(e), e])
        q, _ = np.linalg.qr(basis.T)
        d -= q @ (q.T @ d)
        norm = np.linalg.norm(d)
        if norm < 1e-12:
            continue
        d *= 1e-5 / norm
        trial = p + d
        if np.any(trial <= 0):
            continue
        s_trial = -float((trial * np.log(trial)).sum())
        assert s_trial <= s_q + 1e-9


def test_thermo_table_csv_and_json():
    pot = box([1.0])
    points = [
        thermo_point(ensemble.ThermoPoint(pot, solve_box(1, [1.0], planck=h, count=400),
                                          beta, h, 1.0))
        for beta in (0.5, 1.0)
        for h in (0.5, 1.0)
    ]
    rows = [pt.row for pt in points]
    lines = thermo_table_text(rows, "csv").strip().splitlines()
    assert lines[0] == "beta,h,Zq_scaled,Zc,Eq,Ec,Sq,Sc"
    assert len(lines) == 5
    data = json.loads(thermo_table_text(rows, "json"))
    assert len(data["rows"]) == 4
    row = data["rows"][0]
    csv_row = [float(x) for x in lines[1].split(",")]
    for i, name in enumerate(("beta", "h", "Zq_scaled", "Zc", "Eq", "Ec", "Sq", "Sc")):
        assert row[name] == csv_row[i]


def test_oscillator_closed_form_cross_check():
    # Z_q for the analytic oscillator levels vs 1/(2 sinh(lam w / 2))
    spec = oscillator_spectrum(2000)
    beta = 0.5
    value, _ = z_quantum(spec, beta)
    w = math.sqrt(2.0)
    assert value == pytest.approx(1.0 / (2.0 * math.sinh(beta * w / 2.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# one Boltzmann pass behind every quantum quantity


@pytest.fixture(scope="module")
def pass_spectra():
    quartic = homogeneous(4)
    base = solve_fd_1d(quartic, 1.0, 4.3, 1500, 40)
    return [
        (box([1.0]), toy([1.0, 2.0, 3.0]), 1.0),
        (box([1.0]), solve_box(1, [1.0], count=200), 0.7),
        (quartic, rescale(base, 0.8, 4.0 / 3.0), 0.9),
    ]


def _reference_errors(spec, beta):
    """The error bounds written out term by term, each from its own weights:
    those of the levels with beta (E_n - E_2) <= 60, E_1 and E_2 always, and
    a bound on the M - k levels past them, each weighing at most w_k."""
    levels, errs = spec.levels, spec.level_errors
    k = 2 + int(np.count_nonzero(beta * (levels[2:] - levels[1]) <= 60.0))
    k = min(k, levels.size)
    w = np.exp(-beta * (levels[:k] - levels[0]))
    sw = float(w.sum())
    small = spec.count < 8
    log_tail = -math.inf if small else log_tail_bound(spec, beta)
    log_wtail = -math.inf if small else log_tail_bound(spec, beta, 1)
    bar = 0.0
    if k < levels.size:
        log_omitted = math.log(levels.size - k) - beta * float(levels[k] - levels[0])
        log_tail = float(np.logaddexp(log_tail, -beta * levels[0] + log_omitted))
        log_wtail = float(np.logaddexp(
            log_wtail, -beta * levels[0] + log_omitted + math.log(levels[k])))
        if errs is not None:
            bar = float(errs[k:].max()) * math.exp(log_omitted)
    z_err = math.exp(log_tail) if log_tail > -700.0 else 0.0
    if errs is not None:
        prop = beta * (float((errs[:k] * w).sum()) + bar)
        z_err += prop * math.exp(max(-beta * levels[0], -700.0))
    eq = levels[0] + float(((levels[:k] - levels[0]) * w).sum()) / sw
    log_z = -beta * levels[0] + math.log(sw)
    e_err = math.exp(min(log_wtail - log_z, 50.0)) + eq * math.exp(min(log_tail - log_z, 50.0))
    if errs is not None:
        sens = w * (1.0 + beta * np.abs(levels[:k] - eq))
        e_err += float((errs[:k] * sens).sum()) / sw
        if bar:
            e_err += bar * (1.0 + beta * (levels[k] - eq)) / sw
    z_lin = math.exp(max(-beta * levels[0], -700.0)) * sw
    return z_err, e_err, beta * e_err + z_err / z_lin


def test_thermo_point_equals_single_quantity_readers(pass_spectra):
    for pot, spec, beta in pass_spectra:
        pt = thermo_point(ensemble.ThermoPoint(pot, spec, beta, spec.planck, 1.0))
        assert pt.log_z_quantum == log_z_quantum(spec, beta)[0]
        assert pt.e_quantum == mean_energy_quantum(spec, beta)
        assert pt.s_quantum == entropy_quantum(spec, beta)


def test_error_readers_equal_the_shared_pass(pass_spectra):
    assert pass_spectra[2][1].level_errors is not None
    for _, spec, beta in pass_spectra:
        m = boltzmann_pass(spec, beta)
        z_err, e_err, s_err = _reference_errors(spec, beta)
        assert z_quantum_error(spec, beta) == m.z_err == z_err
        assert mean_energy_quantum_error(spec, beta) == m.e_err == e_err
        assert entropy_quantum_error(spec, beta) == m.s_err == s_err


def test_thermo_point_makes_one_weight_pass(monkeypatch):
    built = []

    class CountingPass(ensemble.BoltzmannPass):
        def __init__(self, spectrum, beta):
            built.append(beta)
            super().__init__(spectrum, beta)

    monkeypatch.setattr(ensemble, "BoltzmannPass", CountingPass)
    spec = solve_box(1, [1.0], count=200)
    for beta in (0.7, 1.3):
        thermo_point(ensemble.ThermoPoint(box([1.0]), spec, beta, 1.0, 1.0))
        assert boltzmann_pass(spec, beta).p.sum() == pytest.approx(1.0)
    assert built == [0.7, 1.3]


def test_a_point_keeps_its_pass_across_a_read_elsewhere(quartic, monkeypatch):
    # a read at another lambda between a point's reads, as P4_1's neighbour
    # sums make, weighs that lambda once and the point's own lambda once
    built = []

    class CountingPass(ensemble.BoltzmannPass):
        def __init__(self, spectrum, beta):
            built.append(beta)
            super().__init__(spectrum, beta)

    base, scale = quartic.base_spectrum(0.05), 0.1
    boltzmann_pass(base, 1.0)  # the thread's slot holds no pass at lambda 0.05
    monkeypatch.setattr(ensemble, "BoltzmannPass", CountingPass)
    pt = ensemble.ThermoPoint(quartic.potential, base, 0.5,
                              scale ** (1.0 / quartic.energy_exponent), scale)
    pt.z
    log_z_quantum(base, 1.1 * pt.lam)
    pt.e, pt.log_s
    assert built == [pt.lam, 1.1 * pt.lam]


@pytest.mark.parametrize("reader", [
    log_z_quantum, z_quantum, mean_energy_quantum, entropy_quantum, log_entropy_quantum,
    z_quantum_error, mean_energy_quantum_error, entropy_quantum_error,
], ids=lambda reader: reader.__name__)
def test_every_quantum_reader_is_gated(reader):
    # a fitted growth exponent of 2.6e-4 puts the tail bound past e^700, far
    # above the partial sum: every reader refuses it rather than overflowing
    spec = Spectrum([1.0, *np.linspace(10.25, 10.253, 792)], 1.0, SpectrumSource.GIVEN)
    with pytest.raises(TruncationError):
        reader(spec, 100.0)


def test_a_table_row_builds_no_probabilities():
    # S_q is read off the cut pass's weights; P_n over every level is only
    # built where it is printed
    spec = solve_box(1, [1.0], count=200)
    thermo_point(ensemble.ThermoPoint(box([1.0]), spec, 0.7, 1.0, 1.0))
    assert "p" not in vars(boltzmann_pass(spec, 0.7))


@pytest.mark.parametrize("name", ["oscillator", "quartic", "wedge"])
def test_scaling_law_moves_h_into_beta(name, request):
    # Z_q(beta, h s) = Z_q(beta s^a, h): the levels at h s are s^a times those at h
    fam = request.getfixturevalue(name)
    a = fam.energy_exponent
    for beta, h in ((0.3, 0.5), (1.0, 1.0), (5.0, 2.0)):
        lam = fam.lambda_min([beta], [h * (1.0 - 1e-4)])
        base, spec = fam.base_spectrum(lam), fam.spectrum(h, lam)
        for s in (1.0 + 1e-4, 1.0 - 1e-4):
            moved = log_z_quantum(spec, beta * s**a)[0]
            assert moved == pytest.approx(log_z_quantum(rescale(base, h * s, a), beta)[0],
                                          rel=1e-13)


def _read_all(point):
    """(value, size) of every value and bound a table row or claim check reads
    off a point, size what its rounding scales with (a gap's reference, else
    the value itself), or the type of the error the first failed read raised."""
    try:
        pairs = [(x, x) for x in point.row]
        for name in ("z", "e", "s"):
            gap, bound, reference = getattr(point, name)
            pairs += [(gap, reference), (bound, bound), (reference, reference)]
        return pairs + [(x, x) for name in ("log_z", "log_s") for x in getattr(point, name)]
    except Exception as exc:  # compared by type below
        return type(exc)


@pytest.mark.parametrize("name", ["box1", "oscillator", "quartic", "wedge"])
@settings(max_examples=25, deadline=None)
@given(beta=st.floats(1e-2, 10.0), h=st.floats(0.25, 4.0))
@example(beta=10.0, h=4.0)  # the box's Z_q at lambda = 160 lies under the smallest float
def test_a_point_off_the_base_equals_a_point_on_the_rescaled_levels(
        name, beta, h, box1, oscillator, quartic, wedge):
    # E_n(h) = h^a E_n(1): read at lambda = beta h^a off the base, with E_q
    # and its bar times h^a, a point is the point on rescale(base, h, a) at
    # beta, to rounding, over the default grids' range
    fam = {"box1": box1, "oscillator": oscillator, "quartic": quartic, "wedge": wedge}[name]
    base = fam.base_spectrum(fam.lambda_min([1e-2], [0.25]))
    a = fam.energy_exponent
    scaled = _read_all(ensemble.ThermoPoint(fam.potential, base, beta, h, fam.phi(h, base)))
    moved = _read_all(ensemble.ThermoPoint(fam.potential, rescale(base, h, a), beta, h, 1.0))
    assert isinstance(scaled, list) and isinstance(moved, list), (scaled, moved)
    for (x, _), (y, size) in zip(scaled, moved):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(size)), (x, y, size)


def test_gate_precedence_per_reader():
    # both tails fail here: thermo_point and Z_q report the plain tail first,
    # E_q the energy-weighted one
    spec = solve_box(1, [1.0], count=16)
    with pytest.raises(TruncationError, match="^Boltzmann tail/sum"):
        thermo_point(ensemble.ThermoPoint(box([1.0]), spec, 1e-4, 1.0, 1.0))
    with pytest.raises(TruncationError, match="^Boltzmann tail/sum"):
        z_quantum(spec, 1e-4)
    with pytest.raises(TruncationError, match="^energy-weighted tail"):
        mean_energy_quantum(spec, 1e-4)
