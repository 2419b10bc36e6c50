"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Criterion 2 (the high-temperature ratio sweep on the box well) halves beta
from 1 down to 2^-13. On a Dirichlet box the two-term heat-trace expansion
gives (2 pi h) Z_q = Z_c - pi h up to terms of order exp(-2 m L^2/(beta h^2)),
so the Z-ratio gap is g = pi h / Z_c, the E-ratio gap is g / (1 - g), and both
shrink only like sqrt(beta). With h = L = m = 1 they enter the 2% window from
beta ~ 2.45e-4 on (7.8% and 8.5% at 1/256); at 2^-13 they are 1.38% and 1.40%.
"""

import math
import time

import numpy as np

from qcgibbs import (
    GameState,
    Status,
    ascend,
    check_c11,
    check_c13,
    check_c41_and_props,
    check_t31,
    check_t41,
    check_wehrl,
    compromise,
    fd_eigenvalues,
    gradient,
    hessian,
    psi,
    solve_fd_1d,
    stationary_point,
    stationary_state,
    structured_det,
    z_classical,
)
from qcgibbs.game import minor_log_magnitude, principal_minor_signs
from qcgibbs.potential import box as box_potential, homogeneous
from qcgibbs.util import halving_grid

PI2 = math.pi**2


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_partition_domination(box1, wedge, oscillator, quartic):
    """(2 pi h)^N Z_q <= Z_c on the default grids, margins beyond error bounds."""
    t0 = time.monotonic()
    results = {}
    for fam in (box1, wedge, oscillator, quartic):
        rep = check_c11(fam)
        results[fam.label] = (rep.status, rep.worst_margin)
    elapsed = time.monotonic() - t0
    ok = all(status is Status.HOLDS and margin > 0 for status, margin in results.values())
    ok = ok and elapsed < 120.0
    report(
        "criterion 1: partition-sum domination on box and nu in {1,2,4}",
        ok,
        f"{elapsed:.1f}s, worst margins " +
        ", ".join(f"{k}={v[1]:.3e}" for k, v in results.items()),
    )


def test_criterion_2_high_temperature_ratios(box1):
    """Box ratios -> 1 along beta halving from 1 to 2^-13: monotone over the
    last four points and within 2% of 1 at the endpoint. The boundary term
    pi h keeps the gaps at g = pi h / Z_c and g / (1 - g), which decay like
    sqrt(beta) and need beta <~ 2.45e-4 for the window; at 2^-13 they are
    1.38% and 1.40%. The endpoint gaps are pinned to those closed forms."""
    h = 1.0
    betas = halving_grid(1.0, 2.0**-13)
    t0 = time.monotonic()
    reps = check_c13(box1, betas, [h])
    elapsed = time.monotonic() - t0
    monotone_tail = all(
        all(a > b for a, b in zip(r.notes["gaps"][-4:], r.notes["gaps"][-3:]))
        for r in reps
    )
    final_gaps = [r.notes["final_gap"] for r in reps]
    within_window = all(g < 0.02 for g in final_gaps)
    holds = all(
        r.status is Status.HOLDS and r.notes["window_reached"] for r in reps
    )
    g = math.pi * h / z_classical(box1.potential, float(betas[-1]))[0]
    predicted = [g, g / (1.0 - g)]
    closed_form = all(
        math.isclose(got, want, rel_tol=1e-9)
        for got, want in zip(final_gaps, predicted)
    )
    ok = monotone_tail and within_window and holds and closed_form and elapsed < 60.0
    report(
        "criterion 2: high-temperature ratio window on the box well",
        ok,
        f"{elapsed:.1f}s, monotone={monotone_tail}, holds={holds}, "
        f"final gaps Z={final_gaps[0]:.12g} E={final_gaps[1]:.12g}, "
        f"predicted Z={predicted[0]:.12g} E={predicted[1]:.12g} (window 0.02)",
    )


def test_criterion_3_integrated_energy_identity(box1, oscillator):
    """Quadrature of E_q - E_c over [1e-3, 1] equals the log-ratio difference
    within 1e-3 * max(1, |RHS|); the integral stays >= -1e-3."""
    oks = []
    details = []
    for fam in (box1, oscillator):
        rep = check_t31(fam, [1.0], [1.0], tau=1e-3)
        resid_ok = abs(rep.notes["residual"]) < 1e-3 * max(1.0, abs(rep.notes["rhs"]))
        nonneg_ok = rep.notes["lhs"] >= -1e-3
        oks.append(rep.status is Status.HOLDS and resid_ok and nonneg_ok)
        details.append(f"{fam.label}: resid={rep.notes['residual']:.2e}")
    report("criterion 3: integrated energy-difference identity", all(oks),
           "; ".join(details))


def test_criterion_4_entropy_profile_and_monotonicity(box1, oscillator, quartic, rng):
    """Psi' closed form vs finite differences at 1e-7 over 100 random level
    sets; S_q strictly decreasing in beta and in h on the default grids."""
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        levels = rng.uniform(0.1, 10.0, size=k)
        lam = float(rng.uniform(0.2, 2.0))
        _, deriv = psi(levels, lam)
        d = 1e-3 * lam
        fd = (
            8 * (psi(levels, lam + d)[0] - psi(levels, lam - d)[0])
            - (psi(levels, lam + 2 * d)[0] - psi(levels, lam - 2 * d)[0])
        ) / (12 * d)
        scale = max(abs(deriv), abs(fd), 1e-30)
        if k > 1 and np.ptp(levels) > 1e-6:
            worst = max(worst, abs(deriv - fd) / scale)
    psi_ok = worst < 1e-7

    mono_ok = True
    for fam in (box1, oscillator, quartic):
        for rep in check_t41(fam):
            mono_ok = mono_ok and rep.status is Status.HOLDS and rep.worst_margin > 0
    report(
        "criterion 4: entropy profile derivative and monotonicity",
        psi_ok and mono_ok,
        f"worst psi-derivative mismatch {worst:.2e}; monotone={mono_ok}",
    )


def test_criterion_5_powerlaw_derivative_identity(oscillator):
    """nu=2, beta=1: derivative identity residual < 1e-5 on h in [0.5, 4],
    sign equivalence at every point, h^N Z_q monotone decreasing."""
    c41, p41, p43 = check_c41_and_props(oscillator, [1.0])
    ok = (
        c41.status is Status.HOLDS
        and p41.status is Status.HOLDS
        and p41.notes["max_residual"] < 1e-5
        and p43.status is Status.HOLDS
        and p43.notes["signs_opposite_everywhere"]
    )
    report(
        "criterion 5: power-law derivative identity and sign equivalence",
        ok,
        f"max residual {p41.notes['max_residual']:.2e}, "
        f"monotone margin {c41.worst_margin:.3e}",
    )


def test_criterion_6_classical_limit(box1):
    """Box at beta=1, h from 1 down to 1/64: energy, partition, and entropy
    gaps shrink monotonically over the last four points; |S_q - S_c| < 0.02
    at the endpoint."""
    rep = check_wehrl(box1)
    shrink_ok = all(
        all(a > b for a, b in zip(rep.notes[key][-4:], rep.notes[key][-3:]))
        for key in ("energy_gaps", "partition_gaps", "entropy_gaps")
    )
    s_ok = rep.notes["entropy_gaps"][-1] < 0.02
    ok = rep.status is Status.HOLDS and shrink_ok and s_ok
    report(
        "criterion 6: h -> 0 classical limit on the box well",
        ok,
        f"final S gap {rep.notes['entropy_gaps'][-1]:.4f}",
    )


def test_criterion_7_game_module(rng):
    """Gradient, Hessian, minors, and ascent contracts of the game module."""
    # gradient vs five-point finite differences on 100 random states
    worst_g = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        levels = np.sort(rng.uniform(0.1, 10.0, size=k)) + np.arange(k) * 1e-3
        lam = -float(rng.uniform(0.0, 3.0))
        weights = np.exp(rng.uniform(-2.0, 1.0, size=k))
        state = GameState(levels, lam, weights)
        g = gradient(state)
        fd = np.empty(k)
        for i in range(k):
            d = 1e-3 * weights[i]

            def f_at(delta, i=i):
                w = weights.copy()
                w[i] += delta
                return compromise(GameState(levels, lam, w))[0]

            fd[i] = (8 * (f_at(d) - f_at(-d)) - (f_at(2 * d) - f_at(-2 * d))) / (12 * d)
        scale = np.maximum(np.abs(g), 1e-10 * np.max(np.abs(g)))
        worst_g = max(worst_g, float(np.max(np.abs(g - fd) / scale)))
    grad_fd_ok = worst_g < 1e-7

    # stationarity: the scale-invariant gradient Z*g vanishes to 1e-12
    worst_st = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 9))
        levels = np.sort(rng.uniform(0.1, 10.0, size=k))
        state = stationary_state(levels, -float(rng.uniform(0.0, 3.0)))
        worst_st = max(worst_st, float(np.max(np.abs(state.z * gradient(state)))))
    stationary_ok = worst_st <= 1e-12

    # Hessian vs finite differences and the null direction; moderate states
    # keep the second-difference oracle clear of eps/step^2 roundoff
    hess_ok = True
    null_ok = True
    for _ in range(10):
        k = int(rng.integers(2, 7))
        levels = np.sort(rng.uniform(0.5, 3.5, size=k)) + np.arange(k) * 1e-3
        lam = -float(rng.uniform(0.2, 1.0))
        state = stationary_state(levels, lam)
        h = hessian(state)
        null_ok = null_ok and float(np.max(np.abs(h @ state.weights))) <= 1e-10
        d = 3e-3
        for i in range(k):
            for j in range(i, k):
                ei = np.zeros(k)
                ej = np.zeros(k)
                ei[i] = d * state.weights[i]
                ej[j] = d * state.weights[j]

                def f_at(dw):
                    return compromise(GameState(levels, lam, state.weights + dw))[0]

                if i == j:
                    val = (f_at(ei) - 2 * compromise(state)[0] + f_at(-ei)) / ei[i] ** 2
                else:
                    val = (
                        f_at(ei + ej) - f_at(ei - ej) - f_at(-ei + ej) + f_at(-ei - ej)
                    ) / (4 * ei[i] * ej[j])
                hess_ok = hess_ok and abs(val - h[i, j]) <= 1e-5 * max(abs(h[i, j]), 1e-12)

    # minor signs and magnitudes up to K = 8
    minors_ok = True
    for k_total in range(2, 9):
        levels = np.arange(1.0, k_total + 1.0)
        lam = -0.8
        signs = principal_minor_signs(levels, lam, k_total - 1)
        minors_ok = minors_ok and signs == [(-1) ** k for k in range(1, k_total)]
        h = hessian(stationary_state(levels, lam))
        for k in range(1, k_total):
            sign, log_abs = minor_log_magnitude(levels, lam, k)
            dense = float(np.linalg.det(h[:k, :k]))
            minors_ok = minors_ok and abs(math.exp(log_abs) - abs(dense)) <= 1e-9 * abs(dense)
            minors_ok = minors_ok and sign == int(math.copysign(1, dense))

    # ascent reaches the Gibbs point from 20 random starts
    levels = np.sort(rng.uniform(0.2, 5.0, size=6))
    lam = -1.3
    target = stationary_state(levels, lam).probabilities
    ascent_ok = True
    for _ in range(20):
        start = np.exp(rng.uniform(-2.0, 2.0, size=6))
        result = ascend(levels, lam, start)
        p = result.weights / result.weights.sum()
        ascent_ok = ascent_ok and 0.5 * float(np.abs(p - target).sum()) <= 1e-8

    # F at the stationary point equals log sum exp(lam E)
    f_ok = True
    for _ in range(20):
        k = int(rng.integers(1, 9))
        levels = np.sort(rng.uniform(0.1, 8.0, size=k))
        lam = -float(rng.uniform(0.1, 3.0))
        f_val, _, _ = compromise(stationary_state(levels, lam))
        log_z = float(np.log(np.exp(lam * levels).sum()))
        f_ok = f_ok and abs(f_val - log_z) <= 1e-12 * max(1.0, abs(log_z))

    ok = grad_fd_ok and stationary_ok and hess_ok and null_ok and minors_ok \
        and ascent_ok and f_ok
    report(
        "criterion 7: energy-entropy game contracts",
        ok,
        f"grad fd {worst_g:.1e}, stationary {worst_st:.1e}, hessian={hess_ok}, "
        f"minors={minors_ok}, ascent={ascent_ok}, F=logZ {f_ok}",
    )


def test_criterion_8_spectrum_oracles():
    """FD box ground level at 1e-5 with observed second-order convergence;
    oscillator level scaling E_1(h) = h E_1(1) at 1e-4."""
    spec = solve_fd_1d(box_potential([1.0]), 1.0, None, 4000, 1)
    e1_ok = abs(spec.levels[0] - PI2 / 2) < 1e-5

    exact = PI2 / 2
    e_p = fd_eigenvalues(box_potential([1.0]), points=1200, count=1)[0]
    e_2p = fd_eigenvalues(box_potential([1.0]), points=2401, count=1)[0]
    ratio = (exact - e_p) / (exact - e_2p)
    order_ok = 3.5 <= ratio <= 4.5

    base = solve_fd_1d(homogeneous(2), 1.0, 5.2, 1500, 1).levels[0]
    scaling_ok = True
    for h in (0.5, 2.0):
        eh = solve_fd_1d(homogeneous(2), h, 5.2, 1500, 1).levels[0]
        scaling_ok = scaling_ok and abs(eh / base - h) < 1e-4
    ok = e1_ok and order_ok and scaling_ok
    report(
        "criterion 8: finite-difference spectrum oracles",
        ok,
        f"E1 err {abs(spec.levels[0] - PI2 / 2):.1e}, order ratio {ratio:.2f}",
    )


def test_criterion_9_structured_determinants(rng):
    """Constant-off-diagonal determinant formula vs dense LU determinants."""
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        r = rng.uniform(1.0, 5.0, size=k)
        a = float(rng.uniform(0.1, 2.0))
        m = np.full((k, k), a)
        np.fill_diagonal(m, r)
        dense = float(np.linalg.det(m))
        got = structured_det(r, a)
        worst = max(worst, abs(got - dense) / max(abs(dense), 1e-30))
    ok = worst < 1e-10
    report("criterion 9: structured determinant identity", ok,
           f"worst relative deviation {worst:.2e}")
