"""The fixed-temperature compromise between mean energy and entropy.

Over unnormalized weights p_n > 0 on a finite level set, the objective
F = lam * E + S with lam = -beta <= 0 is invariant under rescaling of the
weights. Its stationary rays are exactly p_n proportional to exp(lam E_n),
carrying the Gibbs distribution, and at a stationary point the Hessian has
constant positive off-diagonal entries and negative diagonal entries whose
leading principal minors alternate in sign: sgn(H_k) = (-1)^k for k below the
number of levels (the full determinant vanishes along the scale ray). The
weights are taken relative to the ground level, as ensemble.BoltzmannPass
takes them, and the minors in logs, so both hold at any beta and level count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AccuracyError, ContractError, ConvergenceError
from .util import fmt17


@dataclass(frozen=True)
class GameState:
    """A finite level set with unnormalized positive weights at fixed lam = -beta."""

    levels: np.ndarray
    lam: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a non-empty 1-D array")
        if weights.shape != levels.shape:
            raise ValueError("weights must match levels in shape")
        if not np.all(np.isfinite(levels)):
            raise ValueError("levels must be finite")
        if np.any(levels <= 0.0):
            raise ValueError("levels must be positive")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        if self.lam > 0.0:
            raise ValueError("lam = -beta must be <= 0 (no negative temperatures)")
        levels.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)

    @property
    def z(self) -> float:
        return float(self.weights.sum())

    @property
    def z_partial(self) -> np.ndarray:
        """Z_k = sum_{j != k} p_j."""
        return self.z - self.weights

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights / self.z


def compromise(state: GameState) -> tuple[float, float, float]:
    """(F, E, S) with E = sum E_n P_n, S = -sum P_n log P_n, F = lam E + S."""
    p = state.probabilities
    energy = float((state.levels * p).sum())
    entropy = -float((p * np.log(p)).sum())
    return state.lam * energy + entropy, energy, entropy


def gradient(state: GameState) -> np.ndarray:
    """dF/dp_k = lam (E_k/Z - sum E_n p_n / Z^2) - log(p_k)/Z + sum p_n log p_n / Z^2."""
    z = state.z
    p = state.probabilities
    ebar = float((state.levels * p).sum())
    logw = np.log(state.weights)
    logbar = float((p * logw).sum())
    return (state.lam * (state.levels - ebar) - logw + logbar) / z


def stationary_point(levels, lam: float) -> np.ndarray:
    """The stationary weights p_n = exp(lam (E_n - min E)), the Gibbs weights
    relative to the ground level; unique up to a scalar multiple."""
    e = np.asarray(levels, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError("levels must be a non-empty 1-D array")
    if lam > 0.0:
        raise ValueError("lam = -beta must be <= 0")
    return np.exp(lam * (e - e.min()))


def stationary_state(levels, lam: float) -> GameState:
    return GameState(np.asarray(levels, dtype=float), lam, stationary_point(levels, lam))


STATIONARY_RTOL = 1e-10  # hessian's half-width of log p_n - lam E_n


def hessian(state: GameState) -> np.ndarray:
    """The K x K second-derivative matrix of F at a stationary state.

    Entries hold only on the stationary ray (any positive multiple of
    exp(lam E_n)); elsewhere the call is a contract violation. Diagonal
    -Z_k/(p_k Z^2), off-diagonal 1/Z^2; the weight vector spans the null space.
    """
    t = np.log(state.weights) - state.lam * state.levels
    defect = float(t.max() - t.min())
    if defect > 2.0 * STATIONARY_RTOL:
        raise ContractError(
            f"hessian is defined at stationary weights p ~ exp(lam E); "
            f"relative spread {defect:.2e} exceeds {STATIONARY_RTOL:.1e}"
        )
    z = state.z
    k = state.weights.size
    h = np.full((k, k), 1.0 / z**2)
    np.fill_diagonal(h, -state.z_partial / (state.weights * z**2))
    return h


def structured_det(diagonal, off_value: float) -> float:
    """det of the matrix with diagonal r_1..r_k and constant off-diagonal a.

    Equals -a f'(a) + f(a) with f(x) = prod_i (r_i - x); leave-one-out products
    keep the evaluation exact even when some r_i equals a.
    """
    r = np.asarray(diagonal, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("diagonal must be a non-empty 1-D array")
    a = float(off_value)
    terms = r - a
    prefix = np.concatenate(([1.0], np.cumprod(terms)[:-1]))
    suffix = np.concatenate((np.cumprod(terms[::-1])[-2::-1], [1.0]))
    f_val = float(prefix[-1] * terms[-1])
    f_prime = -float((prefix * suffix).sum())
    return -a * f_prime + f_val


def _leading_minors(e: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|H_k|) of every leading principal minor, k = 1..K, of the
    Hessian at the stationary weights q_n = exp(x_n), x_n = lam (E_n - min E).
    The leading block is diag(-1/(q_n Z)) plus the constant 1/Z^2, so
        H_k = (-1)^k Z^(-k) (sum_{n>k} q_n / Z) / prod_{n<=k} q_n,
    read in logs from the tail sums with no cancellation; H_K = 0.
    """
    x = lam * (e - e.min())
    tails = np.logaddexp.accumulate(x[::-1])[::-1]  # log sum_{n>=j} q_n
    k = np.arange(1, e.size + 1)
    log_abs = -(k + 1) * tails[0] + np.append(tails[1:], -np.inf) - np.cumsum(x)
    return np.where(np.isfinite(log_abs), 1 - 2 * (k % 2), 0), log_abs


def minor_log_magnitude(levels, lam: float, k: int) -> tuple[int, float]:
    """(sign, log|H_k|) of the leading k x k principal minor of
    hessian(stationary_state(levels, lam)); (0, -inf) at k = K."""
    e = np.asarray(levels, dtype=float)
    if k < 1 or k > e.size:
        raise ValueError("k out of range")
    sign, log_abs = _leading_minors(e, lam)
    return int(sign[k - 1]), float(log_abs[k - 1])


def principal_minor_signs(levels, lam: float, k_max: int) -> list[int]:
    """Signs of the leading principal minors H_1..H_{k_max} at the stationary point.

    Requires distinct levels, lam < 0, and 1 <= k_max < K, the level count:
    the K-th minor vanishes identically along the scale ray. Every lower
    minor has sign (-1)^k; AccuracyError where a computed one is 0.
    """
    e = np.asarray(levels, dtype=float)
    if lam >= 0.0:
        raise ValueError("principal_minor_signs requires lam < 0")
    if np.unique(e).size != e.size:
        raise ValueError("levels must be distinct")
    if not 1 <= k_max < e.size:
        raise ValueError(
            f"minors run from order 1 to below the level count {e.size}, got "
            f"{k_max}: the full determinant vanishes along the scale ray"
        )
    signs = _leading_minors(e, lam)[0][:k_max]
    if not np.all(signs):
        raise AccuracyError(f"minor {int(np.argmin(np.abs(signs))) + 1} has sign 0")
    return signs.tolist()


# ---------------------------------------------------------------------------
# numerical ascent to the stationary point


ASCENT_LOG_FLOOR = -700.0  # exp(-745) is the least positive double
ASCENT_GRAD_TOL = 1e-11  # the ascent stops at this max |Z dF/dp|
ASCENT_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class AscentResult:
    weights: np.ndarray
    iterations: int
    trace: np.ndarray = field(repr=False)  # rows (iter, F, grad_norm)


def ascend(levels, lam: float, weights) -> AscentResult:
    """Gradient ascent on F in log-weight coordinates with the scale gauge fixed.

    Weights are renormalized to sum to Z* = sum exp(lam (E_n - min E)) after
    every step, which removes the flat scale direction. Steps follow the
    diagonally preconditioned direction Z * dF/dp (the multiplicative-update
    natural gradient), accepted only when F does not decrease, so the recorded
    F column is non-decreasing; the step starts at 1, halves on a rejection
    and grows by 1.3 on an acceptance, up to 4. Refuses (ValueError) a
    lam (E_max - E_min) below ASCENT_LOG_FLOOR, where the Gibbs weights leave
    the positive doubles; raises ConvergenceError at ASCENT_MAX_ITERATIONS.
    """
    if lam >= 0.0:
        raise ValueError("ascend requires lam < 0")
    e = np.asarray(levels, dtype=float)
    log_z_star = math.log(float(stationary_point(e, lam).sum()))
    if lam * (e.max() - e.min()) < ASCENT_LOG_FLOOR:
        raise ValueError(
            f"ascend needs lam (E_max - E_min) >= {ASCENT_LOG_FLOOR:g}, where every "
            f"Gibbs weight is a positive double; got {lam * (e.max() - e.min()):.6g}"
        )
    x = np.log(np.asarray(weights, dtype=float))
    x += log_z_star - math.log(float(np.exp(x).sum()))
    eta = 1.0
    trace_rows: list[tuple[float, float, float]] = []

    state = GameState(e, lam, np.exp(x))
    f_cur, _, _ = compromise(state)
    for it in range(ASCENT_MAX_ITERATIONS + 1):
        direction = state.z * gradient(state)
        gnorm = float(np.max(np.abs(direction)))
        trace_rows.append((float(it), f_cur, gnorm))
        if gnorm <= ASCENT_GRAD_TOL:
            return AscentResult(state.weights, it, np.asarray(trace_rows))
        if it == ASCENT_MAX_ITERATIONS:
            break
        accepted = False
        while eta >= 1e-18:
            x_try = x + eta * direction
            x_try = x_try + log_z_star - math.log(float(np.exp(x_try).sum()))
            state_try = GameState(e, lam, np.exp(x_try))
            f_try, _, _ = compromise(state_try)
            if f_try >= f_cur:
                x, state, f_cur = x_try, state_try, f_try
                eta = min(eta * 1.3, 4.0)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            if gnorm <= 1e-8:
                # machine-precision plateau around the maximum
                return AscentResult(state.weights, it, np.asarray(trace_rows))
            raise ConvergenceError(
                f"line search stalled at iteration {it}, gradient norm {gnorm:.3e}"
            )
    raise ConvergenceError(
        f"ascent hit the cap of {ASCENT_MAX_ITERATIONS} iterations; "
        f"final gradient norm {gnorm:.3e}"
    )


def trace_to_csv(trace: np.ndarray, path: str | Path) -> None:
    """Write an ascent trace as ``iter,F,grad_norm`` rows."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("iter,F,grad_norm\n")
        for row in np.atleast_2d(trace):
            fh.write(f"{int(row[0])},{fmt17(row[1])},{fmt17(row[2])}\n")
