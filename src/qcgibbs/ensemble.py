"""Canonical-ensemble statistics, quantum and classical.

Quantum quantities are Boltzmann sums over a Spectrum with explicit truncation
control: every truncated sum is gated on tail/sum below one relative
threshold, TAIL_RTOL = 1e-10, and sums are evaluated relative to the ground
level so that beta sweeps spanning several decades never underflow
prematurely. Every quantum quantity and error bound is read from one weight
pass per (spectrum, beta), a BoltzmannPass, which weighs the levels up to
beta (E_n - E_2) = WEIGHT_CUT and adds a bound on the rest to its bars; the
public functions are thin readers of it, each through the plain-tail gate,
and each thread keeps its last pass, so a caller that reads several
quantities at one point makes one pass if it makes those reads one after
another, with no read at another (spectrum, beta) between them.
ThermoPoint, the one record of a (beta, h), reads through them, once and on
first use, what a table row prints and what a claim check compares: off a
scaling family's base at lambda = beta h^a, with E_q and its bar times h^a.
Classical quantities are closed forms for box wells and for power-law
potentials, where Z_c = (2 pi m / beta)^(N/2) S_N Gamma(N/nu) / (nu beta^(N/nu))
and E_c = N (2 + nu) / (2 nu beta) are exact and Z_c carries a derived
rounding bound, and exact piecewise integrals of the interpolant for tabulated
profiles, summed in expm1 forms that keep their digits on flat segments. No
classical quantity needs quadrature, and nothing here needs scipy.special:
the Gamma closed forms run on math.lgamma and S_q's P log P on a masked
numpy log, so this module imports nothing from scipy.

Entropies follow the identities
    S_q = beta E_q + log Z_q
    S_c = beta E_c + log Z_c - N log(2 pi h),
the second carrying the regularizing offset that makes the two comparable.
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np

from .errors import AccuracyError, IntegrabilityError, TruncationError
from .potential import Potential, PotentialKind, volume
from .spectrum import Spectrum, log_tail_bound
from .util import LGAMMA_EPS, fmt17, json_text, logsumexp

TAIL_RTOL = 1e-10

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
# a table's Z_q and (2 pi h)^N Z_q are exp of a log inside this range
_LOG_RANGE = (math.log(_TINY), math.log(float(np.finfo(float).max)))


class _cached:
    """A property computed on first read and kept on the instance. It takes
    no lock, and its first read costs about half that of Python 3.11's
    functools.cached_property (225 vs 483 ns on Python 3.11.7, one Xeon
    core)."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# a pass weighs the levels with beta (E_n - E_2) <= WEIGHT_CUT: each level
# past it weighs under exp(-60) = 8.8e-27 of the first excited level
WEIGHT_CUT = 60.0


class BoltzmannPass:
    """The Boltzmann weights of one Spectrum at one beta, and what is read
    from them.

    This is the one place Boltzmann weights over a Spectrum's levels are
    evaluated: w = exp(-beta (E_n - E_1)), relative to the ground level, over
    the k levels with beta (E_n - E_2) <= WEIGHT_CUT, E_1 and E_2 always, so
    that log S_q keeps the excited weights however far E_2 lies above E_1.
    The M - k levels past the cut weigh at most (M - k) w_k (log_omitted),
    w_k that of E_k, the lowest of them, and as beta E_k > 1 their energies
    at most E_k (M - k) w_k: the log tails add these to the fitted tail past
    E_M (none under 8 levels, a complete finite system), and each level-error
    term the largest bar past the cut times (M - k) w_k (omitted_bar). Only
    p is over every level, and overflow is refused over the whole spectrum.
    The rest is derived on first read, so each reader pays only for what it
    reads. s_q is the direct sum -sum P_n log P_n, cross-checked against the
    identity beta (E_q - E_1) + log sum w_n. z_err, e_err and s_err are the
    absolute uncertainties of Z_q, E_q and S_q: tail bounds plus first-order
    propagation of the per-level error estimates.
    """

    def __init__(self, spectrum: Spectrum, beta: float):
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        self.spectrum, self.beta = spectrum, beta
        levels = spectrum.levels
        self.e0 = levels[0]
        try:
            with np.errstate(over="raise"):
                self.log_w0 = float(-beta * self.e0)
                span = beta * (levels[-1] - self.e0)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"beta E_n leaves the double range at beta={beta:g}"
            ) from exc
        k = levels.size
        if span > WEIGHT_CUT:
            k = int(np.searchsorted(levels, float(levels[1]) + WEIGHT_CUT / beta, "right"))
        self.d = levels[:k] - self.e0
        self.w = np.exp(-beta * self.d)
        self.sw = float(self.w.sum())
        self.log_z = self.log_w0 + math.log(self.sw)
        self.log_omitted = (-math.inf if k == levels.size else
                            math.log(levels.size - k) - beta * float(levels[k] - self.e0))

    @_cached
    def e_shift(self) -> float:
        """E_q - E_1."""
        return float((self.d * self.w).sum()) / self.sw

    @_cached
    def e_q(self) -> float:
        return self.e0 + self.e_shift

    @_cached
    def p(self) -> np.ndarray:
        """The Gibbs probabilities P_n = w_n / sum w over every level, left
        0.0 from beta (E_n - E_1) = 746 on, where exp gives 0.0."""
        levels = self.spectrum.levels
        j = int(np.searchsorted(levels, float(self.e0) + 746.0 / self.beta, "right"))
        p = np.zeros(levels.size)
        p[:j] = np.exp(-self.beta * (levels[:j] - self.e0)) / self.sw
        return p

    @_cached
    def omitted_bar(self) -> float:
        """The largest level bar past the cut times (M - k) w_k, or 0."""
        errs, k = self.spectrum.level_errors, self.w.size
        if errs is None or k == errs.size:
            return 0.0
        return float(errs[k:].max()) * math.exp(self.log_omitted)

    @_cached
    def bars(self) -> float:
        """sum err_n w_n over the weighed levels plus omitted_bar, or 0."""
        errs = self.spectrum.level_errors
        if errs is None:
            return 0.0
        return float((errs[:self.w.size] * self.w).sum()) + self.omitted_bar

    @_cached
    def s_q(self) -> float:
        p = self.w / self.sw
        # 0.0 - x, not -x: a sum of zeros (every excited weight underflowed)
        # gives S_q = +0, not -0
        s_direct = 0.0 - float((p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum())
        s_identity = self.beta * self.e_shift + math.log(self.sw)
        if abs(s_direct - s_identity) > 1e-10 * max(1.0, abs(s_identity)):
            raise AccuracyError(
                f"entropy identity violated: {s_direct!r} vs {s_identity!r}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise AccuracyError(f"probabilities sum to {total!r}")
        return s_direct

    def _log_tail(self, power: int) -> float:
        spec, k = self.spectrum, self.w.size
        fitted = -math.inf if spec.count < 8 else log_tail_bound(spec, self.beta, power)
        if k == spec.count:
            return fitted
        past = self.log_w0 + self.log_omitted + power * math.log(spec.levels[k])
        return float(np.logaddexp(fitted, past))

    @_cached
    def log_tail(self) -> float:
        return self._log_tail(0)

    @_cached
    def log_wtail(self) -> float:
        return self._log_tail(1)

    @_cached
    def z_err(self) -> float:
        err = math.exp(self.log_tail) if self.log_tail > -700.0 else 0.0
        return err + self.beta * self.bars * math.exp(max(-self.beta * self.e0, -700.0))

    @_cached
    def e_err(self) -> float:
        err = math.exp(min(self.log_wtail - self.log_z, 50.0)) + self.e_q * math.exp(
            min(self.log_tail - self.log_z, 50.0)
        )
        errs = self.spectrum.level_errors
        if errs is not None:
            levels, k = self.spectrum.levels, self.w.size
            sens = self.w * (1.0 + self.beta * np.abs(levels[:k] - self.e_q))
            err += float((errs[:k] * sens).sum()) / self.sw
            if self.omitted_bar:  # (1 + beta (E - E_q)) w(E) falls past E_k > E_q
                err += self.omitted_bar * (1.0 + self.beta * (levels[k] - self.e_q)) / self.sw
        return err

    @_cached
    def s_err(self) -> float:
        z_lin = math.exp(max(-self.beta * self.e0, -700.0)) * self.sw
        return self.beta * self.e_err + self.z_err / z_lin


_LAST_PASS = threading.local()


def boltzmann_pass(spectrum: Spectrum, beta: float) -> BoltzmannPass:
    """The BoltzmannPass of (spectrum, beta). Each thread keeps its last pass,
    so the readers called in turn at one point share one weight pass."""
    m = getattr(_LAST_PASS, "m", None)
    if m is None or m.spectrum is not spectrum or m.beta != beta:
        _LAST_PASS.m = None  # drop the old weights before building new ones
        m = _LAST_PASS.m = BoltzmannPass(spectrum, beta)
    return m


def _gated(spectrum: Spectrum, beta: float) -> BoltzmannPass:
    """The pass every public quantum reader reads: TruncationError where its
    tail bound exceeds TAIL_RTOL times the partial sum."""
    m = boltzmann_pass(spectrum, beta)
    if m.log_tail - m.log_z >= math.log(TAIL_RTOL):
        raise TruncationError(
            f"Boltzmann tail/sum ~ {math.exp(min(m.log_tail - m.log_z, 50.0)):.2e} "
            f"at beta={beta:g} exceeds {TAIL_RTOL:g}; increase the level count"
        )
    return m


def log_z_quantum(spectrum: Spectrum, beta: float) -> tuple[float, float]:
    """(log Z_q, log tail bound) for Z_q = sum_n exp(-beta E_n(h))."""
    m = _gated(spectrum, beta)
    return m.log_z, m.log_tail


def z_quantum(spectrum: Spectrum, beta: float) -> tuple[float, float]:
    """(Z_q, tail bound). The value can underflow to 0 when beta E_1 > ~745;
    use log_z_quantum for such regimes."""
    log_z, log_tail = log_z_quantum(spectrum, beta)
    value = math.exp(log_z) if log_z < 700.0 else math.inf
    tail = math.exp(log_tail) if log_tail > -700.0 else 0.0
    return value, tail


def mean_energy_quantum(spectrum: Spectrum, beta: float) -> float:
    """E_q = sum E_n exp(-beta E_n) / Z_q, gated on the energy-weighted
    truncation tail (the sum Z_q E_q), then on the plain one."""
    m = boltzmann_pass(spectrum, beta)
    if m.log_wtail - m.log_z - math.log(m.e_q) >= math.log(TAIL_RTOL):
        raise TruncationError(
            f"energy-weighted tail at beta={beta:g} exceeds {TAIL_RTOL:g} "
            "of the partial sum; increase the level count"
        )
    return _gated(spectrum, beta).e_q


def entropy_quantum(spectrum: Spectrum, beta: float) -> float:
    """S_q = -sum P_n log P_n with P_n = exp(-beta E_n)/Z_q, the direct sum
    that BoltzmannPass.s_q cross-checks against beta E_q + log Z_q. The P_n
    themselves are BoltzmannPass.p."""
    return _gated(spectrum, beta).s_q


def log_entropy_quantum(spectrum: Spectrum, beta: float) -> float:
    """log S_q, stable deep in the ground-state-dominated regime.

    S_q = beta A / (1 + r) + log1p(r) with r = sum_{n>=2} w_n and
    A = sum_{n>=2} (E_n - E_1) w_n >= (E_2 - E_1) r, read off the pass's
    weights: sums of positive terms, so S_q keeps its relative precision
    however small it is. Below r = 1e-280, where subnormal weights would
    start to count, S_q = beta A + r to within r, assembled in log space by
    logsumexp over the pass's levels. Returns -inf for a single level only.
    """
    m = _gated(spectrum, beta)
    dd, ww = m.d[1:], m.w[1:]
    if dd.size == 0:
        return -math.inf
    r = float(ww.sum())
    if r >= 1e-280:  # every level at E_1 gives r >= 1
        return math.log(beta * float((dd * ww).sum()) / (1.0 + r) + math.log1p(r))
    log_a = logsumexp(np.log(dd) - beta * dd)
    return float(np.logaddexp(math.log(beta) + log_a, logsumexp(-beta * dd)))


# ---------------------------------------------------------------------------
# classical side


def _kinetic_prefactor(potential: Potential, beta: float) -> float:
    return (2.0 * math.pi * potential.mass / beta) ** (potential.dimension / 2.0)


def _sphere_surface(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _radial_config_integral(nu: float, n_dim: int, beta: float) -> tuple[float, float]:
    """(value, rounding bound) of int_0^inf exp(-beta r^nu) r^(N-1) dr, which
    is Gamma(a) / (nu beta^a) with a = N/nu, evaluated as exp(x) with
    x = lgamma(a) - a log(beta) - log(nu).

    The bound is a first-order rounding analysis in units of eps: a carries
    eps/2 and log(beta) eps, so a log(beta) is within 2 eps of its size;
    math.lgamma is within LGAMMA_EPS eps of max(1, |lgamma|) and moves by
    a |psi(a)| eps/2 with the rounding of a, where |psi(a)| <= |ln a| + 1/a
    since ln a - 1/a < psi(a) < ln a - 1/(2a); log(nu) is within eps; the
    two subtractions add eps/2 of their results; exp adds eps relative.
    """
    a = n_dim / nu
    g = math.lgamma(a)
    t = a * math.log(beta)
    ln = math.log(nu)
    x = g - t - ln
    dx = _EPS * (
        (LGAMMA_EPS + 1.0) * max(1.0, abs(g)) + a * abs(math.log(a)) + 1.0
        + 3.0 * abs(t) + abs(ln) + abs(x)
    )
    value = math.exp(x)
    return value, value * (math.expm1(dx) + 2.0 * _EPS)


# chi(u) = int_0^1 t exp(-u t) dt = sum_k (-u)^k / (k! (k + 2)) below
# _CHI_SERIES_U, where 17 terms leave less than 1e-23 out
_CHI_SERIES_U = 0.5
_CHI_COEFFS = np.array(
    [(-1.0) ** k / (math.factorial(k) * (k + 2)) for k in range(17)])[::-1]


def _chi(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """int_0^1 t exp(-u t) dt: its series below _CHI_SERIES_U, above it
    (phi(u) - exp(-u)) / u, where cancellation amplifies rounding by
    (phi + exp(-u)) / (phi - exp(-u)) < 8."""
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = (phi - np.exp(-u)) / u
    small = u < _CHI_SERIES_U
    chi[small] = np.polyval(_CHI_COEFFS, u[small])
    return chi


# the segment sums of each tabulated well, three floats a beta, dropped with
# the well and emptied when they reach _SUMS_KEPT betas
_SUMS_KEPT = 64
_SEGMENT_SUMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tabulated_sums(potential: Potential, beta: float) -> tuple[float, float, float]:
    """(int exp(-beta V) dx, its rounding bound, int V exp(-beta V) dx) over
    the piecewise-linear interpolant, from one pass over its segments.

    On a segment V = v_lo + |dV| t after reflection, with u = beta |dV|, the
    integral of exp(-beta V) is weight phi(u), weight = dx exp(-beta v_lo)
    and phi(u) = int_0^1 exp(-u t) dt = -expm1(-u) / u, and that of
    V exp(-beta V) is weight (v_lo phi(u) + |dV| chi(u)): exp never grows
    and nothing cancels, however flat or steep the segment is.

    Each term of the first sum is within eps (7 + beta |v_lo|) relative: dx
    and u round by eps/2 and eps, the exponent beta v_lo by eps/2 of its
    size, exp and expm1 by eps each (numpy's measure below 0.6 eps), the
    division and the two products by eps/2 each; phi's relative change never
    exceeds u's. The sum of the n positive terms adds at most n eps relative.
    """
    sums = _SEGMENT_SUMS.setdefault(potential, {})
    kept = sums.get(beta)
    if kept is not None:
        return kept
    vs = potential.grid_v
    v_lo = np.minimum(vs[:-1], vs[1:])
    rise = np.abs(np.diff(vs))
    weight = np.diff(potential.grid_x) * np.exp(-beta * v_lo)
    u = beta * rise
    with np.errstate(invalid="ignore"):
        phi = np.where(u > 0.0, -np.expm1(-u) / u, 1.0)
    value = float((weight * phi).sum())
    bound = value * _EPS * (len(phi) + 7.0 + beta * float(np.abs(v_lo).max()))
    if len(sums) >= _SUMS_KEPT:
        sums.clear()
    kept = sums[beta] = value, bound, float((weight * (v_lo * phi + rise * _chi(u, phi))).sum())
    return kept


def z_classical(potential: Potential, beta: float) -> tuple[float, float]:
    """(Z_c, error bound) for the phase-space integral of exp(-beta H).

    The momentum Gaussian integrates to (2 pi m / beta)^(N/2); what remains is
    the configuration integral of exp(-beta V): the volume of a box; for
    r^nu, S_N Gamma(N/nu) / (nu beta^(N/nu)) in closed form, whose bound is
    the rounding of its evaluation (IntegrabilityError below the normal
    double range); for a tabulated well, the exact integral of its
    piecewise-linear interpolant.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    kin = _kinetic_prefactor(potential, beta)
    if potential.kind is PotentialKind.BOX:
        value = kin * volume(potential)
        return value, 1e-15 * value
    if potential.kind is PotentialKind.HOMOGENEOUS:
        n_dim = potential.dimension
        radial, radial_err = _radial_config_integral(potential.exponent, n_dim, beta)
        if radial < _TINY:  # a subnormal value would void the relative bound
            raise IntegrabilityError(f"Z_c underflows at beta={beta:g}")
        value = kin * _sphere_surface(n_dim) * radial
        # kin and S_N carry (3N/4 + 1) and (N/4 + 12) eps (math.gamma within
        # 10 ulps), and the two products eps
        return value, value * (radial_err / radial + (n_dim + 14.0) * _EPS)
    config, config_err, _ = _tabulated_sums(potential, beta)
    if not math.isfinite(config) or config <= 0.0:
        raise IntegrabilityError("configuration integral did not converge")
    return kin * config, kin * config_err


def mean_energy_classical(potential: Potential, beta: float) -> float:
    """E_c, the canonical mean of H = p^2/2m + V.

    Box: N/(2 beta) exactly. Power law r^nu: N (2 + nu) / (2 nu beta), i.e.
    N/(alpha beta) with alpha = 2 nu/(2 + nu), since <V> = N/(nu beta)
    exactly; four correctly rounded operations put it within 2 eps relative.
    Tabulated: kinetic part plus <V> from the exact per-segment integrals.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    n_dim = potential.dimension
    kinetic = n_dim / (2.0 * beta)
    if potential.kind is PotentialKind.BOX:
        return kinetic
    if potential.kind is PotentialKind.HOMOGENEOUS:
        nu = potential.exponent
        return n_dim * (2.0 + nu) / (2.0 * nu * beta)
    config, _, v_weighted = _tabulated_sums(potential, beta)
    return kinetic + v_weighted / config


def entropy_classical(potential: Potential, beta: float, planck: float) -> float:
    """S_c = beta E_c + log Z_c - N log(2 pi h)."""
    zc, _ = z_classical(potential, beta)
    return _s_classical(potential, beta, planck, zc, mean_energy_classical(potential, beta))


def _s_classical(potential: Potential, beta: float, planck: float, zc: float, ec: float) -> float:
    if planck <= 0.0:
        raise ValueError("planck must be positive")
    return beta * ec + math.log(zc) - potential.dimension * math.log(2.0 * math.pi * planck)


# ---------------------------------------------------------------------------
# the h-independent entropy profile


def psi(levels, lam: float) -> tuple[float, float]:
    """(Psi, Psi') for Psi(lam) = -lam Phi'/Phi + log Phi, Phi = sum exp(-lam E_n).

    Psi' = -lam Var_P(E) under P_n = exp(-lam E_n)/Phi, the contraction of
    the pairwise form -lam * sum_{n>m} (E_n - E_m)^2 exp(-lam (E_n + E_m)) / Phi^2;
    strictly negative whenever two levels differ; levels may be any reals here.
    """
    e = np.asarray(levels, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError("psi needs a non-empty 1-D level array")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    emin = float(e.min())
    w = np.exp(-lam * (e - emin))
    sw = float(w.sum())
    value = lam * float(((e - emin) * w).sum()) / sw + math.log(sw)
    mean = float((e * w).sum()) / sw
    var = float((np.square(e - mean) * w).sum()) / sw
    deriv = -lam * var
    return value, deriv


# ---------------------------------------------------------------------------
# error propagation for verification margins


def z_quantum_error(spectrum: Spectrum, beta: float) -> float:
    """Absolute uncertainty of the truncated Z_q: tail bound plus first-order
    propagation of the per-level error estimates."""
    return _gated(spectrum, beta).z_err


def mean_energy_quantum_error(spectrum: Spectrum, beta: float) -> float:
    """Absolute uncertainty of E_q from truncation and level errors."""
    return _gated(spectrum, beta).e_err


def entropy_quantum_error(spectrum: Spectrum, beta: float) -> float:
    """Absolute uncertainty of S_q = beta E_q + log Z_q."""
    return _gated(spectrum, beta).s_err


# ---------------------------------------------------------------------------
# thermodynamic points and tables


class ThermoPoint:
    """One model at one (beta, h): what a table row prints and what every
    claim check rules on.

    Its levels hold at h up to a factor, E_n(h) = scale E_n (a scaling
    family's base with scale = h^a, or a solve at h with scale = 1), so each
    quantum quantity is read at lam = beta scale, E_q and its bar times scale.
    Each value is read on first use through the public readers above (a
    method body does not see the class namespace, so a property named after
    a reader calls the reader), and a reader's gate raises at the first read
    that needs it. The comparisons z, e and s are (gap, bound, reference),
    log_z and log_s (value, bound); within each, the quantum value is read
    before the classical one and the error terms last.
    """

    def __init__(self, potential: Potential, spectrum: Spectrum, beta: float, planck: float,
                 scale: float):
        self.potential, self.spectrum, self.beta = potential, spectrum, beta
        self.planck, self.scale, self.lam = planck, scale, beta * scale
        self.dimension = potential.dimension

    def _quantum(self, reader):
        """reader(spectrum, lam), an overflow of its pass named at the point's beta."""
        try:
            return reader(self.spectrum, self.lam)
        except FloatingPointError:
            raise FloatingPointError(
                f"beta E_n leaves the double range at beta={self.beta:g}") from None

    @_cached
    def log_z_quantum(self) -> float:
        return self._quantum(log_z_quantum)[0]

    @_cached
    def z_quantum(self) -> float:
        return self._quantum(z_quantum)[0]

    @_cached
    def log_zq_scaled(self) -> float:
        """log((2 pi h)^N Z_q)."""
        return self.dimension * math.log(2.0 * math.pi * self.planck) + self.log_z_quantum

    @_cached
    def zq_scaled(self) -> float:
        """(2 pi h)^N Z_q, the quantity comparable to Z_c."""
        return math.exp(self.log_zq_scaled)

    @_cached
    def e_quantum(self) -> float:
        return self.scale * self._quantum(mean_energy_quantum)

    @_cached
    def e_quantum_error(self) -> float:
        return self.scale * self._quantum(mean_energy_quantum_error)

    @_cached
    def s_quantum(self) -> float:
        return self._quantum(entropy_quantum)

    @_cached
    def zc(self) -> tuple[float, float]:
        """(Z_c, error bound)."""
        return z_classical(self.potential, self.beta)

    @property
    def z_classical(self) -> float:
        return self.zc[0]

    @_cached
    def e_classical(self) -> float:
        return mean_energy_classical(self.potential, self.beta)

    @_cached
    def s_classical(self) -> float:
        return _s_classical(self.potential, self.beta, self.planck, self.z_classical,
                            self.e_classical)

    @_cached
    def z(self) -> tuple[float, float, float]:
        """Z_c - (2 pi h)^N Z_q, with Z_c as reference."""
        zq = self.z_quantum
        zc, zc_err = self.zc
        scale = (2.0 * math.pi * self.planck) ** self.dimension
        zq_err = self._quantum(z_quantum_error)
        return zc - scale * zq, scale * zq_err + zc_err + 64.0 * _EPS * zc, zc

    @_cached
    def e(self) -> tuple[float, float, float]:
        """E_q - E_c, with E_c as reference."""
        eq, ec = self.e_quantum, self.e_classical
        return eq - ec, self.e_quantum_error + 1e-13 * abs(ec), ec

    @_cached
    def s(self) -> tuple[float, float, float]:
        """S_q - S_c, with S_c as reference."""
        sq, sc = self.s_quantum, self.s_classical
        zc, zc_err = self.zc
        return sq - sc, self._quantum(entropy_quantum_error) + zc_err / zc, sc

    @_cached
    def log_z(self) -> tuple[float, float]:
        """log Z_q and the relative bound of Z_q."""
        log_zq = self.log_z_quantum
        return log_zq, self._quantum(z_quantum_error) / math.exp(min(log_zq, 700.0))

    @_cached
    def log_s(self) -> tuple[float, float]:
        """log S_q, which stays meaningful where ground-state domination pushes
        S_q under the smallest positive float, and its bound: S_q depends on
        level differences only, so the log-scale uncertainty is lam times the
        leading-gap and Boltzmann-weighted level errors."""
        value = self._quantum(log_entropy_quantum)
        err = 1e-12 * (1.0 + abs(value))
        errs = self.spectrum.level_errors
        if errs is not None:
            m = boltzmann_pass(self.spectrum, self.lam)
            err += self.lam * (float(errs[:2].sum()) + m.bars / m.sw)
        return value, err

    @property
    def row(self) -> list[float]:
        """The values of THERMO_FIELDS, what a table row prints."""
        return [self.beta, self.planck, self.zq_scaled, self.z_classical, self.e_quantum,
                self.e_classical, self.s_quantum, self.s_classical]


def thermo_point(point: ThermoPoint) -> ThermoPoint:
    """The point of a table row, read in full and checked in place: the
    plain-tail gate, the double range, E_q, S_q, Z_c and E_c, then the
    entropy identity.

    Raises FloatingPointError when Z_q or (2 pi h)^N Z_q lies outside the
    normal double range, where the table would show inf or 0.
    """
    log_zq, log_scaled = point.log_z_quantum, point.log_zq_scaled
    lo, hi = _LOG_RANGE
    if not (lo < log_zq < hi and lo < log_scaled < hi):
        raise FloatingPointError(
            f"log((2 pi h)^N Z_q) = {log_scaled:.6g} (log Z_q = {log_zq:.6g}) at "
            f"beta={point.beta:g}, h={point.planck:g} leaves the double range "
            f"({lo:.6g}, {hi:.6g})"
        )
    eq, sq, _, _ = point.e_quantum, point.s_quantum, point.zc, point.e_classical
    # S_q once more from the unshifted E_q and log Z_q, as tabulated
    sq_identity = point.beta * eq + log_zq
    if abs(sq - sq_identity) > 1e-10 * max(1.0, abs(sq_identity)):
        raise AccuracyError("entropy identity")
    return point


THERMO_FIELDS = ("beta", "h", "Zq_scaled", "Zc", "Eq", "Ec", "Sq", "Sc")


def thermo_table_text(cells, fmt: str) -> str:
    """JSON, or else newline-terminated CSV, text of a table with one row per
    cell: a ThermoPoint.row, or a failed point's {"beta", "h", "error"} record
    (ModelFamily.sweep's), which reads nan in CSV and null in JSON past its
    beta and h. A status column joins when any cell failed."""
    failed = any(isinstance(c, dict) for c in cells)
    fields = THERMO_FIELDS + ("status",) * failed
    rows = [[c["beta"], c["h"], *[math.nan] * (len(THERMO_FIELDS) - 2), f"error: {c['error']}"]
            if isinstance(c, dict) else c + ["ok"] * failed for c in cells]
    if fmt == "json":
        return json_text({"rows": [dict(zip(fields, r)) for r in rows]})
    lines = [",".join(fields)]
    lines += [",".join(v if isinstance(v, str) else fmt17(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"
