"""Discrete spectra of confined Schrödinger operators -(h^2/2m) u'' + V u.

Levels come from closed forms where they exist (box multi-index sums, the r^2
oscillator, the |x| wedge via Airy-function zeros). Even power laws x^nu
(nu = 4, 6, ...) are solved by Rayleigh-Ritz in a harmonic-oscillator basis,
where the Hamiltonian is banded, with level errors from two nested basis
sizes set by the phase-space area of the top level; LAPACK's DSBEV solves
each parity block. Tabulated wells are solved by Rayleigh-Ritz in the sine
eigenbasis of the box on the table's interval, where the piecewise-linear V
has closed-form matrix elements; each level's bar is the gap to a
Schur-complement lower bound, so every Ritz level and its bar bracket the
exact level. That bound is a second dense eigensolve, run on the first read
of the bars, which only verify makes. Odd and non-integer power laws fall
back to a second-order central finite-difference discretization on uniform
grids with Dirichlet ends at walls the caller places, solved on three nested
grids by LAPACK's DSTEBZ bisection and sharpened by two Richardson steps.
Both LAPACK drivers come from the OpenBLAS numpy has loaded (qcgibbs.lapack),
so this module imports nothing from scipy; only the wedge imports
scipy.special, when it solves. The parity blocks of the oscillator basis and
the grids of finite differences are independent LAPACK calls, solved side by
side on the usable CPUs; the dense sine basis runs on one BLAS thread up to
SINE_BASIS_SERIAL_STATES and on every usable CPU above it. A power-law growth
model E_n ~ C n^gamma fitted to the top quartile of the computed levels bounds
the Boltzmann tail left out by truncation. Under the exact scaling law
E_n(h) = h^a E_n(1) a base spectrum holds at every h; rescale copies it to
one h, for the commands that print or play levels there.
"""

from __future__ import annotations

import enum
import functools
import math
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AccuracyError,
    ContractError,
    ResourceError,
    TailModelError,
)
from .lapack import banded_eigenvalues, blas_threads, map_solves, tridiagonal_lowest
from .potential import Potential, PotentialKind
from .util import first_read, fmt17, log_upper_gamma, usable_cpus


class SpectrumSource(enum.Enum):
    ANALYTIC_BOX = "analytic_box"
    ANALYTIC_HARMONIC = "analytic_harmonic"
    ANALYTIC_AIRY = "analytic_airy"
    FINITE_DIFFERENCE = "finite_difference"
    OSCILLATOR_BASIS = "oscillator_basis"
    SINE_BASIS = "sine_basis"
    RESCALED = "rescaled"
    GIVEN = "given"


def _checked_bars(errs, levels: np.ndarray) -> np.ndarray:
    errs = np.asarray(errs, dtype=float)
    if errs.shape != levels.shape:
        raise ValueError("level_errors must match levels in shape")
    if not (errs.min() >= 0.0 and errs.max() < math.inf):  # NaN fails both
        raise ValueError("level_errors must be finite and non-negative")
    errs.setflags(write=False)
    return errs


class Spectrum:
    """An ordered list of positive eigenvalues at one Planck parameter.

    levels       : E_1 <= E_2 <= ... <= E_M, strictly positive.
    planck       : the h at which the levels hold.
    source       : how the levels were produced.
    level_errors : absolute per-level error bars, finite and non-negative
                   (None for analytic levels). A solver may give them as an
                   array or as a zero-argument computation, which runs on
                   the first read (the sine basis does this: only verify
                   reads bars, so tables, spectra and the game never solve
                   them).
    tail_model   : (gamma, C) of the fitted growth law E_n ~ C n^gamma, used to
                   bound the omitted tail; fitted from the top quartile on its
                   first read, None under 8 levels.
    """

    def __init__(
        self,
        levels,
        planck: float,
        source: SpectrumSource,
        level_errors: np.ndarray | Callable[[], np.ndarray] | None = None,
    ) -> None:
        levels = np.asarray(levels, dtype=float)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a non-empty 1-D array")
        if not np.all(np.isfinite(levels)):
            raise ValueError("levels must be finite")
        if levels[0] <= 0.0:
            raise ValueError("levels must be strictly positive")
        if np.any(np.diff(levels) < 0.0):
            raise ValueError("levels must be non-decreasing")
        if planck <= 0.0:
            raise ValueError("planck must be positive")
        levels.setflags(write=False)
        self.levels, self.planck, self.source = levels, planck, source
        if callable(level_errors):
            self._solve_bars = level_errors
        else:
            self.level_errors = (None if level_errors is None
                                 else _checked_bars(level_errors, levels))

    @first_read
    def level_errors(self) -> np.ndarray:
        """The solver's computed bars, checked (__init__ sets given ones)."""
        return _checked_bars(self._solve_bars(), self.levels)

    @first_read
    def tail_model(self) -> tuple[float, float] | None:
        return fit_tail_model(self.levels) if self.levels.size >= 8 else None

    @property
    def count(self) -> int:
        return int(self.levels.size)


def fit_tail_model(levels: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of log E_n = log C + gamma log n on the top quartile."""
    levels = np.asarray(levels, dtype=float)
    m = levels.size
    lo = max(3 * m // 4, 0)
    if m - lo < 4:
        lo = max(m - 4, 0)
    n = np.arange(lo + 1, m + 1, dtype=float)
    y = np.log(levels[lo:])
    A = np.column_stack([np.ones_like(n), np.log(n)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1]), float(math.exp(coef[0]))


def _check_ground_level(value: np.ndarray, estimate: np.ndarray, what: str) -> None:
    """Raise AccuracyError where an estimated bar on the ground level reaches
    down to min V, which is 0 for the box and the power laws: such a solve
    resolves no digit of E_1."""
    if not estimate[0] < value[0]:  # also catches NaN
        raise AccuracyError(
            f"{what}: a bar of {estimate[0]:.3g} swamps the ground level "
            f"E_1 = {value[0]:.6g} (E_1 - min V = {value[0]:.3g})"
        )


# ---------------------------------------------------------------------------
# analytic spectra


def solve_box(
    dimension: int,
    lengths,
    mass: float = 1.0,
    planck: float = 1.0,
    count: int = 1,
    max_states: int = 2_000_000,
) -> Spectrum:
    """The `count` smallest box levels (h^2 pi^2 / 2m) * sum_i (n_i/L_i)^2.

    Multi-indices run over positive integers; degenerate levels appear with
    multiplicity. Enumeration beyond `max_states` raises ResourceError.
    """
    lengths = tuple(float(L) for L in np.atleast_1d(lengths))
    if len(lengths) != dimension:
        raise ValueError("need one length per axis")
    if any(L <= 0.0 for L in lengths):
        raise ValueError("box lengths must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    if mass <= 0.0 or planck <= 0.0:
        raise ValueError("mass and planck must be positive")
    if count > max_states:
        raise ResourceError(
            f"requested {count} box states exceeds the enumeration cap {max_states}"
        )
    coeff = np.array([(planck * math.pi / L) ** 2 / (2.0 * mass) for L in lengths])
    if dimension == 1:
        n = np.arange(1, count + 1, dtype=float)
        return Spectrum(coeff[0] * n**2, planck, SpectrumSource.ANALYTIC_BOX)

    # lattice expansion from (1,...,1): pop the smallest value, push successors
    # (heapq is imported here: no other solver uses it, and every command
    # would pay for its import)
    import heapq

    start = tuple([1] * dimension)
    heap: list[tuple[float, tuple[int, ...]]] = [(float(coeff.sum()), start)]
    seen = {start}
    out = np.empty(count)
    popped = 0
    while popped < count:
        if len(seen) > max_states:
            raise ResourceError(
                f"box enumeration exceeded the cap of {max_states} states"
            )
        value, idx = heapq.heappop(heap)
        out[popped] = value
        popped += 1
        for axis in range(dimension):
            nxt = list(idx)
            nxt[axis] += 1
            key = tuple(nxt)
            if key not in seen:
                seen.add(key)
                val = float(np.dot(coeff, np.square(nxt)))
                heapq.heappush(heap, (val, key))
    return Spectrum(out, planck, SpectrumSource.ANALYTIC_BOX)


def oscillator_spectrum(count: int, mass: float = 1.0, planck: float = 1.0) -> Spectrum:
    """Analytic levels of -(h^2/2m) u'' + x^2 u on the line.

    Writing x^2 = (1/2) m w^2 x^2 gives w = sqrt(2/m), so
    E_n = h w (n - 1/2), n = 1, 2, ...
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    omega = math.sqrt(2.0 / mass)
    n = np.arange(1, count + 1, dtype=float)
    return Spectrum(planck * omega * (n - 0.5), planck, SpectrumSource.ANALYTIC_HARMONIC)


def wedge_spectrum(count: int, mass: float = 1.0, planck: float = 1.0) -> Spectrum:
    """Analytic levels of -(h^2/2m) u'' + |x| u on the line via Airy zeros.

    Even eigenfunctions satisfy u'(0) = 0 and give E = |a'_k| s, odd ones
    satisfy u(0) = 0 and give E = |a_k| s, with s = (h^2 / 2m)^(1/3); the two
    ladders interleave strictly.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    scale = (planck**2 / (2.0 * mass)) ** (1.0 / 3.0)
    # imported here: no other solver needs scipy.special, which costs start-up
    from scipy.special import ai_zeros

    half = (count + 1) // 2
    a, ap, _, _ = ai_zeros(half)
    levels = np.empty(count)
    levels[0::2] = np.abs(ap)[: (count + 1) // 2]
    levels[1::2] = np.abs(a)[: count // 2]
    return Spectrum(levels * scale, planck, SpectrumSource.ANALYTIC_AIRY)


# ---------------------------------------------------------------------------
# finite differences


def _domain_interval(potential: Potential, half_width: float | None) -> tuple[float, float]:
    if potential.kind is PotentialKind.BOX:
        return 0.0, potential.lengths[0]
    if potential.kind is PotentialKind.TABULATED:
        return float(potential.grid_x[0]), float(potential.grid_x[-1])
    if half_width is None or half_width <= 0.0:
        raise ValueError("homogeneous potentials need a positive half-width R")
    return -float(half_width), float(half_width)


def _potential_values(potential: Potential, xs: np.ndarray) -> np.ndarray:
    if potential.kind is PotentialKind.BOX:
        return np.zeros_like(xs)
    if potential.kind is PotentialKind.HOMOGENEOUS:
        return np.abs(xs) ** potential.exponent
    return np.interp(xs, potential.grid_x, potential.grid_v)


def fd_eigenvalues(
    potential: Potential,
    planck: float = 1.0,
    half_width: float | None = None,
    points: int = 2000,
    count: int = 1,
) -> np.ndarray:
    """Lowest `count` eigenvalues of the tridiagonal discretization on one grid.

    `points` interior nodes with Dirichlet values at both interval ends; this
    is the raw second-order scheme without extrapolation. LAPACK's DSTEBZ
    bisection (tridiagonal_lowest) finds the levels to about eps times the
    matrix norm.
    """
    if potential.dimension != 1:
        raise ValueError("the finite-difference solver is one-dimensional")
    if count < 1 or count > points:
        raise ValueError("need 1 <= count <= points")
    a, b = _domain_interval(potential, half_width)
    dx = (b - a) / (points + 1)
    xs = a + dx * np.arange(1, points + 1)
    kin = planck**2 / (potential.mass * dx**2)
    diag = kin + _potential_values(potential, xs)
    off = np.full(points - 1, -0.5 * kin)
    return tridiagonal_lowest(diag, off, count)


def _weyl_integral(nu: float) -> float:
    # int_0^1 sqrt(1 - u^nu) du
    return 0.5 * math.sqrt(math.pi) * math.gamma(1.0 + 1.0 / nu) / math.gamma(1.5 + 1.0 / nu)


def weyl_energy(nu: float, mass: float, planck: float, count: int) -> float:
    """Rough energy of level number `count` of -(h^2/2m)u'' + |x|^nu u: the
    energy below which Weyl's semiclassical law counts `count` levels."""
    pref = 2.0 * math.sqrt(2.0 * mass) / (math.pi * planck) * _weyl_integral(nu)
    return (count / pref) ** (1.0 / (0.5 + 1.0 / nu))


def solve_fd_1d(
    potential: Potential,
    planck: float,
    half_width: float | None,
    points: int,
    count: int,
) -> Spectrum:
    """Finite-difference levels with Richardson-extrapolated error control.

    Boxes and power-law wells only: tabulated wells are solved in the sine
    basis, whose bars are bounds (solve_sine_basis); fd_eigenvalues still
    discretizes them on one grid.

    Dirichlet walls sit at +-half_width for potentials on the whole line (the
    box carries its own interval and ignores it); the caller places them.
    The scheme is solved on `points`, 2 points + 1 and 4 points + 3 interior
    nodes, and two Richardson steps extrapolate the levels; level_errors hold
    the change made by the second step plus the rounding floor
    5e-14 * (|E| + ||T||), with T the kinetic term on the finest grid. A
    ground level whose bar reaches 0 (walls so far out that the grid cannot
    resolve it, as for nu <= 0.1 under ModelFamily's node cap) raises
    AccuracyError.
    """
    if potential.kind is PotentialKind.TABULATED:
        raise ValueError("tabulated wells are solved in the sine basis (solve_sine_basis)")
    # the grids are independent and solved side by side, the finest (4/7 of
    # the work) first, so that the other two share a second core
    e2, e1, e0 = map_solves(
        lambda n: fd_eigenvalues(potential, planck, half_width, n, count),
        [4 * points + 3, 2 * points + 1, points])
    r1 = (4.0 * e1 - e0) / 3.0
    r1b = (4.0 * e2 - e1) / 3.0
    value = (16.0 * r1b - r1) / 15.0
    a, b = _domain_interval(potential, half_width)
    dx_fine = (b - a) / (4 * points + 4)
    norm_t = planck**2 / (potential.mass * dx_fine**2)
    estimate = np.abs(r1b - r1) + 5e-14 * (np.abs(value) + norm_t)
    # extrapolation can jitter near-degenerate pairs below estimate size
    order = np.argsort(value, kind="stable")
    value, estimate = value[order], estimate[order]
    what = ("box" if potential.kind is PotentialKind.BOX
            else f"nu={potential.exponent:g}") + " by finite differences"
    _check_ground_level(value, estimate, what)
    return Spectrum(value, planck, SpectrumSource.FINITE_DIFFERENCE, level_errors=estimate)


# ---------------------------------------------------------------------------
# harmonic-oscillator basis


def _even_exponent(potential: Potential) -> int:
    nu = potential.exponent if potential.kind is PotentialKind.HOMOGENEOUS else None
    if potential.dimension != 1 or nu is None or not nu.is_integer() or nu % 2:
        raise ValueError("the oscillator basis solves 1-D x^nu wells with even integer nu")
    return int(nu)


def _oscillator_bands(
    nu: int, planck: float, mass: float, scale: float, size: int,
) -> list[np.ndarray]:
    """Upper diagonals 0, 2, ..., nu of H = p^2/2m + x^nu in the first `size`
    oscillator states of length `scale` (the odd diagonals vanish by parity).

    With x = scale (a + a^+)/sqrt(2), column n of x^nu is x applied nu times
    to state n in the unbounded basis, so the matrix is the exact Rayleigh-Ritz
    projection; the kinetic term is h^2 (2n + 1 - a^2 - a^+2) / (4 m scale^2).
    """
    def ladder(i):  # <i|x|i+1>, zero below the ground state
        return scale * np.sqrt(np.maximum(i + 1.0, 0.0) / 2.0)

    # power[r, n] = <n + r - nu| x^k |n> after k steps; each step adds, at
    # every offset r at once, the lower neighbour's term and then the upper's
    cols = np.arange(size, dtype=float)
    i = cols + np.arange(-nu, nu + 1, dtype=float)[:, None]
    lower, upper = ladder(i[1:] - 1.0), ladder(i[:-1])
    power = np.zeros((2 * nu + 1, size))
    power[nu] = 1.0
    for _ in range(nu):
        step = np.zeros_like(power)
        step[1:] += lower * power[:-1]
        step[:-1] += upper * power[1:]
        power = step
    bands = [power[nu - d, d:].copy() for d in range(0, nu + 1, 2)]
    kin = planck**2 / (4.0 * mass * scale**2)
    bands[0] += kin * (2.0 * cols + 1.0)
    bands[1] -= kin * np.sqrt((cols[: size - 2] + 1.0) * (cols[: size - 2] + 2.0))
    return bands


def _banded_levels(bands: list[np.ndarray], sizes: list[int], count: int) -> list[np.ndarray]:
    """For each size in `sizes`, the lowest `count` eigenvalues of the leading
    size x size block of the matrix whose upper diagonals 0, 2, 4, ... are
    `bands`.

    Only even offsets couple, so the even and the odd states form two blocks
    of bandwidth len(bands) - 1, each passed in lower band storage to
    LAPACK's DSBEV (banded_eigenvalues), which reduces it to tridiagonal
    form and finds all its eigenvalues. The blocks of every size are
    independent and are solved side by side.
    """
    blocks = []
    for size in sizes:
        for parity in (0, 1):
            rows = len(range(parity, size, 2))
            ab = np.zeros((len(bands), rows))  # lower band storage
            for j, band in enumerate(bands):
                diag = band[: max(size - 2 * j, 0)][parity::2]
                ab[j, : diag.size] = diag
            blocks.append(ab)
    solved = map_solves(lambda ab: banded_eigenvalues(ab)[:count], blocks)
    return [np.sort(np.concatenate(solved[i:i + 2]))[:count]
            for i in range(0, len(solved), 2)]


def oscillator_basis_eigenvalues(
    potential: Potential,
    planck: float = 1.0,
    scale: float = 1.0,
    size: int = 100,
    count: int = 1,
) -> np.ndarray:
    """Lowest `count` Rayleigh-Ritz levels of -(h^2/2m) u'' + x^nu u (even nu)
    in the first `size` oscillator states of length `scale`.

    Each is an upper bound on the exact level, and for a fixed scale a larger
    basis never raises one (Cauchy interlacing).
    """
    nu = _even_exponent(potential)
    if count < 1 or count > size:
        raise ValueError("need 1 <= count <= size")
    if scale <= 0.0:
        raise ValueError("the basis length scale must be positive")
    bands = _oscillator_bands(nu, planck, potential.mass, scale, size)
    return _banded_levels(bands, [size], count)[0]


def _phase_space_ratio(nu: int) -> float:
    """Basis states per level at the top of a converged x^nu solve:
    r = pi c^2 / (4 I_nu).

    In units of x_E = E^(1/nu) and p_E = sqrt(2 m E) the allowed region
    u^nu + w^2 <= 1 has area 4 I_nu (I_nu = _weyl_integral), and the
    smallest circle that holds it has radius c with
    c^2 = max(u^2 + 1 - u^nu) = 1 + (1 - 2/nu) (2/nu)^(2/(nu - 2)). Counting
    states by phase-space area (Weyl's law) puts r * M basis states in that
    circle when M levels lie in the region: r = 1.123 at nu = 4, 1.418 at 30.
    """
    c2 = 1.0 + (1.0 - 2.0 / nu) * (2.0 / nu) ** (2.0 / (nu - 2.0))
    return math.pi * c2 / (4.0 * _weyl_integral(nu))


def solve_oscillator_basis(
    potential: Potential,
    planck: float = 1.0,
    count: int = 1,
) -> Spectrum:
    """Levels of -(h^2/2m) u'' + x^nu u (even nu) in an oscillator basis.

    The basis length scale s balances the classically allowed region at
    E_t = 1.3 * (Weyl energy of level `count`): s^2 = h x_t / p_t with
    x_t = E_t^(1/nu), p_t = sqrt(2 m E_t). A Ritz level converges once the
    basis ellipse in phase space holds the allowed region of the top level,
    which takes about r(nu) * count states (_phase_space_ratio), so the
    levels are solved at sizes N2 = ceil(1.15 r count) + 64 and
    N1 = ceil(1.05 r count) + 48 with the same s, and the N2 levels are
    returned; level_errors hold |E(N1) - E(N2)| plus the rounding floor
    5e-14 * (|E| + ||H||) used by the finite-difference solver, with ||H||
    bounded above by the absolute row sums of the N2 bands. A ground level
    whose bar reaches 0 (even nu from 30 on) raises AccuracyError.
    """
    nu = _even_exponent(potential)
    if count < 1:
        raise ValueError("count must be at least 1")
    m = potential.mass
    e_t = 1.3 * weyl_energy(nu, m, planck, count)
    scale = math.sqrt(planck * e_t ** (1.0 / nu) / math.sqrt(2.0 * m * e_t))
    ratio = _phase_space_ratio(nu)
    n2 = math.ceil(1.15 * ratio * count) + 64
    n1 = math.ceil(1.05 * ratio * count) + 48
    bands = _oscillator_bands(nu, planck, m, scale, n2)
    value, coarse = _banded_levels(bands, [n2, n1], count)
    peaks = [float(np.abs(b).max()) for b in bands]
    norm_h = 2.0 * sum(peaks) - peaks[0]  # the diagonal once, off-diagonals twice
    estimate = np.abs(coarse - value) + 5e-14 * (np.abs(value) + norm_h)
    _check_ground_level(value, estimate, f"nu={nu}")
    return Spectrum(value, planck, SpectrumSource.OSCILLATOR_BASIS, level_errors=estimate)


# ---------------------------------------------------------------------------
# box sine basis for tabulated wells

# the dense basis's two full eigh passes (the levels, then the bars on their
# first read) cost O(size^3); at this many states (1,500 levels at
# 2 * count + 64) the levels take about 1.0 s and 180 MB peak RSS on two
# cores, and levels and bars 2.3 s and 260 MB, so larger bases are refused
# before anything is built
SINE_BASIS_MAX_STATES = 3_064
# up to this many states the basis is solved on one BLAS thread: on two
# cores a second thread saves no time below about 280 states (it only spins
# on after the call, which costs CPU), 3% at 300, and 7% at 400, 28% at 700
# and 35-41% from 1,000 to 3,000 states
SINE_BASIS_SERIAL_STATES = 300


def _cosine_moments(u: np.ndarray, v: np.ndarray, qmax: int) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 cos(q pi u) f(u) du for q = 0..qmax, for f = V and f = V^2,
    where V is the piecewise-linear interpolant of the samples (u, v) on [0, 1].

    Integrating by parts on each segment (slope s_j) leaves, since V and V^2
    are continuous and sin(q pi) = 0, C(q) = sum_j s_j [cos(k u)]_j / k^2 and
    C2(q) = sum_j 2 s_j [V cos(k u)]_j / k^2 - 2 s_j^2 [sin(k u)]_j / k^3
    with k = q pi and [g]_j = g(u_{j+1}) - g(u_j). Summed by parts over the
    nodes these are sums of cos(k u_j) and sin(k u_j) against the slope
    jumps w_j = s_{j-1} - s_j (s_{-1} = s_n = 0).

    The node sums go by angle addition: with q = b B + r, B = isqrt(qmax + 1)
    + 1, e^{i pi q u} = e^{i pi b B u} e^{i pi r u}, so all three weighted
    sums for every q are one complex product of the weighted coarse phases
    (3 x blocks, node) with the fine phases (node, B), and a node costs about
    2 sqrt(qmax) complex exponentials instead of 2 qmax cos and sin.
    """
    du = np.diff(u)
    slope = np.diff(v) / du
    padded = np.concatenate(([0.0], slope, [0.0]))
    jumps = -np.diff(padded)
    # -2 (s_{j-1}^2 - s_j^2) for the sin sum
    weights = np.stack((jumps, 2.0 * v * jumps, 2.0 * np.diff(padded**2)))
    step = math.isqrt(qmax + 1) + 1
    blocks = -(-(qmax + 1) // step)
    sums = np.zeros((3 * blocks, step), dtype=complex)
    chunk = max(1, 2**16 // (3 * blocks))  # bounds the block x node work arrays
    for lo in range(0, u.size, chunk):
        uj = math.pi * u[lo:lo + chunk]
        coarse = np.exp(1j * np.outer(step * np.arange(blocks, dtype=float), uj))
        fine = np.exp(1j * np.outer(uj, np.arange(step, dtype=float)))
        weighted = weights[:, None, lo:lo + chunk] * coarse
        sums += weighted.reshape(3 * blocks, -1) @ fine
    sums = sums.reshape(3, -1)[:, 1:qmax + 1]
    k = math.pi * np.arange(1, qmax + 1, dtype=float)
    c = np.empty(qmax + 1)
    c2 = np.empty(qmax + 1)
    c[0] = np.dot(du, v[:-1] + v[1:]) / 2.0
    c2[0] = np.dot(du, v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0
    c[1:] = sums[0].real / k**2
    c2[1:] = sums[1].real / k**2 + sums[2].imag / k**3
    return c, c2


def _sine_matrix(c: np.ndarray, size: int) -> np.ndarray:
    """<phi_k| f |phi_l> = C(|k - l|) - C(k + l), k, l = 1..size, from the
    cosine moments C of f (2 sin a sin b = cos(a - b) - cos(a + b)).

    The Toeplitz and Hankel terms are strided windows over C, so the
    difference is the only size x size array allocated.
    """
    toeplitz = sliding_window_view(np.concatenate((c[size - 1:0:-1], c[:size])), size)[::-1]
    hankel = sliding_window_view(c[2:2 * size + 1], size)
    return toeplitz - hankel


def _wall_states(potential: Potential, planck: float) -> float:
    """(max V - min V) / c1 with c1 = h^2 pi^2 / (2 m L^2): the squared number
    of sine states the table's walls add to the basis."""
    span = float(potential.grid_x[-1] - potential.grid_x[0])
    kin = (planck * math.pi / span) ** 2 / (2.0 * potential.mass)
    return float(potential.grid_v.max() - potential.grid_v.min()) / kin


def _sine_basis_size(potential: Potential, planck: float, count: int) -> int:
    """States the sine basis takes for `count` levels at h: the larger of
    2 * count + 64 and the smallest N with (N + 1)^2 >= 2 count^2 + 2 (max V
    - min V) / c1. Then the omitted block's floor g, measured from min V, is
    at least twice the a-priori bound c1 count^2 + max V on theta_count, so
    the Schur term W / (g - theta_count) stays small."""
    floor = 2 * count**2 + 2.0 * _wall_states(potential, planck)
    return max(2 * count + 64, math.ceil(math.sqrt(floor)) - 1)


def sine_basis_level_cap(potential: Potential, planck: float) -> int:
    """The most levels at h whose sine basis fits in SINE_BASIS_MAX_STATES
    (_sine_basis_size inverted): 1,500 for low walls, fewer where max V -
    min V adds states, and 0 where the walls alone need more."""
    room = (SINE_BASIS_MAX_STATES + 1) ** 2 / 2.0 - _wall_states(potential, planck)
    return min((SINE_BASIS_MAX_STATES - 64) // 2, int(math.sqrt(max(room, 0.0))))


def solve_sine_basis(
    potential: Potential,
    planck: float = 1.0,
    count: int = 1,
    size: int | None = None,
) -> Spectrum:
    """Levels of a tabulated well by Rayleigh-Ritz in the box eigenbasis
    phi_k = sqrt(2/L) sin(k pi (x - a)/L) on the table's interval [a, b].

    H_kl = delta_kl h^2 pi^2 k^2 / (2 m L^2) + C(|k - l|) - C(k + l), with C
    the closed-form cosine moments of the piecewise-linear V that np.interp
    defines. The basis holds `size` states, by default _sine_basis_size; a
    size above SINE_BASIS_MAX_STATES raises ResourceError. The Ritz values
    theta_i are upper bounds and are the levels.

    The kinetic term is diagonal, so only V couples the basis to the omitted
    states, and W = (V^2)_NN - (V_NN)^2 = P V Q V P >= 0. The omitted block
    lies at or above g = h^2 pi^2 (N + 1)^2 / (2 m L^2) + min V, so for
    t = theta_count < g Loewdin partitioning and Haynsworth inertia give
    E_i >= lambda_i(H_NN - W / (g - t)) for i <= count. level_errors hold
    theta_i - lambda_i plus the rounding floor 5e-14 * (|E| + ||H||); t >= g
    raises AccuracyError at the solve.

    The solve returns the Ritz levels after one eigensolve; the bars take a
    second one, solved on the first read of level_errors, which only verify
    makes. Until then the spectrum holds O(size) state for them (the cosine
    moments, not the size x size matrices). Each eigensolve holds the
    process's BLAS thread count (qcgibbs.lapack's blas_threads), so solves
    in different threads run one at a time.
    """
    if potential.kind is not PotentialKind.TABULATED:
        raise ValueError("the sine basis solves tabulated wells")
    if count < 1:
        raise ValueError("count must be at least 1")
    xs, vs = potential.grid_x, potential.grid_v
    span = float(xs[-1] - xs[0])
    kin = (planck * math.pi / span) ** 2 / (2.0 * potential.mass)
    vmin = float(vs.min())
    if size is None:
        size = _sine_basis_size(potential, planck, count)
    if size < count:
        raise ValueError("need count <= size")
    if size > SINE_BASIS_MAX_STATES:
        raise ResourceError(
            f"{count} levels at h={planck:g} need a {size}-state sine basis, "
            f"above the {SINE_BASIS_MAX_STATES}-state limit"
        )

    # numpy's BLAS and LAPACK (the OpenBLAS qcgibbs.lapack binds): one
    # thread up to SINE_BASIS_SERIAL_STATES, every usable core above
    with blas_threads(_sine_basis_threads(size)):
        c, c2 = _cosine_moments((xs - xs[0]) / span, vs, 2 * size)
        ham = _sine_matrix(c, size)
        ham[np.diag_indices(size)] += kin * np.arange(1, size + 1, dtype=float) ** 2
        theta = np.linalg.eigvalsh(ham)
    value = theta[:count]
    top = float(value[-1])
    gap = kin * (size + 1) ** 2 + vmin
    if top >= gap:
        raise AccuracyError(
            f"level {count}: Ritz value {top:.6g} is not below the omitted "
            f"sine states' floor {gap:.6g}; no lower bound holds"
        )
    norm_h = max(abs(theta[0]), abs(theta[-1]))
    bars = functools.partial(_sine_basis_bars, c, c2, kin, gap, value, size, norm_h)
    return Spectrum(value, planck, SpectrumSource.SINE_BASIS, level_errors=bars)


def _sine_basis_threads(size: int) -> int:
    return 1 if size <= SINE_BASIS_SERIAL_STATES else usable_cpus()


def _sine_basis_bars(c: np.ndarray, c2: np.ndarray, kin: float, gap: float,
                     value: np.ndarray, size: int, norm_h: float) -> np.ndarray:
    """solve_sine_basis's level bars: theta_i - lambda_i(H_NN - W / (g - t))
    plus the rounding floor, for the Ritz levels `value` = theta_1..count.
    H_NN and W are rebuilt from the cosine moments C and C2, at the solve's
    BLAS thread count."""
    with blas_threads(_sine_basis_threads(size)):
        ham = _sine_matrix(c, size)  # V_NN until the kinetic diagonal is added
        coupling = _sine_matrix(c2, size)
        coupling -= ham @ ham  # W
        ham[np.diag_indices(size)] += kin * np.arange(1, size + 1, dtype=float) ** 2
        coupling *= 1.0 / (gap - float(value[-1]))
        ham -= coupling
        lower = np.linalg.eigvalsh(ham)[:value.size]
    return (value - lower) + 5e-14 * (np.abs(value) + norm_h)


# ---------------------------------------------------------------------------
# rescaling and tails


def level_scale(planck: float, exponent: float, base: Spectrum | None = None) -> float:
    """h^a, the factor that takes E_n(1) to E_n(h); FloatingPointError where
    it overflows, or takes a level or bar of `base` past the double range."""
    errs = None if base is None else base.level_errors
    top = 1.0 if base is None else float(max(base.levels[-1], 0.0 if errs is None else errs.max()))
    try:
        factor = planck**exponent
    except OverflowError:
        factor = math.inf
    if factor * top < math.inf:
        return factor
    raise FloatingPointError(
        f"levels at h={planck:g} overflow: h^{exponent:g} E_n(1) leaves the double range")


def rescale(base: Spectrum, planck: float, exponent: float) -> Spectrum:
    """Transport a base spectrum at h = 1 to h = planck via E_n(h) = h^a E_n(1):
    FloatingPointError where a level or bar overflows (level_scale) or E_1
    falls below the normal double range."""
    if base.source is SpectrumSource.RESCALED or base.planck != 1.0:
        raise ContractError("rescale requires an unrescaled base spectrum at h = 1")
    if planck <= 0.0:
        raise ValueError("planck must be positive")
    if exponent <= 0.0:
        raise ValueError("scaling exponent must be positive")
    factor = level_scale(planck, exponent, base)
    levels = base.levels * factor
    if levels[0] < np.finfo(float).tiny:
        raise FloatingPointError(
            f"levels at h={planck:g} underflow: h^{exponent:g} E_n(1) leaves the double range")
    errs = None if base.level_errors is None else base.level_errors * factor
    return Spectrum(levels, planck, SpectrumSource.RESCALED, level_errors=errs)


def log_tail_bound(spectrum: Spectrum, beta: float, power: int = 0) -> float:
    """log of an upper bound on sum_{n>M} E_n^power exp(-beta E_n).

    Uses the fitted growth law E_n ~ C n^gamma and the integral comparison
    sum_{n>M} f(n) <= int_M^inf f(t) dt (valid once the summand decreases,
    i.e. beta E_M > power, which holds in every gated use).
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if spectrum.count < 8:
        raise ValueError("log_tail_bound needs a spectrum with at least 8 levels")
    gamma, pref = spectrum.tail_model
    if gamma <= 0.0:
        raise TailModelError(
            f"fitted growth exponent {gamma:.3g} is not positive; "
            "the spectrum does not grow"
        )
    u_m = beta * pref * spectrum.count**gamma
    return (
        -math.log(gamma)
        - math.log(beta * pref) / gamma
        - power * math.log(beta)
        + log_upper_gamma(power + 1.0 / gamma, u_m)
    )


# ---------------------------------------------------------------------------
# serialization


def spectrum_text(spectrum: Spectrum, count: int | None = None) -> str:
    """``n,E`` rows of the lowest `count` levels (all by default) under
    ``# h=`` and ``# source=`` metadata comments."""
    lines = [f"# h={fmt17(spectrum.planck)}", f"# source={spectrum.source.value}", "n,E"]
    lines += [f"{i},{fmt17(e)}" for i, e in enumerate(spectrum.levels[:count], start=1)]
    return "\n".join(lines) + "\n"


def read_levels(text: str) -> tuple[list[float], dict[str, str]]:
    """(levels, metadata) of spectrum_text's output or of one level per line:
    '#' starts a comment anywhere, ``# key=value`` lines give the metadata,
    blank lines and the ``n,E`` header are skipped, and on every other line
    the last comma field is a level."""
    levels, meta = [], {}
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            key, sep, value = comment.partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif line != "n,E":
            levels.append(float(line.rpartition(",")[2]))
    return levels, meta


def spectrum_from_csv(path: str | Path) -> Spectrum:
    """Read spectrum_text's output (read_levels), validating order and positivity."""
    levels, meta = read_levels(Path(path).read_text())
    if "h" not in meta or "source" not in meta:
        raise ValueError(f"{path}: missing '# h=' or '# source=' metadata")
    return Spectrum(levels, float(meta["h"]), SpectrumSource(meta["source"]))
