"""Grid verification of the partition-sum, energy, and entropy claims.

Each check sweeps a model family over (beta, h) grids, computes both sides of
one claimed inequality, identity, or limit, and reports a status with the
worst signed margin:

  C1_1       (2 pi h)^N Z_q(beta, h) <= Z_c(beta)
  C1_2       E_q(beta, h) >= E_c(beta)
  C1_3_Z/_E  (2 pi h)^N Z_q / Z_c -> 1 and E_q/E_c -> 1 as beta -> 0
  T3_1       integral of (E_q - E_c) equals the log-ratio difference, and is >= 0
  T4_1_*     S_q(beta, h) strictly decreasing in beta and in h
  C4_1       h^N Z_q decreasing in h (power-law potentials)
  P4_1       d/dh (h^N Z_q) = h^(N-1) Z_q (N - alpha beta E_q), alpha = 2nu/(2+nu)
  P4_3       sign(E_q - E_c) = -sign(N - alpha beta E_q) pointwise
  WEHRL_S    E_q -> E_c, (2 pi h)^N Z_q -> Z_c, S_q - S_c -> 0 as h -> 0

Every check is called as check(family, betas=None, hs=None); check_t31 also
takes tau. A grid left as None selects the check's default grid. A check that
holds one axis fixed takes the first value of that grid: C1_3 its h, C4_1 and
WEHRL_S their beta, T3_1 its h. T3_1's beta, the top of its integral, takes
the largest value instead. A fixed axis left as None is 1. run_claims
refuses a one-value grid that a claim compares neighbours along
(COMPARED_GRIDS) before any check runs; a direct call reports Inconclusive.

Each (beta, h) a check reads is one ensemble.ThermoPoint, the record a table
row prints, where every comparison of the quantum side with the classical
one, and its error bound, is formed once.
Each check is declared in three parts: the points it reads (its grid), its
reader of a point, and its ruling over what was read. A check called alone
reads its points in one ModelFamily.sweep at its depth (_sweep); run_claims
sweeps each claim's depth in turn, and claims next to each other that ask
for the same depth share one sweep, in which each point they list is one
ThermoPoint, read by each of them in turn. Every point is read off its own
levels alone, at lambda = beta phi(h) off a scaling family's one base
(P4_1's neighbours h s at lambda s^alpha; T3_1's one point is (tau, h),
and its integrand reads each gamma at gamma phi(h) off that point's
levels): a point whose solve, step to h or read failed reads NaN, is
listed in notes["failed_points"] of each report of each claim that lists
it, and keeps them from Holds. A verdict of Holds requires every margin to
clear the combined numerical error bound at its own grid point; margins
inside the error band downgrade to Inconclusive rather than passing on noise.
Checks never use the same code path for both sides of an identity.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math

import numpy as np

from .ensemble import ThermoPoint, log_z_quantum, mean_energy_classical, mean_energy_quantum
from .models import ModelFamily
from .potential import PotentialKind
from .util import halving_grid, json_text, log_grid


class Status(enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


class ClaimId(enum.Enum):
    C1_1 = "C1_1"
    C1_2 = "C1_2"
    C1_3_Z = "C1_3_Z"
    C1_3_E = "C1_3_E"
    T3_1 = "T3_1"
    T4_1_beta = "T4_1_beta"
    T4_1_h = "T4_1_h"
    C4_1 = "C4_1"
    P4_1 = "P4_1"
    P4_3 = "P4_3"
    WEHRL_S = "WEHRL_S"


#: claims backed by proofs on the in-scope families; a Violated verdict on
#: these is an artifact bug, and the CLI exits nonzero on it
THEOREM_CLAIMS = frozenset(
    {ClaimId.C1_1, ClaimId.T3_1, ClaimId.T4_1_beta, ClaimId.T4_1_h,
     ClaimId.P4_1, ClaimId.P4_3}
)


class VerificationReport:
    """One claim checked over one grid."""

    def __init__(self, claim_id: ClaimId, model: dict, grid: dict, status: Status,
                 worst_margin: float, tolerance: float, notes: dict | None = None) -> None:
        self.claim_id, self.model, self.grid, self.status = claim_id, model, grid, status
        self.worst_margin, self.tolerance = worst_margin, tolerance
        self.notes = {} if notes is None else notes

    def to_dict(self) -> dict:
        """Every field, the claim id and status by value."""
        return {**vars(self), "claim_id": self.claim_id.value, "status": self.status.value}


def reports_to_json(reports) -> str:
    return json_text([r.to_dict() for r in reports])  # NaN is written null


def report_from_dict(d: dict) -> VerificationReport:
    margin = math.nan if d["worst_margin"] is None else float(d["worst_margin"])
    return VerificationReport(
        ClaimId(d["claim_id"]), d["model"], d["grid"], Status(d["status"]),
        margin, float(d["tolerance"]), d.get("notes", {}),
    )


# default sweep windows: log-spaced, 9 points per decade, spanning the
# near-classical and deep-quantum regimes at desk scale
def default_beta_grid() -> np.ndarray:
    return log_grid(1e-2, 10.0, 9)


def default_h_grid() -> np.ndarray:
    return log_grid(0.25, 4.0, 9)


def default_c13_betas() -> np.ndarray:
    return halving_grid(1.0, 1.0 / 256.0)


def default_wehrl_hs() -> np.ndarray:
    return halving_grid(1.0, 1.0 / 64.0)


def default_c41_hs() -> np.ndarray:
    return log_grid(0.5, 4.0, 9)


def _classify(margins: np.ndarray, bounds: np.ndarray, tolerance: float) -> Status:
    """Violated if a margin is negative beyond both the tolerance and its own
    error bound; Holds only if every margin clears its own bound; otherwise
    Inconclusive."""
    margins = np.asarray(margins, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if margins.size == 0:
        return Status.INCONCLUSIVE
    violated = (margins < -tolerance) & (np.abs(margins) > bounds)
    if np.any(violated):
        return Status.VIOLATED
    if np.all(margins > bounds):
        return Status.HOLDS
    return Status.INCONCLUSIVE


# ---------------------------------------------------------------------------
# grids, points and reports


def _grid(values, default) -> np.ndarray:
    """A swept axis: the given values, or the check's default grid for None."""
    return default() if values is None else np.atleast_1d(np.asarray(values, dtype=float))


def _first(values) -> float:
    """A fixed axis: the first given value, or 1 for None."""
    return 1.0 if values is None else float(np.atleast_1d(values)[0])


def _relative(comparison) -> tuple[float, float]:
    """(|gap| / |reference|, bound / |reference|) of a (gap, bound, reference)."""
    gap, bound, reference = comparison
    return abs(gap) / abs(reference), bound / abs(reference)


class _Points:
    """What a claim reads: every beta at every h (h outer), each point
    through read(ThermoPoint) -> `width` floats. A reader that `detours`
    also weighs betas off its point."""

    __slots__ = ("betas", "hs", "read", "width", "detours")

    def __init__(self, betas, hs, read, width: int, detours: bool = False):
        self.betas, self.hs = np.atleast_1d(betas), np.atleast_1d(hs)
        self.read, self.width, self.detours = read, width, detours


def _claim(body):
    """A claim check from its body, a generator that yields the _Points it
    reads, is sent the rows read there (NaN at a failed point) and the
    failed points' records, and returns its reports. The check reads its
    points alone, at its own depth; run_claims reads them with its
    neighbours' (_sweep)."""

    @functools.wraps(body)
    def check(family: ModelFamily, *args, **kwargs):
        claim = body(family, *args, **kwargs)
        points = next(claim)
        return _sweep(family, family.lambda_min(points.betas, points.hs), [(claim, points)])[0]

    return check


def _sweep(family: ModelFamily, lambda_min: float, claims) -> list:
    """What each (claim, points) returns, its points all read in one
    ModelFamily.sweep at lambda_min, the depth of every claim.

    The claims that list a point read it one after another, those whose
    readers detour off it last, so that the thread's last pass serves the
    rest. A point whose solve, step to h or read failed reads NaN in each
    claim it serves and is listed among that claim's failed points."""
    order = sorted(range(len(claims)), key=lambda k: claims[k][1].detours)
    values = dict(zip(order, family.sweep(
        lambda_min, [(claims[k][1].betas, claims[k][1].hs, claims[k][1].read) for k in order])))
    outs = []
    for k, (claim, points) in enumerate(claims):
        failed = [v for v in values[k] if isinstance(v, dict)]
        table = [(math.nan,) * points.width if isinstance(v, dict) else v for v in values[k]]
        try:
            claim.send((np.array(table, dtype=float).reshape(len(table), points.width), failed))
        except StopIteration as ruled:
            outs.append(ruled.value)
    return outs


def _report(claim: ClaimId, family: ModelFamily, betas, hs, status: Status,
            worst: float, tolerance: float, notes: dict, failed=(),
            **grid) -> VerificationReport:
    grid = {"beta": [float(b) for b in np.atleast_1d(betas)],
            "h": [float(x) for x in np.atleast_1d(hs)], **grid}
    if failed:  # a point that was not read keeps the verdict from Holds
        notes = {**notes, "failed_points": list(failed)}
        if status is Status.HOLDS:
            status = Status.INCONCLUSIVE
    return VerificationReport(claim, family.descriptor(), grid, status, worst,
                              tolerance, notes)


# ---------------------------------------------------------------------------
# C1_1 and C1_2: pointwise inequalities


def _pointwise(claim: ClaimId, family: ModelFamily, betas, hs, read):
    """Rule on read(point) -> (margin, bound, reference) at every (beta, h) of
    the grids (default_beta_grid and default_h_grid for None)."""
    betas = _grid(betas, default_beta_grid)
    hs = _grid(hs, default_h_grid)
    values, failed = yield _Points(betas, hs, read, 3)
    margins, bounds, references = values.T
    worst, worst_point = math.nan, None
    if not np.all(np.isnan(margins)):
        i = int(np.nanargmin(margins))
        worst = float(margins[i])
        worst_point = {"beta": float(betas[i % len(betas)]), "h": float(hs[i // len(betas)]),
                       "bound": float(bounds[i]),
                       "relative_margin": float(margins[i] / references[i])}
    status = _classify(margins, bounds, 0.0)
    notes = {"worst_point": worst_point, "points": len(margins) - len(failed)}
    return _report(claim, family, betas, hs, status, worst, 0.0, notes, failed)


@_claim
def check_c11(family: ModelFamily, betas=None, hs=None):
    """(2 pi h)^N Z_q <= Z_c at every grid point, margins beyond error bounds."""
    return (yield from _pointwise(ClaimId.C1_1, family, betas, hs, lambda point: point.z))


@_claim
def check_c12(family: ModelFamily, betas=None, hs=None):
    """E_q >= E_c pointwise; evidence-gathering (the general claim is open)."""
    return (yield from _pointwise(ClaimId.C1_2, family, betas, hs, lambda point: point.e))


# ---------------------------------------------------------------------------
# C1_3: the high-temperature limit


ASYMPTOTIC_WINDOW = 0.02  # |ratio - 1| below this at the endpoint counts as reached


def _window_approach(series) -> tuple[Status, float, bool]:
    """(status, worst margin, window reached) for gap series meant to shrink
    monotonically into ASYMPTOTIC_WINDOW.

    series holds (gaps, errs) array pairs in approach order. Each consecutive
    shrink gaps[i] - gaps[i+1] is a margin with bound errs[i] + errs[i+1].
    Holds needs every shrink to clear its bound and every final gap inside the
    window; a monotone approach short of the window is Inconclusive. Fewer
    than two points give no shrink at all: Inconclusive, worst margin NaN.
    """
    slacks = np.concatenate([g[:-1] - g[1:] for g, _ in series])
    pair_bounds = np.concatenate([e[:-1] + e[1:] for _, e in series])
    reached = all(g[-1] < ASYMPTOTIC_WINDOW for g, _ in series)
    status = _classify(slacks, pair_bounds, ASYMPTOTIC_WINDOW)
    if status is Status.HOLDS and not reached:
        status = Status.INCONCLUSIVE
    return status, float(slacks.min()) if slacks.size else math.nan, reached


@_claim
def check_c13(family: ModelFamily, betas=None, hs=None):
    """Ratios (2 pi h)^N Z_q / Z_c and E_q / E_c along beta -> 0 (default
    betas 1 down to 1/256) at the first h.

    Worst margin is the smallest consecutive shrink of |ratio - 1| (negative
    means the ratio moved away from 1). Holds additionally requires the final
    gap below the 2% window; a monotone approach that has not yet reached the
    window reports Inconclusive, not Violated.
    """
    betas = np.sort(_grid(betas, default_c13_betas))[::-1]  # decreasing
    h = _first(hs)
    table, failed = yield _Points(betas, h, lambda p: (*_relative(p.z), *_relative(p.e)), 4)

    reports = []
    for claim, col in ((ClaimId.C1_3_Z, 0), (ClaimId.C1_3_E, 2)):
        gaps = table[:, col]
        status, worst, reached = _window_approach([(gaps, table[:, col + 1])])
        # log-log slope of |ratio - 1| against beta, a rate diagnostic
        with np.errstate(divide="ignore"):
            mask = gaps > 0
            slope = float(np.polyfit(np.log(betas[mask]), np.log(gaps[mask]), 1)[0]) \
                if mask.sum() >= 2 else math.nan
        reports.append(_report(claim, family, betas, [h], status, worst, ASYMPTOTIC_WINDOW, {
            "gaps": [float(g) for g in gaps],
            "final_gap": float(gaps[-1]),
            "window": ASYMPTOTIC_WINDOW,
            "window_reached": reached,
            "loglog_slope": slope,
        }, failed))
    return reports


# ---------------------------------------------------------------------------
# T3_1: the integrated energy-difference identity


@_claim
def check_t31(family: ModelFamily, betas=None, hs=None, tau: float | None = None):
    """Quadrature of E_q - E_c over [tau, beta] against the log-ratio difference,
    with beta the largest of betas and the first h (default tau = 1e-3 beta).

    The one point read through the sweep is (tau, h), at tau's depth; the
    integrand reads each gamma off that point's levels, at gamma phi(h), and
    so does the top of the integral, (beta, h). The two sides run
    through independent code paths (energy-weighted sums vs partition sums).
    Also asserts the integral is >= -1e-3, its small-tau non-negativity."""
    beta = 1.0 if betas is None else float(np.max(betas))
    h = _first(hs)
    if tau is None:
        tau = 1e-3 * beta
    if not (0.0 < tau <= beta):
        raise ValueError("need 0 < tau <= beta")
    pot = family.potential
    n_log = pot.dimension * math.log(2.0 * math.pi * h)

    def log_ratio(point: ThermoPoint) -> tuple[float, float]:
        log_zq, rel_z = point.log_z
        zc, zc_err = point.zc
        return math.log(zc) - n_log - log_zq, zc_err / zc + rel_z

    def read(point: ThermoPoint) -> tuple[float, ...]:
        spec, scale = point.spectrum, point.scale
        if tau == beta:
            lhs, quad_err = 0.0, 0.0
        else:
            # imported here, not at the top: scipy.integrate (with scipy.optimize)
            # costs about 0.3 s at start-up, and no other command needs it
            from scipy import integrate

            lhs, quad_err = integrate.quad(
                lambda gamma: scale * mean_energy_quantum(spec, gamma * scale)
                - mean_energy_classical(pot, gamma),
                tau, beta, epsabs=1e-12, epsrel=1e-9, limit=300,
            )
        top = ThermoPoint(pot, spec, beta, point.planck, scale)
        return lhs, quad_err, *log_ratio(top), *log_ratio(point)

    values, failed = yield _Points(tau, h, read, 6, detours=True)
    lhs, quad_err, top, top_err, bot, bot_err = map(float, values[0])
    rhs = top - bot
    tol = 1e-3 * max(1.0, abs(rhs))
    residual_margin = tol - abs(lhs - rhs)
    nonneg_margin = lhs + 1e-3
    margins = np.array([residual_margin, nonneg_margin])
    bounds = np.array([quad_err + top_err + bot_err, quad_err])
    return _report(
        ClaimId.T3_1, family, beta, h, _classify(margins, bounds, 0.0),
        float(margins.min()), tol,
        {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs, "quad_error": quad_err},
        failed, tau=float(tau),
    )


# ---------------------------------------------------------------------------
# T4_1: entropy monotonicity


@_claim
def check_t41(family: ModelFamily, betas=None, hs=None):
    """S_q strictly decreasing along beta at fixed h and along h at fixed beta.

    Monotonicity is checked on log S_q (ThermoPoint.log_s), -inf only on one
    level, which makes a sweep vacuous. The h direction rests on the exact
    scaling law, so on tabulated wells T4_1_h is reported Inconclusive with
    notes["applicable"] = False.
    """
    betas = np.sort(_grid(betas, default_beta_grid))
    hs = np.sort(_grid(hs, default_h_grid))
    values, failed = yield _Points(betas, hs, lambda p: p.log_s, 2)
    log_s, err = values.reshape(len(hs), len(betas), 2).T  # [beta, h]
    vacuous = bool(np.any(log_s == -math.inf))

    reports = []
    for claim, axis in ((ClaimId.T4_1_beta, 0), (ClaimId.T4_1_h, 1)):
        status, worst = Status.INCONCLUSIVE, math.nan
        notes = {"margin_scale": "log S_q differences", "vacuous": vacuous}
        if axis == 1 and family.potential.kind is PotentialKind.TABULATED:
            notes = {"applicable": False, "reason": (
                "S_q is monotone in h for wells with the exact scaling law "
                "E_n(h) = h^a E_n(1); a tabulated well has none")}
        elif not vacuous:
            diffs = -np.diff(log_s, axis=axis)  # positive where S decreases
            pair_err = err[:-1, :] + err[1:, :] if axis == 0 else err[:, :-1] + err[:, 1:]
            if np.all(np.isfinite(diffs)):
                status = _classify(diffs.ravel(), pair_err.ravel(), 0.0)
                worst = float(diffs.min()) if diffs.size else math.nan
        reports.append(_report(claim, family, betas, hs, status, worst, 0.0, notes, failed))
    return reports


# ---------------------------------------------------------------------------
# C4_1 and the power-law propositions


@_claim
def check_c41_and_props(family: ModelFamily, betas=None, hs=None):
    """Power-law potentials, at the first beta over hs (default 0.5 to 4):
    h^N Z_q decreasing in h; the log-derivative identity
    d log(h^N Z_q)/dh = (N - alpha beta E_q)/h with alpha = 2 nu / (2 + nu);
    and the sign equivalence E_q > E_c  <=>  d/dh (h^N Z_q) < 0. The
    derivative reads Z_q(beta, h s) = Z_q(beta s^alpha, h) off the point's
    levels, at lambda s^alpha."""
    if family.potential.kind is not PotentialKind.HOMOGENEOUS:
        raise ValueError("check_c41_and_props applies to power-law potentials")
    hs = np.sort(_grid(hs, default_c41_hs))
    beta = _first(betas)
    alpha = family.energy_exponent
    n_dim = family.potential.dimension
    delta = 1e-4

    # one row per h: log h^N Z_q and its relative error, E_q and its error,
    # E_q - E_c, and the P4_1 derivative residual relative to the analytic
    # side with its bound
    def read(point):
        h = point.planck
        log_zq, rel_z = point.log_z
        eq, e_err, gap = point.e_quantum, point.e_quantum_error, point.e[0]
        log_g = [n_dim * math.log(h * s) + log_z_quantum(point.spectrum, point.lam * s**alpha)[0]
                 for s in (1 + delta, 1 - delta, 1 + delta / 2, 1 - delta / 2)]
        d_coarse = (log_g[0] - log_g[1]) / (2 * h * delta)
        d_fine = (log_g[2] - log_g[3]) / (h * delta)
        analytic = (n_dim - alpha * beta * eq) / h
        fd_trunc = abs(d_fine - d_coarse) / 3.0
        return (
            n_dim * math.log(h) + log_zq, rel_z, eq, e_err, gap,
            abs(d_fine - analytic) / max(abs(analytic), 1e-30),
            (fd_trunc + alpha * beta * e_err / h + 2 * rel_z / (h * delta))
            / max(abs(analytic), 1e-30),
        )

    table, failed = yield _Points(beta, hs, read, 7, detours=True)
    log_g_grid, zq_rel_err, eq_vals, eq_errs, a_vals, residuals, fd_bounds = table.T

    # C4_1: monotone decrease of h^N Z_q, margins on the log scale
    slacks = log_g_grid[:-1] - log_g_grid[1:]
    pair_bounds = zq_rel_err[:-1] + zq_rel_err[1:] + 1e-13
    c41 = _report(
        ClaimId.C4_1, family, beta, hs, _classify(slacks, pair_bounds, 0.0),
        float(slacks.min()) if slacks.size else math.nan, 0.0,
        {"margin_scale": "log(h^N Z_q) differences"}, failed,
    )

    p41_tol = 1e-5
    p41_margins = p41_tol - residuals
    p41 = _report(
        ClaimId.P4_1, family, beta, hs, _classify(p41_margins, fd_bounds, 0.0),
        float(p41_margins.min()), p41_tol,
        {"max_residual": float(residuals.max()), "fd_step": delta}, failed,
    )

    # P4_3: sign equivalence, margin +1 for opposite signs, -1 for matching
    b_vals = n_dim - alpha * beta * eq_vals
    prod = -a_vals * b_vals
    denom = np.abs(a_vals) * np.abs(b_vals) + 1e-300
    margins43 = prod / denom
    bounds43 = np.where(
        (np.abs(a_vals) <= eq_errs) | (np.abs(b_vals) <= alpha * beta * eq_errs),
        2.0,  # sign not resolvable at this point
        1e-9,
    )
    p43 = _report(
        ClaimId.P4_3, family, beta, hs, _classify(margins43, bounds43, 0.5),
        float(margins43.min()), 0.5,
        {"signs_opposite_everywhere": bool(np.all(margins43 > 0))}, failed,
    )
    return [c41, p41, p43]


# ---------------------------------------------------------------------------
# the h -> 0 classical limit


@_claim
def check_wehrl(family: ModelFamily, betas=None, hs=None):
    """E_q -> E_c, (2 pi h)^N Z_q -> Z_c, and S_q - S_c -> 0 as h decreases
    (default hs 1 down to 1/64) at the first beta.

    Holds when all three gaps shrink monotonically over the last four points
    and the final gaps sit inside the 2% window (relative for energies and
    partition sums, absolute for the entropy difference)."""
    hs = np.sort(_grid(hs, default_wehrl_hs))[::-1]  # decreasing h
    beta = _first(betas)
    table, failed = yield _Points(
        beta, hs, lambda p: (*_relative(p.z), *_relative(p.e), abs(p.s[0]), p.s[1]), 6)
    status, worst, final_ok = _window_approach(
        [(table[-4:, k], table[-4:, k + 1]) for k in (0, 2, 4)]
    )
    return _report(ClaimId.WEHRL_S, family, beta, hs, status, worst, ASYMPTOTIC_WINDOW, {
        "energy_gaps": [float(x) for x in table[:, 2]],
        "partition_gaps": [float(x) for x in table[:, 0]],
        "entropy_gaps": [float(x) for x in table[:, 4]],
        "final_gaps_in_window": final_ok,
    }, failed)


# ---------------------------------------------------------------------------
# driver


CLAIM_CHECKS = {
    "c11": check_c11,
    "c12": check_c12,
    "c13": check_c13,
    "t31": check_t31,
    "t41": check_t41,
    "c41": check_c41_and_props,
    "wehrl": check_wehrl,
}

# the bodies of CLAIM_CHECKS, which run_claims reads together
_BODIES = {key: check.__wrapped__ for key, check in CLAIM_CHECKS.items()}

#: the grids a claim rules on through differences of neighbouring points
COMPARED_GRIDS = {"c13": ("beta",), "t41": ("beta", "h"), "c41": ("h",), "wehrl": ("h",)}


def run_claims(family: ModelFamily, keys, betas=None, hs=None) -> list[VerificationReport]:
    """Run the named checks (c11, c12, c13, t31, t41, c41, wehrl) on one family,
    each over the grids given (None: its default), with the reports of each
    check's own call. The keys are checked before any check runs: at least
    one, each known, none twice, and each given at least two values of every
    grid it compares neighbours along.

    Each claim reads the levels its own call would read, solved in the order
    given: the family keeps the deepest solve at each h, so a claim that
    needs more depth than those before it solves anew. Consecutive claims
    whose grids ask for the same depth (ModelFamily.lambda_min) read the
    same levels and share one sweep (_sweep); a claim at another depth is
    solved after that sweep."""
    keys = list(keys)
    expected = f"expected one of {sorted(CLAIM_CHECKS)}"
    if not keys:
        raise ValueError(f"no claim to check; {expected}")
    for i, key in enumerate(keys):
        if key not in CLAIM_CHECKS:
            raise ValueError(f"unknown claim id {key!r}; {expected}")
        if key in keys[:i]:
            raise ValueError(f"claim {key} is named twice")
        for axis in COMPARED_GRIDS.get(key, ()):
            grid = {"beta": betas, "h": hs}[axis]
            if grid is not None and np.size(grid) < 2:
                raise ValueError(
                    f"claim {key} compares neighbouring grid points and needs at "
                    f"least two values of --{axis}, got {np.size(grid)}")
    claims = [_BODIES[key](family, betas, hs) for key in keys]
    # what each reads, before any solve, in runs of claims at one depth
    read = [(claim, next(claim)) for claim in claims]
    runs = itertools.groupby(read, key=lambda c: family.lambda_min(c[1].betas, c[1].hs))
    outs = [out for lam, run in runs for out in _sweep(family, lam, list(run))]
    return [r for out in outs for r in ([out] if isinstance(out, VerificationReport) else out)]
