import itertools
import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcgibbs import (
    ClaimId,
    Status,
    box_family,
    check_c11,
    check_c12,
    check_c13,
    check_c41_and_props,
    check_t31,
    check_t41,
    check_wehrl,
    homogeneous_family,
    load_tabulated_csv,
    reports_to_json,
    run_claims,
    tabulated_family,
)
from qcgibbs.ensemble import entropy_classical, entropy_quantum, z_classical, z_quantum
from qcgibbs.verify import THEOREM_CLAIMS, _classify, report_from_dict

SEED0_WELL = Path(__file__).parent / "data" / "seed0_double_well.csv"
SMALL_BETAS = np.array([0.1, 1.0, 10.0])
SMALL_HS = np.array([0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# C1_1


def test_c11_box_small_grid(box1):
    rep = check_c11(box1, SMALL_BETAS, SMALL_HS)
    assert rep.status is Status.HOLDS
    assert rep.worst_margin > 0
    assert rep.claim_id is ClaimId.C1_1


def test_c11_oscillator_small_grid(oscillator):
    rep = check_c11(oscillator, SMALL_BETAS, SMALL_HS)
    assert rep.status is Status.HOLDS


def test_c11_cold_limit_margin_is_classical_sum(box1):
    rep = check_c11(box1, np.array([50.0]), np.array([1.0]))
    zc, _ = z_classical(box1.potential, 50.0)
    assert rep.worst_margin == pytest.approx(zc, rel=1e-6)


def test_c11_downgrades_on_fat_error_bars(box1):
    # a spectrum whose injected level errors swamp the margin must not pass
    from qcgibbs.models import ModelFamily
    from qcgibbs.spectrum import Spectrum, SpectrumSource, solve_box

    class Noisy(ModelFamily):
        def base_spectrum(self, lambda_min):
            spec = solve_box(1, self.potential.lengths, 1.0, 1.0, 400)
            errs = np.full(spec.count, 100.0)
            return Spectrum(spec.levels, 1.0, SpectrumSource.ANALYTIC_BOX,
                            level_errors=errs)

    fam = Noisy(box1.potential, "noisy_box")
    rep = check_c11(fam, np.array([1.0]), np.array([1.0]))
    assert rep.status is Status.INCONCLUSIVE


# ---------------------------------------------------------------------------
# C1_2


def test_c12_box_and_oscillator(box1, oscillator):
    for fam in (box1, oscillator):
        rep = check_c12(fam, SMALL_BETAS, SMALL_HS)
        assert rep.status is Status.HOLDS
        assert rep.worst_margin > 0


def test_c12_cold_limit_margin_is_ground_level(box1):
    beta = 50.0
    rep = check_c12(box1, np.array([beta]), np.array([1.0]))
    e1 = math.pi**2 / 2
    assert rep.worst_margin == pytest.approx(e1 - 1 / (2 * beta), rel=1e-8)


def test_c12_violated_on_the_seed0_double_well():
    # the benchmark's seed-0 noisy double well (perfbench.workloads.double_well_rows
    # on random.Random("tabulated-table/0")) breaks E_q >= E_c by 0.76% at the
    # worst point of the default verify grid, against a bound of 2.8e-9
    well = load_tabulated_csv(Path(__file__).parent / "data" / "seed0_double_well.csv")
    rep = check_c12(tabulated_family(well), np.array([0.046415888336127774]),
                    np.array([0.6851754923600619]))
    assert rep.status is Status.VIOLATED
    assert rep.notes["worst_point"]["relative_margin"] < -0.007


# ---------------------------------------------------------------------------
# C1_3


def test_c13_box_monotone_but_outside_window(box1):
    # the box boundary correction decays like sqrt(beta): monotone approach,
    # still ~8 percent away from 1 at beta = 1/256
    reps = check_c13(box1)
    by_id = {r.claim_id: r for r in reps}
    assert set(by_id) == {ClaimId.C1_3_Z, ClaimId.C1_3_E}
    for rep in reps:
        assert rep.status is Status.INCONCLUSIVE
        assert rep.worst_margin > 0  # gaps strictly shrinking
        assert not rep.notes["window_reached"]
    assert by_id[ClaimId.C1_3_Z].notes["final_gap"] == pytest.approx(0.0783, abs=2e-4)
    assert by_id[ClaimId.C1_3_E].notes["final_gap"] == pytest.approx(0.0850, abs=2e-4)


def test_c13_oscillator_reaches_window(oscillator):
    reps = check_c13(oscillator)
    for rep in reps:
        assert rep.status is Status.HOLDS
        assert rep.notes["final_gap"] < 0.02


def test_c13_single_point_is_inconclusive(oscillator):
    # one beta gives no consecutive shrink, so no evidence of an approach
    for rep in check_c13(oscillator, betas=[1.0 / 256.0]):
        assert rep.status is Status.INCONCLUSIVE
        assert math.isnan(rep.worst_margin)


def test_c13_repeated_beta_fits_no_slope(box1):
    # one distinct beta fits no line: NaN, with no RankWarning (which the
    # warnings filter would turn into a failure)
    z, e = check_c13(box1, [0.5, 0.5])
    assert math.isnan(z.notes["loglog_slope"]) and math.isnan(e.notes["loglog_slope"])


def test_c13_self_comparison_is_identity(box1):
    # replacing the quantum side by Z_c/(2 pi h)^N forces the ratio to 1
    betas = [1.0, 0.5, 0.25]
    for beta in betas:
        zc, _ = z_classical(box1.potential, beta)
        assert (2 * math.pi) * (zc / (2 * math.pi)) / zc == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# T3_1


def test_t31_box(box1):
    rep = check_t31(box1, [1.0], [1.0])
    assert rep.status is Status.HOLDS
    assert rep.notes["lhs"] > 0
    assert abs(rep.notes["residual"]) < 1e-3 * max(1.0, abs(rep.notes["rhs"]))


def test_t31_empty_interval(box1):
    rep = check_t31(box1, [1.0], [1.0], tau=1.0)
    assert rep.notes["lhs"] == 0.0
    assert rep.notes["rhs"] == 0.0


def test_t31_oscillator(oscillator):
    rep = check_t31(oscillator, [2.0], [1.0], tau=2e-3)
    assert rep.status is Status.HOLDS


def test_t31_holds_on_every_family(box1, wedge, oscillator, quartic):
    # theorem-class: must hold on every shipped family (tau kept above the
    # depth the level cap supports for the slowly-growing wedge spectrum)
    for fam in (box1, wedge, oscillator, quartic):
        rep = check_t31(fam, [1.0], [1.0], tau=5e-3)
        assert rep.status is Status.HOLDS, fam.label


def test_resource_cap_reports_reachable_depth():
    from qcgibbs import ResourceError, homogeneous_family

    fam = homogeneous_family(1.0)
    fam.level_cap = 10_000
    with pytest.raises(ResourceError, match="beta \\* phi"):
        fam.base_spectrum(1e-4)


# ---------------------------------------------------------------------------
# T4_1


def test_t41_box(box1):
    reps = check_t41(box1, SMALL_BETAS, SMALL_HS)
    assert [r.claim_id for r in reps] == [ClaimId.T4_1_beta, ClaimId.T4_1_h]
    for rep in reps:
        assert rep.status is Status.HOLDS
        assert rep.worst_margin > 0


def test_t41_entropy_via_psi_route_agrees(oscillator):
    # S_q(beta, h) equals the h-independent profile at lam = beta * phi(h)
    from qcgibbs.ensemble import psi

    lam_min = 0.25
    spec = oscillator.spectrum(2.0, lam_min)
    s_direct = entropy_quantum(spec, 0.5)
    base = oscillator.base_spectrum(lam_min)
    value, _ = psi(base.levels, 0.5 * oscillator.phi(2.0))
    assert s_direct == pytest.approx(value, abs=1e-10)


def test_base_cache_keeps_the_deeper_base():
    # a shallower request that waits on the h = 1 lock while another table
    # thread stores a deeper base gets that base and solves nothing
    deep = homogeneous_family(2.0).base_spectrum(0.01)
    fam = homogeneous_family(2.0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        with fam._locks.setdefault(1.0, threading.Lock()):
            waiting = pool.submit(fam.base_spectrum, 1.0)
            fam._memo[1.0] = deep
        assert waiting.result(timeout=60) is deep
    assert fam.base_spectrum(0.01) is deep
    deeper = fam.base_spectrum(0.001)  # beyond the stored depth: solved again
    assert deeper.count > deep.count and fam._memo[1.0] is deeper


def test_t41_single_beta_is_inconclusive_along_beta(oscillator):
    # one beta gives no neighbour along beta; the h direction still rules
    beta_rep, h_rep = check_t41(oscillator, [1.0], [1.0, 2.0])
    assert beta_rep.status is Status.INCONCLUSIVE and math.isnan(beta_rep.worst_margin)
    assert h_rep.status is Status.HOLDS


def test_t41_single_level_is_inconclusive(monkeypatch):
    import qcgibbs.models as models_mod

    one_level = models_mod.oscillator_spectrum(1)
    monkeypatch.setattr(models_mod, "oscillator_spectrum", lambda count, mass: one_level)
    fam = homogeneous_family(2.0)
    reps = check_t41(fam, np.array([0.5, 1.0]), np.array([1.0, 2.0]))
    for rep in reps:
        assert rep.status is Status.INCONCLUSIVE
        assert rep.notes["vacuous"]


# ---------------------------------------------------------------------------
# C4_1, P4_1, P4_3


def test_c41_and_props_oscillator(oscillator):
    c41, p41, p43 = check_c41_and_props(oscillator, [1.0])
    assert c41.claim_id is ClaimId.C4_1 and c41.status is Status.HOLDS
    assert p41.claim_id is ClaimId.P4_1 and p41.status is Status.HOLDS
    assert p41.notes["max_residual"] < 1e-5
    assert p43.claim_id is ClaimId.P4_3 and p43.status is Status.HOLDS
    assert p43.notes["signs_opposite_everywhere"]


def test_c41_rejects_box(box1):
    with pytest.raises(ValueError):
        check_c41_and_props(box1)


def test_c41_reads_only_its_own_points(monkeypatch):
    # P4_1's neighbours h s come off each point's levels by the scaling law:
    # one step to each swept h, none off the grid, and one Spectrum, the base
    import qcgibbs.models as models_mod
    import qcgibbs.spectrum as spectrum_mod

    fetched, built = [], []
    real, init = models_mod.ModelFamily.levels_at, spectrum_mod.Spectrum.__init__

    def counting(self, planck, lambda_min):
        fetched.append(planck)
        return real(self, planck, lambda_min)

    monkeypatch.setattr(models_mod.ModelFamily, "levels_at", counting)
    monkeypatch.setattr(spectrum_mod.Spectrum, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    hs = [0.5, 1.0, 2.0, 4.0]
    reports = check_c41_and_props(homogeneous_family(4.0), [1.0], hs)
    assert fetched == hs and len(built) == 1
    assert all(rep.status is not Status.VIOLATED for rep in reports)


def test_p41_derivative_vanishes_as_beta_shrinks(oscillator):
    # N - alpha beta E_q -> 0 from below in the high-temperature limit
    lam_min = 0.01
    spec = oscillator.spectrum(1.0, lam_min)
    from qcgibbs.ensemble import mean_energy_quantum

    beta = 0.05
    factor = 1.0 - beta * mean_energy_quantum(spec, beta)
    assert -1e-2 < factor < 0.0


# ---------------------------------------------------------------------------
# the h -> 0 limit


def test_wehrl_box(box1):
    rep = check_wehrl(box1)
    assert rep.status is Status.HOLDS
    for key in ("energy_gaps", "partition_gaps", "entropy_gaps"):
        gaps = rep.notes[key]
        assert all(a > b for a, b in zip(gaps[-4:], gaps[-3:]))
    assert rep.notes["entropy_gaps"][-1] < 0.02


def test_wehrl_oscillator(oscillator):
    rep = check_wehrl(oscillator)
    assert rep.status is Status.HOLDS


def test_wehrl_single_point_is_inconclusive(oscillator):
    rep = check_wehrl(oscillator, hs=[1.0 / 64.0])
    assert rep.status is Status.INCONCLUSIVE
    assert math.isnan(rep.worst_margin)


@pytest.mark.parametrize("make", [lambda: box_family([1.0]), lambda: homogeneous_family(2.0)])
def test_c13_and_wehrl_share_gaps_and_bounds_at_beta_1_h_1(make, monkeypatch):
    # both checks form the partition and energy gaps, and their bounds, by
    # one formula each; WEHRL_S runs first, so C1_3 reuses its deeper base
    # and both sum the same levels
    import qcgibbs.verify as verify_mod

    firsts = []  # (gap, bound) at the first point of every series ruled on
    real = verify_mod._window_approach

    def spy(series):
        firsts.append([(float(g[0]), float(e[0])) for g, e in series])
        return real(series)

    monkeypatch.setattr(verify_mod, "_window_approach", spy)
    fam = make()
    wehrl = check_wehrl(fam, [1.0], [1.0, 0.5])
    c13_z, c13_e = check_c13(fam, [1.0, 0.5], [1.0])
    assert (wehrl.grid["beta"][0], wehrl.grid["h"][0]) == (1.0, 1.0)
    assert (c13_z.grid["beta"][0], c13_z.grid["h"][0]) == (1.0, 1.0)
    assert wehrl.notes["partition_gaps"][0] == c13_z.notes["gaps"][0]
    assert wehrl.notes["energy_gaps"][0] == c13_e.notes["gaps"][0]
    (from_wehrl, [from_c13_z], [from_c13_e]) = firsts
    assert from_c13_z in from_wehrl and from_c13_e in from_wehrl


def test_wehrl_identity_composition(box1):
    # S_q - S_c recomputed through the partition/energy gaps agrees to 1e-10
    beta, h = 1.0, 0.125
    spec = box1.spectrum(h, beta * h**2)
    sq = entropy_quantum(spec, beta)
    sc = entropy_classical(box1.potential, beta, h)
    zq, _ = z_quantum(spec, beta)
    zc, _ = z_classical(box1.potential, beta)
    from qcgibbs.ensemble import mean_energy_classical, mean_energy_quantum

    eq = mean_energy_quantum(spec, beta)
    ec = mean_energy_classical(box1.potential, beta)
    composed = beta * (eq - ec) + math.log(2 * math.pi * h * zq / zc)
    assert (sq - sc) == pytest.approx(composed, abs=1e-10)


# ---------------------------------------------------------------------------
# reports and the driver


def test_reports_serialize_and_round_trip(box1):
    reps = run_claims(box1, ["c11", "t31"], SMALL_BETAS, SMALL_HS)
    text = reports_to_json(reps)
    data = json.loads(text)
    assert len(data) == 2
    back = [report_from_dict(d) for d in data]
    assert [r.claim_id for r in back] == [r.claim_id for r in reps]
    assert [r.status for r in back] == [r.status for r in reps]
    assert back[0].worst_margin == reps[0].worst_margin


def test_run_claims_rejects_unknown_key(box1):
    with pytest.raises(ValueError):
        run_claims(box1, ["nope"])


@pytest.mark.parametrize("keys, betas, hs, named", [
    (["t41"], [0.5], None, "claim t41 compares neighbouring grid points and needs at "
                           "least two values of --beta, got 1"),
    (["c11", "wehrl"], None, [0.5], "claim wehrl compares neighbouring grid points and "
                                    "needs at least two values of --h, got 1"),
], ids=["t41-beta", "wehrl-h"])
def test_run_claims_refuses_one_point_before_any_solve(keys, betas, hs, named, monkeypatch):
    import qcgibbs.models as models_mod

    def no_solve(*args):
        raise AssertionError("a spectrum was requested")

    monkeypatch.setattr(models_mod.ModelFamily, "spectrum", no_solve)
    monkeypatch.setattr(models_mod.ModelFamily, "base_spectrum", no_solve)
    with pytest.raises(ValueError, match=re.escape(named)):
        run_claims(homogeneous_family(2.0), keys, betas, hs)


@pytest.mark.parametrize("key, reader", [
    ("c11", "z_quantum"),
    ("c12", "mean_energy_quantum"),
    ("c13", "z_quantum"),
    ("t41", "log_entropy_quantum"),
    ("c41", "log_z_quantum"),
    ("wehrl", "entropy_quantum"),
])
def test_a_failed_point_is_listed_and_keeps_its_claim_from_holds(key, reader, monkeypatch):
    # every sweeping claim records a point whose read raises and rules on the
    # rest; h = 1 is the first of five hs, outside WEHRL_S's last four. A
    # check's point is an ensemble.ThermoPoint, which calls the readers of
    # qcgibbs.ensemble.
    import qcgibbs.ensemble as ensemble_mod
    from qcgibbs.errors import TruncationError

    betas, hs = [1.0, 0.5, 0.25], [1.0, 0.5, 0.25, 0.125, 0.0625]
    clean = run_claims(homogeneous_family(2.0), [key], betas, hs)
    assert all(rep.status is Status.HOLDS for rep in clean)
    real = getattr(ensemble_mod, reader)

    def failing(spec, beta):
        if (beta, spec.planck) == (1.0, 1.0):
            raise TruncationError("tail too heavy at beta = 1, h = 1")
        return real(spec, beta)

    monkeypatch.setattr(ensemble_mod, reader, failing)
    reports = run_claims(homogeneous_family(2.0), [key], betas, hs)
    assert len(reports) == len(clean)
    for rep in reports:
        assert rep.notes["failed_points"] == [
            {"beta": 1.0, "h": 1.0, "error": "tail too heavy at beta = 1, h = 1"}]
        assert rep.status is not Status.HOLDS


def test_a_failed_deferred_bar_fails_the_points_that_read_it(double_well_potential,
                                                              monkeypatch):
    # a sine basis solves its bars on their first read: where that raises,
    # the sweep fails the points at that h that read bars, while table rows,
    # which read none, all pass
    import qcgibbs.models as models_mod
    from qcgibbs.ensemble import thermo_point
    from qcgibbs.errors import AccuracyError
    from qcgibbs.spectrum import Spectrum

    solve = models_mod.solve_sine_basis

    def failing_bars():
        raise AccuracyError("no lower bound at h=0.5")

    def solve_with_failing_bars(potential, planck, **kwargs):
        spec = solve(potential, planck, **kwargs)
        if planck == 0.5:
            spec = Spectrum(spec.levels, planck, spec.source, level_errors=failing_bars)
        return spec

    monkeypatch.setattr(models_mod, "solve_sine_basis", solve_with_failing_bars)
    fam = tabulated_family(double_well_potential)
    betas, hs = [0.5, 1.0], [0.5, 1.0]
    [rows] = fam.sweep([(betas, hs, thermo_point)])
    assert not any(isinstance(row, dict) for row in rows)
    [rep] = run_claims(fam, ["c11"], betas, hs)
    assert rep.notes["failed_points"] == [
        {"beta": beta, "h": 0.5, "error": "no lower bound at h=0.5"} for beta in betas]
    assert rep.status is not Status.HOLDS


@pytest.mark.parametrize("keys", [["c11", "t31"], ["t31", "c11"]])
def test_a_failed_t31_fetch_keeps_every_report(keys):
    # T3_1's one point, (tau, h) = (1e-3 * 2, 1), needs 68 box levels, above
    # a cap of 20: it fails through the sweep like any other point, and C1_1
    # still rules on its own
    fam = box_family(1.0)
    fam.level_cap = 20
    reports = run_claims(fam, keys, [1, 2], [1])
    assert [rep.claim_id for rep in reports] == [
        {"c11": ClaimId.C1_1, "t31": ClaimId.T3_1}[key] for key in keys]
    c11, t31 = sorted(reports, key=lambda rep: rep.claim_id.value)
    assert c11.status is Status.HOLDS
    assert t31.status is Status.INCONCLUSIVE
    assert [(f["beta"], f["h"]) for f in t31.notes["failed_points"]] == [(0.002, 1.0)]
    assert t31.notes["failed_points"][0]["error"].startswith(
        "box1: sweep needs 68 levels, above the cap 20")
    assert math.isnan(t31.worst_margin) and math.isnan(t31.notes["lhs"])


@pytest.mark.parametrize("claims", ["c11,c12,t41,c41", "c41,t41,c12,c11", "c41,c11,c12,t41"])
def test_claims_share_one_pass_per_spectrum_and_beta(claims, monkeypatch, capsys):
    # four claims over 3 betas and 2 hs share one sweep: one Spectrum, the
    # base, one pass at each of the 6 points, which each point keeps, and
    # P4_1's 4 neighbours at each of c41's 2 points, whatever the claim
    # order; claim by claim it took 28 passes
    import qcgibbs.cli as cli
    import qcgibbs.ensemble as ensemble_mod
    import qcgibbs.spectrum as spectrum_mod

    passes, built = [], []
    init, build = ensemble_mod.BoltzmannPass.__init__, spectrum_mod.Spectrum.__init__
    monkeypatch.setattr(ensemble_mod.BoltzmannPass, "__init__",
                        lambda self, *args: passes.append(args) or init(self, *args))
    monkeypatch.setattr(spectrum_mod.Spectrum, "__init__",
                        lambda self, *args, **kw: built.append(args) or build(self, *args, **kw))
    assert cli.main(["verify", "--model", "homogeneous", "--nu", "4", "--claims", claims,
                     "--beta", "0.5,1,2", "--h", "0.5,1"]) == 0
    capsys.readouterr()
    assert (len(passes), len(built)) == (14, 1)


def _one_by_one(family, keys, betas=None, hs=None) -> str:
    """The reports of each check called on its own, in turn, on one family."""
    from qcgibbs.verify import CLAIM_CHECKS, VerificationReport

    reports = []
    for key in keys:
        out = CLAIM_CHECKS[key](family, betas, hs)
        reports += [out] if isinstance(out, VerificationReport) else out
    return reports_to_json(reports)


def _nu4_at_c11_depth():
    """x^4 with its base solved at C1_1's default depth, deeper than C1_3's."""
    from qcgibbs.verify import default_beta_grid, default_h_grid

    fam = homogeneous_family(4.0)
    fam.base_spectrum(fam.lambda_min(default_beta_grid(), default_h_grid()))
    return fam


def _well_at_c11_depth():
    """The seed-0 well solved at C1_1's depth, its smallest beta 0.5, at
    each h; wehrl's beta, 2, is shallower."""
    fam = tabulated_family(load_tabulated_csv(SEED0_WELL))
    for h in (1.0, 0.5, 0.25):
        fam.levels_at(h, 0.5)
    return fam


@pytest.mark.parametrize("make, keys, betas, hs, provisioned", [
    (lambda: homogeneous_family(4.0), ["c13", "c11"], None, None, _nu4_at_c11_depth),
    (lambda: homogeneous_family(4.0), ["c11", "c13"], None, None, _nu4_at_c11_depth),
    (lambda: tabulated_family(load_tabulated_csv(SEED0_WELL)), ["c11", "wehrl"],
     [2.0, 0.5], [1.0, 0.5, 0.25], _well_at_c11_depth),
    (lambda: tabulated_family(load_tabulated_csv(SEED0_WELL)), ["wehrl", "c11"],
     [2.0, 0.5], [1.0, 0.5, 0.25], _well_at_c11_depth),
], ids=["nu4-c13-c11", "nu4-c11-c13", "well-c11-wehrl", "well-wehrl-c11"])
def test_run_claims_equals_its_one_claim_calls(make, keys, betas, hs, provisioned):
    # each claim is served the levels of the run's deepest depth at each h,
    # whatever the order: its own call on a family provisioned there
    assert reports_to_json(run_claims(make(), keys, betas, hs)) == \
        _one_by_one(provisioned(), keys, betas, hs)


# every claim that reads the family, on grids whose depths differ: T3_1's
# (tau phi(h) = 0.002) is the deepest, C1_3's (h = 1) the shallowest
_EVERY_CLAIM = {
    "nu4": (lambda: homogeneous_family(4.0), ["c11", "c12", "c13", "t31", "t41", "c41", "wehrl"]),
    "box": (lambda: box_family(1.0), ["c11", "c12", "c13", "t31", "t41", "wehrl"]),
    "well": (lambda: tabulated_family(load_tabulated_csv(SEED0_WELL)),
             ["c11", "c12", "c13", "t31", "t41", "wehrl"]),
}
_IN_NAMED_ORDER: dict = {}


def _json_by_claim(reports) -> dict:
    return {rep.claim_id.value: reports_to_json([rep]) for rep in reports}


@pytest.mark.parametrize("name", sorted(_EVERY_CLAIM))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_report_does_not_depend_on_the_claim_order(name, data):
    make, keys = _EVERY_CLAIM[name]
    betas, hs = [0.5, 1.0, 2.0], [1.0, 0.5]
    if name not in _IN_NAMED_ORDER:
        _IN_NAMED_ORDER[name] = _json_by_claim(run_claims(make(), keys, betas, hs))
    order = data.draw(st.permutations(keys))
    assert _json_by_claim(run_claims(make(), order, betas, hs)) == _IN_NAMED_ORDER[name]


_README_ORDER = "c11,c12,c13,t31,t41,wehrl"


@pytest.mark.parametrize("argv, solves", [
    *((["--model", "homogeneous", "--nu", "4", "--claims", ",".join(order)], 1)
      for order in itertools.permutations(["wehrl", "c11", "c13"])),
    *((["--model", "tabulated", "--table", str(SEED0_WELL), "--claims", claims], 18)
      for claims in (_README_ORDER, ",".join(reversed(_README_ORDER.split(","))))),
], ids=[*(f"nu4-{'-'.join(o)}" for o in itertools.permutations(["wehrl", "c11", "c13"])),
        "well-readme-order", "well-reversed"])
def test_a_run_solves_each_h_once(argv, solves, monkeypatch, capsys):
    # the levels an h reads are solved once, at the deepest depth among the
    # claims that list it, whatever their order: x^4's one base, at C1_1's
    # default depth, and the seed-0 well at each of its 18 hs (claim by
    # claim, x^4 took 2 bases in some orders, the well 19 or 20 solves)
    import qcgibbs.cli as cli
    import qcgibbs.models as models_mod
    import qcgibbs.spectrum as spectrum_mod

    solved, built = [], []
    solve, init = models_mod.ModelFamily._solve, spectrum_mod.Spectrum.__init__
    monkeypatch.setattr(models_mod.ModelFamily, "_solve",
                        lambda self, *args: solved.append(args) or solve(self, *args))
    monkeypatch.setattr(spectrum_mod.Spectrum, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    assert cli.main(["verify", *argv]) == 0
    capsys.readouterr()
    assert (len(solved), len(built)) == (solves, solves)
    assert len({h for h, _ in solved}) == solves


@pytest.mark.parametrize("make, attempts", [
    (lambda: homogeneous_family(2.0), [(1.0, 0.002), (1.0, 0.5)]),
    (lambda: tabulated_family(load_tabulated_csv(SEED0_WELL)),
     [(1.0, 0.002), (1.0, 1.0), (0.5, 1.0), (2.0, 1.0)]),
], ids=["oscillator", "well"])
@pytest.mark.parametrize("keys", [["c11", "t31"], ["t31", "c11"]])
def test_a_failed_deepest_solve_fails_only_its_claim(make, attempts, keys, monkeypatch):
    # T3_1's depth, tau phi(1) = 0.002, is the deepest: its solve fails, and
    # fails T3_1's one point alone; the next deepest, C1_1's, is tried once
    # (at each h on the well), and C1_1 rules as its own call does
    import qcgibbs.models as models_mod
    from qcgibbs.errors import AccuracyError

    tried, solve = [], models_mod.ModelFamily._solve

    def failing(self, planck, lambda_min):
        tried.append((planck, lambda_min))
        if lambda_min < 0.01:
            raise AccuracyError(f"no solve at lambda={lambda_min:g}")
        return solve(self, planck, lambda_min)

    monkeypatch.setattr(models_mod.ModelFamily, "_solve", failing)
    betas, hs = [1.0, 2.0], [1.0, 0.5, 2.0]
    alone = reports_to_json([check_c11(make(), betas, hs)])
    tried.clear()
    reports = {rep.claim_id: rep for rep in run_claims(make(), keys, betas, hs)}
    assert tried == attempts
    assert reports_to_json([reports[ClaimId.C1_1]]) == alone
    t31 = reports[ClaimId.T3_1]
    assert t31.notes["failed_points"] == [
        {"beta": 0.002, "h": 1.0, "error": "no solve at lambda=0.002"}]
    assert t31.status is Status.INCONCLUSIVE and math.isnan(t31.worst_margin)


@pytest.mark.parametrize("make, keys, error", [
    (lambda: homogeneous_family(2.0), ["c11", "c12", "t41", "c41"], "no scale"),
    (lambda: tabulated_family(load_tabulated_csv(SEED0_WELL)), ["c11", "c12", "t41"],
     "no solve"),
], ids=["oscillator", "well"])
def test_a_shared_sweep_fails_each_point_in_every_claim_that_lists_it(make, keys, error,
                                                                     monkeypatch):
    # h = 0.5 fails its factor (phi) or its solve (a sine basis), and every
    # read at (beta, h) = (2, 1) fails its pass (on the oscillator, the pass
    # at lambda = beta h = 2 off the base): each claim lists the points of
    # its own grid that these serve, and rules as its own call does
    import qcgibbs.ensemble as ensemble_mod
    import qcgibbs.models as models_mod
    from qcgibbs.errors import ResourceError, TruncationError

    def failing(real, message):
        def call(*args, **kwargs):
            if args[1] == 0.5:
                raise ResourceError(message)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(models_mod.ModelFamily, "phi", failing(models_mod.ModelFamily.phi,
                                                               "no scale"))
    monkeypatch.setattr(models_mod, "solve_sine_basis",
                        failing(models_mod.solve_sine_basis, "no solve"))
    init = ensemble_mod.BoltzmannPass.__init__

    def failing_pass(self, spectrum, beta):
        if (spectrum.planck, beta) == (1.0, 2.0):
            raise TruncationError("no pass")
        init(self, spectrum, beta)

    monkeypatch.setattr(ensemble_mod.BoltzmannPass, "__init__", failing_pass)
    betas, hs = [2.0, 1.0], [1.0, 0.5, 0.25]
    reports = run_claims(make(), keys, betas, hs)
    assert reports_to_json(reports) == _one_by_one(make(), keys, betas, hs)
    at_half = [{"beta": beta, "h": 0.5, "error": error} for beta in betas]
    read = {"beta": 2.0, "h": 1.0, "error": "no pass"}
    expected = {"C1_1": [read, *at_half], "C1_2": [read, *at_half],
                "T4_1_beta": [at_half[1], at_half[0], read],  # betas and hs sorted up
                "T4_1_h": [at_half[1], at_half[0], read],
                "C4_1": [at_half[0], read], "P4_1": [at_half[0], read],
                "P4_3": [at_half[0], read]}
    assert {r.claim_id.value: r.notes["failed_points"] for r in reports} == \
        {r.claim_id.value: expected[r.claim_id.value] for r in reports}


def test_reports_deterministic(box1):
    a = check_c11(box1, SMALL_BETAS, SMALL_HS)
    b = check_c11(box1, SMALL_BETAS, SMALL_HS)
    assert a.to_dict() == b.to_dict()


def test_theorem_claim_set():
    assert ClaimId.C1_1 in THEOREM_CLAIMS
    assert ClaimId.T3_1 in THEOREM_CLAIMS
    assert ClaimId.C1_2 not in THEOREM_CLAIMS
    assert ClaimId.C4_1 not in THEOREM_CLAIMS


# ---------------------------------------------------------------------------
# verdicts at the edge of the error band


@settings(max_examples=200, deadline=None)
@given(bound=st.floats(0.0, 1e6), tol=st.floats(0.0, 1e6))
def test_classify_is_exact_at_the_bound(bound, tol):
    # a margin equal to its bound clears it in neither direction
    assert _classify([bound], [bound], tol) is Status.INCONCLUSIVE
    assert _classify([-bound], [bound], tol) is Status.INCONCLUSIVE
    # one ulp past it does
    above = math.nextafter(bound, math.inf)
    assert _classify([above], [bound], tol) is Status.HOLDS
    below = math.nextafter(-bound, -math.inf)
    expected = Status.VIOLATED if below < -tol else Status.INCONCLUSIVE
    assert _classify([below], [bound], tol) is expected
    # and a margin at -tolerance is not beyond it
    if tol > bound:
        assert _classify([-tol], [bound], tol) is Status.INCONCLUSIVE
