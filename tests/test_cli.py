import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qcgibbs.models as models_mod
import qcgibbs.util as util_mod
from qcgibbs.cli import (
    COMMAND_SETTINGS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    MODEL_SETTINGS,
    SETTINGS,
    main,
    parse_config,
    read_argv,
)
from qcgibbs.ensemble import ThermoPoint, log_z_quantum, thermo_point, thermo_table_text
from qcgibbs.game import ascend, principal_minor_signs, trace_to_csv
from qcgibbs.models import homogeneous_family, tabulated_family
from qcgibbs.potential import load_tabulated_csv, save_tabulated_csv, tabulated
from qcgibbs.spectrum import (
    SINE_BASIS_MAX_STATES,
    oscillator_spectrum,
    sine_basis_level_cap,
    spectrum_from_csv,
)
from qcgibbs.util import MAX_GRID_POINTS
from qcgibbs.verify import report_from_dict

SEED0_WELL = Path(__file__).parent / "data" / "seed0_double_well.csv"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum command


def test_spectrum_box(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "box", "--N", "1", "--L", "1", "--h", "1",
         "--count", "10"], capsys)
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and l != "n,E"]
    assert len(rows) == 10
    first = float(rows[0].split(",")[1])
    assert first == pytest.approx(4.9348, abs=1e-4)


def test_spectrum_oscillator_uniform_gaps(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "homogeneous", "--nu", "2", "--h", "1",
         "--count", "5"], capsys)
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and l != "n,E"]
    levels = np.array([float(r.split(",")[1]) for r in rows])
    gaps = np.diff(levels)
    assert np.max(np.abs(gaps - gaps[0])) / gaps[0] < 1e-4


def test_spectrum_rejects_negative_nu(capsys):
    # a flag reads a negative number as its value, so the nu check refuses it
    for nu in (["--nu", "-1"], ["--nu=-1"]):
        code, out, err = run(["spectrum", "--model", "homogeneous", *nu, "--count", "3"],
                             capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: exponent nu must be finite and positive, got -1.0\n"


def test_spectrum_fails_closed_where_rounding_swamps_the_ground_level(capsys):
    # the rounding floor 5e-14 ||H|| grows with the x^nu band entries: at
    # nu = 30 the ground level's bar is 4.3 E_1, at nu = 48 rounding leaves
    # E_1 = 0.97 with a bar of 5e7; x^28 still resolves it (bar 0.73 E_1)
    for nu in ("30", "48"):
        code, out, err = run(
            ["spectrum", "--model", "homogeneous", "--nu", nu, "--count", "3"], capsys)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert f"nu={nu}: a bar of" in err and "swamps the ground level E_1 = " in err
    code, out, _ = run(
        ["spectrum", "--model", "homogeneous", "--nu", "28", "--count", "3"], capsys)
    assert code == EXIT_OK
    ground = float(out.splitlines()[3].split(",")[1])
    assert 0.88 < ground < 0.89


def test_spectrum_fails_closed_where_finite_differences_miss_the_ground_level(capsys):
    # the walls of x^0.01 sit where V = 1.25 E_M + 10, astronomically far out,
    # and the node cap leaves a grid whose bar (3.3) is 15 times E_1 = 0.22
    code, out, err = run(
        ["spectrum", "--model", "homogeneous", "--nu", "0.01", "--count", "3"], capsys)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "nu=0.01 by finite differences: a bar of" in err
    assert "swamps the ground level E_1 = 0.22" in err


@pytest.mark.parametrize("nu", ["1e-300", "1e300"])
def test_spectrum_names_the_nu_range(nu, capsys):
    code, out, err = run(
        ["spectrum", "--model", "homogeneous", "--nu", nu, "--count", "3"], capsys)
    lo, hi = models_mod.NU_RANGE
    assert (code, out) == (EXIT_USAGE, "")
    assert f"nu={float(nu):g} lies outside [{lo:g}, {hi:g}]" in err


@pytest.mark.parametrize("flags, name", [
    ("--model homogeneous --nu inf", "nu"),
    ("--model homogeneous --nu nan", "nu"),
    ("--mass inf", "mass"),
    ("--L inf", "lengths"),
])
def test_non_finite_model_parameters_exit_2(flags, name, capsys):
    code, out, err = run(["table", *flags.split()], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and f"{name} must be finite and positive" in err


def test_spectrum_writes_file(tmp_path, capsys):
    out_file = tmp_path / "levels.csv"
    code, _, _ = run(
        ["spectrum", "--model", "box", "--L", "1", "--count", "4",
         "--output", str(out_file)], capsys)
    assert code == EXIT_OK
    assert out_file.read_text().startswith("# h=1\n# source=analytic_box\nn,E\n")


def test_spectrum_reads_one_h(capsys):
    code, out, err = run(["spectrum", "--model", "box", "--h", "0.5,1"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", "error: spectrum reads one h\n")


# ---------------------------------------------------------------------------
# table command


def test_table_box_row(capsys):
    code, out, _ = run(
        ["table", "--model", "box", "--L", "1", "--beta", "1", "--h", "1"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "beta,h,Zq_scaled,Zc,Eq,Ec,Sq,Sc"
    vals = dict(zip(lines[0].split(","), [float(x) for x in lines[1].split(",")]))
    assert vals["Zc"] == pytest.approx(2.50663, abs=1e-5)


def test_table_rows_satisfy_entropy_identity(capsys):
    code, out, _ = run(
        ["table", "--model", "box", "--L", "1", "--beta", "0.5,1,2",
         "--h", "0.5,1"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, [float(x) for x in line.split(",")]))
        lhs = row["Sq"]
        rhs = row["beta"] * row["Eq"] + math.log(row["Zq_scaled"]) - math.log(
            2 * math.pi * row["h"])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_table_json_mirror(tmp_path, capsys):
    args = ["table", "--model", "box", "--L", "1", "--beta", "1,2", "--h", "1"]
    code, csv_out, _ = run(args, capsys)
    code_j, json_out, _ = run(args + ["--format", "json"], capsys)
    assert code == code_j == EXIT_OK
    rows = json.loads(json_out)["rows"]
    csv_lines = csv_out.strip().splitlines()
    header = csv_lines[0].split(",")
    for row, line in zip(rows, csv_lines[1:]):
        csv_vals = [float(x) for x in line.split(",")]
        for name, val in zip(header, csv_vals):
            assert row[name] == val


def test_table_writes_a_ground_state_entropy_as_zero(capsys):
    # at beta = 51 every excited weight of the unit box underflows, so S_q is
    # a sum of zeros: written 0 and 0.0, never -0 and -0.0
    args = ["table", "--model", "box", "--beta", "51", "--h", "1"]
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[6] == "0"
    code, out, _ = run(args + ["--format", "json"], capsys)
    assert code == EXIT_OK
    assert '"Sq": 0.0,' in out
    assert math.copysign(1.0, json.loads(out)["rows"][0]["Sq"]) == 1.0


def test_table_truncation_failure_exit_code(capsys):
    # tiny level budget cannot cover beta = 1e-4: rows flagged, exit 3; the
    # sweep needs the smallest m with (pi m)^2 / 2 >= 45 / 1e-4, m = 302
    code, out, _ = run(
        ["table", "--model", "box", "--L", "1", "--beta", "0.0001", "--h", "1",
         "--max-levels", "64"], capsys)
    assert code == EXIT_NUMERICAL
    lines = out.strip().splitlines()
    assert lines[0].endswith(",status")
    assert lines[1] == (
        "0.0001,1,nan,nan,nan,nan,nan,nan,error: box1: sweep needs 302 levels, "
        "above the cap 64; raise the cap or shrink the sweep (the cap supports "
        "64 levels, beta * phi(h) down to about 0.00223)"
    )


def test_table_names_a_count_past_the_search_bound(capsys):
    # no oscillator level below 2^62 reaches 45 / 1e-300: the count is named
    # as a bound, not as the bisection's end, and every row fails with it
    code, out, err = run(["table", "--model", "homogeneous", "--nu", "2",
                          "--beta", "1e-300,1", "--h", "1"], capsys)
    why = ("homogeneous_nu2: sweep needs at least 2^62 levels, above the cap 2000000; "
           "raise the cap or shrink the sweep (the cap supports 2000000 levels, "
           "beta * phi(h) down to about 1.6e-05)")
    assert code == EXIT_NUMERICAL
    assert out.splitlines()[1:] == [f"{beta},1,nan,nan,nan,nan,nan,nan,error: {why}"
                                    for beta in ("1e-300", "1")]
    assert err == f"numerical error: at beta=1e-300, h=1: {why}\n"


@pytest.mark.parametrize("h", ["1e153", "1e154", "1e200", "1e-200"])
def test_spectrum_overflow_is_a_numerical_error(h, capsys):
    # h^2 E_n(1) leaves the double range, above or (at 1e-200) below: exit 3,
    # and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["spectrum", "--model", "box", "--h", h], capsys)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert ("underflow" if float(h) < 1.0 else "overflow") in err
    if float(h) < 1.0:
        assert err == ("numerical error: levels at h=1e-200 underflow: h^2 E_n(1) "
                       "leaves the double range\n")


# the count rule's refusal where beta h^2 underflows to 0 (or nearly, at 1e-160)
_UNDERFLOWED = ("box1: sweep needs at least 2^62 levels, above the cap 2000000; raise the cap "
                "or shrink the sweep (the cap supports 2000000 levels, beta * phi(h) down to "
                "about 2.28e-12)")


@pytest.mark.parametrize("hs", ["1e-200", "1,1e-200", "1e-160"])
def test_an_underflowed_lambda_fails_every_point_under_the_cap(hs, capsys):
    # the sweep's depth reads as the smallest double, which no cap supports:
    # every point fails with the cap's refusal (exit 3), not a usage error
    n = len(hs.split(","))
    code, out, err = run(["table", "--model", "box", "--beta", "1", "--h", hs], capsys)
    assert code == EXIT_NUMERICAL
    rows = out.splitlines()[1:]
    assert len(rows) == n and all(r.endswith(f",error: {_UNDERFLOWED}") for r in rows)
    assert err == f"numerical error: at beta=1, h={float(hs.split(',')[0]):g}: {_UNDERFLOWED}\n"
    code, out, err = run(["verify", "--model", "box", "--claims", "c11", "--beta", "1,2",
                          "--h", hs], capsys)
    assert code == EXIT_NUMERICAL
    [failed] = _failed_points(out)
    assert [f["error"] for f in failed] == [_UNDERFLOWED] * 2 * n
    if n == 1:
        code, out, err = run(["game", "--h", hs], capsys)
        assert (code, out, err) == (EXIT_NUMERICAL, "", f"numerical error: {_UNDERFLOWED}\n")


def test_an_overflowing_h_names_itself(capsys):
    # h^2 overflows at 1e200: alone, the run fails naming h (not Python's
    # float-pow error); beside h = 1, exactly the points at 1e200 fail so
    why = "levels at h=1e+200 overflow: h^2 E_n(1) leaves the double range"
    for argv in (["table", "--beta", "1"], ["verify", "--claims", "c11", "--beta", "1,2"]):
        code, out, err = run([*argv, "--model", "box", "--h", "1e200"], capsys)
        assert (code, out, err) == (EXIT_NUMERICAL, "", f"numerical error: {why}\n")
    code, out, err = run(["table", "--model", "box", "--beta", "1", "--h", "1,1e200"], capsys)
    assert code == EXIT_NUMERICAL
    rows = out.splitlines()[1:]
    assert rows[0].endswith(",ok") and rows[1].endswith(f",error: {why}")
    assert err == f"numerical error: at beta=1, h=1e+200: {why}\n"
    code, out, _ = run(["verify", "--model", "box", "--claims", "c11", "--beta", "1,2",
                        "--h", "1,1e200"], capsys)
    assert code == EXIT_NUMERICAL
    assert _failed_points(out) == [[{"beta": b, "h": 1e200, "error": why} for b in (1.0, 2.0)]]


def test_table_marks_rows_outside_the_double_range(capsys):
    # Z_q = exp(-4.93e304) underflows at h = 1e152, and so does exp(-4935) at
    # beta = 1000, h = 1; beta E_n itself overflows at both. Each row fails
    # with a message, none reads 0 or inf, and numpy warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["table", "--model", "box", "--beta", "1,1000", "--h", "1,1e152"], capsys)
    assert code == EXIT_NUMERICAL
    # the first failed row of the table, beta outer, not of the sweep, h outer
    assert err.startswith("numerical error: at beta=1, h=1e+152: log((2 pi h)^N Z_q)")
    assert err.count("\n") == 1
    rows = out.strip().splitlines()[1:]
    assert rows[0].endswith(",ok")
    failed = ",nan,nan,nan,nan,nan,nan,error: "
    assert rows[1].startswith("1,1e+152" + failed + "log((2 pi h)^N Z_q) = -4.9348e+304")
    assert rows[2].startswith("1000,1" + failed + "log((2 pi h)^N Z_q) = -4932.96")
    assert rows[3] == "1000,1e+152" + failed + "beta E_n leaves the double range at beta=1000"


def test_a_table_at_the_top_of_the_double_range_exits_3():
    # E_8 = 1.728e308: the fitted tail's incomplete gamma reads x = 1.728e308,
    # and the row fails on the double range, well within the timeout
    proc = subprocess.run([sys.executable, "-m", "qcgibbs", "table", "--model", "box",
                           "--beta", "1", "--h", "7.397e152"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert proc.stderr.startswith(
        "numerical error: at beta=1, h=7.397e+152: log((2 pi h)^N Z_q) = -2.70011e+306")
    assert "leaves the double range" in proc.stdout.splitlines()[1]


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which RFC 8259 has no token for."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_outputs_write_null_for_undefined_values(capsys):
    code, out, _ = run(["table", "--model", "box", "--beta", "1,2", "--h", "1,7.397e152",
                        "--format", "json"], capsys)
    assert code == EXIT_NUMERICAL
    rows = _strict_json(out)["rows"]
    assert [r["status"] == "ok" for r in rows] == [True, False, True, False]
    assert {r["Zq_scaled"] for r in rows[1::2]} == {None}
    # a report's undefined margins are null, and read back as NaN
    code, out, _ = run(["verify", "--model", "box", "--claims", "c13",
                        "--beta", "1e-12,1e-11", "--h", "1"], capsys)
    assert code == EXIT_NUMERICAL
    reports = _strict_json(out)
    assert [(r["worst_margin"], r["notes"]["final_gap"]) for r in reports] == [(None, None)] * 2
    assert math.isnan(report_from_dict(reports[0]).worst_margin)


# ---------------------------------------------------------------------------
# verify command


def test_verify_box_theorem_claims(tmp_path, capsys):
    out_file = tmp_path / "reports.json"
    code, out, _ = run(
        ["verify", "--model", "box", "--L", "1", "--claims", "c11,t31",
         "--beta", "0.1,1,10", "--h", "0.5,1,2", "--output", str(out_file)],
        capsys)
    assert code == EXIT_OK
    reports = json.loads(out_file.read_text())
    assert {r["claim_id"] for r in reports} == {"C1_1", "T3_1"}
    assert all(r["status"] == "Holds" for r in reports)
    assert "C1_1" in out  # human-readable table on stdout


def test_verify_c12_oscillator(capsys):
    code, out, _ = run(
        ["verify", "--model", "homogeneous", "--nu", "2", "--claims", "c12",
         "--beta", "0.1,1,10", "--h", "0.5,1,2"], capsys)
    assert code == EXIT_OK
    reports = json.loads(out)
    assert reports[0]["claim_id"] == "C1_2"
    assert reports[0]["status"] == "Holds"


def test_verify_rules_on_a_one_value_grid(tmp_path, capsys):
    # the worst C1_2 point of the seed-0 double well, alone
    well = Path(__file__).parent / "data" / "seed0_double_well.csv"
    out_file = tmp_path / "reports.json"
    code, _, _ = run(
        ["verify", "--model", "tabulated", "--table", str(well), "--claims", "c12",
         "--beta", "0.046415888336127774", "--h", "0.6851754923600619",
         "-o", str(out_file)], capsys)
    assert code == EXIT_OK  # C1_2 gathers evidence only
    (report,) = json.loads(out_file.read_text())
    assert report["notes"]["points"] == 1
    assert report["grid"] == {"beta": [0.046415888336127774], "h": [0.6851754923600619]}
    assert report["status"] == "Violated"


def test_verify_takes_a_one_value_grid_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = box\nbeta = 0.5\n")
    code, out, _ = run(["verify", "--config", str(cfg), "--claims", "c11,t31"], capsys)
    assert code == EXIT_OK
    c11, t31 = json.loads(out)
    assert c11["grid"]["beta"] == [0.5] and len(c11["grid"]["h"]) > 1  # default h
    assert c11["notes"]["points"] == len(c11["grid"]["h"])
    assert (t31["grid"]["beta"], t31["grid"]["h"]) == ([0.5], [1.0])


@pytest.mark.parametrize("claim, flags, needs", [
    ("c13", ["--beta", "0.5"], "at least two values of --beta, got 1"),
    ("t41", ["--beta", "0.5,1", "--h", "1"], "at least two values of --h, got 1"),
    ("t41", ["--beta", "0.5"], "at least two values of --beta, got 1"),
    ("c41", ["--h", "1"], "at least two values of --h, got 1"),
    ("wehrl", ["--h", "0.5"], "at least two values of --h, got 1"),
    # a repeated value compares a point with itself
    ("c13", ["--model", "box", "--beta", "0.5,0.5"],
     "distinct values of --beta, got 0.5 repeated"),
    ("t41", ["--model", "box", "--beta", "1,1", "--h", "1,2"],
     "distinct values of --beta, got 1 repeated"),
    ("wehrl", ["--model", "box", "--h", "0.5,0.5"],
     "distinct values of --h, got 0.5 repeated"),
    ("c41", ["--nu", "4", "--h", "1,1"], "distinct values of --h, got 1 repeated"),
], ids=["c13-flags0---beta", "t41-flags1---h", "t41-flags2---beta", "c41-flags3---h",
        "wehrl-flags4---h", "c13-repeated-beta", "t41-repeated-beta", "wehrl-repeated-h",
        "c41-repeated-h"])
def test_verify_refuses_one_point_where_a_claim_compares_points(claim, flags, needs,
                                                                monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("a spectrum was solved")

    monkeypatch.setattr(models_mod.ModelFamily, "_solve", no_solve)
    code, out, err = run(["verify", "--model", "homogeneous", "--nu", "2",
                          "--claims", claim, *flags], capsys)
    assert code == EXIT_USAGE and out == ""
    assert f"claim {claim} compares neighbouring grid points and needs {needs}" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run(
        ["verify", "--model", "box", "--L", "1", "--claims", "c99"], capsys)
    assert code == EXIT_USAGE
    assert "unknown claim" in err


@pytest.mark.parametrize("claims, message", [
    (",", "no claim to check"),
    ("c11,c11", "claim c11 is named twice"),
])
def test_verify_refuses_a_claim_list_that_checks_nothing_or_repeats(claims, message,
                                                                    capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a spectrum was requested")

    monkeypatch.setattr(models_mod.ModelFamily, "spectrum", no_solve)
    monkeypatch.setattr(models_mod.ModelFamily, "base_spectrum", no_solve)
    code, out, err = run(["verify", "--model", "box", "--claims", claims], capsys)
    assert code == EXIT_USAGE and out == ""
    assert message in err


def test_verify_writes_what_the_library_returns(tmp_path, capsys):
    # the one-point values (first h, first beta, largest beta for t31) are
    # chosen in verify, so the CLI adds nothing to the library call
    from qcgibbs.verify import reports_to_json, run_claims

    out_file = tmp_path / "reports.json"
    code, _, _ = run(["verify", "--model", "homogeneous", "--nu", "2",
                      "--claims", "c13,t31,c41,wehrl", "--beta", "2,1,0.5",
                      "--h", "0.5,1", "-o", str(out_file)], capsys)
    assert code == EXIT_OK
    reports = run_claims(homogeneous_family(2.0), ["c13", "t31", "c41", "wehrl"],
                         [2, 1, 0.5], [0.5, 1])
    assert out_file.read_text() == reports_to_json(reports) + "\n"


def test_verify_exit_4_on_theorem_violation(capsys, monkeypatch):
    # wire-level check: a Violated theorem-class report must exit 4
    import qcgibbs.cli as cli_mod
    from qcgibbs.verify import ClaimId, Status, VerificationReport

    def fake_run_claims(family, keys, betas=None, hs=None):
        return [VerificationReport(ClaimId.C1_1, {}, {}, Status.VIOLATED,
                                   -1.0, 0.0, {})]

    monkeypatch.setattr(cli_mod, "run_claims", fake_run_claims)
    code, _, _ = run(["verify", "--model", "box", "--L", "1", "--claims", "c11"],
                     capsys)
    assert code == 4


# ---------------------------------------------------------------------------
# game command


def _game_lines(out):
    return dict(l.split(" = ") for l in out.splitlines() if " = " in l)


def test_game_minor_signs(capsys):
    code, out, _ = run(
        ["game", "--levels", "1,2,3", "--beta", "1", "--minors", "2"], capsys)
    assert code == EXIT_OK
    assert "minor_signs = -,+" in out


HALF_INTEGERS = [n + 0.5 for n in range(40)]


@pytest.mark.parametrize("levels, beta, minors", [
    (HALF_INTEGERS, "20", 2),  # exp(-beta E_n) underflows past E_n = 37.5
    ([1.0, 2.0, 3.0], "800", 2),  # so does exp(-beta E_1)
    (HALF_INTEGERS, "1", 35),  # tail shares down to e^-35, below eps
    ([1.0, 2.0, 3.0], "1e-3", 2),  # a small beta parses as a plain number
])
def test_game_signs_where_weights_underflow_or_tails_are_tiny(levels, beta, minors, capsys):
    code, out, _ = run(["game", "--levels", ",".join(map(str, levels)), "--beta", beta,
                        "--minors", str(minors)], capsys)
    theorem = [(-1) ** k for k in range(1, minors + 1)]
    assert code == EXIT_OK
    lines = _game_lines(out)
    assert lines["minor_signs"] == ",".join("+" if s > 0 else "-" for s in theorem)
    assert float(lines["F"]) == pytest.approx(
        np.logaddexp.reduce(-float(beta) * np.asarray(levels)), rel=1e-14)
    assert principal_minor_signs(levels, -float(beta), minors) == theorem


def test_game_signs_on_200_oscillator_levels(tmp_path, capsys):
    levels = oscillator_spectrum(200).levels
    levels_file = tmp_path / "levels.txt"
    np.savetxt(levels_file, levels, fmt="%.17g")
    code, out, _ = run(["game", "--levels-file", str(levels_file), "--beta", "1",
                        "--minors", "100"], capsys)
    theorem = [(-1) ** k for k in range(1, 101)]
    assert code == EXIT_OK
    assert _game_lines(out)["minor_signs"] == ",".join("+" if s > 0 else "-" for s in theorem)
    assert principal_minor_signs(levels, -1.0, 100) == theorem


def test_game_plays_on_the_model_spectrum(quartic, capsys):
    code, out, _ = run(["game", "--model", "homogeneous", "--nu", "4", "--h", "0.5",
                        "--beta", "2", "--minors", "50"], capsys)
    assert code == EXIT_OK
    lines = _game_lines(out)
    assert lines["minor_signs"].count(",") == 49
    # the spectrum a one-point table row reads, fetched deeper for 50 minors
    log_z, _ = log_z_quantum(quartic.spectrum(0.5, quartic.lambda_min((2.0,), (0.5,))), 2.0)
    assert float(lines["F"]) == pytest.approx(log_z, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["--levels", "1,2,3", "--nu", "4"],  # levels and a model, both
    ["--levels", "1,2,3", "--h", "0.5"],
    ["--levels", "1,2,3", "--beta", "1,2"],  # the game is played at one beta
    ["--model", "box", "--h", "0.5,1"],
    ["--levels", "1,2,3", "--minors", "3"],  # the K-th minor vanishes
    ["--levels", "3,1,2"],  # levels ascend
    ["--levels", "1,inf"],
    ["--levels", "1,2,3", "--beta", "800", "--ascend"],  # no positive-double Gibbs state
    ["--levels-file", ""],  # names no file
])
def test_game_usage_errors(argv, capsys):
    code, _, err = run(["game", *argv], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, named", [
    (["--format", "json"], "['format']"),
    (["--count", "99", "--format", "csv"], "['count', 'format']"),
    (["-o", "x.csv"], "['output']"),  # the output is the --ascend trace
    (["--ascend", "--format", "json", "-o", "x.csv"], "['format']"),
    (["--config", "CONFIG"], "['count']"),
    (["--seed", "9"], "['seed']"),  # the seed starts the ascent
])
def test_game_refuses_the_flags_it_does_not_use(argv, named, tmp_path, monkeypatch, capsys):
    # game reads no format or count, as a flag or a key, and seed and output
    # only with --ascend
    monkeypatch.chdir(tmp_path)
    (tmp_path / "CONFIG").write_text("count = 5\n")
    code, out, err = run(["game", "--levels", "1,2", *argv], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    if "--config" in argv:
        assert err == "error: game does not read config key 'count'\n"
    elif {"--format", "--count"} & set(argv):
        unread = re.search(r"unrecognized arguments: (.*)", err).group(1)
        assert unread.split()[::2] == [f"--{name}" for name in re.findall(r"'(\w+)'", named)]
    else:
        assert err == f"error: game reads {named} only with --ascend\n"
    assert not (tmp_path / "x.csv").exists()


def test_game_entropy_of_a_ground_state_is_zero(capsys):
    code, out, _ = run(["game", "--levels", "1,2,3", "--beta", "800"], capsys)
    assert code == EXIT_OK
    assert _game_lines(out)["S"] == "0"


def test_game_prints_levels_past_the_weight_cut(capsys):
    # beta (E_3 - E_2) = 198 puts level 3 past the pass's cut, and P_3 is
    # still printed from its own weight
    code, out, _ = run(["game", "--levels", "1,2,200", "--beta", "1"], capsys)
    assert code == EXIT_OK
    assert out == ("n,P\n1,0.7310585786300049\n2,0.2689414213699951\n"
                   "3,2.7501113532889011e-87\nF = -0.68673831248177719\n"
                   "E = 1.2689414213699952\nS = 0.58220310888821791\n")


def test_game_ascent_trace(tmp_path, capsys):
    # stdout is the game's lines, then the ascent's count; the trace is the
    # ascent's own from the --seed start
    trace = tmp_path / "trace.csv"
    game = ["game", "--levels", "1,2,3,4", "--beta", "0.5"]
    plain = run(game, capsys)[1]
    code, out, _ = run([*game, "--ascend", "--seed", "7", "--output", str(trace)], capsys)
    assert code == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,F,grad_norm"
    f_col = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(f_col, f_col[1:]))
    start = np.exp(np.random.default_rng(7).uniform(-1.0, 1.0, size=4))
    result = ascend([1.0, 2.0, 3.0, 4.0], -0.5, start)
    trace_to_csv(result.trace, tmp_path / "direct.csv")
    assert out == plain + f"ascent_iterations = {result.iterations}\n"
    assert trace.read_bytes() == (tmp_path / "direct.csv").read_bytes()


@pytest.mark.parametrize("argv, err", [
    (["--levels", "1,1000", "--beta", "1", "--ascend"],
     "error: ascend needs lam (E_max - E_min) >= -700, "),
    (["--model", "box", "--N", "2", "--h", "1", "--beta", "0.5", "--minors", "3"],
     "error: --minors needs distinct levels: E_2 = E_3 = 24.674011002723397\n"),
    (["--levels", "1,2,2,3", "--beta", "1", "--minors", "1"],
     "error: --minors needs distinct levels: E_2 = E_3 = 2\n"),
], ids=["ascent", "square box", "repeated level"])
def test_a_refused_game_writes_nothing(argv, err, capsys):
    # the ascent and the minors run before any line is written, and a
    # degenerate level set is named with the flag that needs it distinct
    code, out, got = run(["game", *argv], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert got.startswith(err)


def test_game_refuses_an_empty_levels_file(tmp_path, capsys):
    # one error line, and no numpy warning on the way
    levels_file = tmp_path / "levels.txt"
    levels_file.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["game", "--levels-file", str(levels_file)], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", "error: levels must be a non-empty 1-D array\n")


def test_game_levels_file(tmp_path, capsys):
    levels_file = tmp_path / "levels.txt"
    levels_file.write_text("1.0\n2.0\n3.0\n")
    code, out, _ = run(
        ["game", "--levels-file", str(levels_file), "--beta", "1",
         "--minors", "2"], capsys)
    assert code == EXIT_OK
    assert "minor_signs = -,+" in out


def test_game_reads_the_levels_spectrum_writes(tmp_path, capsys):
    # spectrum's n,E output, with its comments and header, plays as the same
    # levels given by --levels
    written = tmp_path / "levels.csv"
    code, _, _ = run(["spectrum", "--model", "homogeneous", "--nu", "4", "--h", "0.5",
                      "--count", "12", "-o", str(written)], capsys)
    assert code == EXIT_OK
    levels = [line.split(",")[1] for line in written.read_text().splitlines()[3:]]
    assert len(levels) == 12
    game = ["--beta", "2", "--minors", "5"]
    from_file = run(["game", "--levels-file", str(written), *game], capsys)
    given = run(["game", "--levels", ",".join(levels), *game], capsys)
    assert from_file == given and given[0] == EXIT_OK


def test_spectrum_from_csv_and_game_read_the_same_levels(tmp_path, capsys):
    # one reader of level text: a comment after a row's value is a comment to
    # the library's spectrum_from_csv as to game --levels-file
    path = tmp_path / "levels.csv"
    path.write_text("# h=1\n# source=given\nn,E\n1,4.934802200544679\n"
                    "2,19.739208802178716  # second\n\n3,44.41321980490211\n")
    levels = spectrum_from_csv(path).levels.tolist()
    assert levels == [4.934802200544679, 19.739208802178716, 44.41321980490211]
    game = ["--beta", "0.5", "--minors", "2"]
    from_file = run(["game", "--levels-file", str(path), *game], capsys)
    given = run(["game", "--levels", ",".join(map(repr, levels)), *game], capsys)
    assert from_file == given and given[0] == EXIT_OK


def test_game_seed_determinism(tmp_path, capsys):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["game", "--levels", "1,2,3", "--beta", "1", "--ascend", "--seed", "11"]
    assert main(args + ["--output", str(t1)]) == EXIT_OK
    assert main(args + ["--output", str(t2)]) == EXIT_OK
    capsys.readouterr()
    assert t1.read_bytes() == t2.read_bytes()


# ---------------------------------------------------------------------------
# config handling


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("model = box\nlengths = 1\nh = 1\ncount = 3\n")
    code, out, _ = run(
        ["spectrum", "--config", str(cfg_file), "--count", "5"], capsys)
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and l != "n,E"]
    assert len(rows) == 5


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("modle = box\n")
    code, _, err = run(["spectrum", "--config", str(cfg_file)], capsys)
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_tail_threshold_is_not_an_option(tmp_path, capsys):
    # every tail is gated at the one TAIL_RTOL; no flag or key moves it
    code, _, _ = run(["table", "--model", "box", "--tail-rtol", "1"], capsys)
    assert code == EXIT_USAGE
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tail_rtol = 1\n")
    code, _, err = run(["table", "--config", str(cfg_file)], capsys)
    assert code == EXIT_USAGE
    assert "unknown config key: 'tail_rtol'" in err


@pytest.mark.parametrize("command, key, text, error", [
    ("spectrum", "count", "x", "invalid literal for int() with base 10: 'x'"),
    ("table", "nu", "y", "could not convert string to float: 'y'"),
    ("table", "beta", "1:2:3:4", "grid range must be lo:hi[:per_decade], got '1:2:3:4'"),
], ids=["int", "float", "grid"])
@pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "key"])
def test_a_parse_error_names_its_setting(command, key, text, error, as_flag, tmp_path, capsys):
    # a flag's text is named by the flag, a config line's by its key
    if as_flag:
        argv, where = [command, SETTINGS[key].flags[0], text], SETTINGS[key].flags[0]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        argv, where = [command, "--config", str(cfg_file)], f"config key {key!r}"
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {where}: {error}\n"


@pytest.mark.parametrize("max_levels", ["0", "7"])
def test_max_levels_below_the_floor_exits_2(max_levels, capsys):
    code, out, err = run(["table", "--model", "box", "--max-levels", max_levels], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: max_levels must be at least 8, the fewest levels a solve takes\n"


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_every_config_key():
    # README's settings table: each key, its flags, and the commands that read it
    head = "| key | flags | spectrum | table | verify | game |"
    lines = _README[_README.index(head):].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[:next(i for i, l in enumerate(lines) if not l.startswith("|"))]]
    assert [row[0].strip("`") for row in rows] == list(SETTINGS)
    for key, flags, *marks in rows:
        key = key.strip("`")
        assert [f.strip(" `") for f in flags.split(",")] == list(SETTINGS[key].flags)
        assert [bool(m) for m in marks] == [key in COMMAND_SETTINGS[c] for c in COMMAND_SETTINGS]


def _readme_examples():
    block = re.search(r"## CLI\n\n```\n(.*?)```", _README, re.S).group(1)
    for line in block.splitlines():
        # an example with an optional [part] runs both without and with it
        yield from dict.fromkeys([re.sub(r"\[[^]]*\]", "", line), re.sub(r"[][]", "", line)])


@pytest.mark.parametrize("example", list(_readme_examples()))
def test_readme_examples_run(example, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QCGIBBS_OUTDIR", str(tmp_path))
    program, *argv = shlex.split(example)
    assert program == "qcgibbs"
    code, _, err = run(argv, capsys)
    assert code == EXIT_OK, err


def test_grid_range_syntax():
    cfg = parse_config("beta = 0.01:10:9\n", "table")
    assert len(cfg.beta) == 28
    assert cfg.beta[0] == pytest.approx(0.01)
    assert cfg.beta[-1] == pytest.approx(10.0)


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QCGIBBS_OUTDIR", str(tmp_path))
    code, _, _ = run(
        ["spectrum", "--model", "box", "--L", "1", "--count", "2",
         "--output", "sub/levels.csv"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "sub" / "levels.csv").exists()


# a text for each setting
_SETTING_TEXT = {"model": "tabulated", "dimension": "2", "lengths": "1,2", "nu": "4",
                 "mass": "0.5", "table": "well.csv", "beta": "0.1:10", "h": "0.5,1",
                 "count": "7", "max_levels": "99", "format": "json", "output": "out.csv",
                 "seed": "3"}
_COMMAND_ARGS = {"spectrum": [], "table": [], "verify": ["--claims", "c11"],
                 "game": ["--levels", "1,2"]}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_every_command_takes_the_model_flags(command, capsys):
    # the model settings and the others the command reads, under each flag
    # spelling, and its --help lists exactly those settings' flags
    assert set(MODEL_SETTINGS) <= set(COMMAND_SETTINGS[command])
    base = _COMMAND_ARGS[command]
    omitted = read_argv(command, base)
    assert "config" not in omitted
    assert read_argv(command, [*base, "--config", "run.cfg"])["config"] == "run.cfg"
    for key in COMMAND_SETTINGS[command]:
        assert key not in omitted
        for flag in SETTINGS[key].flags:
            assert read_argv(command, [*base, flag, _SETTING_TEXT[key]])[key] \
                == _SETTING_TEXT[key]
    assert read_argv(command, ["--help"]) is None
    assert main([command, "--help"]) == EXIT_OK
    listed = set(re.findall(r"(?:^|[ ,\[])(--?[A-Za-z][\w-]*)", capsys.readouterr().out, re.M))
    assert "--config" in listed
    every_flag = {flag for setting in SETTINGS.values() for flag in setting.flags}
    assert listed & every_flag == {flag for key in COMMAND_SETTINGS[command]
                                   for flag in SETTINGS[key].flags}


# each command's argv, writing its output where a run would
_CONTRACT_ARGV = {
    "spectrum": ["spectrum", "--model", "box", "-o", "out.csv"],
    "table": ["table", "--model", "box", "-o", "out.csv"],
    "verify": ["verify", "--model", "box", "--claims", "c11", "--beta", "1,2", "-o", "out.json"],
    "game": ["game", "--levels", "1,2", "--ascend", "-o", "out.csv"],
}


@pytest.mark.parametrize("command", sorted(_CONTRACT_ARGV))
def test_contract_argvs_write_their_output(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCGIBBS_OUTDIR", str(tmp_path / "out"))
    code, _, err = run(_CONTRACT_ARGV[command], capsys)
    assert code == EXIT_OK, err
    assert len(list((tmp_path / "out").iterdir())) == 1


@pytest.mark.parametrize("where", ["flag", "key"])
@pytest.mark.parametrize("command, key", [
    (command, key) for command in COMMAND_SETTINGS for key in SETTINGS
    if key not in COMMAND_SETTINGS[command]])
def test_a_setting_the_command_does_not_read_exits_2(command, key, where, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QCGIBBS_OUTDIR", str(tmp_path / "out"))
    (tmp_path / "run.cfg").write_text(f"{key} = {_SETTING_TEXT[key]}\n")
    given = ([SETTINGS[key].flags[0], _SETTING_TEXT[key]] if where == "flag"
             else ["--config", "run.cfg"])
    code, out, err = run([*_CONTRACT_ARGV[command], *given], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert (f"unrecognized arguments: {' '.join(given)}" if where == "flag"
            else f"error: {command} does not read config key {key!r}") in err
    assert not (tmp_path / "out").exists()


def test_usage_error_on_bad_flag(capsys):
    code, _, _ = run(["spectrum", "--model", "nosuch"], capsys)
    assert code == EXIT_USAGE


def test_an_unread_flag_is_refused_by_its_subcommand(capsys):
    code, out, err = run(["spectrum", "--beta", "7"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: qcgibbs spectrum ")
    assert err.endswith("qcgibbs spectrum: error: unrecognized arguments: --beta 7\n")


def test_a_flag_reads_its_value_after_an_equals_sign(capsys):
    assert read_argv("table", ["--beta=0.5,1", "-o=out.csv", "--format="]) \
        == {"beta": "0.5,1", "output": "out.csv", "format": ""}
    assert run(["spectrum", "--model=box", "--count=2"], capsys)[:2] \
        == run(["spectrum", "--model", "box", "--count", "2"], capsys)[:2]


@pytest.mark.parametrize("argv, message", [
    (["--model"], "argument --model: expected one argument"),
    (["--model", "box", "-o"], "argument --output/-o: expected one argument"),
    (["--model", "--count", "3"], "argument --model: expected one argument"),
    (["--ascend=1"], "unrecognized arguments: --ascend=1"),  # no flag of spectrum
    (["--bet", "1"], "unrecognized arguments: --bet 1"),  # no abbreviations
    (["--count", "3", "7", "--seed", "2"], "unrecognized arguments: 7 --seed 2"),
])
def test_the_reader_refuses_under_the_usage(argv, message, capsys):
    code, out, err = run(["spectrum", *argv], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: qcgibbs spectrum [-h] [--config CONFIG] ")
    assert err.endswith(f"\nqcgibbs spectrum: error: {message}\n")


def test_a_switch_takes_no_value(capsys):
    code, _, err = run(["game", "--levels", "1,2", "--ascend=yes"], capsys)
    assert code == EXIT_USAGE
    assert err.endswith("qcgibbs game: error: argument --ascend: ignored explicit argument 'yes'\n")
    assert read_argv("game", ["--ascend", "--levels", "1,2"]) == {"ascend": True, "levels": "1,2"}


def test_the_last_of_a_repeated_flag_wins(capsys):
    assert read_argv("table", ["--output", "a.csv", "--beta", "1", "-o", "b.csv"]) \
        == {"output": "b.csv", "beta": "1"}
    code, out, _ = run(["spectrum", "--model", "box", "--count", "3", "--count", "2"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("2,")


@pytest.mark.parametrize("argv", [["--bogus", "-h"], ["--nu", "x", "--help"],
                                  ["--claims", "c11", "-o", "x", "7", "-h", "--model"]])
def test_help_after_a_flag_the_reader_would_refuse(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: qcgibbs verify [-h] ")
    assert "\n  --claims CLAIMS       comma list from: c11," in out


def test_an_empty_levels_file_name_is_given(capsys):
    # an empty path is a given path, refused as naming no file
    assert read_argv("game", ["--levels-file", ""]) == {"levels_file": ""}
    code, out, err = run(["game", "--levels-file", ""], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --levels-file: an empty path names no file\n"


@pytest.mark.parametrize("command", ["table", "spectrum"])
@pytest.mark.parametrize("flag", [["-o", ""], ["--output", ""], ["--output="]],
                         ids=["-o", "--output", "--output="])
def test_an_empty_output_name_is_refused(command, flag, monkeypatch, capsys):
    # the rule of --config and --levels-file, before any solve: not read as
    # the working directory, which only a computed run found it to be
    def no_solve(*args):
        raise AssertionError("a spectrum was solved")

    monkeypatch.setattr(models_mod.ModelFamily, "_provision", no_solve)
    code, out, err = run([command, "--model", "box", *flag], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --output: an empty path names no file\n"


@pytest.mark.parametrize("command", ["table", "spectrum", "verify --claims c11"])
def test_an_empty_output_key_is_refused(command, tmp_path, monkeypatch, capsys):
    # the flag's rule for the config key, named as the key, before any solve
    def no_solve(*args):
        raise AssertionError("a spectrum was solved")

    monkeypatch.setattr(models_mod.ModelFamily, "_solve", no_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output =\n")
    code, out, err = run([*command.split(), "--model", "box", "--config", str(cfg)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: config key 'output': an empty path names no file\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_a_dimension_below_one_is_refused(n, tmp_path, capsys):
    # as a flag and as a key, by the dimension's own rule, not as a count of
    # lengths that fails to match it
    code, out, err = run(["table", "--model", "box", "--N", n], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --N: must be at least 1, got {n}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dimension = {n}\n")
    code, out, err = run(["table", "--model", "box", "--config", str(cfg)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: config key 'dimension': must be at least 1, got {n}\n"


def test_an_empty_config_name_is_refused(capsys):
    # the same rule as --levels-file: not read as "no config file"
    code, out, err = run(["table", "--config", ""], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --config: an empty path names no file\n"


def test_verify_needs_its_claims(capsys):
    code, _, err = run(["verify", "--model", "box", "--beta", "1,2"], capsys)
    assert code == EXIT_USAGE
    assert err.endswith("qcgibbs verify: error: the following arguments are required: --claims\n")


@pytest.mark.parametrize("argv, code, stream, text", [
    ([], EXIT_USAGE, "err", "the following arguments are required: command"),
    (["nosuch"], EXIT_USAGE, "err", "invalid choice: 'nosuch'"),
    (["-h"], EXIT_OK, "out", "{spectrum,table,verify,game}"),
    (["table", "-h"], EXIT_OK, "out", "usage: qcgibbs table "),
])
def test_top_level_usage_and_help(argv, code, stream, text, capsys):
    got, out, err = run(argv, capsys)
    assert got == code
    assert text in {"out": out, "err": err}[stream]
    if argv[:1] != ["table"]:
        assert "usage: qcgibbs [-h] {spectrum,table,verify,game} ..." in out + err


# ---------------------------------------------------------------------------
# tabulated wells: one sine-basis solve per h


@pytest.fixture
def double_well(double_well_potential, tmp_path):
    """The double well of conftest.py as an x,V CSV."""
    path = tmp_path / "well.csv"
    save_tabulated_csv(double_well_potential, path)
    return path


@pytest.fixture
def fd_solves(monkeypatch):
    """Counts the tabulated-well solves (sine basis) ModelFamily issues."""
    calls = []
    solve = models_mod.solve_sine_basis

    def counting(potential, planck, **kwargs):
        calls.append((planck, kwargs["count"]))
        return solve(potential, planck, **kwargs)

    monkeypatch.setattr(models_mod, "solve_sine_basis", counting)
    return calls


def test_tabulated_table_solves_each_h_once(double_well, fd_solves, capsys):
    betas, hs = (0.5, 1.0, 2.0), (0.5, 1.0)
    code, out, _ = run(
        ["table", "--model", "tabulated", "--table", str(double_well),
         "--beta", "0.5,1,2", "--h", "0.5,1"], capsys)
    assert code == EXIT_OK
    assert sorted(planck for planck, _ in fd_solves) == [0.5, 1.0]
    # the same rows, each from its own fresh solve
    pot = load_tabulated_csv(double_well)
    rows = []
    for beta in betas:
        for h in hs:
            spec = tabulated_family(pot).spectrum(h, min(betas))
            rows.append(thermo_point(ThermoPoint(pot, spec, beta, h, 1.0)).row)
    assert len(fd_solves) == 2 + len(rows)
    assert out == thermo_table_text(rows, "csv")


def test_offset_well_table_reaches_the_depth(tmp_path, capsys):
    # a harmonic well lifted to min V = 50: the depth is measured from min V,
    # so every row's tail passes the gate
    xs = np.linspace(-5.0, 5.0, 101)
    table = tmp_path / "offset.csv"
    save_tabulated_csv(tabulated(xs, 50.0 + 0.2 * xs**2), table)
    code, out, _ = run(
        ["table", "--model", "tabulated", "--table", str(table),
         "--beta", "2,5", "--h", "0.25,1"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "beta,h,Zq_scaled,Zc,Eq,Ec,Sq,Sc" and len(lines) == 5
    assert all("nan" not in line for line in lines)


def test_tabulated_memo_resolves_when_the_count_changes(double_well, fd_solves):
    fam = tabulated_family(load_tabulated_csv(double_well))
    shallow = fam.spectrum(1.0, 1.0)
    assert fam.spectrum(1.0, 1.0) is shallow
    deep = fam.spectrum(1.0, 0.25)  # smaller lambda_min: more levels needed
    assert deep.count > shallow.count
    assert fam.spectrum(1.0, 0.25) is deep
    fresh = tabulated_family(fam.potential).spectrum(1.0, 0.25)
    np.testing.assert_array_equal(deep.levels, fresh.levels)
    np.testing.assert_array_equal(deep.level_errors, fresh.level_errors)
    counts = [count for _, count in fd_solves]
    assert counts == [shallow.count, deep.count, deep.count]


def test_tabulated_rows_run_no_dense_solve(double_well, blas_spy, capsys):
    # each h is solved once, in the calling thread, before its rows are read
    code, _, _ = run(["table", "--model", "tabulated", "--table", str(double_well),
                      "--beta", "0.5,1,2", "--h", "0.5,0.75,1"], capsys)
    assert code == EXIT_OK
    assert len(blas_spy.sets) == 6  # one thread, then the prior count, per h
    assert {thread for thread, _ in blas_spy.sets} == {threading.main_thread()}


@pytest.mark.parametrize("argv, solved", [
    (["table", "--beta", "0.5,1,2", "--h", "0.5,1"], 2),
    (["spectrum", "--h", "0.5", "--count", "50"], 1),
    (["game", "--beta", "1", "--h", "0.5"], 1),
], ids=["table", "spectrum", "game"])
def test_tabulated_commands_leave_the_bars_unsolved(double_well, monkeypatch, capsys,
                                                     argv, solved):
    # a table, a spectrum and the game read levels only, so each solved h
    # runs the sine basis's Ritz eigensolve and not its lower bound's
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    code, _, _ = run([argv[0], "--model", "tabulated", "--table", str(double_well),
                      *argv[1:]], capsys)
    assert code == EXIT_OK
    assert len(sizes) == solved


def test_a_failed_h_fails_only_its_own_rows(double_well, monkeypatch, capsys):
    from qcgibbs.errors import AccuracyError

    solves, solve = [], models_mod.solve_sine_basis

    def failing_at_half(potential, planck, **kwargs):
        solves.append(planck)
        if planck == 0.5:
            raise AccuracyError("no bound at h=0.5")
        return solve(potential, planck, **kwargs)

    monkeypatch.setattr(models_mod, "solve_sine_basis", failing_at_half)
    code, out, _ = run(["table", "--model", "tabulated", "--table", str(double_well),
                        "--beta", "0.5,1,2", "--h", "0.5,1"], capsys)
    assert code == EXIT_NUMERICAL
    assert sorted(solves) == [0.5, 1.0]  # the failed h is not solved again
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        h, status = row.split(",", 8)[1::7]
        assert status == ("error: no bound at h=0.5" if h == "0.5" else "ok")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_env() -> dict:
    """This environment without the BLAS thread variables, importing this
    checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return env


def test_tabulated_table_is_the_same_at_any_thread_count():
    # small sine bases solve on one BLAS thread whatever OpenBLAS would take,
    # and bases past SINE_BASIS_SERIAL_STATES (h = 0.2) on every usable core
    well = Path(__file__).parent / "data" / "seed0_double_well.csv"
    for hs in ("0.5,1", "0.2"):
        argv = ["table", "--model", "tabulated", "--table", str(well),
                "--beta", "0.1,10", "--h", hs]
        outs = {}
        for value in ("1", "2", None):  # None: the variable unset
            env = _fresh_env() | ({} if value is None else {"OPENBLAS_NUM_THREADS": value})
            proc = subprocess.run([sys.executable, "-m", "qcgibbs", *argv], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs[value] = proc.stdout
        assert len(set(outs.values())) == 1, hs


# a fresh interpreter, started at one BLAS thread, records the count that
# each numpy eigensolve of a table row runs at, and the count after the run
LARGE_BASIS_SCRIPT = """
import json, sys
import qcgibbs
import numpy as np
from qcgibbs.cli import main
from qcgibbs.lapack import _lapacke
counts, eigvalsh = [], np.linalg.eigvalsh
np.linalg.eigvalsh = lambda a: counts.append(_lapacke().get_threads()) or eigvalsh(a)
start = _lapacke().get_threads()
code = main(json.loads(sys.argv[1]))
print(json.dumps([start, code, counts, _lapacke().get_threads()]))
"""


def test_a_large_sine_basis_solves_on_every_core_then_returns_to_one():
    argv = ["table", "--model", "tabulated", "--table",
            str(Path(__file__).parent / "data" / "seed0_double_well.csv"),
            "--beta", "0.1", "--h", "0.2", "-o", os.devnull]
    proc = subprocess.run([sys.executable, "-c", LARGE_BASIS_SCRIPT, json.dumps(argv)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    start, code, counts, end = json.loads(proc.stdout.splitlines()[-1])
    # the basis's one eigensolve, theta: a table reads no bars, so the lower
    # bounds' eigensolve never runs
    assert (start, code, counts, end) == (1, EXIT_OK, [util_mod.usable_cpus()], 1)


def test_tabulated_cap_names_the_reachable_depth(double_well, fd_solves, capsys):
    code, out, _ = run(
        ["table", "--model", "tabulated", "--table", str(double_well),
         "--beta", "0.01", "--h", "0.5", "--max-levels", "40"], capsys)
    assert code == EXIT_NUMERICAL and fd_solves == []
    assert out.splitlines()[1].startswith("0.01,0.5,nan,")
    # the reachable depth is 45 / (c1 40^2), since the depth is measured from
    # min V, with c1 = (h pi / 4)^2 / 2 at h = 0.5
    assert out.rstrip().endswith(
        "above the cap 40; raise the cap or shrink the sweep (the cap supports "
        "40 levels, beta * phi(h) down to about 0.365)")


def test_quartic_basis_cap_refuses_before_building(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the basis was built past its cap")

    monkeypatch.setattr(models_mod, "solve_oscillator_basis", refuse)
    start = time.perf_counter()
    code, out, _ = run(
        ["table", "--model", "homogeneous", "--nu", "4", "--beta", "1e-6", "--h", "1"],
        capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERICAL
    assert f"above the oscillator-basis cap {models_mod.BASIS_CAP}; shrink the sweep" in out
    # the 6% + 8 levels of headroom count against the cap too
    _assert_depth_is_reachable(out, homogeneous_family(4.0), 1.0, models_mod.BASIS_CAP)


def test_cap_below_any_solve_names_no_depth(capsys):
    # a Weyl-law source takes at least 8 + 8 headroom + 1 levels, so a cap of
    # 8 reaches no depth at all
    code, out, _ = run(["table", "--model", "homogeneous", "--nu", "3", "--beta", "0.01",
                        "--max-levels", "8"], capsys)
    assert code == EXIT_NUMERICAL
    assert out.rstrip().endswith(
        "above the cap 8 at h=1: every solve takes at least 17 levels; raise the cap")


@pytest.mark.parametrize("nu, count, cap", [
    ("3", "30", "20"),
    # the oscillator takes no headroom: the cap 64 holds count 64, and its
    # depth provisions 64 levels, not 65
    ("2", "65", "64"),
])
def test_cap_names_the_largest_count_that_fits(nu, count, cap, capsys):
    flags = ["spectrum", "--model", "homogeneous", "--nu", nu, "--max-levels", cap]
    code, _, err = run(flags + ["--count", count], capsys)
    assert code == EXIT_NUMERICAL
    top = re.search(r"the cap supports (\d+) levels, ", err).group(1)
    assert nu != "2" or top == cap
    code, out, _ = run(flags + ["--count", top], capsys)
    assert code == EXIT_OK and out.splitlines()[-1].startswith(f"{top},")
    assert run(flags + ["--count", str(int(top) + 1)], capsys)[0] == EXIT_NUMERICAL


def _assert_depth_is_reachable(out, fam, planck, cap):
    # a sweep down to the depth the message names fits the cap, and one 1%
    # deeper does not
    depth = float(re.search(r"down to about (\S+)\)$", out.rstrip()).group(1))
    assert fam.level_count(planck, depth) <= cap < fam.level_count(planck, 0.99 * depth)


@pytest.mark.parametrize("model, beta, basis_cap", [
    (["homogeneous", "--nu", "4"], "1e-7", "oscillator-basis cap 20000"),
    (["tabulated", "--table", str(SEED0_WELL)], "1e-12", "sine-basis cap 1500"),
])
def test_the_cap_message_names_the_cap_that_binds(model, beta, basis_cap, capsys):
    # both sweeps pass the level cap too, but the smaller basis cap binds,
    # and --max-levels does not lift it
    for flags in ([], ["--max-levels", "30000000"]):
        code, _, err = run(["table", "--model", *model, "--beta", beta, "--h", "1", *flags],
                           capsys)
        assert code == EXIT_NUMERICAL
        assert f"above the {basis_cap}; shrink the sweep" in err
    fam = (homogeneous_family(4.0) if model[0] == "homogeneous"
           else tabulated_family(load_tabulated_csv(SEED0_WELL)))
    _assert_depth_is_reachable(err, fam, 1.0, int(basis_cap.split()[-1]))
    if model[0] == "tabulated":  # a 1,500-level sine basis solves in about 1 s
        depth = re.search(r"down to about (\S+)\)$", err.rstrip()).group(1)
        code, _, _ = run(["table", "--model", *model, "--beta", depth, "--h", "1"], capsys)
        assert code == EXIT_OK


def test_tabulated_basis_cap_refuses_before_building(double_well, fd_solves, capsys):
    # 45 / 1e-6 needs about 12,000 levels at h = 1: below the level cap, above
    # the dense sine basis's
    start = time.perf_counter()
    code, out, _ = run(
        ["table", "--model", "tabulated", "--table", str(double_well),
         "--beta", "1e-6", "--h", "1"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERICAL and fd_solves == []
    fam = tabulated_family(load_tabulated_csv(double_well))
    cap = sine_basis_level_cap(fam.potential, 1.0)
    assert cap == 1500  # the walls at 28 add no states here
    assert f"above the sine-basis cap {cap}; shrink the sweep" in out
    _assert_depth_is_reachable(out, fam, 1.0, cap)


@pytest.mark.parametrize("wall", [27_760.0, 1e6])
def test_tall_walls_lower_the_sine_basis_cap(wall, fd_solves, tmp_path, capsys):
    # a pit of V = 1 on [1, 9] inside walls: the basis keeps (N + 1)^2 >=
    # 2 count^2 + 2 (wall - 1) / c1, so at h = 0.35 walls near 2.8e4 leave
    # room for 324 levels (beta = 0.01 needs 863) and walls at 1e6 for none
    xs = np.linspace(0.0, 10.0, 101)
    table = tmp_path / "pit.csv"
    pot = tabulated(xs, np.where(np.abs(xs - 5.0) <= 4.0, 1.0, wall))
    save_tabulated_csv(pot, table)
    start = time.perf_counter()
    code, out, _ = run(
        ["table", "--model", "tabulated", "--table", str(table),
         "--beta", "0.01", "--h", "0.35"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERICAL and fd_solves == []
    cap = sine_basis_level_cap(pot, 0.35)
    if wall < 1e5:
        assert cap == 324
        assert f"above the sine-basis cap {cap}; shrink the sweep" in out
        _assert_depth_is_reachable(out, tabulated_family(pot), 0.35, cap)
    else:
        assert cap == 0
        assert out.rstrip().endswith(
            f"above the sine-basis cap 0 at h=0.35: the table's walls alone fill "
            f"the {SINE_BASIS_MAX_STATES}-state basis; raise h or lower max V")


def test_t41_h_is_not_applicable_on_tabulated_wells(double_well, tmp_path, capsys):
    # on this grid S_q rises from h = 0.25 to 0.5 at beta = 5 and 10
    out_file = tmp_path / "reports.json"
    code, _, err = run(
        ["verify", "--model", "tabulated", "--table", str(double_well),
         "--claims", "t41", "--beta", "5,10", "--h", "0.25,0.5",
         "--output", str(out_file)], capsys)
    assert code == EXIT_OK, err
    reports = {r["claim_id"]: r for r in json.loads(out_file.read_text())}
    assert reports["T4_1_beta"]["status"] == "Holds"
    assert reports["T4_1_h"]["status"] == "Inconclusive"
    assert reports["T4_1_h"]["notes"]["applicable"] is False
    assert "scaling law" in reports["T4_1_h"]["notes"]["reason"]


def test_tabulated_memo_under_thread_stress(double_well, fd_solves):
    # more threads than cores and a short switch interval: every request at
    # one h gets the one solve of that h
    fam = tabulated_family(load_tabulated_csv(double_well))
    hs = [0.5, 0.75, 1.0] * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fam.spectrum, h, 1.0) for h in hs]
            specs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(planck for planck, _ in fd_solves) == [0.5, 0.75, 1.0]
    for h, spec in zip(hs, specs):
        assert spec is fam.spectrum(h, 1.0)


def test_verify_runs_on_tabulated_wells(double_well, tmp_path, capsys):
    out_file = tmp_path / "reports.json"
    code, _, err = run(
        ["verify", "--model", "tabulated", "--table", str(double_well),
         "--claims", "c11,c12,t41", "--beta", "0.5,1,2", "--h", "0.5,1,2",
         "--output", str(out_file)], capsys)
    assert code in (EXIT_OK, 4), err
    statuses = {r["claim_id"]: r["status"] for r in json.loads(out_file.read_text())}
    assert set(statuses) == {"C1_1", "C1_2", "T4_1_beta", "T4_1_h"}
    assert statuses["C1_1"] == "Holds"


def test_t41_solves_only_the_swept_h(double_well, fd_solves, capsys):
    # vacuity comes from the swept spectra: no extra solve at h = 1
    code, _, err = run(
        ["verify", "--model", "tabulated", "--table", str(double_well),
         "--claims", "t41", "--beta", "5,10", "--h", "0.25,0.5"], capsys)
    assert code == EXIT_OK, err
    assert sorted(planck for planck, _ in fd_solves) == [0.25, 0.5]


def test_a_failed_base_is_solved_once_and_fails_every_row(monkeypatch, capsys):
    # at nu = 40 the oscillator basis's rounding swamps the ground level: the
    # base is not solved again for each row, and every row reports the error
    solves, solve = [], models_mod.solve_oscillator_basis

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(models_mod, "solve_oscillator_basis", counting)
    code, out, _ = run(["table", "--model", "homogeneous", "--nu", "40",
                        "--beta", "1,2,3", "--h", "1,2"], capsys)
    assert code == EXIT_NUMERICAL and len(solves) == 1
    error = ("error: nu=40: a bar of 3.68e+04 swamps the ground level "
             "E_1 = 0.943558 (E_1 - min V = 0.944)")
    assert out.splitlines()[1:] == [f"{beta},{h},nan,nan,nan,nan,nan,nan,{error}"
                                    for beta in (1, 2, 3) for h in (1, 2)]


def test_table_fetches_each_h_once(monkeypatch, capsys):
    # a 3-beta x 2-h table on nu = 2 or 4 takes each h's levels and factor
    # once and builds one Spectrum, the base, which every row reads at
    # lambda = beta h^a; its bytes are those of rows that each read their own
    # point; four claims over the same grid share one sweep, which does the same
    import qcgibbs.spectrum as spectrum_mod

    built, steps = [], []
    init, levels_at = spectrum_mod.Spectrum.__init__, models_mod.ModelFamily.levels_at
    monkeypatch.setattr(spectrum_mod.Spectrum, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    monkeypatch.setattr(models_mod.ModelFamily, "levels_at",
                        lambda self, *args: steps.append(args) or levels_at(self, *args))
    betas, hs = (0.5, 1.0, 2.0), (0.5, 1.0)
    for nu in (2.0, 4.0):
        grid = ["--model", "homogeneous", "--nu", f"{nu:g}", "--beta", "0.5,1,2", "--h", "0.5,1"]
        built.clear()
        steps.clear()
        code, out, _ = run(["table", *grid], capsys)
        assert code == EXIT_OK
        assert len(built) == 1 and [h for h, _ in steps] == list(hs)
        fam = homogeneous_family(nu)
        lam = fam.lambda_min(betas, hs)
        rows = [thermo_point(ThermoPoint(fam.potential, spec, b, h, scale)).row
                for b in betas for h in hs for spec, scale in [levels_at(fam, h, lam)]]
        assert out == thermo_table_text(rows, "csv")
        built.clear()
        steps.clear()
        code, _, _ = run(["verify", "--claims", "c11,c12,t41,c41", *grid], capsys)
        assert code == EXIT_OK
        assert [h for h, _ in steps] == list(hs) and len(built) == 1


def _no_thread(*args, **kwargs):
    raise AssertionError("a sweep started a thread")


def test_claim_sweeps_start_no_pool(monkeypatch, capsys):
    # claim checks read their points serially
    monkeypatch.setattr(threading, "Thread", _no_thread)
    code, _, err = run(["verify", "--model", "homogeneous", "--nu", "2",
                        "--claims", "c11,t41,c41", "--beta", "0.5,1", "--h", "0.5,1"],
                       capsys)
    assert code == EXIT_OK, err


def test_a_table_over_a_large_spectrum_starts_no_thread(monkeypatch, capsys):
    # 63,640 oscillator levels at h = 1: its rows are read one after another,
    # on a host with two usable CPUs too
    monkeypatch.setattr(threading, "Thread", _no_thread)
    monkeypatch.setattr(util_mod, "usable_cpus", lambda: 2)
    fam = homogeneous_family(2.0)
    assert fam.level_count(1.0, fam.lambda_min((5e-4, 1e-3), (1.0,))) > 40_000
    code, out, err = run(["table", "--model", "homogeneous", "--nu", "2",
                          "--beta", "5e-4,1e-3", "--h", "1"], capsys)
    assert code == EXIT_OK, err
    assert len(out.splitlines()) == 3


def _failed_points(out):
    return [rep["notes"].get("failed_points") for rep in json.loads(out)]


def test_verify_exits_3_when_a_point_failed(monkeypatch, capsys):
    # a failed base fails every point it serves, is solved once, and the
    # report is still written
    solves, solve = [], models_mod.solve_oscillator_basis

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(models_mod, "solve_oscillator_basis", counting)
    code, out, err = run(["verify", "--model", "homogeneous", "--nu", "40",
                          "--claims", "c11", "--beta", "1,2", "--h", "1,2"], capsys)
    assert code == EXIT_NUMERICAL and len(solves) == 1
    error = "nu=40: a bar of 3.68e+04 swamps the ground level E_1 = 0.943558 (E_1 - min V = 0.944)"
    assert _failed_points(out) == [[{"beta": b, "h": h, "error": error}
                                    for h in (1.0, 2.0) for b in (1.0, 2.0)]]
    assert err.endswith(f"numerical error: C1_1 at beta=1, h=1: {error}\n")


def test_verify_rules_on_the_h_whose_solve_succeeds(capsys):
    # h = 0.002 needs more levels than the seed-0 well's sine basis holds;
    # C1_1 still rules on both points at h = 1
    well = Path(__file__).parent / "data" / "seed0_double_well.csv"
    code, out, err = run(["verify", "--model", "tabulated", "--table", str(well),
                          "--claims", "c11", "--beta", "0.5,1", "--h", "1,0.002"], capsys)
    assert code == EXIT_NUMERICAL
    (report,) = json.loads(out)
    assert report["notes"]["points"] == 2
    assert report["notes"]["worst_point"]["h"] == 1.0
    failed = report["notes"]["failed_points"]
    assert [(f["beta"], f["h"]) for f in failed] == [(0.5, 0.002), (1.0, 0.002)]
    for f in failed:
        assert f["error"].startswith("tabulated: sweep needs 8542 levels, above the "
                                     "sine-basis cap 0 at h=0.002")
    assert "numerical error: C1_1 at beta=0.5, h=0.002: tabulated" in err


def test_verify_fails_only_the_point_that_leaves_the_double_range(capsys):
    # beta E_n overflows at beta = 1000, h = 1e152 alone: the run goes on
    # past it, and each report lists that point
    code, out, _ = run(["verify", "--model", "box", "--claims", "c11,t41",
                        "--beta", "1,1000", "--h", "1,1e152"], capsys)
    assert code == EXIT_NUMERICAL
    point = {"beta": 1000.0, "h": 1e152,
             "error": "beta E_n leaves the double range at beta=1000"}
    assert _failed_points(out) == [[point]] * 3


@pytest.mark.parametrize("claims", ["c11,t31", "t31,c11"])
def test_verify_writes_every_report_when_t31_fails(claims, tmp_path, capsys):
    # T3_1's point (tau, h) = (0.002, 1) needs 68 levels, above the cap 20:
    # the run still writes C1_1's Holds beside T3_1's Inconclusive
    reports = tmp_path / "reports.json"
    code, _, err = run(["verify", "--model", "box", "--claims", claims, "--beta", "1,2",
                        "--h", "1", "--max-levels", "20", "-o", str(reports)], capsys)
    assert code == EXIT_NUMERICAL
    statuses = {rep["claim_id"]: rep["status"] for rep in json.loads(reports.read_text())}
    assert statuses == {"C1_1": "Holds", "T3_1": "Inconclusive"}
    assert _failed_points(reports.read_text())[claims.split(",").index("t31")][0]["beta"] == 0.002
    assert err.startswith("numerical error: T3_1 at beta=0.002, h=1: box1: sweep needs 68 levels")


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("command", ["table", "verify --claims c11", "spectrum"])
@pytest.mark.parametrize("model", ["homogeneous --nu 2", "tabulated --table WELL"])
def test_one_dimensional_wells_reject_other_n(command, model, double_well, capsys):
    model = model.replace("WELL", str(double_well))
    code, out, err = run(
        [*command.split(), "--model", *model.split(), "--N", "3", "--h", "1"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "--N 3" in err and "ROADMAP.md" in err


@pytest.mark.parametrize("argv, message", [
    ("table --beta 1,nan", "finite"),
    ("table --beta 1:1e400", "finite"),
    ("table --beta inf", "finite"),
    ("table --h 0.5:2:0", "per_decade"),
    ("verify --claims c11 --beta 0.5,nan", "finite"),
    # one point above the cap: the range is refused before it is allocated
    (f"table --beta 1:10:{MAX_GRID_POINTS}", f"{MAX_GRID_POINTS + 1} points"),
])
def test_bad_grids_exit_2(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*argv.split(), "--model", "box", "--L", "1"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert message in err


_GRID_TOKENS = st.sampled_from(
    ["1", "0.5", "2", "1e-3", "1e3", "0", "-1", "nan", "inf", "-inf", "1e400",
     "1e-400", "1e200", "x", ""])
_GRID_TEXT = st.one_of(
    st.lists(st.one_of(_GRID_TOKENS, st.floats().map(repr)), min_size=1, max_size=3)
    .map(",".join),
    st.lists(st.one_of(_GRID_TOKENS, st.integers(-2, 3).map(str)), min_size=1,
             max_size=4).map(":".join),
    st.text(alphabet="0123456789.e-+:,naif ", max_size=12),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(beta=_GRID_TEXT, h=_GRID_TEXT)
def test_grid_text_never_escapes_main(beta, h, capsys):
    # the grid parser on each axis: spectrum reads h, game beta
    for argv, grid in ((["spectrum", "--model", "box", "--L", "1", "--h", h], h),
                       (["game", "--levels", "1,2", "--beta", beta], beta)):
        code, _, err = run(argv, capsys)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), err
        assert "Traceback" not in err
        values = []
        for text in grid.replace(":", ",").split(","):
            try:
                values.append(float(text))
            except ValueError:
                pass
        if not all(math.isfinite(x) for x in values):
            assert code == EXIT_USAGE


# values for each key that run fast: small counts and dimensions, exponents
# the solvers reach in milliseconds, and the bad forms of each
_CONFIG_VALUES = {
    "model": st.sampled_from(["box", "homogeneous", "tabulated", "cube", ""]),
    "dimension": st.sampled_from(["1", "2", "3", "0", "-1", "1.5", "x"]),
    "lengths": st.sampled_from(["1", "1,2", "0.5,1,2", "0", "-1", "inf", "nan", "1,x", ""]),
    "nu": st.sampled_from(["1", "1.5", "2", "3", "4", "0", "-2", "inf", "nan", "1e400", "x"]),
    "mass": st.sampled_from(["1", "0.5", "3", "0", "-1", "inf", "nan", "x"]),
    "table": st.sampled_from(["", "missing.csv"]),
    "beta": _GRID_TEXT,
    "h": _GRID_TEXT,
    "count": st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["1e3", "x", ""])),
    "max_levels": st.sampled_from(["8", "7", "20", "2000000", "x"]),
    "format": st.sampled_from(["csv", "json", "xml"]),
    "seed": st.sampled_from(["0", "-1", "7", "x"]),
}
_CONFIG_LINE = st.one_of(
    st.sampled_from(sorted(_CONFIG_VALUES)).flatmap(
        lambda key: _CONFIG_VALUES[key].map(lambda value: f"{key} = {value}")),
    st.sampled_from(["# a comment", "", "modle = box", "output", "tail_rtol = 1", "= 1"]),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINE, max_size=6))
def test_config_text_never_escapes_main(lines, tmp_path, capsys):
    # any key = value text either runs or exits 2 with a one-line message
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(["spectrum", "--config", str(cfg_file)], capsys)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), err
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    try:
        parse_config(cfg_file.read_text(), "spectrum")
    except ValueError:
        assert code == EXIT_USAGE
