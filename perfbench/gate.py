"""Correctness gate: every output of every invocation is checked.

An operation is one grid point of the output: a table row, or a point a
verify report covers. It fails when

- the invocation exits non-zero or its output is missing or unparsable
  (every point of the invocation fails);
- a table row has a status other than ok, a non-finite value, a (beta, h)
  off the requested grid, breaks an entropy identity, breaks C1_1
  domination, or (power-law wells) disagrees with the closed-form Z_c, E_c;
- a table row matches the reference row recorded at the seed commit for the
  same (beta, h) by more than the workload's tolerance. References apply on
  REFERENCE_SEED and, for the wedge, whose inputs other than the grid do not
  depend on the seed, on every row whose (beta, h) sits on the fixed grid
  endpoints;
- a verify report's verdict is weaker than the seed commit's (Holds >
  Inconclusive > Violated; Violated always fails), or the report does not
  cover the requested grid (all of its points fail);
- a verify report lists failed_points (each entry is one failure).

Verify margins are not compared with reference values: they move with any
change to the spectrum's accuracy, and the verdict is what the user reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import REFERENCE_SEED, TABLE_FIELDS, Case

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference tolerance, relative to max(|reference|, 1). Wedge levels are
# analytic, so only summation order and tail truncation (gated at 1e-10 of
# each sum) can move a value. Tabulated levels come from Richardson-
# extrapolated finite differences whose claimed errors in the populated band
# are about 1e-6 relative; 1e-4 leaves room for another solver of that
# accuracy and still catches a wrong spectrum.
TABLE_RTOL = {"wedge-table": 1e-9, "tabulated-table": 1e-4}
# reference rows that hold on every seed (the row's inputs are seed-free)
SEED_FREE_REFERENCE = {"wedge-table": True, "tabulated-table": False}
IDENTITY_RTOL = 1e-9  # the program enforces its own identities at 1e-10
CLOSED_FORM_RTOL = 1e-8  # the program cross-checks Z_c quadrature at 1e-8

VERDICT_RANK = {"Violated": 0, "Inconclusive": 1, "Holds": 2}


@dataclass
class GateResult:
    attempted: int
    failed: int = 0
    failed_points: int = 0  # entries of verify reports' failed_points
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check(case: Case, exit_code: int | None, output: str | None,
          reference: dict) -> GateResult:
    """Gate one invocation's output against the case and the reference."""
    result = GateResult(case.points)
    if exit_code != 0:
        result.fail(case.points, f"exit code {exit_code}")
        return result
    if output is None:
        result.fail(case.points, "no output file")
        return result
    if case.command == "table":
        _check_table(case, output, reference, result)
    else:
        _check_verify(case, output, reference, result)
    result.failed = min(result.failed, result.attempted)
    return result


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def _row_problem(case: Case, beta: float, h: float, vals: list[float]) -> str | None:
    """Self-consistency of one table row; None when it holds."""
    if not all(math.isfinite(v) for v in vals):
        return "non-finite value"
    zq_scaled, zc, eq, ec, sq, sc = vals[2:]
    if zq_scaled <= 0.0 or zc <= 0.0:
        return "non-positive partition sum"
    log_2pih = math.log(2.0 * math.pi * h)
    if not _close(sq, beta * eq + math.log(zq_scaled) - log_2pih, IDENTITY_RTOL):
        return "S_q != beta E_q + log Z_q"
    if not _close(sc, beta * ec + math.log(zc) - log_2pih, IDENTITY_RTOL):
        return "S_c != beta E_c + log Z_c - log(2 pi h)"
    if zq_scaled > zc * (1.0 + IDENTITY_RTOL):
        return "(2 pi h) Z_q > Z_c (C1_1)"
    if case.nu is not None:
        nu = case.nu
        zc_closed = math.sqrt(2.0 * math.pi / beta) * 2.0 * math.gamma(1.0 + 1.0 / nu) \
            * beta ** (-1.0 / nu)
        if not _close(zc, zc_closed, CLOSED_FORM_RTOL):
            return "Z_c off its closed form"
        if not _close(ec, (2.0 + nu) / (2.0 * nu * beta), CLOSED_FORM_RTOL):
            return "E_c off its closed form"
    return None


def _check_table(case: Case, text: str, reference: dict, result: GateResult) -> None:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TABLE_FIELDS:
        header = lines[0] if lines else ""
        result.fail(case.points, f"table header {header!r} (a status column means failed rows)")
        return
    expected = [(b, h) for b in case.betas for h in case.hs]
    rows = lines[1:]
    if len(rows) != len(expected):
        result.fail(max(len(expected) - len(rows), 1),
                    f"{len(rows)} rows, expected {len(expected)}")
    use_reference = case.seed == REFERENCE_SEED or SEED_FREE_REFERENCE[case.workload]
    ref_rows = {(r[0], r[1]): r for r in reference["rows"]} if use_reference else {}
    rtol = TABLE_RTOL[case.workload]
    for line, (beta, h) in zip(rows, expected):
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            result.fail(1, f"unparsable row {line!r}")
            continue
        if len(vals) != len(TABLE_FIELDS) or (vals[0], vals[1]) != (beta, h):
            result.fail(1, f"row {line!r} is not the grid point ({beta!r}, {h!r})")
            continue
        problem = _row_problem(case, beta, h, vals)
        if problem is None and (beta, h) in ref_rows:
            ref = ref_rows[(beta, h)]
            bad = [f for f, got, want in zip(TABLE_FIELDS, vals, ref)
                   if not _close(got, want, rtol)]
            if bad:
                problem = f"{','.join(bad)} off the reference by more than {rtol:g}"
        if problem is not None:
            result.fail(1, f"beta={beta!r} h={h!r}: {problem}")


def _check_verify(case: Case, text: str, reference: dict, result: GateResult) -> None:
    try:
        reports = json.loads(text)
        by_claim = {r["claim_id"]: r for r in reports}
    except (ValueError, TypeError, KeyError) as exc:
        result.fail(case.points, f"unparsable reports: {exc}")
        return
    full = {"beta": list(case.betas), "h": list(case.hs)}
    first_beta = {"beta": [case.betas[0]], "h": list(case.hs)}
    for claim, floor in reference["verdicts"].items():
        grid = first_beta if claim in ("C4_1", "P4_1", "P4_3") else full
        points = len(grid["beta"]) * len(grid["h"])
        report = by_claim.get(claim)
        if report is None:
            result.fail(points, f"{claim}: no report")
            continue
        status = report.get("status")
        if VERDICT_RANK.get(status, -1) < VERDICT_RANK[floor] or status == "Violated":
            result.fail(points, f"{claim}: {status}, the seed commit gave {floor}")
            continue
        if report.get("grid") != grid:
            result.fail(points, f"{claim}: report grid differs from the requested grid")
            continue
        failed = len(report.get("notes", {}).get("failed_points", []))
        if failed:
            result.failed_points += failed
            result.fail(min(failed, points), f"{claim}: {failed} failed points")
    if len(reports) != len(reference["verdicts"]):
        result.fail(1, f"{len(reports)} reports, expected {len(reference['verdicts'])}")
