"""Self-tests of the benchmark: inputs, gate, tracer and a smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED, TABLE_FIELDS, WELL_WALL, WORKLOAD_NAMES, WORKLOADS, make_case,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer counters that must be non-zero on the workload that exercises them
EXPECTED_SPANS = {
    "wedge-table": ["spectrum.build_calls", "spectrum.rescale_calls", "spectrum.tail_calls",
                    "models.spectrum_calls", "ensemble.quantum_calls",
                    "ensemble.classical_calls", "ensemble.point_ms_p50", "cli.self_s"],
    "quartic-verify": ["spectrum.build_calls", "spectrum.fd_eig_calls", "spectrum.fd_nodes",
                       "spectrum.rescale_calls", "spectrum.tail_calls",
                       "models.spectrum_calls", "ensemble.quantum_calls",
                       "ensemble.error_calls", "ensemble.classical_calls",
                       "verify.check_s", "verify.self_s", "cli.self_s"],
    "tabulated-table": ["spectrum.build_calls", "spectrum.fd_eig_calls", "spectrum.fd_nodes",
                        "models.spectrum_calls", "ensemble.quantum_calls",
                        "ensemble.classical_calls", "ensemble.point_ms_p50",
                        "potential.load_s", "cli.self_s"],
}


def table_text(rows) -> str:
    return ",".join(TABLE_FIELDS) + "\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows)


def test_benchmark_json_matches_the_harness():
    whys = {w.name: w.why for w in WORKLOADS}
    assert all(whys[w["name"]] == w["why"] for w in BENCH["workloads"])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracer.LAYER_METRICS


def test_inputs_follow_the_seed(tmp_path):
    a = make_case("tabulated-table", 7, tmp_path / "a")
    b = make_case("tabulated-table", 7, tmp_path / "b")
    c = make_case("tabulated-table", 8, tmp_path / "c")
    assert a.betas == b.betas and a.inputs[0].read_text() == b.inputs[0].read_text()
    assert a.betas != c.betas and a.inputs[0].read_text() != c.inputs[0].read_text()
    assert (a.betas[0], a.betas[-1]) == (c.betas[0], c.betas[-1])
    for case in (a, c):
        assert list(case.betas) == sorted(set(case.betas))
        values = [float(line.split(",")[1]) for line in case.inputs[0].read_text().splitlines()[1:]]
        assert values[0] == values[-1] == WELL_WALL
        assert max(values[1:-1]) < WELL_WALL and min(values) > 0.0


@pytest.mark.parametrize("workload", ["wedge-table", "tabulated-table"])
def test_gate_rejects_a_perturbed_table_row(tmp_path, workload):
    case = make_case(workload, REFERENCE_SEED, tmp_path)
    reference = gate.load_reference(workload)
    rows = reference["rows"]
    assert gate.check(case, 0, table_text(rows), reference).failed == 0

    perturbed = copy.deepcopy(rows)
    perturbed[3][4] *= 1.0 + 1e-3  # E_q of one row
    result = gate.check(case, 0, table_text(perturbed), reference)
    assert (result.attempted, result.failed) == (case.points, 1)

    with_status = table_text(rows).replace("Sc\n", "Sc,status\n", 1)
    assert gate.check(case, 0, with_status, reference).failed == case.points
    assert gate.check(case, 3, table_text(rows), reference).failed == case.points


def test_gate_rejects_a_perturbed_corner_row_on_any_seed(tmp_path):
    # wedge corner rows sit on fixed grid endpoints, so the reference holds there
    case = make_case("wedge-table", 11, tmp_path)
    reference = gate.load_reference("wedge-table")
    corner = next(r for r in reference["rows"]
                  if (r[0], r[1]) == (case.betas[0], case.hs[0]))
    bad = copy.deepcopy(corner)
    bad[3] *= 1.0 + 1e-6  # Z_c, also breaks the S_c identity
    assert gate.check(case, 0, table_text([bad]), reference).failed >= 1


def _reports(tmp_path):
    case = make_case("quartic-verify", REFERENCE_SEED, tmp_path)
    reference = gate.load_reference("quartic-verify")
    return case, reference, copy.deepcopy(reference["reports"])


def test_gate_rejects_a_downgraded_verdict(tmp_path):
    case, reference, reports = _reports(tmp_path)
    assert gate.check(case, 0, json.dumps(reports), reference).failed == 0

    downgraded = copy.deepcopy(reports)
    downgraded[0]["status"] = "Inconclusive"  # C1_1 over the full grid
    result = gate.check(case, 0, json.dumps(downgraded), reference)
    assert result.failed == len(case.betas) * len(case.hs)

    violated = copy.deepcopy(reports)
    p41 = next(r for r in violated if r["claim_id"] == "P4_1")
    p41["status"] = "Violated"
    assert gate.check(case, 0, json.dumps(violated), reference).failed == len(case.hs)

    upgraded = copy.deepcopy(reports)
    next(r for r in upgraded if r["claim_id"] == "P4_1")["status"] = "Holds"
    assert gate.check(case, 0, json.dumps(upgraded), reference).failed == 0


def test_gate_counts_failed_points(tmp_path):
    case, reference, reports = _reports(tmp_path)
    reports[1]["notes"]["failed_points"] = [{"beta": 1.0, "h": 1.0, "error": "x"}] * 2
    result = gate.check(case, 0, json.dumps(reports), reference)
    assert (result.failed, result.failed_points) == (2, 2)


def test_tracer_rebinds_every_importer(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import qcgibbs
    import qcgibbs.cli as cli
    import qcgibbs.verify as verify
    from qcgibbs import ensemble, models

    originals = (ensemble.z_quantum, verify.z_quantum, cli.thermo_point,
                 models.rescale, verify.CLAIM_CHECKS["c11"],
                 models.ModelFamily.spectrum, qcgibbs.z_quantum)
    t = tracer.Tracer("test")
    t.install()
    try:
        wrapped = (ensemble.z_quantum, verify.z_quantum, cli.thermo_point,
                   models.rescale, verify.CLAIM_CHECKS["c11"],
                   models.ModelFamily.spectrum, qcgibbs.z_quantum)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert verify.z_quantum is ensemble.z_quantum is qcgibbs.z_quantum
        out = tmp_path / "t.csv"
        root = t.span(tracer.ROOT, cli.main)
        assert root(["table", "--model", "homogeneous", "--nu", "2",
                     "--beta", "0.5,1", "--h", "1", "-o", str(out)]) == 0
    finally:
        t.uninstall()
    restored = (ensemble.z_quantum, verify.z_quantum, cli.thermo_point,
                models.rescale, verify.CLAIM_CHECKS["c11"],
                models.ModelFamily.spectrum, qcgibbs.z_quantum)
    assert restored == originals
    summary = tracer.summarize(t.records())
    assert summary["models.spectrum_calls"] == 2
    assert summary["spectrum.build_calls"] == 1 and summary["spectrum.rescale_calls"] == 2
    assert summary["ensemble.quantum_calls"] == 10  # five weight passes per row
    assert abs(sum(summary[f"{layer}.share"] for layer in tracer.LAYERS) - 1.0) < 1e-9


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", "5", "--seconds", "0.1",
                            "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}
    for spec in specs:
        assert any(line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
                   for line in lines), spec["name"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for name in EXPECTED_SPANS[workload]:
            assert result["metrics"][name]["value"] > 0, name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "wedge-table", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
