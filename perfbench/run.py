"""qcgibbs benchmark: closed-loop CLI invocations, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

One caller runs one CLI invocation at a time (a closed loop with one
client), each in a fresh interpreter that imports the package from this
checkout's ``src/`` and calls ``qcgibbs.cli.main(argv)``. Invocations repeat
until ``--seconds`` have passed; every metric is a median over them.
``QCGIBBS_THREADS`` is removed from the child's environment, so the program
runs with its default of one thread.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
the first, third, ... invocations are traced (spans from ``tracer.py``) and
the others are not; the run reports the per-layer metrics, each layer's
share of the traced wall time, the tracing overhead (traced minus untraced
median wall time), and fails the gate unless traced and untraced outputs
are byte-identical.

Every invocation's output goes through ``gate.py``. Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The run exits 2 without a result
when the checkout has no ``src/qcgibbs`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, make_case  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, child included

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be measured; no result is printed."""


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown'
    outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCGIBBS_THREADS", None)
    env.pop("QCGIBBS_OUTDIR", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every setup compiles the package the same way
    return env


def invoke(workdir: Path, index: int, argv, inputs, trace: bool,
           deadline: float) -> tuple[dict, Path, Path]:
    """Run one child; returns its result record and its stdout/stderr files."""
    job_file = workdir / f"job-{index}.json"
    result_file = workdir / f"result-{index}.json"
    stdout_file = workdir / f"stdout-{index}.txt"
    stderr_file = workdir / f"stderr-{index}.txt"
    job = {"argv": argv, "inputs": [str(p) for p in inputs], "trace": trace,
           "run_id": f"{workdir.name}/{index}", "result": str(result_file)}
    job_file.write_text(json.dumps(job))
    cmd = [sys.executable, str(HERE / "child.py"), str(job_file)]
    timeout = max(deadline - time.monotonic(), 1.0)
    with stdout_file.open("wb") as out, stderr_file.open("wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(spawn)], stdout=out, stderr=err,
                                env=child_env(), cwd=str(ROOT))
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"timed out after {timeout:.0f} s"}, stdout_file, stderr_file
    if proc.returncode != 0 or not result_file.exists():
        tail = stderr_file.read_text(errors="replace")[-2000:]
        return {"error": f"child exited {proc.returncode}: {tail}"}, stdout_file, stderr_file
    return json.loads(result_file.read_text()), stdout_file, stderr_file


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, or None
    when not even the median has ten samples beyond it."""
    if n < 20:
        return None
    return int(100 * (n - 10) / n)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "qcgibbs" / "cli.py").is_file():
        raise SetupError(f"no src/qcgibbs/cli.py under {ROOT}")
    if workload not in WORKLOAD_NAMES:
        raise SetupError(f"unknown workload {workload!r}; expected one of {WORKLOAD_NAMES}")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    workdir = WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        case = make_case(workload, seed, workdir)
        case.output.parent.mkdir(parents=True, exist_ok=True)
        reference = gate.load_reference(workload)
        warm, _, _ = invoke(workdir, 0, None, case.inputs, False, deadline)
        if "error" in warm:
            raise SetupError(f"the package does not import: {warm['error']}")

        samples = []
        loop_start = time.monotonic()
        index = 1
        while True:
            traced = trace and index % 2 == 1
            case.output.unlink(missing_ok=True)
            res, stdout_file, stderr_file = invoke(
                workdir, index, list(case.argv), case.inputs, traced, deadline)
            output = case.output.read_text() if case.output.exists() else None
            outcome = gate.check(case, res.get("exit_code"), output, reference)
            if "error" in res:
                outcome.problems.insert(0, res["error"])
            digest = hashlib.sha256()
            digest.update(case.output.read_bytes() if output is not None else b"")
            digest.update(stdout_file.read_bytes())
            res.update(traced=traced, gate=outcome, digest=digest.hexdigest(),
                       output_bytes=(len(output.encode()) if output is not None else 0)
                       + stdout_file.stat().st_size + stderr_file.stat().st_size)
            samples.append(res)
            index += 1
            elapsed = time.monotonic() - loop_start
            if "error" in res or time.monotonic() > deadline - 30.0:
                break
            # stop before an invocation that would end past --seconds, so a
            # run lasts about --seconds whatever one invocation costs
            per_invocation = elapsed / len(samples)
            if elapsed + per_invocation > seconds and (not trace or len(samples) >= 2):
                break
        return summarize_run(case, samples, warm, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize_run(case, samples, warm, trace) -> dict:
    attempted = sum(s["gate"].attempted for s in samples)
    failed = sum(s["gate"].failed for s in samples)
    problems = [p for s in samples for p in s["gate"].problems]
    digests = sorted({s["digest"] for s in samples})
    if len(digests) > 1:
        # identical argv must give identical bytes, traced or not
        problems.append(f"outputs differ between invocations: {len(digests)} digests")
        failed = attempted
    ok = [s for s in samples if "wall_s" in s]
    info = {
        "workload": case.workload,
        "seed": case.seed,
        "trace": int(trace),
        "invocations": len(samples),
        "points_per_invocation": case.points,
        "failed_frac": failed / attempted if attempted else 1.0,
        "digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems[:20],
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_commit": git_commit(),
            **warm.get("env", {}),
        },
    }
    if not ok:
        raise SetupError("no invocation finished: " + "; ".join(problems[:3]))
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    walls = [s["wall_s"] for s in untraced]
    setups = [s["setup_s"] for s in ok]  # the warm-up child filled the file cache
    if trace:
        summaries = [tracer.summarize(s["spans"]) for s in traced]
        metrics = tracer.aggregate(
            summaries,
            [s["wall_s"] for s in traced],
            walls or [s["wall_s"] for s in traced],
            {
                "verify.failed_points": statistics.median(s["gate"].failed_points for s in traced),
                "cli.output_bytes": statistics.median(s["output_bytes"] for s in traced),
            },
        )
        units = tracer.LAYER_METRICS
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "points_per_s": case.points / wall,
            "cpu_s": statistics.median(s["cpu_s"] for s in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        units = END_TO_END
        pct = tail_percentile(len(walls))
        info["wall_s_samples"] = len(walls)
        info["wall_s_tail"] = (
            {"percentile": pct,
             "value": statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]}
            if pct else "fewer than 20 samples: no percentile above the median "
                        "has 10 samples beyond it")
        info["setup_s_samples"] = len(setups)
    return {
        "info": info,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def print_report(result: dict) -> None:
    info = result["info"]
    print(f"# workload={info['workload']} seed={info['seed']} trace={info['trace']} "
          f"invocations={info['invocations']} points/invocation={info['points_per_invocation']}")
    for name, m in result["metrics"].items():
        print(f"{name:26s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':26s} {info['failed_frac']:.6g} fraction "
          f"({result['failed']}/{result['attempted']} operations)")
    for key in ("wall_s_samples", "wall_s_tail", "setup_s_samples", "digest"):
        if key in info:
            print(f"# {key}: {json.dumps(info[key])}")
    for problem in info["problems"]:
        print(f"# problem: {problem}")
    print("# env " + json.dumps(info["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace))
            print_report(results[name])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        line = {name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                for name, r in results.items()}
    else:
        line = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
