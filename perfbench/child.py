"""Run one qcgibbs CLI invocation in this fresh interpreter and time it.

Usage: python child.py JOB_JSON SPAWN_TIME

SPAWN_TIME is the harness's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` spans interpreter
start, the package import and the check that the inputs exist. ``wall_s`` and
``cpu_s`` cover ``qcgibbs.cli.main(argv)`` alone, and ``peak_rss_mb`` is the
process high-water mark after it returns. The program's own stdout and stderr
go wherever the harness pointed them; this script reports through the result
file named in the job.

A job with ``"argv": null`` only imports the package and records the
environment, which warms the file cache before the timed invocations.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "QCGIBBS_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    spawn = float(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import qcgibbs.cli as cli

    package = Path(cli.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"qcgibbs imported from {package}, not from this checkout", file=sys.stderr)
        return 97
    missing = [p for p in job["inputs"] if not os.path.exists(p)]
    if missing:
        print(f"missing inputs: {missing}", file=sys.stderr)
        return 97
    setup_s = time.monotonic() - spawn
    result: dict = {"setup_s": setup_s}
    if job["argv"] is None:
        result["env"] = _environment()
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    run = cli.main
    if job["trace"]:
        from tracer import ROOT as ROOT_SPAN, Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
        run = tracer.span(ROOT_SPAN, cli.main)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = run(list(job["argv"]))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    sys.stdout.flush()
    sys.stderr.flush()
    result.update({
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    })
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.records()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
