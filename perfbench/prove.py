"""Repeat the benchmark over seeds and check that its numbers are steady.

    python3 perfbench/prove.py [--workloads a,b] [--runs 10] [--first-seed 1]
                               [--trace 0] [--record FILE] [--against FILE]

Runs the command from BENCHMARK.json once per seed and workload, with the
arguments BENCHMARK.json's runner passes, and prints for every metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the interquartile distance as a share of the median. A spread above a third of the metric's
bound is marked UNSTEADY, and one above the bound FAIL (``setup_s`` is exempt
from the spread test). ``--record`` writes every value with the environment
record, which makes a trajectory entry; ``--against`` compares this set's
medians with an earlier record's and marks FAIL where a median got worse by
more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(cmd, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info = {}
    for line in lines:
        for key in ("env", "digest"):
            if line.startswith(f"# {key}"):
                info[key] = json.loads(line.split(" ", 2)[2])
    return json.loads(lines[-1]), info


def spread(values) -> tuple[float, float, float, float | None]:
    """Median, quartiles, and the interquartile distance over the median
    (None for a metric whose median is 0, such as a layer never called)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "first_seed": args.first_seed, "trace": args.trace,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in specs}
        failures = 0
        digests = {}  # output digest per seed, so byte-identity stays visible
        for i in range(args.runs):
            seed = args.first_seed + i
            result, info = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], args.trace)
            record["env"] = info.get("env", {})
            digests[seed] = info.get("digest")
            failures += result["failed"] + (not result["correct"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {"failed": failures, "digests": digests, "metrics": {}}
        print(f"== {workload}: {args.runs} runs of {bench['run_seconds']} s")
        for spec in specs:
            name = spec["name"]
            vals = values[name]
            med, q1, q3, sp = spread(vals)
            entry["metrics"][name] = {"unit": spec["unit"], "median": med, "q1": q1,
                                      "q3": q3, "spread": sp, "values": vals}
            mark = ""
            if "bound" in spec:
                bound = spec["bound"]
                if sp is None or (name != "setup_s" and sp > bound):
                    mark, steady = "FAIL", False
                elif name != "setup_s" and sp > bound / 3:
                    mark = "UNSTEADY"
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    ratio = med / before["median"]
                    worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
                    mark += f" vs earlier {ratio:.4f}"
                    if worse > bound:
                        mark, steady = mark + " FAIL", False
                mark = f"bound={bound} {mark}"
            shown = "n/a" if sp is None else f"{sp:.4f}"
            print(f"  {name:26s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={shown} {spec['unit']} {mark}", flush=True)
        if failures:
            steady = False
            print(f"  {failures} failed operations or incorrect runs")
        record["workloads"][workload] = entry
    if args.record:
        record["git_commit"] = record.get("env", {}).get("git_commit", "unknown")
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
