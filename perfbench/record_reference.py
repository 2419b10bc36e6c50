"""Record the reference outputs the gate compares against.

    python3 perfbench/record_reference.py

Runs each workload once on REFERENCE_SEED and writes
``perfbench/reference/<workload>.json``: the table rows as floats, or the
verify reports with the verdict of each claim. The files in the repository
were recorded at the commit named inside them; re-recording replaces the
gate's notion of a correct answer, so a change that does so must say why.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import WORK_ROOT, git_commit, invoke
from gate import REFERENCE_DIR
from workloads import REFERENCE_SEED, WORKLOAD_NAMES, make_case


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        workdir = WORK_ROOT / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        case = make_case(name, REFERENCE_SEED, workdir)
        case.output.parent.mkdir(parents=True, exist_ok=True)
        res, _, _ = invoke(workdir, 1, list(case.argv), case.inputs, False,
                           time.monotonic() + 600.0)
        if res.get("exit_code") != 0:
            print(f"{name}: {res}", file=sys.stderr)
            return 1
        text = case.output.read_text()
        record = {"workload": name, "seed": REFERENCE_SEED, "commit": git_commit(),
                  "argv": list(case.argv[:-2])}
        if case.command == "table":
            record["rows"] = [[float(x) for x in line.split(",")]
                              for line in text.splitlines()[1:]]
        else:
            reports = json.loads(text)
            record["verdicts"] = {r["claim_id"]: r["status"] for r in reports}
            record["reports"] = reports
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
