"""The modules a command loads: scipy.integrate and the scipy.optimize,
scipy.sparse and scipy.fft it pulls in cost about a third of start-up, and
only `verify --claims t31` needs them. scipy.special loads only for the
wedge's Airy zeros and for scipy.integrate. Every other command runs on
numpy and scipy.linalg (the oscillator basis's banded solver and FD's
tridiagonal one); the sine basis of tabulated wells runs on numpy's LAPACK."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qcgibbs
from qcgibbs.potential import save_tabulated_csv

SRC = Path(qcgibbs.__file__).resolve().parents[1]

# one fresh interpreter walks every command in turn and records, after each,
# its exit code and which of the heavy modules sys.modules holds
SCRIPT = """
import json, sys
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.fft",
         "scipy.special")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
from qcgibbs.cli import main
steps = [("import", 0, loaded())]
for name, argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append((name, code, loaded()))
print(json.dumps(steps))
"""


def test_only_t31_loads_scipy_integrate(double_well_potential, tmp_path):
    well = tmp_path / "well.csv"
    save_tabulated_csv(double_well_potential, well)
    out = str(tmp_path / "out")
    commands = [
        ("table", ["table", "--model", "tabulated", "--table", str(well),
                   "--beta", "0.5,2", "--h", "0.5,1", "-o", out]),
        ("verify", ["verify", "--model", "homogeneous", "--nu", "4",
                    "--claims", "c11,c12,t41,c41", "--beta", "0.5,1,2",
                    "--h", "0.5,1", "-o", out]),
        ("wedge", ["table", "--model", "homogeneous", "--nu", "1", "--beta", "1",
                   "--h", "1", "-o", out]),
        ("t31", ["verify", "--model", "box", "--claims", "t31", "-o", out]),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = {name: (code, loaded)
             for name, code, loaded in json.loads(proc.stdout.splitlines()[-1])}
    assert steps["import"] == (0, [])
    assert steps["table"] == (0, [])
    assert steps["verify"] == (0, [])
    assert steps["wedge"] == (0, ["scipy.special"])
    assert steps["t31"] == (0, ["scipy.integrate", "scipy.optimize",
                                "scipy.sparse", "scipy.fft", "scipy.special"])
