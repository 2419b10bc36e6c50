"""The modules a command loads. Importing scipy costs more than the rest of a
command's start-up, so no command loads any of it except two:
`verify --claims t31`, whose quadrature needs scipy.integrate (with the
scipy.optimize, scipy.sparse, scipy.fft and scipy.special it pulls in), and
the wedge, whose Airy zeros come from scipy.special. Only `game` loads
qcgibbs.game (and the dataclasses it imports), and only a box of two or more
dimensions heapq, for its lattice enumeration. No command loads argparse,
gettext or locale: argv is read by qcgibbs.cli's own reader (only scipy's
imports, on the wedge and for t31, load them). The oscillator basis's
band solver and finite differences' tridiagonal one call LAPACK through the
OpenBLAS that numpy has loaded (qcgibbs.lapack), which is looked up at the
first solve, not at import; the sine basis of tabulated wells runs on
numpy.linalg. Importing the package loads numpy with OpenBLAS at one thread,
unless numpy is loaded already or the caller named a thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcgibbs
from qcgibbs.potential import save_tabulated_csv
from qcgibbs.util import usable_cpus

SRC = Path(qcgibbs.__file__).resolve().parents[1]

# modules only some commands load: qcgibbs.game (game), the dataclasses it
# imports, and heapq (the lattice enumeration of a box of two or more axes)
ON_DEMAND = ("dataclasses", "heapq", "qcgibbs.game")
# modules that argparse loads (gettext, and locale at its first message)
ARGPARSE = ("argparse", "gettext", "locale")

# one fresh interpreter walks every command in turn and records, after each,
# its exit code, every scipy module sys.modules holds, how many times
# qcgibbs.lapack has looked its library up, whether concurrent.futures is
# loaded, which of ON_DEMAND are, and which of ARGPARSE
SCRIPT = """
import json, sys
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
state = lambda: (scipy(), _lapacke.cache_info().misses, "concurrent.futures" in sys.modules,
                 [m for m in %r if m in sys.modules], [m for m in %r if m in sys.modules])
from qcgibbs.cli import main
from qcgibbs.lapack import _lapacke
steps = [("import", 0, *state())]
for name, argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append((name, code, *state()))
print(json.dumps(steps))
""" % (ON_DEMAND, ARGPARSE)

T31_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.fft",
             "scipy.special")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def _walk(commands: list) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: tuple(step) for name, *step in json.loads(proc.stdout.splitlines()[-1])}


def test_only_the_wedge_and_t31_load_scipy(double_well_potential, tmp_path):
    well = tmp_path / "well.csv"
    save_tabulated_csv(double_well_potential, well)
    out = str(tmp_path / "out")
    grid = ["--beta", "0.5,2", "--h", "0.5,1", "-o", out]
    steps = _walk([
        # first, so that the library is first looked up by band blocks that
        # are solved on several threads
        ("quartic verify", ["verify", "--model", "homogeneous", "--nu", "4",
                            "--claims", "c11,c12,t41,c41", "--beta", "0.5,1,2",
                            "--h", "0.5,1", "-o", out]),
        ("tabulated table", ["table", "--model", "tabulated", "--table", str(well)] + grid),
        ("box table", ["table", "--model", "box"] + grid),
        ("oscillator table", ["table", "--model", "homogeneous", "--nu", "2"] + grid),
        ("cubic spectrum", ["spectrum", "--model", "homogeneous", "--nu", "3",
                            "--count", "20", "-o", out]),
    ])
    # nor is the LAPACK library looked up, nor a thread pool module loaded
    assert steps["import"] == (0, [], 0, False, [], [])
    for name in ("tabulated table", "quartic verify", "box table", "oscillator table",
                 "cubic spectrum"):
        assert steps[name][:2] == (0, []) and steps[name][5] == [], name
    # once, though the quartic's band blocks and the cubic's grids are
    # solved on several threads
    assert steps["quartic verify"][2] == steps["cubic spectrum"][2] == 1
    # table rows and concurrent solves run on plain threads
    assert not steps["tabulated table"][3] and not steps["quartic verify"][3]


def test_only_the_game_and_the_lattice_load_their_modules(double_well_potential, tmp_path):
    well = tmp_path / "well.csv"
    save_tabulated_csv(double_well_potential, well)
    out = str(tmp_path / "out")
    grid = ["--beta", "0.5,2", "--h", "0.5,1", "-o", out]
    steps = _walk([
        ("quartic verify", ["verify", "--model", "homogeneous", "--nu", "4",
                            "--claims", "c11,c12,t41,c41", "--beta", "0.5,1,2",
                            "--h", "0.5,1", "-o", out]),
        ("tabulated table", ["table", "--model", "tabulated", "--table", str(well)] + grid),
        ("oscillator table", ["table", "--model", "homogeneous", "--nu", "2"] + grid),
        ("quartic spectrum", ["spectrum", "--model", "homogeneous", "--nu", "4",
                              "--count", "20", "-o", out]),
        ("square table", ["table", "--model", "box", "--N", "2", "--L", "1,1"] + grid),
        ("game", ["game", "--model", "homogeneous", "--nu", "4", "--minors", "3"]),
        # nor do help, usage errors, or a run with no command
        ("help", ["table", "-h"]),
        ("overview", ["--help"]),
        ("unread flag", ["spectrum", "--beta", "7"]),
        ("missing value", ["verify", "--claims"]),
        ("no command", []),
        ("unknown command", ["nosuch"]),
        ("bad config", ["spectrum", "--config", "/nonexistent/run.cfg"]),
    ])
    for name in ("import", "quartic verify", "tabulated table", "oscillator table",
                 "quartic spectrum"):
        assert steps[name][0] == 0 and steps[name][4] == [], name
    assert steps["square table"][0] == 0 and steps["square table"][4] == ["heapq"]
    assert steps["game"][0] == 0 and steps["game"][4] == list(ON_DEMAND)
    assert [steps[name][0] for name in ("help", "overview", "unread flag", "missing value",
                                        "no command", "unknown command", "bad config")] \
        == [0, 0, 2, 2, 2, 2, 2]
    for name, step in steps.items():
        assert step[5] == [], name


def test_the_game_names_resolve_from_the_package():
    from qcgibbs import game, structured_det

    assert qcgibbs.ascend is game.ascend and structured_det is game.structured_det
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qcgibbs.no_such_name


def test_only_t31_loads_scipy_integrate(tmp_path):
    out = str(tmp_path / "out")
    steps = _walk([
        ("wedge", ["table", "--model", "homogeneous", "--nu", "1", "--beta", "1",
                   "--h", "1", "-o", out]),
        ("t31", ["verify", "--model", "box", "--claims", "t31", "-o", out]),
    ])
    code, loaded, *_ = steps["wedge"]
    assert code == 0 and "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.linalg",) + T31_HEAVY[:-1])]
    code, loaded, *_ = steps["t31"]
    assert code == 0 and set(T31_HEAVY) <= set(loaded)


# the OpenBLAS files mapped into a fresh interpreter once numpy is imported,
# and again after a quartic solve through qcgibbs.lapack
MAPS_SCRIPT = """
import json
import numpy
mapped = lambda: sorted({line.split()[-1] for line in open("/proc/self/maps")
                         if "openblas" in line.rsplit("/", 1)[-1]})
before = mapped()
from qcgibbs.cli import main
code = main(["spectrum", "--model", "homogeneous", "--nu", "4", "--count", "583",
             "-o", __import__("os").devnull])
print(json.dumps([before, code, mapped()]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_band_solves_run_on_numpys_openblas():
    # binding scipy's own OpenBLAS would start a second BLAS runtime, with its
    # own thread pool and resident memory
    proc = subprocess.run([sys.executable, "-c", MAPS_SCRIPT], capture_output=True,
                          text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, code, after = json.loads(proc.stdout.splitlines()[-1])
    if not before:
        pytest.skip("numpy loads no OpenBLAS here")
    assert code == 0
    assert after == before


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# a fresh interpreter imports qcgibbs (after numpy when asked) and records
# OpenBLAS's thread count, its tasks right before and after that import
# (None off Linux), and the thread variables it is left with
THREADS_SCRIPT = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
tasks = lambda: len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
before = tasks()
import qcgibbs
from qcgibbs.lapack import _lapacke
lapacke = _lapacke()
count = lapacke.get_threads() if lapacke and lapacke.get_threads else None
print(json.dumps([count, before, tasks(), {k: os.environ.get(k) for k in %r}]))
""" % (THREAD_VARS,)


def _threads_at_start(order: str, **given: str) -> tuple:
    env = {k: v for k, v in _env().items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, order], capture_output=True,
                          text=True, env={**env, **given}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, before, after, left = json.loads(proc.stdout.splitlines()[-1])
    if count is None:
        pytest.skip("numpy loads no OpenBLAS with a thread count here")
    assert left == {k: given.get(k) for k in THREAD_VARS}  # as the caller had them
    return count, before, after


def test_openblas_starts_at_one_thread():
    count, _, after = _threads_at_start("qcgibbs first")
    assert count == 1
    assert after in (1, None)  # no BLAS thread waits, nor spins, beside the caller


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_named_thread_count_is_kept(name):
    if usable_cpus() < 2:
        pytest.skip("OpenBLAS takes at most one thread per usable CPU")
    assert _threads_at_start("qcgibbs first", **{name: "2"})[0] == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_numpy_loaded_first_keeps_its_own_thread_count():
    # numpy starts OpenBLAS's threads as it loads, so the tasks then running
    # are the count it chose
    count, before, after = _threads_at_start("numpy first")
    assert count == before == after
