"""The benchmark's tracer (perfbench/tracer.py) wraps qcgibbs functions by
name, so a refactor of the package must keep each name it lists, and the
`points` parameter of fd_eigenvalues that its node counter binds, and each
layer's readers must stay reachable through those names, so that a run under
the tracer records spans of every layer it reads. The tracer is loaded by
path and only read."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

from qcgibbs.spectrum import fd_eigenvalues

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for mod_name, qualname, _, _ in _tracer().TRACED:
        owner = importlib.import_module(mod_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{qualname}"


def test_fd_node_counter_binds_points():
    assert "points" in inspect.signature(fd_eigenvalues).parameters


def _groups_traced(argv, capsys) -> Counter:
    """Spans per group of one in-process CLI run under the tracer."""
    import qcgibbs.cli as cli

    tracer = _tracer().Tracer("test")
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return Counter(name.split(":", 1)[0] for name, *_ in tracer.records())


def test_the_tracer_sees_every_layer_a_check_reads(capsys):
    # the benchmark's per-layer counts rest on these spans: a claim check's
    # points must reach the traced readers, not private copies of them
    groups = _groups_traced(["verify", "--model", "homogeneous", "--nu", "4", "--claims",
                             "c11,c12,t41", "--beta", "0.5,1", "--h", "0.5,1"], capsys)
    for group in ("ensemble.quantum", "ensemble.error", "ensemble.classical", "verify.check"):
        assert groups[group] > 0, group


def test_the_tracer_sees_every_table_row(capsys):
    groups = _groups_traced(["table", "--model", "box", "--beta", "0.5,1,2", "--h", "1"], capsys)
    assert groups["ensemble.point"] == 3
    assert groups["ensemble.quantum"] > 0 and groups["ensemble.classical"] > 0
