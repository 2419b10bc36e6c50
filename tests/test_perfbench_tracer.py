"""The benchmark's tracer (perfbench/tracer.py) wraps qcgibbs functions by
name, so a refactor of the package must keep each name it lists, and the
`points` parameter of fd_eigenvalues that its node counter binds. The tracer
is loaded by path and only read."""

import importlib
import importlib.util
import inspect
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
