"""Spans around calls into each qcgibbs layer, recorded from the benchmark.

``install`` wraps each traced function and rebinds every reference to it: the
name in the defining module, the same name in every qcgibbs module that
imported it (``verify``, ``cli``, ``models`` and ``ensemble`` import functions
by name), entries of ``verify.CLAIM_CHECKS``, and the two ``ModelFamily``
methods on the class. Nothing under ``src/`` changes; ``uninstall`` puts the
originals back.

A span is (name, start, end, parent, run id, work count). Spans stay in
memory while the CLI runs and are written out once it returns. ``summarize``
turns one invocation's spans into the per-layer metrics; it needs only the
standard library, so the harness can call it without importing numpy.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import threading
from time import perf_counter

# (module, function or Class.method, layer, group). The group names the
# per-layer metric a span feeds; see summarize().
TRACED = (
    ("qcgibbs.spectrum", "solve_fd_1d", "spectrum", "build"),
    ("qcgibbs.spectrum", "wedge_spectrum", "spectrum", "build"),
    ("qcgibbs.spectrum", "solve_box", "spectrum", "build"),
    ("qcgibbs.spectrum", "oscillator_spectrum", "spectrum", "build"),
    ("qcgibbs.spectrum", "fd_eigenvalues", "spectrum", "fd_eig"),
    ("qcgibbs.spectrum", "rescale", "spectrum", "rescale"),
    ("qcgibbs.spectrum", "log_tail_bound", "spectrum", "tail"),
    ("qcgibbs.models", "ModelFamily.spectrum", "models", "spectrum"),
    ("qcgibbs.models", "ModelFamily.base_spectrum", "models", "base"),
    ("qcgibbs.ensemble", "log_z_quantum", "ensemble", "quantum"),
    ("qcgibbs.ensemble", "z_quantum", "ensemble", "quantum"),
    ("qcgibbs.ensemble", "mean_energy_quantum", "ensemble", "quantum"),
    ("qcgibbs.ensemble", "entropy_quantum", "ensemble", "quantum"),
    ("qcgibbs.ensemble", "log_entropy_quantum", "ensemble", "quantum"),
    ("qcgibbs.ensemble", "z_quantum_error", "ensemble", "error"),
    ("qcgibbs.ensemble", "mean_energy_quantum_error", "ensemble", "error"),
    ("qcgibbs.ensemble", "entropy_quantum_error", "ensemble", "error"),
    ("qcgibbs.ensemble", "z_classical", "ensemble", "classical"),
    ("qcgibbs.ensemble", "mean_energy_classical", "ensemble", "classical"),
    ("qcgibbs.ensemble", "entropy_classical", "ensemble", "classical"),
    ("qcgibbs.ensemble", "thermo_point", "ensemble", "point"),
    ("qcgibbs.verify", "check_c11", "verify", "check"),
    ("qcgibbs.verify", "check_c12", "verify", "check"),
    ("qcgibbs.verify", "check_c13", "verify", "check"),
    ("qcgibbs.verify", "check_t31", "verify", "check"),
    ("qcgibbs.verify", "check_t41", "verify", "check"),
    ("qcgibbs.verify", "check_c41_and_props", "verify", "check"),
    ("qcgibbs.verify", "check_wehrl", "verify", "check"),
    ("qcgibbs.verify", "run_claims", "verify", "check"),
    ("qcgibbs.potential", "load_tabulated_csv", "potential", "load"),
)

ROOT = "cli.main"
LAYERS = ("spectrum", "models", "ensemble", "verify", "cli", "potential")

#: every per-layer metric summarize() and aggregate() produce, with its unit
LAYER_METRICS = {
    "spectrum.build_s": "s",
    "spectrum.build_calls": "count",
    "spectrum.levels_built": "count",
    "spectrum.fd_solve_s": "s",
    "spectrum.fd_eig_calls": "count",
    "spectrum.fd_nodes": "count",
    "spectrum.rescale_s": "s",
    "spectrum.rescale_calls": "count",
    "spectrum.rescale_mb": "MB",
    "spectrum.tail_s": "s",
    "spectrum.tail_calls": "count",
    "models.spectrum_calls": "count",
    "models.rebuild_ratio": "ratio",
    "models.self_s": "s",
    "ensemble.quantum_s": "s",
    "ensemble.quantum_calls": "count",
    "ensemble.quantum_levels": "count",
    "ensemble.error_s": "s",
    "ensemble.error_calls": "count",
    "ensemble.classical_s": "s",
    "ensemble.classical_calls": "count",
    "ensemble.point_ms_p50": "ms",
    "ensemble.point_ms_p90": "ms",
    "verify.check_s": "s",
    "verify.self_s": "s",
    "verify.failed_points": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "potential.load_s": "s",
    "spectrum.share": "fraction",
    "models.share": "fraction",
    "ensemble.share": "fraction",
    "verify.share": "fraction",
    "cli.share": "fraction",
    "potential.share": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# groups whose calls do countable work, and how the count is read:
# build -> levels returned, fd_eig -> interior nodes, rescale -> bytes
# written, quantum -> levels passed in
_COUNTERS = {
    "build": lambda args, kwargs, out, bind: out.count,
    "fd_eig": lambda args, kwargs, out, bind: bind(args, kwargs)["points"],
    "rescale": lambda args, kwargs, out, bind: out.levels.nbytes + (
        0 if out.level_errors is None else out.level_errors.nbytes),
    "quantum": lambda args, kwargs, out, bind: (
        args[0] if args else kwargs["spectrum"]).count,
}


class Tracer:
    """In-memory span recorder for one CLI invocation (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, counter=None):
        """Wrap fn so each call records a span named name."""
        spans = self.spans
        stack_of = self._stack
        bind = None
        if counter is not None:
            sig = inspect.signature(fn)

            def bind(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments

        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, out, bind)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every TRACED function and rebind all references to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qcgibbs" or n.startswith("qcgibbs."))]
        for mod_name, qualname, layer, group in TRACED:
            name = f"{layer}.{group}:{qualname}"
            counter = _COUNTERS.get(group)
            module = sys.modules[mod_name]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.span(name, getattr(cls, meth), counter))
                continue
            original = getattr(module, qualname)
            wrapped = self.span(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
            checks = sys.modules["qcgibbs.verify"].CLAIM_CHECKS
            for key, value in list(checks.items()):
                if value is original:
                    self._undo.append((checks, key, value))
                    checks[key] = wrapped

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def records(self) -> list[list]:
        """Spans as [name, start, end, parent, run id, work] rows."""
        return [[n, s, e, p, self.run_id, w] for n, s, e, p, w in self.spans]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _group(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics of one invocation from its spans.

    A group's time is the inclusive time of its outermost spans, so a call
    nested in another call of the same group is not counted twice. Call and
    work counts include nested calls: each one is a separate pass over its
    input. A layer's self time is its spans' durations minus the time of
    their direct children.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _run, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def group_of(i):
        return _group(spans[i][0])

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    points_ms = []
    root_wall = 0.0
    for i, (name, start, end, parent, _run, count) in enumerate(spans):
        g = _group(name)
        dur = end - start
        calls[g] = calls.get(g, 0) + 1
        if count is not None:
            work[g] = work.get(g, 0) + count
        ancestor = parent
        while ancestor >= 0 and group_of(ancestor) != g:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl[g] = incl.get(g, 0.0) + dur
        self_time[_layer(name)] += dur - child_time[i]
        if g == "ensemble.point":
            points_ms.append(dur * 1e3)
        if name == ROOT:
            root_wall += dur

    build_calls = calls.get("spectrum.build", 0)
    spectrum_calls = calls.get("models.spectrum", 0)
    out = {
        "spectrum.build_s": incl.get("spectrum.build", 0.0),
        "spectrum.build_calls": build_calls,
        "spectrum.levels_built": work.get("spectrum.build", 0),
        "spectrum.fd_solve_s": incl.get("spectrum.fd_eig", 0.0),
        "spectrum.fd_eig_calls": calls.get("spectrum.fd_eig", 0),
        "spectrum.fd_nodes": work.get("spectrum.fd_eig", 0),
        "spectrum.rescale_s": incl.get("spectrum.rescale", 0.0),
        "spectrum.rescale_calls": calls.get("spectrum.rescale", 0),
        "spectrum.rescale_mb": work.get("spectrum.rescale", 0) / 1e6,
        "spectrum.tail_s": incl.get("spectrum.tail", 0.0),
        "spectrum.tail_calls": calls.get("spectrum.tail", 0),
        "models.spectrum_calls": spectrum_calls,
        "models.rebuild_ratio": build_calls / spectrum_calls if spectrum_calls else 0.0,
        "models.self_s": self_time["models"],
        "ensemble.quantum_s": incl.get("ensemble.quantum", 0.0),
        "ensemble.quantum_calls": calls.get("ensemble.quantum", 0),
        "ensemble.quantum_levels": work.get("ensemble.quantum", 0),
        "ensemble.error_s": incl.get("ensemble.error", 0.0),
        "ensemble.error_calls": calls.get("ensemble.error", 0),
        "ensemble.classical_s": incl.get("ensemble.classical", 0.0),
        "ensemble.classical_calls": calls.get("ensemble.classical", 0),
        "verify.check_s": incl.get("verify.check", 0.0),
        "verify.self_s": self_time["verify"],
        "cli.self_s": self_time["cli"],
        "potential.load_s": incl.get("potential.load", 0.0),
        "trace.spans": n,
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = self_time[layer] / root_wall if root_wall > 0 else 0.0
    out["_points_ms"] = points_ms
    return out


def percentile(values, q: int) -> float:
    """q-th percentile (1-99) with linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def aggregate(summaries: list[dict], traced_walls: list[float],
              untraced_walls: list[float], extra: dict) -> dict:
    """Medians over the traced invocations of one run, plus the pooled
    per-row latency percentiles and the tracing overhead."""
    keys = [k for k in summaries[0] if not k.startswith("_")]
    out = {k: statistics.median(s[k] for s in summaries) for k in keys}
    pooled = [ms for s in summaries for ms in s["_points_ms"]]
    out["ensemble.point_ms_p50"] = percentile(pooled, 50)
    out["ensemble.point_ms_p90"] = percentile(pooled, 90)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    out.update(extra)
    return {k: out[k] for k in LAYER_METRICS}
