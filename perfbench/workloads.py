"""The benchmark's workloads and the seeded inputs each one sends to the CLI.

Every workload is one ``qcgibbs`` invocation, repeated in a closed loop. The
seed jitters interior grid points inside their log cells and, for the
tabulated workload, draws the double-well profile. Grid endpoints, the
double well's interval and its wall height never move, so level counts and
base-spectrum depth are the same for every seed.

Only the standard library is used here: the harness process stays small and
starts fast, and all numerical work happens in the measured child process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

#: the seed whose outputs are recorded under perfbench/reference/
REFERENCE_SEED = 0

TABLE_FIELDS = ("beta", "h", "Zq_scaled", "Zc", "Eq", "Ec", "Sq", "Sc")


@dataclass(frozen=True)
class Case:
    """One workload instance: the argv the CLI receives and what to expect."""

    workload: str
    seed: int
    command: str  # "table" or "verify"
    argv: tuple[str, ...]
    output: Path
    inputs: tuple[Path, ...]
    betas: tuple[float, ...]
    hs: tuple[float, ...]
    nu: float | None  # power-law exponent, None for tabulated wells
    points: int  # grid points the table rows or verify reports cover


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "wedge-table",
        "table over the |x| wedge: a cheap analytic Airy build of ~761k levels, "
        "then per-row weight passes and rescale copies dominate",
    ),
    Workload(
        "quartic-verify",
        "verify on the x^4 well: one cached three-grid FD base build dominates; "
        "moment passes over ~600 levels cost little",
    ),
    Workload(
        "tabulated-table",
        "table on a seeded noisy double well: no scaling law, so every row "
        "re-solves the spectrum by FD",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

# BENCHMARK.json gates quartic-verify and tabulated-table only. wedge-table
# runs on request (run.py --workload wedge-table, or all) with the same gate,
# but its rows are page-fault heavy (about 200k minor faults and 30% of the
# wall time in the kernel per invocation), and on a shared two-core
# machine its run medians spread 12-23% over ten seeds, too close to the
# largest bound (0.25) a gated metric may have.

# grid windows from the workload definitions; densities keep one invocation
# at a few seconds so a run collects about ten samples
# The cost of a wedge row peaks where beta * h^(2/3) is near 0.3, so a wider
# jitter would make the work per invocation depend on the seed.
GRID_JITTER = 0.15
WEDGE_BETA = (1e-2, 10.0, 6)
WEDGE_H = (0.25, 4.0, 4)
QUARTIC_BETA = (0.03, 10.0, 6)
QUARTIC_H = (0.35, 4.0, 4)
QUARTIC_CLAIMS = "c11,c12,t41,c41"
TABULATED_BETA = (0.1, 10.0, 5)
TABULATED_H = (0.5, 1.0, 2)

# double well V(x) = B (x^2 - 1)^2 + t x + 1 + noise on [-2, 2], walls at 40:
# for B <= 3.5 and |t| <= 0.3 every interior sample stays below 32, so the
# wall height (and with it the FD level count and grid) is seed-independent
WELL_HALF_WIDTH = 2.0
WELL_SAMPLES = 161
WELL_WALL = 40.0
WELL_BARRIER = (2.5, 3.5)
WELL_TILT = 0.3
WELL_NOISE = 0.05


def fmt(x: float) -> str:
    """Shortest round-trip text of a float, as the CLI's grid parser reads it."""
    return repr(float(x))


def jittered_log_grid(rng: random.Random, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n log-spaced points from lo to hi; interior points move inside their cell.

    Each interior point shifts by at most GRID_JITTER of a cell, so the grid
    stays strictly increasing and its endpoints are exactly lo and hi.
    """
    if n < 2:
        raise ValueError("a grid needs at least its two endpoints")
    span = math.log(hi / lo)
    out = [lo]
    for i in range(1, n - 1):
        t = (i + rng.uniform(-GRID_JITTER, GRID_JITTER)) / (n - 1)
        out.append(lo * math.exp(span * t))
    out.append(hi)
    return tuple(out)


def double_well_rows(rng: random.Random) -> list[tuple[float, float]]:
    """Seeded noisy double-well samples (x, V) with fixed walls at +-2."""
    barrier = rng.uniform(*WELL_BARRIER)
    tilt = rng.uniform(-WELL_TILT, WELL_TILT)
    rows = []
    for i in range(WELL_SAMPLES):
        x = -WELL_HALF_WIDTH + 2.0 * WELL_HALF_WIDTH * i / (WELL_SAMPLES - 1)
        if i in (0, WELL_SAMPLES - 1):
            v = WELL_WALL
        else:
            v = barrier * (x * x - 1.0) ** 2 + tilt * x + 1.0 + rng.uniform(-WELL_NOISE, WELL_NOISE)
        rows.append((x, v))
    return rows


def write_double_well(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "x,V\n" + "".join(f"{fmt(x)},{fmt(v)}\n" for x, v in rows)
    path.write_text(text)


def _grid_arg(values) -> str:
    return ",".join(fmt(v) for v in values)


def make_case(workload: str, seed: int, workdir: Path) -> Case:
    """Build the inputs of one workload for one seed under workdir."""
    rng = random.Random(f"{workload}/{seed}")
    output_dir = workdir / "out"
    if workload == "wedge-table":
        betas = jittered_log_grid(rng, *WEDGE_BETA)
        hs = jittered_log_grid(rng, *WEDGE_H)
        out = output_dir / "table.csv"
        argv = ("table", "--model", "homogeneous", "--nu", "1",
                "--beta", _grid_arg(betas), "--h", _grid_arg(hs), "-o", str(out))
        return Case(workload, seed, "table", argv, out, (), betas, hs, 1.0,
                    len(betas) * len(hs))
    if workload == "quartic-verify":
        betas = jittered_log_grid(rng, *QUARTIC_BETA)
        hs = jittered_log_grid(rng, *QUARTIC_H)
        out = output_dir / "reports.json"
        argv = ("verify", "--model", "homogeneous", "--nu", "4",
                "--claims", QUARTIC_CLAIMS,
                "--beta", _grid_arg(betas), "--h", _grid_arg(hs), "-o", str(out))
        grid = len(betas) * len(hs)
        # C1_1, C1_2, T4_1_beta and T4_1_h cover the full grid; C4_1, P4_1 and
        # P4_3 cover the h grid at the first beta
        return Case(workload, seed, "verify", argv, out, (), betas, hs, 4.0,
                    4 * grid + 3 * len(hs))
    if workload == "tabulated-table":
        betas = jittered_log_grid(rng, *TABULATED_BETA)
        hs = jittered_log_grid(rng, *TABULATED_H)
        well = workdir / "in" / "double_well.csv"
        write_double_well(well, double_well_rows(rng))
        out = output_dir / "table.csv"
        argv = ("table", "--model", "tabulated", "--table", str(well),
                "--beta", _grid_arg(betas), "--h", _grid_arg(hs), "-o", str(out))
        return Case(workload, seed, "table", argv, out, (well,), betas, hs, None,
                    len(betas) * len(hs))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOAD_NAMES}")
