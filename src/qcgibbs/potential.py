"""Model potentials: box wells, radial power laws, and tabulated 1-D profiles.

Every potential is non-negative on the closure of its domain. Units follow the
package convention k_B = 1 (so beta = 1/T) and the default particle mass is 1;
nothing else in the package hard-codes either choice.
"""

from __future__ import annotations

import csv
import enum
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class PotentialKind(enum.Enum):
    BOX = "box"
    HOMOGENEOUS = "homogeneous"
    TABULATED = "tabulated"


class ScalingExponents(NamedTuple):
    """Exponents attached to a radial power-law potential V(r) = r^nu.

    substitution: the coordinate-substitution exponent 2/(2+nu).
    energy: the level-scaling exponent 2*nu/(2+nu), i.e. E_n(h) = h^energy * E_n(1).

    The two are distinct quantities and are never interchangeable.
    """

    substitution: float
    energy: float


def scaling_exponents(nu: float) -> ScalingExponents:
    """Exponents (2/(2+nu), 2*nu/(2+nu)) for a power-law potential r^nu."""
    if not _finite_positive(nu):
        raise ValueError(f"exponent nu must be finite and positive, got {nu!r}")
    sub = 2.0 / (2.0 + nu)
    return ScalingExponents(sub, nu * sub)


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


class Potential:
    """A model potential with its domain and scaling metadata.

    kind      : BOX (V = 0 on a rectangular box), HOMOGENEOUS (V(r) = r^nu on
                all of R^N), or TABULATED (piecewise-linear samples on an
                interval, dimension 1).
    dimension : coordinate-space dimension N.
    mass      : particle mass m > 0.
    lengths   : per-axis box lengths (BOX only).
    exponent  : power nu > 0 (HOMOGENEOUS only).
    grid_x/grid_v : strictly increasing sample positions and values
                (TABULATED only).
    """

    def __init__(
        self,
        kind: PotentialKind,
        dimension: int,
        mass: float = 1.0,
        lengths: tuple[float, ...] | None = None,
        exponent: float | None = None,
        grid_x: np.ndarray | None = None,
        grid_v: np.ndarray | None = None,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not _finite_positive(mass):
            raise ValueError(f"mass must be finite and positive, got {mass!r}")
        if kind is PotentialKind.BOX:
            if lengths is None or len(lengths) != dimension:
                raise ValueError("box potential needs one length per axis")
            if not all(_finite_positive(L) for L in lengths):
                raise ValueError(f"box lengths must be finite and positive, got {lengths!r}")
        elif kind is PotentialKind.HOMOGENEOUS:
            if exponent is None or not _finite_positive(exponent):
                raise ValueError(
                    f"exponent nu must be finite and positive, got {exponent!r}")
        elif kind is PotentialKind.TABULATED:
            if dimension != 1:
                raise ValueError("tabulated potentials are one-dimensional")
            xs = np.asarray(grid_x, dtype=float)
            vs = np.asarray(grid_v, dtype=float)
            if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
                raise ValueError("tabulated grid needs matching 1-D x and V arrays")
            if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(vs)):
                raise ValueError("tabulated samples must be finite")
            if np.any(np.diff(xs) <= 0.0):
                raise ValueError("tabulated x values must be strictly increasing")
            if np.any(vs < 0.0):
                raise ValueError("tabulated potential values must be non-negative")
            xs.setflags(write=False)
            vs.setflags(write=False)
            grid_x, grid_v = xs, vs
        self.kind, self.dimension, self.mass = kind, dimension, mass
        self.lengths, self.exponent = lengths, exponent
        self.grid_x, self.grid_v = grid_x, grid_v


def box(lengths: Sequence[float], mass: float = 1.0) -> Potential:
    """Box well: V = 0 inside the rectangle [0, L_1] x ... x [0, L_N]."""
    lengths = tuple(float(L) for L in lengths)
    return Potential(PotentialKind.BOX, len(lengths), mass, lengths=lengths)


def homogeneous(nu: float, dimension: int = 1, mass: float = 1.0) -> Potential:
    """Radial power law V(r) = r^nu on all of R^N."""
    return Potential(PotentialKind.HOMOGENEOUS, dimension, mass, exponent=float(nu))


def tabulated(xs: Iterable[float], vs: Iterable[float], mass: float = 1.0) -> Potential:
    """Piecewise-linear potential from samples (xs, vs) on an interval."""
    return Potential(
        PotentialKind.TABULATED,
        1,
        mass,
        grid_x=np.asarray(list(xs), dtype=float),
        grid_v=np.asarray(list(vs), dtype=float),
    )


def volume(potential: Potential) -> float:
    """Volume of a box potential's domain."""
    if potential.kind is not PotentialKind.BOX:
        raise ValueError("volume is defined for box potentials only")
    return float(np.prod(potential.lengths))


def load_tabulated_csv(path: str | Path, mass: float = 1.0) -> Potential:
    """Load a tabulated potential from a two-column CSV with header ``x,V``."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["x", "V"]:
            raise ValueError(f"{path}: expected header 'x,V'")
        xs: list[float] = []
        vs: list[float] = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    return tabulated(xs, vs, mass=mass)


def save_tabulated_csv(potential: Potential, path: str | Path) -> None:
    """Write a tabulated potential back to ``x,V`` CSV form."""
    if potential.kind is not PotentialKind.TABULATED:
        raise ValueError("only tabulated potentials serialize to x,V CSV")
    path = Path(path)
    from .util import fmt17

    with path.open("w", newline="") as fh:
        fh.write("x,V\n")
        for xi, vi in zip(potential.grid_x, potential.grid_v):
            fh.write(f"{fmt17(xi)},{fmt17(vi)}\n")
