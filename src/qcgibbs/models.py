"""Model families: a potential plus its spectrum provider and scaling law.

A family knows how to produce a base spectrum at h = 1 deep enough for a given
smallest Boltzmann exponent lambda = beta * phi(h), and transports it across h
with the exact level-scaling law phi(h) = h^a (a = 2 for box wells,
a = 2 nu/(2+nu) for radial power laws). Base spectra are cached and only
rebuilt when a sweep needs more depth. The potential alone picks the base
solver: closed forms for the box, the oscillator (nu = 2) and the wedge
(nu = 1), an oscillator basis for the other even integer nu, and finite
differences for every other nu. Tabulated wells have no scaling law:
their levels are solved by finite differences at each h, once per (h, level
count), and the solve is reused by every later request for that pair.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError
from .potential import (
    Potential,
    PotentialKind,
    box,
    homogeneous,
    scaling_exponents,
)
from .spectrum import (
    Spectrum,
    oscillator_spectrum,
    rescale,
    solve_box,
    solve_fd_1d,
    solve_oscillator_basis,
    wedge_spectrum,
    weyl_energy,
    weyl_level_count,
)

# levels are provisioned so that lambda * E_M >= LAMBDA_DEPTH at the smallest
# lambda of a sweep, pushing tail/sum far below every gate in use
LAMBDA_DEPTH = 45.0

LEVEL_CAP = 2_000_000
# even power laws are solved in an oscillator basis whose largest parity block
# holds one state per level; its band reduction costs O(size^2 nu/2), and one
# build at this many levels takes about 30 s at nu = 4 (70 s at nu = 20) on
# two cores, so deeper sweeps are refused before anything is allocated
BASIS_CAP = 20_000


@dataclass
class ModelFamily:
    """A potential with cached spectra and the h-scaling exponent."""

    potential: Potential
    label: str
    level_cap: int = LEVEL_CAP
    # (base spectrum at h = 1, its top level): one tuple, stored in one
    # assignment, so a concurrent reader never pairs a base with another's depth
    _base: tuple[Spectrum, float] | None = field(default=None, repr=False)
    # tabulated wells: h -> (level count, the FD solve of that many levels)
    _solved: dict[float, tuple[int, Spectrum]] = field(default_factory=dict, repr=False)
    _solving: dict[float, threading.Lock] = field(default_factory=dict, repr=False)
    _store_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def energy_exponent(self) -> float:
        """a in E_n(h) = h^a E_n(1)."""
        if self.potential.kind is PotentialKind.BOX:
            return 2.0
        if self.potential.kind is PotentialKind.HOMOGENEOUS:
            return scaling_exponents(self.potential.exponent).energy
        raise ValueError("tabulated potentials have no exact h-scaling law")

    def phi(self, planck: float) -> float:
        """The level-scaling factor phi(h) = h^a."""
        return planck**self.energy_exponent

    def lambda_min(self, betas, plancks) -> float:
        """Smallest beta * phi(h) over a sweep; the smallest beta for tabulated
        wells, whose levels are solved at each h rather than rescaled."""
        if self.potential.kind is PotentialKind.TABULATED:
            return float(min(betas))
        return float(min(betas)) * self.phi(float(min(plancks)))

    def descriptor(self) -> dict:
        pot = self.potential
        desc: dict = {
            "kind": pot.kind.value,
            "dimension": pot.dimension,
            "mass": pot.mass,
            "label": self.label,
        }
        if pot.kind is PotentialKind.BOX:
            desc["lengths"] = list(pot.lengths)
        elif pot.kind is PotentialKind.HOMOGENEOUS:
            desc["nu"] = pot.exponent
        else:
            desc["interval"] = [float(pot.grid_x[0]), float(pot.grid_x[-1])]
        return desc

    # -- base spectrum provisioning ---------------------------------------

    def base_spectrum(self, lambda_min: float) -> Spectrum:
        """Base levels at h = 1 deep enough that lambda_min * E_M >= LAMBDA_DEPTH."""
        if lambda_min <= 0.0:
            raise ValueError("lambda_min must be positive")
        e_target = LAMBDA_DEPTH / lambda_min
        cached = self._base
        if cached is not None and cached[1] >= e_target * 0.999:
            return cached[0]
        base = self._build_base(e_target)
        depth = float(base.levels[-1])
        with self._store_lock:  # a shallower build never replaces a deeper base
            cached = self._base
            if cached is None or depth > cached[1]:
                self._base = (base, depth)
        return base

    def _build_base(self, e_target: float) -> Spectrum:
        pot = self.potential
        if pot.kind is PotentialKind.TABULATED:
            return self._solve_tabulated(1.0, e_target)
        mass = pot.mass
        if pot.kind is PotentialKind.BOX:
            if pot.dimension == 1:
                c1 = (math.pi / pot.lengths[0]) ** 2 / (2.0 * mass)
                count = int(math.ceil(math.sqrt(e_target / c1))) + 2
                self._check_cap(count, lambda m: c1 * m**2)
                return solve_box(1, pot.lengths, mass, 1.0, count)
            count = 64
            while True:
                self._check_cap(count)
                spec = solve_box(pot.dimension, pot.lengths, mass, 1.0, count,
                                 max_states=self.level_cap * 4)
                if spec.levels[-1] >= e_target:
                    return spec
                count *= 2

        nu = pot.exponent
        if pot.dimension != 1:
            raise ValueError("spectra for power-law potentials are one-dimensional")
        if nu == 2.0:
            omega = math.sqrt(2.0 / mass)
            count = int(math.ceil(e_target / omega + 0.5)) + 2
            self._check_cap(count, lambda m: omega * (m - 0.5))
            return oscillator_spectrum(count, mass)
        if nu == 1.0:
            count = int(math.ceil(weyl_level_count(1.0, mass, 1.0, e_target) * 1.05)) + 8
            self._check_cap(count, lambda m: weyl_energy(1.0, mass, 1.0, m))
            return wedge_spectrum(count, mass)

        count = int(math.ceil(weyl_level_count(nu, mass, 1.0, e_target) * 1.06)) + 8
        self._check_cap(count, lambda m: weyl_energy(nu, mass, 1.0, m))
        if nu.is_integer() and nu % 2 == 0:
            self._check_cap(count, lambda m: weyl_energy(nu, mass, 1.0, m), basis=True)
            return solve_oscillator_basis(pot, 1.0, count=count)
        half_width = (1.25 * e_target + 10.0) ** (1.0 / nu)
        # resolve the dominant band E ~ 3.5/lambda well; higher levels carry
        # exponentially small weight and their larger error estimates are
        # propagated, not hidden
        e_char = max(3.5 * e_target / LAMBDA_DEPTH, weyl_energy(nu, mass, 1.0, 8))
        dx = 0.21 / math.sqrt(2.0 * mass * e_char)
        points = int(math.ceil(2.0 * half_width / dx))
        points = int(min(max(points, 2000, 3 * count), 250_000))
        return solve_fd_1d(
            pot, 1.0, grid=(half_width, points), count=count, refinements=2,
        )

    def _check_cap(self, count: int, energy_of_count=None, basis: bool = False) -> None:
        cap = BASIS_CAP if basis else self.level_cap
        if count > cap:
            msg = f"{self.label}: sweep needs {count} levels, above the " + (
                f"oscillator-basis cap {cap}; shrink the sweep" if basis
                else f"cap {cap}; raise the cap or shrink the sweep"
            )
            if energy_of_count is not None:
                lam_feasible = LAMBDA_DEPTH / energy_of_count(cap)
                msg += (
                    f" (the cap supports beta * phi(h) down to about "
                    f"{lam_feasible:.3g})"
                )
            raise ResourceError(msg)

    def spectrum(self, planck: float, lambda_min: float) -> Spectrum:
        """Levels at a given h: rescaled from the cached base where the exact
        scaling law applies. Tabulated potentials are solved per h, once per
        (h, level count): a request whose count matches the last solve at
        that h gets that solve back, so the levels equal a fresh solve's."""
        if self.potential.kind is PotentialKind.TABULATED:
            return self._solve_tabulated(planck, LAMBDA_DEPTH / lambda_min)
        base = self.base_spectrum(lambda_min)
        return rescale(base, planck, self.energy_exponent)

    def _solve_tabulated(self, planck: float, e_target: float) -> Spectrum:
        """FD levels at h up to about e_target, memoized per h."""
        pot = self.potential
        # finite interval: levels grow box-like above the well depth
        span = float(pot.grid_x[-1] - pot.grid_x[0])
        c1 = (planck * math.pi / span) ** 2 / (2.0 * pot.mass)
        vmax = float(pot.grid_v.max())
        count = int(math.ceil(math.sqrt(max(e_target - vmax, c1) / c1))) + 2
        self._check_cap(count, lambda m: c1 * m**2)
        # one lock per h (setdefault is atomic): table threads that need the
        # same h wait for one solve instead of each repeating it, while
        # different h still solve in parallel
        with self._solving.setdefault(planck, threading.Lock()):
            hit = self._solved.get(planck)
            if hit is not None and hit[0] == count:
                return hit[1]
            spec = solve_fd_1d(pot, planck, count=count, refinements=2)
            self._solved[planck] = (count, spec)
            return spec


def box_family(lengths, mass: float = 1.0) -> ModelFamily:
    lengths = tuple(float(x) for x in np.atleast_1d(lengths))
    label = "box" + "x".join(f"{L:g}" for L in lengths)
    return ModelFamily(box(lengths, mass), label)


def homogeneous_family(nu: float, mass: float = 1.0) -> ModelFamily:
    return ModelFamily(homogeneous(nu, 1, mass), f"homogeneous_nu{nu:g}")


def tabulated_family(potential: Potential, label: str = "tabulated") -> ModelFamily:
    if potential.kind is not PotentialKind.TABULATED:
        raise ValueError("tabulated_family needs a tabulated potential")
    return ModelFamily(potential, label)
