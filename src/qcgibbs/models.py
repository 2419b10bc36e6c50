"""Model families: a potential plus its spectrum provider and scaling law.

A family provisions at least 8 levels so that lambda * (E_M - min V) >=
LAMBDA_DEPTH at the smallest Boltzmann exponent lambda = beta * phi(h) of a
sweep (min V is 0 except for tabulated wells). One memo maps h to the
deepest spectrum solved there, under one lock per h for callers on threads;
a shallower request gets the stored solve, a deeper one replaces it. With
the exact scaling law phi(h) = h^a (a = 2 for box wells, a = 2 nu/(2+nu)
for radial power laws) the entry at h = 1 is the base that every h reads:
the levels enter only through lambda = beta phi(h), and energies carry a
factor phi(h). Tabulated wells have none and are solved at each h.
`ModelFamily.sweep` is the one loop through which every command reads grid
points: given the point sets of a table or of claim checks, it solves each
h's levels once, at the deepest depth a set asks for there, takes each h's
levels and factor once (`levels_at`), reads each (beta, h) as one
ensemble.ThermoPoint, in turn by every set that lists it, and fails exactly
the points that a failed solve, step to h or read serves (`attempt`). The
potential alone picks the solver: closed forms for the box, the oscillator
(nu = 2) and the wedge (nu = 1), an oscillator basis for the other even
integer nu, the box's sine basis for tabulated wells, and finite
differences for odd and non-integer nu. One level law
per source (`level_energy`) and one count rule (`level_count`) size every
solve, and `count_depth` names the depth at which they give a count.
"""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

from .ensemble import ThermoPoint
from .errors import NUMERICAL_ERRORS, ResourceError
from .potential import (
    Potential,
    PotentialKind,
    box,
    homogeneous,
    scaling_exponents,
)
from .spectrum import (
    SINE_BASIS_MAX_STATES,
    Spectrum,
    level_scale,
    oscillator_spectrum,
    rescale,
    sine_basis_level_cap,
    solve_box,
    solve_fd_1d,
    solve_oscillator_basis,
    solve_sine_basis,
    wedge_spectrum,
    weyl_energy,
)

# levels are provisioned so that lambda * (E_M - min V) >= LAMBDA_DEPTH at the
# smallest lambda of a sweep, pushing tail/sum far below the TAIL_RTOL gate
LAMBDA_DEPTH = 45.0

LEVEL_CAP = 2_000_000
# level counts are searched below this bound; a count at or past it is
# named as "at least 2^62" rather than as a number of levels
LEVEL_COUNT_LIMIT = 2**62
# even power laws are solved in an oscillator basis whose largest parity block
# holds 0.65 (nu = 4) to 0.81 (nu = 28) states per level; its band reduction
# costs O(size^2 nu/2), and one build at this many levels took 14 s at nu = 4
# (55 s at nu = 20) on two cores, so deeper sweeps are refused before
# anything is allocated
BASIS_CAP = 20_000
# x^nu spectra are solved for nu in this range: below it the Gamma(3/2 + 1/nu)
# of Weyl's law nears the double range (it overflows below nu = 1/170.1);
# above it an even nu's nu/2 + 1 oscillator bands near the smallest basis
# (78 states for 8 levels at nu = 64). Inside it a solve still exits 3 where
# the ground level's bar reaches E_1: even nu from 30 on (the oscillator
# basis's rounding floor) and nu <= 0.1 (finite differences under the
# 250,000-node cap)
NU_RANGE = (1.0 / 128.0, 64.0)
# tabulated wells are solved in a dense sine basis of at most
# SINE_BASIS_MAX_STATES states, which caps the levels at each h
# (sine_basis_level_cap: 1,500 levels, fewer where tall walls add states)


class ModelFamily:
    """A potential with its memoised spectra and the h-scaling exponent."""

    def __init__(self, potential: Potential, label: str, level_cap: int = LEVEL_CAP) -> None:
        self.potential, self.label, self.level_cap = potential, label, level_cap
        # h -> the deepest spectrum solved there; at h = 1 the base that
        # every h of a scaling family reads
        self._memo: dict[float, Spectrum] = {}
        self._locks: dict[float, threading.Lock] = {}

    @property
    def energy_exponent(self) -> float:
        """a in E_n(h) = h^a E_n(1)."""
        if self.potential.kind is PotentialKind.BOX:
            return 2.0
        if self.potential.kind is PotentialKind.HOMOGENEOUS:
            return scaling_exponents(self.potential.exponent).energy
        raise ValueError("tabulated potentials have no exact h-scaling law")

    def phi(self, planck: float, base: Spectrum | None = None) -> float:
        """The level-scaling factor phi(h) = h^a, checked by level_scale."""
        return level_scale(planck, self.energy_exponent, base)

    def lambda_min(self, betas, plancks) -> float:
        """Smallest beta * phi(h) over a sweep (the smallest double, which no
        cap supports, where it underflows); min beta for tabulated wells."""
        if self.potential.kind is PotentialKind.TABULATED:
            return float(min(betas))
        return max(float(min(betas)) * self.phi(float(min(plancks))), math.ulp(0.0))

    def descriptor(self) -> dict:
        pot = self.potential
        desc: dict = {"kind": pot.kind.value, "dimension": pot.dimension, "mass": pot.mass,
                      "label": self.label}
        if pot.kind is PotentialKind.BOX:
            desc["lengths"] = list(pot.lengths)
        elif pot.kind is PotentialKind.HOMOGENEOUS:
            desc["nu"] = pot.exponent
        else:
            desc["interval"] = [float(pot.grid_x[0]), float(pot.grid_x[-1])]
        return desc

    # -- provisioning -----------------------------------------------------

    @property
    def min_potential(self) -> float:
        """min V, the floor the provisioning depth is measured from: 0 except
        for tabulated wells."""
        if self.potential.kind is PotentialKind.TABULATED:
            return float(self.potential.grid_v.min())
        return 0.0

    def level_energy(self, m: int, planck: float = 1.0) -> float:
        """Energy of level m at h by this source's law: a lower bound on E_m
        for boxes, the oscillator and tabulated wells, Weyl's law otherwise."""
        return self._level_law(planck)(m)

    def _level_law(self, planck: float):
        """m -> level_energy(m, planck), with what does not depend on m
        computed once."""
        pot = self.potential
        if pot.kind is PotentialKind.BOX:
            # each lattice point k >= 1 owns the unit cube [k - 1, k] inside
            # the ellipsoid orthant sum_i c_i k_i^2 <= E, so at most the
            # orthant's volume of levels lies below E
            n = pot.dimension
            orthant = math.pi ** (n / 2) / (math.gamma(n / 2 + 1) * 2**n)
            for length in pot.lengths:
                orthant *= length / (planck * math.pi) * math.sqrt(2.0 * pot.mass)
            return lambda m: (m / orthant) ** (2.0 / n)
        if pot.kind is PotentialKind.TABULATED:
            # min-max against the box on the same interval
            floor, step = self.min_potential, planck * math.pi
            span, two_m = float(pot.grid_x[-1] - pot.grid_x[0]), 2.0 * pot.mass
            return lambda m: floor + (step * m / span) ** 2 / two_m
        if pot.exponent == 2.0:
            quantum = planck * math.sqrt(2.0 / pot.mass)
            return lambda m: quantum * (m - 0.5)
        return lambda m: weyl_energy(pot.exponent, pot.mass, planck, m)

    def level_count(self, planck: float, lambda_min: float) -> int:
        """Levels a solve at h takes: the smallest m >= 8 whose law level
        reaches min V + LAMBDA_DEPTH / lambda_min, plus 6% + 8 levels of
        headroom where the law is Weyl's estimate rather than a bound;
        LEVEL_COUNT_LIMIT plus headroom where no law level below it reaches."""
        target = self.min_potential + LAMBDA_DEPTH / lambda_min
        # the laws increase with m, so bisect for the first one at the target
        m = 8 + bisect.bisect_left(range(8, LEVEL_COUNT_LIMIT), target,
                                   key=self._level_law(planck))
        return m + self._headroom(m)

    def count_depth(self, count: int, planck: float) -> float:
        """The lambda at which the count rule provisions `count` levels at h (at
        h = 1 for a scaling family): the depth of law level `count`, lambda
        (E_count - min V) = LAMBDA_DEPTH, rounded so that level_count reads
        it back as law level `count` (max(count, 8) levels plus headroom)."""
        if self.potential.kind is not PotentialKind.TABULATED:
            planck = 1.0
        energy = self.level_energy(count, planck)
        lam = LAMBDA_DEPTH / (energy - self.min_potential)
        # min V + LAMBDA_DEPTH / lam may round above E_count, and the count
        # rule would then take one level more; an ulp or two of lam undoes it
        while self.min_potential + LAMBDA_DEPTH / lam > energy:
            lam = math.nextafter(lam, math.inf)
        return lam

    def _headroom(self, m: int) -> int:
        """Levels added past law level m: 6% + 8 where the law is Weyl's
        estimate (power laws but the oscillator), none where it is a bound."""
        pot = self.potential
        if pot.kind is PotentialKind.HOMOGENEOUS and pot.exponent != 2.0:
            return math.ceil(0.06 * m) + 8
        return 0

    def base_spectrum(self, lambda_min: float) -> Spectrum:
        """Base levels at h = 1 deep enough that lambda_min * E_M >= LAMBDA_DEPTH."""
        return self._provision(1.0, lambda_min)

    def levels_at(self, planck: float, lambda_min: float) -> tuple[Spectrum, float]:
        """(levels, scale) that a point at h reads, E_n(h) = scale E_n: the
        base and phi(h) for a scaling family, the solve at h and 1 otherwise."""
        if self.potential.kind is PotentialKind.TABULATED:
            return self._provision(planck, lambda_min), 1.0
        base = self.base_spectrum(lambda_min)
        return base, self.phi(planck, base)

    def spectrum(self, planck: float, lambda_min: float) -> Spectrum:
        """The levels at h that spectrum prints and game plays: levels_at's,
        rescaled to h where they hold at h = 1 only."""
        spec, _ = self.levels_at(planck, lambda_min)
        return spec if spec.planck == planck else rescale(spec, planck, self.energy_exponent)

    def sweep(self, sets) -> list[list]:
        """Each (betas, hs, read) set's read(ThermoPoint) at its every (beta,
        h), h outer, or {"beta", "h", "error"} where the point's solve, step
        to h or read raised NUMERICAL_ERRORS (`attempt`).

        Each set asks for the depth lambda_min(betas, hs) of its grid; each
        h is solved once, first, as deep as its sets ask (a scaling family's
        base as deep as any), and where that fails so do the asking sets'
        points there, and the next deepest is tried. Each h then steps to its
        levels_at once, in the order the sets first list it; each (beta, h)
        is one ThermoPoint, read by its sets in the order given."""
        tabulated = self.potential.kind is PotentialKind.TABULATED
        plan: dict = {}  # h -> beta -> {set: what it read at (beta, h)}
        asks: dict = {}  # h solved (1: a scaling family's base) -> depth -> its sets
        for k, (betas, hs, _) in enumerate(sets):
            depth = self.lambda_min(betas, hs)
            for h in map(float, hs):
                asks.setdefault(h if tabulated else 1.0, {}).setdefault(depth, set()).add(k)
                for beta in map(float, betas):
                    plan.setdefault(h, {}).setdefault(beta, {})[k] = None
        solved: dict = {}  # h solved -> the deepest depth solved there, tried deepest first
        refused: dict = {}  # (h solved, set) -> the error that failed the set's depth there
        for key, depths in asks.items():
            for depth in sorted(depths):
                got = attempt(self._provision, key, depth)
                if not isinstance(got, Exception):
                    solved[key] = depth
                    break
                refused.update({(key, k): got for k in depths[depth]})
        for h, at_h in plan.items():
            key = h if tabulated else 1.0
            got = attempt(self.levels_at, h, solved[key]) if key in solved else None
            for beta, read in at_h.items():
                point = ThermoPoint(self.potential, got[0], beta, h, got[1]) \
                    if isinstance(got, tuple) else got
                for k in read:
                    value = refused.get((key, k)) or (point if isinstance(point, Exception)
                                                      else attempt(sets[k][2], point))
                    read[k] = ({"beta": beta, "h": h, "error": str(value)}
                               if isinstance(value, Exception) else value)
        return [[plan[h][beta][k] for h in map(float, hs) for beta in map(float, betas)]
                for k, (betas, hs, _) in enumerate(sets)]

    def _provision(self, planck: float, lambda_min: float) -> Spectrum:
        """The memo entry at h if its top level reaches min V + 0.999
        LAMBDA_DEPTH / lambda_min, else a deeper solve that replaces it."""
        if lambda_min <= 0.0:
            raise ValueError("lambda_min must be positive")
        needed = self.min_potential + 0.999 * LAMBDA_DEPTH / lambda_min
        # one lock per h (setdefault is atomic): threads that need the same h
        # wait for one solve, while different h take no lock of each other
        # (sine-basis solves still take turns on the BLAS thread count)
        with self._locks.setdefault(planck, threading.Lock()):
            spec = self._memo.get(planck)
            if spec is None or spec.levels[-1] < needed:
                spec = self._memo[planck] = self._solve(planck, lambda_min)
            return spec

    def _solve(self, planck: float, lambda_min: float) -> Spectrum:
        """level_count(h, lambda_min) levels at h; h is 1 unless the well is
        tabulated."""
        pot = self.potential
        mass = pot.mass
        if pot.kind is PotentialKind.HOMOGENEOUS and pot.dimension != 1:
            raise ValueError("spectra for power-law potentials are one-dimensional")
        count = self.level_count(planck, lambda_min)
        self._check_cap(count, planck)
        if pot.kind is PotentialKind.TABULATED:
            return solve_sine_basis(pot, planck, count=count)
        if pot.kind is PotentialKind.BOX:
            return solve_box(pot.dimension, pot.lengths, mass, 1.0, count,
                             max_states=self.level_cap * 4)
        nu = pot.exponent
        if nu == 2.0:
            return oscillator_spectrum(count, mass)
        if nu == 1.0:
            return wedge_spectrum(count, mass)
        if _basis_solved(nu):
            return solve_oscillator_basis(pot, 1.0, count=count)
        # Dirichlet walls where V(R) >= 1.25 E_M + 10: Weyl's law counts level
        # M at M rather than M - 1/2 and lies above E_M
        half_width = (1.25 * self.level_energy(count) + 10.0) ** (1.0 / nu)
        # resolve the dominant band E ~ 3.5/lambda well; higher levels carry
        # exponentially small weight and their larger error estimates are
        # propagated, not hidden
        e_char = max(3.5 / lambda_min, self.level_energy(8))
        dx = 0.21 / math.sqrt(2.0 * mass * e_char)
        points = int(math.ceil(2.0 * half_width / dx))
        points = int(min(max(points, 2000, 3 * count), 250_000))
        return solve_fd_1d(pot, 1.0, half_width, points, count)

    def _check_cap(self, count: int, planck: float) -> None:
        """Refuse `count` levels at h above the smaller of the level cap and the
        basis's (on a tie the basis's, which no level cap lifts), before building."""
        pot = self.potential
        caps = [(self.level_cap, "cap")]
        if pot.kind is PotentialKind.TABULATED:
            caps.insert(0, (sine_basis_level_cap(pot, planck), "sine-basis cap"))
        elif pot.kind is PotentialKind.HOMOGENEOUS and _basis_solved(pot.exponent):
            caps.insert(0, (BASIS_CAP, "oscillator-basis cap"))
        cap, where = min(caps, key=lambda c: c[0])
        if count <= cap:
            return
        needs = count if count < LEVEL_COUNT_LIMIT else "at least 2^62"
        head = f"{self.label}: sweep needs {needs} levels, above the {where} {cap}"
        # the largest count whose depth (count_depth) the cap provisions:
        # what spectrum --count can ask for
        top = bisect.bisect_right(range(1, cap + 1), cap, key=lambda c: self.level_count(
            planck, self.count_depth(c, planck)))
        if top < 8:  # fewer than any solve takes
            why = (f"the table's walls alone fill the {SINE_BASIS_MAX_STATES}-state "
                   "basis; raise h or lower max V" if where == "sine-basis cap" else
                   f"every solve takes at least {8 + self._headroom(8)} levels; raise the cap")
            raise ResourceError(f"{head} at h={planck:g}: {why}")
        depth = self.count_depth(top, planck)
        raise ResourceError(
            f"{head}; "
            + ("raise the cap or shrink the sweep" if where == "cap" else "shrink the sweep")
            + f" (the cap supports {top} levels, beta * phi(h) down to about "
            f"{_round_up(depth):.3g})"
        )


def attempt(fn, *args):
    """fn(*args), or the error in NUMERICAL_ERRORS it raised: the value of a
    failed solve, step to h or read."""
    try:
        return fn(*args)
    except NUMERICAL_ERRORS as exc:
        return exc


def _round_up(x: float) -> float:
    """x rounded up to 3 significant figures, so that a depth named in a
    message is one the cap still reaches."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 2)
    return math.ceil(x / scale) * scale


def _basis_solved(nu: float) -> bool:
    """Whether r^nu is solved in the oscillator basis: even integer nu but 2."""
    return nu.is_integer() and nu % 2 == 0 and nu != 2.0


def box_family(lengths, mass: float = 1.0) -> ModelFamily:
    lengths = tuple(float(x) for x in np.atleast_1d(lengths))
    label = "box" + "x".join(f"{L:g}" for L in lengths)
    return ModelFamily(box(lengths, mass), label)


def homogeneous_family(nu: float, mass: float = 1.0) -> ModelFamily:
    potential = homogeneous(nu, 1, mass)
    lo, hi = NU_RANGE
    if not lo <= nu <= hi:
        raise ValueError(
            f"nu={nu:g} lies outside [{lo:g}, {hi:g}], the power laws whose "
            "spectra qcgibbs solves")
    return ModelFamily(potential, f"homogeneous_nu{nu:g}")


def tabulated_family(potential: Potential) -> ModelFamily:
    if potential.kind is not PotentialKind.TABULATED:
        raise ValueError("tabulated_family needs a tabulated potential")
    return ModelFamily(potential, "tabulated")
