"""Small shared numerical helpers: grids, formatting, incomplete-gamma bounds."""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc


# a log grid holds at most this many points; a longer range is refused
# before anything is allocated
MAX_GRID_POINTS = 10_000


def log_grid(lo: float, hi: float, per_decade: int = 9) -> np.ndarray:
    """Log-spaced grid from lo to hi inclusive with ~per_decade points per
    decade, at most MAX_GRID_POINTS points."""
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("log_grid requires finite 0 < lo < hi")
    if not 1 <= per_decade <= MAX_GRID_POINTS:
        raise ValueError(f"per_decade must be an integer from 1 to {MAX_GRID_POINTS}")
    n = int(round((math.log10(hi) - math.log10(lo)) * per_decade)) + 1
    if n > MAX_GRID_POINTS:
        raise ValueError(
            f"log range {lo:g}:{hi:g}:{per_decade} expands to {n} points, "
            f"above the cap of {MAX_GRID_POINTS}")
    return np.logspace(math.log10(lo), math.log10(hi), max(n, 2))


def halving_grid(start: float, stop: float) -> np.ndarray:
    """start, start/2, start/4, ... down to the first value at or below stop."""
    if not (0.0 < stop <= start):
        raise ValueError("halving_grid requires 0 < stop <= start")
    out = [float(start)]
    while out[-1] > stop * (1.0 + 1e-12):
        out.append(out[-1] / 2.0)
    return np.asarray(out)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def log_upper_gamma(a: float, x: float) -> float:
    """log of the upper incomplete gamma Gamma(a, x).

    For large x, where scipy's regularized gammaincc underflows, switches to
    the geometric-series majorant x^(a-1) e^(-x) / (1 - (a-1)/x), which is an
    upper bound; the returned value therefore never underestimates the tail.
    """
    if a <= 0.0:
        raise ValueError("log_upper_gamma requires a > 0")
    if x <= 0.0:
        return float(sc.gammaln(a))
    if x < 680.0:
        g = sc.gammaincc(a, x)
        if g > 0.0:
            return math.log(g) + float(sc.gammaln(a))
    slack = 0.0
    if a > 1.0:
        if x <= 2.0 * (a - 1.0):
            # far from the asymptotic regime but too large for direct exp:
            # gammaincc is O(1) here, no underflow possible
            return math.log(sc.gammaincc(a, x)) + float(sc.gammaln(a))
        slack = -math.log1p(-(a - 1.0) / x)
    return (a - 1.0) * math.log(x) - x + slack


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) without overflow; -inf for an empty array."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    return float(sc.logsumexp(values))
