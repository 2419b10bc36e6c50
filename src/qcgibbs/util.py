"""Small shared helpers: grids, formatting, strict JSON, incomplete-gamma
bounds, an order-preserving map over threads, and first_read properties."""

from __future__ import annotations

import json
import math
import os
import threading

import numpy as np

_EPS = float(np.finfo(float).eps)

# math.lgamma(a) is within this many eps of max(1, |lgamma(a)|): 40-digit
# mpmath puts its worst error at 7.3 eps (near a = 3.35, over 2.5e5 samples of
# a in (1e-12, 100] and a log sweep to 1e300), and this doubles it
LGAMMA_EPS = 16.0

# a log grid holds at most this many points; a longer range is refused
# before anything is allocated
MAX_GRID_POINTS = 10_000


class first_read:
    """A property computed on first read and kept on the instance, where it
    shadows this non-data descriptor; a read that raises keeps nothing. It
    takes no lock (threads that read at once may each compute, and keep the
    same value), and its first read costs about half that of Python 3.11's
    functools.cached_property (225 vs 483 ns on Python 3.11.7, one Xeon core)."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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


def json_text(obj) -> str:
    """Sorted, indented strict JSON of obj: every non-finite float is null."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return None if isinstance(x, float) and not math.isfinite(x) else x

    # the copy through finite() only where a non-finite float refuses the dump
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(finite(obj), sort_keys=True, indent=2, allow_nan=False)


def log_upper_gamma(a: float, x: float) -> float:
    """An upper bound on log Gamma(a, x), the upper incomplete gamma function.

    For a >= 0.3 it exceeds the exact value by less than 1e-12 of
    max(1, |log Gamma(a, x)|) (against 40-digit mpmath, 1.2e-13 at worst);
    for smaller a, 1 - P cancels where Q is small and the slack grows as 1/Q.

    Gamma(a, x) = Gamma(a) Q(a, x). For x < a + 1, Q = 1 - P with P from its
    series, P = x^a e^(-x) / Gamma(a) sum_n x^n / (a (a + 1) ... (a + n));
    otherwise Gamma(a, x) = x^a e^(-x) F, with F Legendre's continued
    fraction evaluated by the modified Lentz method (Press et al., Numerical
    Recipes, 6.2). The second form is assembled in log space, so nothing
    underflows at any x. From x = 1e300 on, where Lentz's 1/b nears the
    subnormal range and its steps stop converging, t^(a-1) <= x^(a-1)
    e^(max(a - 1, 0) (t - x) / x) under the integral over t > x bounds it by
    x^(a-1) e^(-x) x / (x - max(a - 1, 0)), and by 0 at x = inf.

    The slack added to the result covers truncation and rounding. Stopping
    the series early lowers P, which only raises Q. Each of the n series
    terms and each of the n Lentz steps carries at most 2 eps of rounding;
    the Lentz loop stops once a step moves F by less than eps, so the omitted
    steps move it by less than another n eps. math.lgamma is within
    LGAMMA_EPS eps of max(1, |lgamma|), and every other operation rounds by
    eps of the largest term it combines, which 2 eps per term covers.
    """
    if a <= 0.0:
        raise ValueError("log_upper_gamma requires a > 0")
    lg = math.lgamma(a)
    lg_err = LGAMMA_EPS * _EPS * max(1.0, abs(lg))
    if x <= 0.0:
        return lg + lg_err
    if x >= 1e300:
        if x == math.inf:
            return -math.inf
        log_x = math.log(x)
        value = (a - 1.0) * log_x - x + math.log(x / (x - max(a - 1.0, 0.0)))
        return value + 2.0 * _EPS * (3.0 + abs((a - 1.0) * log_x) + abs(value))
    a_log_x = a * math.log(x)
    n = 0
    if x < a + 1.0:
        term = total = 1.0 / a
        while term >= total * _EPS:
            n += 1
            term *= x / (a + n)
            total += term
        log_total = math.log(total)
        log_p = log_total + a_log_x - x - lg
        err_log_p = lg_err + 2.0 * _EPS * (
            n + 1.0 + abs(log_total) + abs(a_log_x) + x + abs(lg))
        p = math.exp(log_p)
        q_hi = min(1.0, 1.0 - p + p * math.expm1(err_log_p) + 2.0 * _EPS)
        value = math.log(q_hi) + lg
        return value + lg_err + 2.0 * _EPS * (1.0 + abs(math.log(q_hi)) + abs(value))
    tiny = 1e-300  # stands in for a zero denominator
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    while True:
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        step = d * c
        frac *= step
        if abs(step - 1.0) < _EPS:
            break
    log_frac = math.log(frac)
    value = a_log_x - x + log_frac
    return value + 2.0 * _EPS * (
        3.0 * n + 1.0 + abs(a_log_x) + x + abs(log_frac) + abs(value))


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) without overflow; -inf for an empty array.

    scipy.special.logsumexp's formula, bit for bit: the m terms equal to the
    maximum v_max leave the sum, and the result is log1p(s / m) + log(m) +
    v_max with s the sum of exp(v - v_max) over the rest; where that is not
    finite, log(sum(exp(values))).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    top = values.max()
    at_top = values == top
    m = np.float64(np.count_nonzero(at_top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, values) - top).sum()
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out):
            out = np.log(np.exp(values).sum())
    return float(out)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` narrows it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items) -> list:
    """[fn(x) for x in items], computed on min(usable_cpus(), len(items))
    threads, the calling thread among them; each thread takes
    the next item not yet taken. Threads overlap only where fn releases the
    GIL, as numpy and ctypes calls into LAPACK do. An exception from fn is
    raised once every item is done: the one from the first failing item."""
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    results: list = [None] * len(items)
    errors: list = [None] * len(items)
    order = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # raised again in the calling thread
                errors[i] = exc

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
