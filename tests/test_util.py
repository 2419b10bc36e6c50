"""The numpy and stdlib special functions of qcgibbs.util against scipy and
mpmath, which serve here as oracles only; its map over threads; and its JSON
writer."""

import json
import math
import os
import sys
import threading
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

import qcgibbs.util as util_mod
from qcgibbs.util import json_text, log_upper_gamma, logsumexp, thread_map, usable_cpus


def _logsumexp_cases():
    rng = np.random.default_rng(11)
    cases = [
        np.array([1.0]),
        np.array([-1e300]),
        np.array([700.0, 700.0]),  # a tie at the top
        np.array([3.0, 3.0, 3.0, -2.0]),
        np.array([-745.0, -1e4, 3.0]),
        np.array([-np.inf, 0.0]),
        np.array([1e308, 1e308]),  # log1p + log m + max overflows; direct path
        -np.linspace(0.0, 1e5, 10_001),  # a wide spread
    ]
    for k in range(300):
        size = int(rng.integers(1, 300))
        v = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), size)
        if k % 3 == 0:
            v[rng.integers(0, size, max(1, size // 4))] = v.max()
        if k % 5 == 0:
            v = np.round(v)
        cases.append(v)
    return cases


def test_logsumexp_equals_scipy_bit_for_bit():
    for values in _logsumexp_cases():
        ours = logsumexp(values)
        ref = float(scipy_logsumexp(values))
        assert ours == ref or (math.isnan(ours) and math.isnan(ref)), values[:4]


def test_logsumexp_of_nothing_is_minus_infinity():
    assert logsumexp(np.array([])) == -math.inf


# a from the Weyl exponents (1/2, 3/4, 3/2, ...) to large; x from the series
# range x < a + 1 through the continued fraction's, past x = 680 where the
# regularized Q underflows, and below 2 (a - 1) for the larger a
_GAMMA_A = (0.3, 0.5, 0.75, 1.0, 1.5, 1.75, 2.5, 3.35, 10.0, 60.0, 400.0)
_GAMMA_X = (1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 100.0, 679.0, 680.0,
            700.0, 1500.0, 1e5)


@pytest.mark.parametrize("a", _GAMMA_A)
def test_log_upper_gamma_is_a_tight_upper_bound(a):
    reached_far, reached_below = False, False
    with mpmath.workdps(40):
        for x in _GAMMA_X + (a / 2.0, a + 0.5, a + 1.0, 1.5 * a):
            exact = mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))
            ours = log_upper_gamma(a, x)
            assert mpmath.mpf(ours) >= exact, (a, x)
            assert mpmath.mpf(ours) - exact <= 1e-12 * max(1.0, abs(exact)), (a, x)
            reached_far |= x >= 680.0
            reached_below |= x <= 2.0 * (a - 1.0)
    assert reached_far and (a <= 1.5 or reached_below)


@pytest.mark.parametrize("a, x", [(0.5, 1e308), (1.5, 1.7e308), (0.5, 9.9e299),
                                  (0.5, 1e300), (400.0, 9.9e299), (400.0, 1e300)])
def test_log_upper_gamma_returns_at_the_top_of_the_double_range(a, x):
    # from 1e300 on the continued fraction's 1/b nears the subnormal range,
    # where its steps stop converging, and the closed bound takes over
    with mpmath.workdps(40):
        exact = mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))
        ours = mpmath.mpf(log_upper_gamma(a, x))
        assert exact <= ours <= exact + 1e-12 * abs(exact), (a, x)


def test_log_upper_gamma_at_infinity_is_minus_infinity():
    assert log_upper_gamma(0.5, math.inf) == -math.inf


def test_log_upper_gamma_at_zero_is_log_gamma():
    with mpmath.workdps(40):
        for a in _GAMMA_A:
            exact = mpmath.loggamma(a)
            ours = log_upper_gamma(a, 0.0)
            assert exact <= ours <= exact + 1e-14 * max(1.0, abs(exact))
    with pytest.raises(ValueError):
        log_upper_gamma(0.0, 1.0)


def test_thread_map_keeps_order_and_runs_each_item_once(monkeypatch):
    # more threads than cores and a short switch interval: every item is
    # taken by exactly one thread and lands at its own index
    monkeypatch.setattr(util_mod, "usable_cpus", lambda: 8)
    seen, threads = Counter(), set()

    def square(x):
        seen[x] += 1
        threads.add(threading.current_thread())
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = thread_map(square, range(400))
    finally:
        sys.setswitchinterval(interval)
    assert out == [x * x for x in range(400)]
    assert seen == Counter(range(400))
    assert len(threads) <= 8
    assert not [t for t in threads if t.is_alive() and t is not threading.main_thread()]


def test_thread_map_raises_the_first_failing_items_error(monkeypatch):
    monkeypatch.setattr(util_mod, "usable_cpus", lambda: 4)
    done = []

    def fail_at_3_and_7(x):
        done.append(x)
        if x in (3, 7):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 3"):
        thread_map(fail_at_3_and_7, range(10))
    assert sorted(done) == list(range(10))  # the other items still ran


@pytest.mark.parametrize("cpus, items, workers",
                         [(3, 5, 3), (2, 5, 2), (3, 2, 2), (1, 5, 1)])
def test_thread_map_runs_on_the_fewest_of_limit_cpus_and_items(monkeypatch, cpus,
                                                               items, workers):
    # the first `workers` items wait for each other, so they need that many
    # threads at once; the barrier breaks after 30 s if there are fewer
    monkeypatch.setattr(util_mod, "usable_cpus", lambda: cpus)
    barrier = threading.Barrier(workers, timeout=30)

    def thread_of(x):
        if x < workers:
            barrier.wait()
        return threading.current_thread()

    assert len(set(thread_map(thread_of, range(items)))) == workers


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # what `taskset -c 3` leaves the process, whatever the machine's count
    monkeypatch.setattr(util_mod.os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(util_mod.os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1


def _nulled(x):
    """x with every non-finite float replaced by None."""
    if isinstance(x, dict):
        return {k: _nulled(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nulled(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


@pytest.mark.parametrize("value", [0.125, math.nan, math.inf, -math.inf, np.float64("nan")])
def test_json_text_is_strict_json_with_null_for_non_finite_floats(value):
    # a report tree with three finite or three non-finite values: the same
    # text as dumping the copy with null in their places
    tree = {"worst_margin": value, "claim_id": "C1_1",
            "grid": {"beta": (0.5, 1e-300, np.float64(2.0)), "h": [1, 2.5]},
            "notes": {"failed_points": [], "applicable": True, "lhs": [value, (value, -0.0)]}}
    text = json_text(tree)
    assert text == json.dumps(_nulled(tree), sort_keys=True, indent=2, allow_nan=False)
    assert text.count("null") == (0 if math.isfinite(value) else 3)
