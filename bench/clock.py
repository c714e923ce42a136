"""Timing helpers shared by the measuring child and the layer probes."""

from __future__ import annotations

import math
import time
from typing import Any, Callable

#: Iterations of the host probe: a fixed pure-Python arithmetic kernel
#: (~20 ms on the sizing host) timed right before and after every
#: compile, so ``compile_x`` is a ratio against the same host at the
#: same moment.
PROBE_ITERATIONS = 300_000

#: A reference or run shorter than this is repeated within a round until
#: it is this long, so a ratio never rests on a millisecond.
MIN_TIMED_SECONDS = 0.03


def host_probe() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def time_repeated(fn: Callable[[], Any], reps: int) -> tuple[float, Any]:
    """Seconds per call over ``reps`` back-to-back calls, and the last value."""
    t0 = time.perf_counter()
    for _ in range(reps):
        value = fn()
    return (time.perf_counter() - t0) / reps, value


def repeats_for(
    fn: Callable[[], Any], at_least: float = MIN_TIMED_SECONDS
) -> int:
    """How many back-to-back calls make ``at_least`` seconds."""
    seconds = min(timed(fn)[0] for _ in range(2))
    return max(1, math.ceil(at_least / max(seconds, 1e-6)))


def median_run(fn: Callable[[], Any], repeat: int = 3) -> tuple[float, Any]:
    """Run ``fn`` ``repeat`` times; the (seconds, value) of the run with
    the median wall, so time and counters come from the same run."""
    runs = sorted((timed(fn) for _ in range(repeat)), key=lambda r: r[0])
    return runs[len(runs) // 2]


def per_call(fn: Callable[[], Any], min_seconds: float = 0.02) -> float:
    """Seconds per call of a cheap function, looped to ``min_seconds``."""
    reps = 1
    while True:
        elapsed = time_repeated(fn, reps)[0] * reps
        if elapsed >= min_seconds or reps >= 1 << 20:
            return elapsed / reps
        reps *= 4


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
