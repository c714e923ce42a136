"""The measuring subprocess: one workload, set up once, then measured.

A child does the whole set-up a user pays before the first useful
result — import, operator registry, input generation, a cold
``compile_source`` (no compile cache), worker-pool spawn and one warm-up
run of every configuration — and reports how long that took since the
parent launched it.  Then, by mode:

``setup``    stop there (a set-up sample);
``measure``  paired rounds for ``seconds`` seconds: a bench-owned
             plain-Python reference and each Delirium configuration back
             to back, so each round yields ratios in which host-speed
             drift cancels;
``trace``    a short untraced baseline, traced iterations with spans,
             then the per-layer probes.

The last line on stdout is one JSON object for the parent.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Any

from . import WORK
from . import layers
from .clock import MIN_TIMED_SECONDS, host_probe, repeats_for
from .metrics import declared, manifest
from .spans import SpanSink, SpanSource
from .workloads import SetUp

#: The cold compile is the one numerator made of allocation-heavy code
#: while its denominator (the probe) is a tight loop; the host's
#: short-lived slow spells hit the two differently, and a longer compile
#: window averages them out (sizing runs: pythia's 0.24 s compile had a
#: third of the round-to-round scatter of 30 ms windows).
MIN_COMPILE_SECONDS = 0.1

#: Rounds measured regardless of ``seconds`` (after the discarded one).
MIN_ROUNDS = 3

#: What an end-to-end metric reads when not one of its samples could be
#: taken (every attempt raised).  The run is ``correct: false`` then; the
#: value only keeps the result line well-formed, and no time is negative.
NO_SAMPLE = -1.0


def finite(values: list[float]) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def summary(values: list[float]) -> dict[str, float]:
    """Sample count, median, quartiles and minimum of one series."""
    if not values:
        return dict.fromkeys(("median", "q1", "q3", "min"), NO_SAMPLE) | {"n": 0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
    }


def safe_repeats(fn: Any, at_least: float = MIN_TIMED_SECONDS) -> int:
    """``repeats_for``; 1 if ``fn`` raises (the timed step counts it)."""
    try:
        return repeats_for(fn, at_least)
    except Exception:
        return 1


def host_facts() -> dict[str, Any]:
    """The machine description recorded with every result."""
    import numpy

    from repro.machine import machine_fingerprint

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count() or 1,
        "machine_fingerprint": machine_fingerprint(),
        "load1": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (the
    worker pool must be closed first so the workers are reaped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def flanked(
    timeline: list[tuple[str, float]], top: str, bottom: str
) -> list[float]:
    """Each ``top`` sample over the mean of the ``bottom`` samples taken
    just before and just after it (a sample that raised, on either side,
    makes no ratio).

    The host's speed wanders on a scale of tenths of a second; a
    denominator on either side of the numerator cancels the part of that
    drift that is linear across the three, which roughly halved the
    round-to-round scatter of the ratios in the sizing runs.
    """
    ratios = []
    for i, (kind, seconds) in enumerate(timeline):
        if kind != top:
            continue
        before = next(s for k, s in reversed(timeline[:i]) if k == bottom)
        after = next(s for k, s in timeline[i + 1:] if k == bottom)
        ratios.append(2.0 * seconds / (before + after))
    return finite(ratios)


def measure(up: SetUp, seconds: float) -> dict[str, Any]:
    wl = up.wl
    # (what to time, its check, back-to-back calls per sample); a step
    # that raises is a failed operation and a NaN sample, never the end
    # of the run.
    steps = {
        "compile": (wl.compile, up.same_dlc,
                    safe_repeats(wl.compile, MIN_COMPILE_SECONDS)),
        "ref": (wl.reference, up.same_value, safe_repeats(wl.reference)),
        "seq": (up.seq, up.same_output, safe_repeats(up.seq)),
        "proc": (up.proc, up.same_output, safe_repeats(up.proc)),
    }
    timeline: list[tuple[str, float]] = []

    def step(key: str) -> None:
        if key == "probe":
            timeline.append((key, host_probe()))
            return
        fn, ok, reps = steps[key]
        timeline.append((key, up.timed_check(key, fn, ok, reps)[0]))

    # One round, always in this order: every numerator (compile, seq,
    # proc) has its denominator (probe, ref) right before and right after
    # it; proc's "after" is the next round's first ref, and one closing
    # ref ends the run.  The first round is a discarded warm-up.
    # The inputs' heap is frozen out of the collector and every step
    # starts from a collected heap, so a full collection neither walks
    # megabytes of input records nor lands in one step by chance.
    gc.collect()
    gc.freeze()
    cycle = ("probe", "compile", "probe", "ref", "seq", "ref", "proc")
    rounds = -1
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for key in cycle:
            gc.collect()
            step(key)
        if rounds < 0:
            timeline.clear()
        rounds += 1
    step("ref")
    up.close()

    detail = {
        "seq_x": summary(flanked(timeline, "seq", "ref")),
        "proc1_x": summary(flanked(timeline, "proc", "ref")),
        "compile_x": summary(flanked(timeline, "compile", "probe")),
    }
    metrics = {name: d["median"] for name, d in detail.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = {
        f"{key}_s": summary(finite([s for k, s in timeline if k == key]))["median"]
        for key in ("probe", *steps)
    }
    return {"metrics": metrics, "detail": detail, "raw_seconds": raw}


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def trace(ctx: layers.Context, seconds: float) -> dict[str, Any]:
    wl = ctx.wl

    # Untraced baseline in this same process: what the traced numbers
    # and every *_x of the per-layer table are relative to.  ``proc1`` is
    # the gated configuration, so the supervise/affinity counters and
    # ``affinity.none_x`` come from one worker too; the 2-worker process
    # and threaded runs are diagnostics.
    runners = {
        "seq": ctx.seq,
        "proc1": ctx.proc,
        "none1": wl.runner("process", ctx.prog, workers=1, affinity="none"),
        "proc2": wl.runner("process", ctx.prog),
        "thr2": wl.runner("threaded", ctx.prog),
    }
    if ctx.is_stream:
        runners["mem"] = wl.runner("sequential", ctx.prog, durable=False)
    series: dict[str, list[float]] = {
        k: [] for k in ("probe", "compile", "ref", *runners)
    }

    def sample(key: str, fn: Any, ok: Any, reps: int = 1) -> Any:
        elapsed, value = ctx.timed_check(key, fn, ok, reps)
        series[key].append(elapsed)
        return value

    for key in list(runners)[2:]:
        # Spawns the pools, fills the plan caches.
        ctx.timed_check(f"warm-up {key}", runners[key], ctx.same_output)
    ref_reps = safe_repeats(wl.reference)
    deadline = time.perf_counter() + 0.4 * seconds
    while len(series["ref"]) < MIN_ROUNDS or time.perf_counter() < deadline:
        series["probe"].append(host_probe())
        sample("compile", wl.compile, ctx.same_dlc)
        sample("ref", wl.reference, ctx.same_value, ref_reps)
        for key, runner in runners.items():
            result = sample(key, runner, ctx.same_output)
            if result is not None and key == "seq":
                ctx.seq_stats = result[1]
            elif result is not None and key == "proc1":
                ctx.proc_stats = result[1]
    for key in list(runners)[2:]:
        runners[key].close()
    for key, values in series.items():
        # 0 reads as "not measured" to every ``ratio`` built on it.
        setattr(ctx, f"{key}_s", statistics.median(finite(values) or [0.0]))

    # Traced iterations: cold compile, then one sequential operation,
    # with a span at every boundary the bench itself crosses.
    recorder = ctx.recorder
    if ctx.is_stream:
        traced = wl.runner(
            "sequential", ctx.prog, bus=recorder.bus(),
            wrap_source=lambda s: SpanSource(s, recorder),
            wrap_sink=lambda s: SpanSink(s, recorder),
        )
        run_span = "stream.run"
    else:
        traced = wl.runner("sequential", ctx.prog, bus=recorder.bus())
        run_span = "executor.run"

    def traced_iteration() -> tuple[Any, Any]:
        with recorder.span("iteration"):
            with recorder.span("compile_source"):
                wl.compile()
            with recorder.span(run_span):
                return traced()

    def plain_iteration() -> tuple[Any, Any]:
        wl.compile()
        return ctx.seq()

    plain: list[float] = []
    deadline = time.perf_counter() + 0.2 * seconds
    while recorder.run_id < 2 or (
        recorder.run_id < 5 and time.perf_counter() < deadline
    ):
        # The same iteration without a recorder, right before: the
        # denominator of trace.overhead_x.
        plain.append(
            ctx.timed_check("untraced run", plain_iteration, ctx.same_output)[0]
        )
        ctx.timed_check("traced run", traced_iteration, ctx.same_output)
        recorder.run_id += 1
    traced.close()
    ctx.iterations = recorder.run_id
    ctx.traced_wall_s = statistics.mean(
        r["end"] - r["start"] for r in recorder.spans if r["parent"] is None
    )
    ctx.untraced_wall_s = statistics.mean(finite(plain) or [0.0])

    metrics: dict[str, float] = {}
    for probe in layers.PROBES:
        try:
            metrics.update(probe(ctx))
        except Exception as exc:  # a probe that raises is a failed operation
            ctx.count(f"probe {probe.__name__}: {exc!r}", False)
    if ctx.failed:
        # A failed run still prints every declared name: what its probe
        # could not measure reads 0.
        for name in declared(manifest(), 1):
            metrics.setdefault(name, 0)
    trace_path = os.path.join(WORK, f"trace-{wl.name}.json")
    recorder.dump(trace_path, workload=wl.name, iterations=ctx.iterations)
    ctx.close()
    return {"metrics": metrics, "trace_file": trace_path}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(
    mode: str, name: str, seed: int, seconds: float, smoke: bool, t0: float
) -> int:
    os.makedirs(WORK, exist_ok=True)
    up = (layers.Context if mode == "trace" else SetUp)(name, seed, smoke)
    setup_s = time.monotonic() - t0
    out: dict[str, Any] = {}
    if mode == "setup":
        up.close()
    elif mode == "measure":
        out = measure(up, seconds)
    else:
        out = trace(up, seconds)
    out.update(
        setup_s=setup_s,
        attempted=up.attempted,
        failed=up.failed,
        size=up.wl.size,
        host=host_facts(),
    )
    print(json.dumps(out))
    return 0
