"""Metrics registry: counters, gauges, histograms, and time series.

The standard subscriber (:func:`attach_metrics`) turns the event stream
into the quantities every scaling PR must report against:

* counters — ``tasks_fired``, ``ops_executed``, ``cow_copies``,
  ``cow_bytes`` (attributed by operator: the per-operator copy view, which
  no stat keeps), ``expansions`` / ``tail_expansions``, activation and
  block-reference traffic; the totals mirror
  :class:`~repro.runtime.engine.EngineStats` exactly, which the test
  suite asserts;
* gauges — live activations (with high-water mark), per-priority ready-
  queue depth (high-water);
* histograms — op latency by label, in the executor's time unit (wall
  seconds or ticks): the §5.2 bottleneck view as a distribution;
* series — per-priority ready-queue depth over time, decimated to a
  bounded sample count so long runs stay cheap.

Everything is plain data: :meth:`MetricsRegistry.snapshot` returns a
JSON-serializable dict (``delirium profile --json`` / ``trace --json``),
and :meth:`MetricsRegistry.summary_table` renders the human view.
"""

from __future__ import annotations

import bisect
from typing import Any

from .events import (
    ActivationAllocated,
    ActivationRecycled,
    AffinityMiss,
    BlockAllocated,
    BlockCached,
    BlockRefShipped,
    BlockReleased,
    BlockRetained,
    CheckpointWritten,
    CowCopy,
    Event,
    EventBus,
    ExecutorDegraded,
    Expansion,
    FireRetried,
    FireTimedOut,
    OperatorsFused,
    OpStarted,
    QueueDepthSample,
    ResultReceived,
    RunFinished,
    RunResumed,
    RunStarted,
    ShmBlockCreated,
    ShmSegmentReclaimed,
    TailExpansion,
    TaskDispatched,
    TaskEnqueued,
    TaskFired,
    WorkerCrashed,
    WorkerRespawned,
)

#: Default histogram bucket upper bounds: wide log-spaced coverage that
#: works for both wall seconds (sub-microsecond on up) and ticks.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7,
)


class Counter:
    """Monotonic counter with optional per-label attribution."""

    __slots__ = ("name", "value", "by_label")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.by_label: dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: str | None = None) -> None:
        self.value += amount
        if label is not None:
            self.by_label[label] = self.by_label.get(label, 0.0) + amount

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {"value": self.value}
        if self.by_label:
            out["by_label"] = dict(self.by_label)
        return out


class Gauge:
    """Point-in-time value with a high-water mark."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high:
            self.high = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value, "high": self.high}


class Histogram:
    """Fixed-bucket histogram (upper bounds; one overflow bucket)."""

    __slots__ = ("name", "bounds", "counts", "count", "sum", "max")

    def __init__(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }


class Series:
    """Bounded time series: decimates by doubling stride when full.

    Keeps at most ``max_samples`` points; when the buffer fills, every
    other retained point is dropped and the sampling stride doubles, so
    arbitrarily long runs keep a uniform (if coarser) picture.
    """

    __slots__ = ("name", "max_samples", "samples", "_stride", "_skip")

    def __init__(self, name: str, max_samples: int = 1024) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.max_samples = max_samples
        self.samples: list[tuple[float, float]] = []
        self._stride = 1
        self._skip = 0

    def append(self, ts: float, value: float) -> None:
        self._skip += 1
        if self._skip < self._stride:
            return
        self._skip = 0
        self.samples.append((ts, value))
        if len(self.samples) >= self.max_samples:
            del self.samples[::2]
            self._stride *= 2

    def snapshot(self) -> list[list[float]]:
        return [[ts, v] for ts, v in self.samples]


class MetricsRegistry:
    """Named collection of counters, gauges, histograms, and series."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, Series] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    def time_series(self, name: str, max_samples: int = 1024) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name, max_samples)
        return s

    # -- output --------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition (see :mod:`repro.obs.expo`)."""
        from .expo import render_prometheus

        return render_prometheus(self)

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of every metric."""
        return {
            "counters": {n: c.snapshot() for n, c in self.counters.items()},
            "gauges": {n: g.snapshot() for n, g in self.gauges.items()},
            "histograms": {
                n: h.snapshot() for n, h in self.histograms.items()
            },
            "series": {n: s.snapshot() for n, s in self.series.items()},
        }

    def summary_table(self, unit: str = "") -> str:
        """Human-readable summary of the registry."""
        lines: list[str] = []
        if self.counters:
            lines.append(f"{'counter':<28} {'value':>14}")
            for name in sorted(self.counters):
                c = self.counters[name]
                lines.append(f"{name:<28} {c.value:>14.0f}")
                for label, v in sorted(
                    c.by_label.items(), key=lambda kv: -kv[1]
                ):
                    tag = f"  {name}{{{label}}}"
                    lines.append(f"{tag:<28} {v:>14.0f}")
        if self.gauges:
            lines.append("")
            lines.append(f"{'gauge':<28} {'value':>14} {'high':>14}")
            for name in sorted(self.gauges):
                g = self.gauges[name]
                lines.append(f"{name:<28} {g.value:>14.0f} {g.high:>14.0f}")
        if self.histograms:
            lines.append("")
            suffix = f" ({unit})" if unit else ""
            lines.append(
                f"{'histogram' + suffix:<28} {'n':>8} {'mean':>14} {'max':>14}"
            )
            for name in sorted(
                self.histograms, key=lambda n: -self.histograms[n].sum
            ):
                h = self.histograms[name]
                lines.append(
                    f"{name:<28} {h.count:>8} {h.mean():>14.6g} {h.max:>14.6g}"
                )
        return "\n".join(lines)


def attach_metrics(
    bus: EventBus, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Subscribe the standard metrics pipeline to ``bus``.

    Returns the registry (created if not supplied) that the run will fill.
    """
    reg = registry if registry is not None else MetricsRegistry()

    tasks_enqueued = reg.counter("tasks_enqueued")
    tasks_fired = reg.counter("tasks_fired")
    ops_executed = reg.counter("ops_executed")
    cow_copies = reg.counter("cow_copies")
    cow_bytes = reg.counter("cow_bytes")
    expansions = reg.counter("expansions")
    tail_expansions = reg.counter("tail_expansions")
    act_allocated = reg.counter("activations_allocated")
    block_retains = reg.counter("block_retains")
    block_releases = reg.counter("block_releases")
    ops_dispatched = reg.counter("ops_dispatched")
    dispatch_nbytes = reg.counter("dispatch_nbytes")
    result_nbytes = reg.counter("result_nbytes")
    shm_blocks = reg.counter("shm_blocks_created")
    shm_nbytes = reg.counter("shm_nbytes")
    fused_fires = reg.counter("fused_fires")
    fused_ops_saved = reg.counter("fused_ops_saved")
    blocks_allocated = reg.counter("blocks_allocated")
    blocks_alloc_bytes = reg.counter("blocks_allocated_bytes")
    worker_crashes = reg.counter("worker_crashes")
    worker_respawns = reg.counter("worker_respawns")
    fires_retried = reg.counter("fires_retried")
    fires_timed_out = reg.counter("fires_timed_out")
    executor_degraded = reg.counter("executor_degraded")
    shm_reclaimed = reg.counter("shm_segments_reclaimed")
    shm_reclaimed_bytes = reg.counter("shm_reclaimed_bytes")
    blocks_cached = reg.counter("blocks_cached")
    blocks_cached_bytes = reg.counter("blocks_cached_bytes")
    blocks_ref_shipped = reg.counter("blocks_ref_shipped")
    ref_bytes_avoided = reg.counter("ref_bytes_avoided")
    affinity_misses = reg.counter("affinity_misses")
    runs_started = reg.counter("runs_started")
    runs_finished = reg.counter("runs_finished")
    runs_failed = reg.counter("runs_failed")
    checkpoints_written = reg.counter("checkpoints_written")
    checkpoint_nbytes = reg.counter("checkpoint_nbytes")
    checkpoint_seconds = reg.counter("checkpoint_seconds")
    runs_resumed = reg.counter("runs_resumed")
    act_live = reg.gauge("activations_live")

    def on_event(e: Event) -> None:
        if isinstance(e, TaskFired):
            tasks_fired.inc()
            if e.kind == "op":
                reg.histogram(f"op_ticks/{e.label}").observe(e.duration)
        elif isinstance(e, TaskEnqueued):
            tasks_enqueued.inc()
        elif isinstance(e, OpStarted):
            ops_executed.inc(label=e.name)
            if e.fused_ops > 1:
                fused_fires.inc()
                fused_ops_saved.inc(e.fused_ops - 1)
        elif isinstance(e, QueueDepthSample):
            for level, depth in enumerate(e.depths):
                reg.gauge(f"queue_depth/p{level}").set(depth)
                reg.time_series(f"queue_depth/p{level}").append(e.ts, depth)
        elif isinstance(e, CowCopy):
            cow_copies.inc(label=e.operator)
            cow_bytes.inc(e.nbytes, label=e.operator)
        elif isinstance(e, BlockAllocated):
            blocks_allocated.inc()
            blocks_alloc_bytes.inc(e.nbytes)
        elif isinstance(e, TailExpansion):
            expansions.inc()
            tail_expansions.inc()
        elif isinstance(e, Expansion):
            expansions.inc()
        elif isinstance(e, ActivationAllocated):
            act_allocated.inc(label=e.template)
            act_live.set(e.live)
        elif isinstance(e, ActivationRecycled):
            act_live.set(e.live)
        elif isinstance(e, BlockRetained):
            block_retains.inc(e.n)
        elif isinstance(e, BlockReleased):
            block_releases.inc(e.n)
        elif isinstance(e, TaskDispatched):
            ops_dispatched.inc(label=e.operator)
            dispatch_nbytes.inc(e.nbytes, label=e.operator)
        elif isinstance(e, ResultReceived):
            result_nbytes.inc(e.nbytes, label=e.operator)
            reg.histogram(f"worker_seconds/{e.operator}").observe(e.duration)
        elif isinstance(e, ShmBlockCreated):
            shm_blocks.inc()
            shm_nbytes.inc(e.nbytes)
        elif isinstance(e, WorkerCrashed):
            worker_crashes.inc()
        elif isinstance(e, WorkerRespawned):
            worker_respawns.inc()
        elif isinstance(e, FireRetried):
            fires_retried.inc(label=e.operator)
        elif isinstance(e, FireTimedOut):
            fires_timed_out.inc(label=e.operator)
        elif isinstance(e, ExecutorDegraded):
            executor_degraded.inc(label=e.to_executor)
        elif isinstance(e, ShmSegmentReclaimed):
            shm_reclaimed.inc()
            shm_reclaimed_bytes.inc(e.nbytes)
        elif isinstance(e, BlockCached):
            blocks_cached.inc(label=e.kind)
            blocks_cached_bytes.inc(e.nbytes, label=e.kind)
        elif isinstance(e, BlockRefShipped):
            blocks_ref_shipped.inc(label=e.operator)
            ref_bytes_avoided.inc(e.nbytes, label=e.operator)
        elif isinstance(e, AffinityMiss):
            affinity_misses.inc(label=e.operator)
        elif isinstance(e, CheckpointWritten):
            checkpoints_written.inc()
            checkpoint_nbytes.inc(e.nbytes)
            checkpoint_seconds.inc(e.seconds)
            reg.histogram("checkpoint_seconds_each").observe(e.seconds)
        elif isinstance(e, RunResumed):
            runs_resumed.inc()
        elif isinstance(e, OperatorsFused):
            reg.gauge("fused_nodes").set(e.fused_nodes)
            reg.gauge("fused_ops_absorbed").set(e.ops_absorbed)
        elif isinstance(e, RunStarted):
            runs_started.inc(label=e.executor)
        elif isinstance(e, RunFinished):
            if e.ok:
                runs_finished.inc(label=e.executor)
            else:
                runs_failed.inc(label=e.executor)
            reg.gauge("run_wall_seconds").set(e.wall_seconds)

    bus.subscribe(on_event)
    return reg
