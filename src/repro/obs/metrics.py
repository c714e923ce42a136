"""Metrics registry: counters, gauges, histograms, and time series.

The standard subscriber (:func:`attach_metrics`) folds the event stream
into the quantities every scaling PR must report against:

* counters — one table, :data:`COUNTS` (event type → counter, amount,
  label).  The contract counters (``tasks_fired``, ``ops_executed``,
  ``cow_copies``, ``expansions``, ...) are also on every run's
  :class:`~repro.runtime.engine.EngineStats`, with equal totals (the
  tests assert it); the rest (the per-operator copy view,
  ``tail_expansions``, ``worker_crashes``, ``worker_respawns``,
  ``fires_timed_out``, ``shm_segments_reclaimed``, bytes and block
  traffic) are folds kept only here, which an unobserved run never pays;
* gauges — live activations (with high-water mark), per-priority ready-
  queue depth (high-water);
* histograms — op latency by label, in the executor's time unit (wall
  seconds or ticks): the §5.2 bottleneck view as a distribution;
* series — per-priority ready-queue depth over time, decimated to a
  bounded sample count so long runs stay cheap.

:func:`attach_metrics` subscribes only the event types it reads, so the
engine builds no event for it to drop (``OpFinished``, for one).

Everything is plain data: :meth:`MetricsRegistry.snapshot` returns a
JSON-serializable dict (``delirium profile --json`` / ``trace --json``),
and :meth:`MetricsRegistry.summary_table` renders the human view.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable

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


#: The counters: each event type's rows are ``(counter, amount, label)``,
#: ``amount`` and ``label`` naming an attribute of the event (``None``: add
#: 1, no label).  Dispatch is on the exact type: a subclass has its own rows.
COUNTS: dict[type, tuple[tuple[str, str | None, str | None], ...]] = {
    TaskEnqueued: (("tasks_enqueued", None, None),),
    TaskFired: (("tasks_fired", None, None),),
    OpStarted: (
        ("ops_executed", None, "name"),
        ("fused_fires", "fused", None),
        ("fused_ops_saved", "ops_saved", None),
    ),
    CowCopy: (
        ("cow_copies", None, "operator"),
        ("cow_bytes", "nbytes", "operator"),
    ),
    Expansion: (("expansions", None, None),),
    TailExpansion: (
        ("expansions", None, None),
        ("tail_expansions", None, None),
    ),
    ActivationAllocated: (("activations_allocated", None, "template"),),
    BlockRetained: (("block_retains", "n", None),),
    BlockReleased: (("block_releases", "n", None),),
    TaskDispatched: (
        ("ops_dispatched", None, "operator"),
        ("dispatch_nbytes", "nbytes", "operator"),
    ),
    ResultReceived: (("result_nbytes", "nbytes", "operator"),),
    ShmBlockCreated: (
        ("shm_blocks_created", None, None),
        ("shm_nbytes", "nbytes", None),
    ),
    BlockAllocated: (
        ("blocks_allocated", None, None),
        ("blocks_allocated_bytes", "nbytes", None),
    ),
    WorkerCrashed: (("worker_crashes", None, None),),
    WorkerRespawned: (("worker_respawns", None, None),),
    FireRetried: (("fires_retried", None, "operator"),),
    FireTimedOut: (("fires_timed_out", None, "operator"),),
    ExecutorDegraded: (("executor_degraded", None, "to_executor"),),
    ShmSegmentReclaimed: (
        ("shm_segments_reclaimed", None, None),
        ("shm_reclaimed_bytes", "nbytes", None),
    ),
    BlockCached: (
        ("blocks_cached", None, "kind"),
        ("blocks_cached_bytes", "nbytes", "kind"),
    ),
    BlockRefShipped: (
        ("blocks_ref_shipped", None, "operator"),
        ("ref_bytes_avoided", "nbytes", "operator"),
    ),
    AffinityMiss: (("affinity_misses", None, "operator"),),
    RunStarted: (("runs_started", None, "executor"),),
    CheckpointWritten: (
        ("checkpoints_written", None, None),
        ("checkpoint_nbytes", "nbytes", None),
        ("checkpoint_seconds", "seconds", None),
    ),
    RunResumed: (("runs_resumed", None, None),),
}


def _op_ticks(reg: MetricsRegistry, e: TaskFired) -> None:
    if e.kind == "op":
        reg.histogram(f"op_ticks/{e.label}").observe(e.duration)


def _queue_depths(reg: MetricsRegistry, e: QueueDepthSample) -> None:
    for level, depth in enumerate(e.depths):
        reg.gauge(f"queue_depth/p{level}").set(depth)
        reg.time_series(f"queue_depth/p{level}").append(e.ts, depth)


def _run_finished(reg: MetricsRegistry, e: RunFinished) -> None:
    outcome = "runs_finished" if e.ok else "runs_failed"
    reg.counters[outcome].inc(label=e.executor)
    reg.gauge("run_wall_seconds").set(e.wall_seconds)


def _live(reg: MetricsRegistry, e: Any) -> None:
    reg.gauges["activations_live"].set(e.live)


def _fused(reg: MetricsRegistry, e: OperatorsFused) -> None:
    reg.gauge("fused_nodes").set(e.fused_nodes)
    reg.gauge("fused_ops_absorbed").set(e.ops_absorbed)


#: What is not a counter: gauges, histograms and series, and the run
#: outcome, which picks its counter.
OBSERVE: dict[type, Callable[[MetricsRegistry, Any], None]] = {
    TaskFired: _op_ticks,
    QueueDepthSample: _queue_depths,
    ActivationAllocated: _live,
    ActivationRecycled: _live,
    ResultReceived: lambda reg, e: reg.histogram(
        f"worker_seconds/{e.operator}"
    ).observe(e.duration),
    CheckpointWritten: lambda reg, e: reg.histogram(
        "checkpoint_seconds_each"
    ).observe(e.seconds),
    OperatorsFused: _fused,
    RunFinished: _run_finished,
}


def attach_metrics(
    bus: EventBus, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Subscribe the standard metrics pipeline to ``bus``: the events
    :data:`COUNTS` and :data:`OBSERVE` read, and no other.

    Returns the registry (created if not supplied) that the run will fill;
    every counter of the table is in it from the start, zeros included.
    """
    reg = registry if registry is not None else MetricsRegistry()
    rows = {
        t: [(reg.counter(name), amount, label) for name, amount, label in spec]
        for t, spec in COUNTS.items()
    }
    reg.counter("runs_finished")
    reg.counter("runs_failed")
    reg.gauge("activations_live")

    def on_event(e: Event) -> None:
        for counter, amount, label in rows.get(type(e), ()):
            counter.inc(
                1 if amount is None else getattr(e, amount),
                None if label is None else getattr(e, label),
            )
        observe = OBSERVE.get(type(e))
        if observe is not None:
            observe(reg, e)

    bus.subscribe(on_event, events=(*COUNTS, *OBSERVE))
    return reg
