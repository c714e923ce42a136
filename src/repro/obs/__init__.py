"""Runtime observability: event bus, metrics registry, trace export.

The inspectability layer the paper's environment hinted at (per-node
timing dumps, section 5.2/6.3) generalized into three composable pieces:

* :mod:`repro.obs.events` — typed lifecycle events on an
  :class:`EventBus` that every runtime layer publishes through an
  optional hook (near-zero cost with no subscribers);
* :mod:`repro.obs.metrics` — counters / gauges / histograms / series fed
  by the standard subscriber (:func:`attach_metrics`);
* :mod:`repro.obs.chrome_trace` — Chrome trace-event JSON export,
  loadable in Perfetto, one track per (simulated) processor.

Typical use::

    from repro.obs import ChromeTraceCollector, EventBus, attach_metrics

    bus = EventBus()
    metrics = attach_metrics(bus)
    collector = ChromeTraceCollector()
    collector.attach(bus)
    result = SimulatedExecutor(cray_2(4), bus=bus).run(program)
    collector.write("run.trace.json")
    print(metrics.summary_table())

See ``docs/OBSERVABILITY.md`` for the full event taxonomy.
"""

from .chrome_trace import (
    TICK_SCALE,
    WALL_SCALE,
    ChromeTraceCollector,
    validate_trace,
)
from .critpath import (
    CriticalPathReport,
    FiringRecord,
    compare_critical_paths,
    critical_path,
)
from .events import (
    ALL_EVENTS,
    EVENT_LOG_MAXLEN,
    ActivationAllocated,
    ActivationRecycled,
    BlockAllocated,
    BlockReleased,
    BlockRetained,
    CheckpointWritten,
    CowCopy,
    Event,
    EventBus,
    EventLog,
    ExecutorDegraded,
    Expansion,
    FireRetried,
    FireTimedOut,
    OpFinished,
    OpStarted,
    OperatorsFused,
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
    observe_blocks,
)
from .expo import (
    MetricsServer,
    render_prometheus,
    validate_prometheus_text,
)
from .flightrec import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    encode_event,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    attach_metrics,
)
from .runctx import RunContext, next_run_id

__all__ = [
    "ALL_EVENTS",
    "ActivationAllocated",
    "ActivationRecycled",
    "BlockAllocated",
    "BlockReleased",
    "BlockRetained",
    "CheckpointWritten",
    "ChromeTraceCollector",
    "Counter",
    "CowCopy",
    "CriticalPathReport",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "EVENT_LOG_MAXLEN",
    "Event",
    "EventBus",
    "EventLog",
    "ExecutorDegraded",
    "Expansion",
    "FireRetried",
    "FireTimedOut",
    "FiringRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "OpFinished",
    "OpStarted",
    "OperatorsFused",
    "QueueDepthSample",
    "ResultReceived",
    "RunContext",
    "RunFinished",
    "RunResumed",
    "RunStarted",
    "Series",
    "ShmBlockCreated",
    "ShmSegmentReclaimed",
    "TICK_SCALE",
    "TailExpansion",
    "TaskDispatched",
    "TaskEnqueued",
    "TaskFired",
    "WALL_SCALE",
    "WorkerCrashed",
    "WorkerRespawned",
    "attach_metrics",
    "compare_critical_paths",
    "critical_path",
    "encode_event",
    "next_run_id",
    "observe_blocks",
    "render_prometheus",
    "validate_prometheus_text",
    "validate_trace",
]
