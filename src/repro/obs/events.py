"""Typed runtime lifecycle events and the :class:`EventBus`.

The paper's programming environment was built around *visibility*: per-node
timing dumps exposed the retina model's ``post_up`` bottleneck (section
5.2) and the compiler's unbalanced tree division (section 6.3).  This
module generalizes that one tool into an event stream over the whole
coordination layer: every interesting runtime transition — a task becoming
ready, a node firing, an operator running, an activation being allocated
or recycled, a copy-on-write copy, a template expansion — is a typed event
published on a bus that any number of subscribers can observe.

Design constraints, in order:

1. **Near-zero overhead when nobody is listening.**  Emit sites in the
   engine, executors, scheduler, and activation pool hold a bus reference
   only when the bus has at least one subscriber at run start; the
   no-subscriber hot path is a single ``is not None`` check.  A guard test
   (``tests/test_obs_overhead.py``) enforces this stays true.
2. **Events carry data, not behavior.**  Every event is a frozen slotted
   dataclass; subscribers aggregate (metrics), record (tracer), or export
   (Chrome trace) — the runtime never depends on what they do.
3. **The executor owns time.**  Events are stamped from the bus clock,
   which the executor configures: wall seconds since run start for the
   real executors, simulated ticks for the machine simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: every event carries a timestamp in the executor's unit."""

    ts: float


# ----------------------------------------------------------------------
# Run lifecycle (run-scoped observability contexts)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RunStarted(Event):
    """An executor began driving a program under a
    :class:`~repro.obs.runctx.RunContext` — every event that follows on
    this bus until the matching :class:`RunFinished` belongs to
    ``run_id``."""

    run_id: str
    executor: str


@dataclass(frozen=True, slots=True)
class RunFinished(Event):
    """The run completed (``ok=True``) or raised (``ok=False``)."""

    run_id: str
    executor: str
    wall_seconds: float
    ok: bool


# ----------------------------------------------------------------------
# Task lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TaskEnqueued(Event):
    """A node's inputs all arrived; it entered the ready queue."""

    label: str
    kind: str
    priority: int
    template: str
    aid: int
    node_id: int
    seq: int


@dataclass(frozen=True, slots=True)
class TaskFired(Event):
    """One node firing, as a completed span (``ts`` = start time).

    Emitted by the *executor* (which owns the notion of time and of
    processor placement), not the engine.  ``duration`` is in the
    executor's unit; ``processor`` is the simulated processor or worker
    thread index (0 for the sequential executor).
    """

    label: str
    kind: str
    priority: int
    template: str
    aid: int
    node_id: int
    seq: int
    duration: float
    processor: int


# ----------------------------------------------------------------------
# Operator execution (engine-side truth, matches EngineStats.ops_executed)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OpStarted(Event):
    """The engine is about to invoke an operator function.

    ``fused_ops`` is how many source-graph operators this invocation
    represents: 1 for an ordinary operator, the unguarded steps (absorbed
    ``untuple`` and each folded ``IF`` included) for a fused super-node.
    """

    name: str
    fused_ops: int = 1

    @property
    def fused(self) -> int:  # 1 for a fused super-node's firing
        return int(self.fused_ops > 1)

    @property
    def ops_saved(self) -> int:  # the source-graph firings it saved
        return self.fused_ops - 1


@dataclass(frozen=True, slots=True)
class OpFinished(Event):
    """The operator function returned.  ``duration`` is bus-clock delta
    (wall seconds on real executors; 0 on the simulator, where operator
    *cost* is modeled separately and reported via :class:`TaskFired`)."""

    name: str
    duration: float


# ----------------------------------------------------------------------
# Activation pool
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ActivationAllocated(Event):
    """An activation was created for an expansion (or the root)."""

    template: str
    aid: int
    live: int


@dataclass(frozen=True, slots=True)
class ActivationRecycled(Event):
    """An activation finished and was released: the pool keeps nothing of
    it."""

    template: str
    aid: int
    live: int


# ----------------------------------------------------------------------
# Data blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BlockAllocated(Event):
    """A fresh :class:`~repro.runtime.blocks.DataBlock` was constructed
    (COW copies included)."""

    nbytes: int


@dataclass(frozen=True, slots=True)
class BlockRetained(Event):
    """``n`` references added to a data block (``rc`` = count after)."""

    nbytes: int
    n: int
    rc: int


@dataclass(frozen=True, slots=True)
class BlockReleased(Event):
    """``n`` references dropped from a data block (``rc`` = count after)."""

    nbytes: int
    n: int
    rc: int


@dataclass(frozen=True, slots=True)
class CowCopy(Event):
    """A copy-on-write copy, attributed to the operator that forced it."""

    operator: str
    nbytes: int


# ----------------------------------------------------------------------
# Template expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Expansion(Event):
    """A CALL/IF node expanded a template into a child activation."""

    template: str
    aid: int


@dataclass(frozen=True, slots=True)
class TailExpansion(Expansion):
    """An expansion in tail position: the child inherited the parent's
    continuation (subscribing to :class:`Expansion` receives these too)."""


# ----------------------------------------------------------------------
# Process-worker dispatch (ProcessExecutor)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TaskDispatched(Event):
    """An operator body was serialized and staged for a worker process.

    ``nbytes`` counts the serialized argument payloads (pickle bytes plus
    any shared-memory segment bytes); ``via_shm`` is true when at least
    one argument traveled through a shared-memory block.  ``node_id`` is
    the graph node the firing belongs to (``-1`` on old emitters), which
    lets the critical-path profiler join a dispatch to its
    :class:`ResultReceived` and back to the firing.
    """

    operator: str
    call_id: int
    nbytes: int
    via_shm: bool
    node_id: int = -1


@dataclass(frozen=True, slots=True)
class ResultReceived(Event):
    """A worker returned an operator result to the master.

    ``worker`` is the worker index (Perfetto track ``worker+1``; the
    master is track 0), ``duration`` the worker-side wall seconds spent in
    the operator function, ``nbytes`` the serialized result size.
    """

    operator: str
    call_id: int
    worker: int
    duration: float
    nbytes: int
    via_shm: bool


@dataclass(frozen=True, slots=True)
class ShmBlockCreated(Event):
    """A shared-memory segment carried a large dispatched argument (one
    event per shm-borne argument encoding; arena segments are reused, and
    a result returned in its request's segment adds none)."""

    name: str
    nbytes: int


# ----------------------------------------------------------------------
# Fault tolerance (supervised ProcessExecutor)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WorkerCrashed(Event):
    """A worker process died (exit signal or code) with fires in flight."""

    worker: int
    pid: int
    exitcode: int | None
    in_flight: int


@dataclass(frozen=True, slots=True)
class WorkerRespawned(Event):
    """The supervisor replaced a dead worker with a fresh process."""

    worker: int
    pid: int
    respawns: int


@dataclass(frozen=True, slots=True)
class FireRetried(Event):
    """An in-flight firing is being re-executed after a fault.

    ``reason`` is ``"crash"``, ``"timeout"``, or ``"error"``; ``attempt``
    is the 1-based number of the attempt *about to run*.
    """

    operator: str
    call_id: int
    node_id: int
    attempt: int
    reason: str
    backoff: float


@dataclass(frozen=True, slots=True)
class FireTimedOut(Event):
    """A dispatched firing exceeded the per-fire timeout; its worker is
    presumed hung and will be killed and respawned."""

    operator: str
    call_id: int
    worker: int
    timeout: float


@dataclass(frozen=True, slots=True)
class ExecutorDegraded(Event):
    """The executor fell down the degradation ladder (process → threaded
    → sequential) because its machinery was irrecoverable."""

    from_executor: str
    to_executor: str
    reason: str


@dataclass(frozen=True, slots=True)
class ShmSegmentReclaimed(Event):
    """The supervisor reclaimed a shared-memory segment that was checked
    out to a worker which died mid-fire (returned to the arena free list
    or unlinked)."""

    name: str
    nbytes: int
    pid: int


# ----------------------------------------------------------------------
# Locality (process executor with an affinity policy)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BlockCached(Event):
    """A worker now holds a resident decoded copy of a block.

    ``kind`` is ``"arg"`` when the copy was created by decoding a
    shipped argument, ``"result"`` when the worker kept its own operator
    result under the master-assigned id.
    """

    bid: int
    nbytes: int
    worker: int
    kind: str


@dataclass(frozen=True, slots=True)
class BlockRefShipped(Event):
    """An input block crossed the wire as a ``("ref", bid)`` token —
    no pickle, no shared-memory segment — because the target worker
    holds a resident copy."""

    bid: int
    nbytes: int
    worker: int
    operator: str


@dataclass(frozen=True, slots=True)
class AffinityMiss(Event):
    """A worker's block cache missed on a ref-shipped input (eviction,
    injected fault, or stale residency); the master re-dispatches the
    fire with full encodings."""

    operator: str
    call_id: int
    worker: int
    missing: int


# ----------------------------------------------------------------------
# Compiler fusion (emitted once per run, at start)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OperatorsFused(Event):
    """The program being executed contains fused super-nodes.

    ``fused_nodes`` is how many fused nodes exist across the program's
    templates; ``ops_absorbed`` is how many source-graph nodes (member
    operators, folded ``IF``\\ s and absorbed untuples, not the arms'
    guarded operators) those fused nodes replace.
    """

    fused_nodes: int
    ops_absorbed: int


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QueueDepthSample(Event):
    """Ready-queue depth per priority class, sampled at a push or pop."""

    depths: tuple[int, int, int]

    @property
    def total(self) -> int:
        return sum(self.depths)


# ----------------------------------------------------------------------
# Streaming / checkpoint (runtime.stream, runtime.checkpoint)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CheckpointWritten(Event):
    """A crash-consistent snapshot reached durable storage.

    Emitted after the atomic rename, so an event implies the file named
    by ``path`` is complete and verifiable.  ``seconds`` is the wall
    time spent flushing the sink plus serializing and fsyncing the
    snapshot — the cost the <5% overhead budget is measured against.
    """

    path: str
    seq: int
    items: int
    fires: int
    nbytes: int
    seconds: float


@dataclass(frozen=True, slots=True)
class RunResumed(Event):
    """A streaming run was rebuilt from a checkpoint instead of scratch.

    ``items``/``fires`` are the restored frontier: everything before it
    is committed (single-assignment makes it final) and is never
    re-fired.
    """

    path: str
    items: int
    fires: int


#: Every concrete event type, in the order defined above, for subscribers
#: that want the full stream.
ALL_EVENTS: tuple[type, ...] = tuple(
    t for t in globals().values()
    if isinstance(t, type) and issubclass(t, Event) and t is not Event
)


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe hub for runtime events.

    Subscribers run inline at the emit site (under the engine lock on the
    threaded executor), so they must be fast and must not re-enter the
    runtime.  Subscribe *before* the run starts: executors snapshot
    ``active`` once, and a bus with no subscribers costs the run nothing
    beyond an attribute check per emit site.
    """

    __slots__ = ("_subs", "_dispatch", "_clock", "_time")

    def __init__(self) -> None:
        self._subs: list[tuple[tuple[type, ...] | None, Subscriber]] = []
        #: Per-concrete-event-type subscriber lists, built lazily on first
        #: emit of each type and invalidated on (un)subscribe.  Turns the
        #: per-emit linear isinstance scan into one dict hit — an emit no
        #: subscriber wants costs a lookup plus an empty loop, which is
        #: what keeps instrumented runs close to uninstrumented ones.
        self._dispatch: dict[type, list[Subscriber]] = {}
        self._clock: Callable[[], float] | None = None
        self._time = 0.0

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Current time in the executor's unit."""
        clock = self._clock
        return clock() if clock is not None else self._time

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Install a live clock (real executors: wall seconds since start)."""
        self._clock = clock

    def set_time(self, t: float) -> None:
        """Advance manual time (the simulator sets this to ``now`` ticks)."""
        self._clock = None
        self._time = t

    # -- subscription --------------------------------------------------
    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subs)

    def subscribe(
        self,
        fn: Subscriber,
        events: Iterable[type] | None = None,
    ) -> Callable[[], None]:
        """Attach ``fn``; restrict to ``events`` types (subclasses match).

        Returns an unsubscribe callable.
        """
        entry = (tuple(events) if events is not None else None, fn)
        self._subs.append(entry)
        self._dispatch.clear()

        def unsubscribe() -> None:
            try:
                self._subs.remove(entry)
            except ValueError:
                pass
            self._dispatch.clear()

        return unsubscribe

    # -- emission ------------------------------------------------------
    def _resolve(self, event_type: type) -> list[Subscriber]:
        subs = [
            fn
            for types, fn in self._subs
            if types is None or issubclass(event_type, types)
        ]
        self._dispatch[event_type] = subs
        return subs

    def wants(self, event_type: type) -> bool:
        """Whether any subscriber would receive events of this type.

        Emit sites constructing expensive events may check this first and
        skip construction entirely when nobody is listening.
        """
        subs = self._dispatch.get(event_type)
        if subs is None:
            subs = self._resolve(event_type)
        return bool(subs)

    def emit(self, event: Event) -> None:
        subs = self._dispatch.get(type(event))
        if subs is None:
            subs = self._resolve(type(event))
        for fn in subs:
            fn(event)


#: Default :class:`EventLog` bound.  A long process-executor run emits a
#: few thousand events per second of wall time, so a million-event ring
#: holds minutes of history while bounding memory at roughly 100 MB of
#: event objects even if a run is left instrumented indefinitely.
EVENT_LOG_MAXLEN = 1_048_576


class EventLog:
    """The simplest subscriber: record events in emission order.

    Used by tests (causal-consistency checks), ad-hoc debugging, and —
    with a small ``maxlen`` — as the ring buffer inside the flight
    recorder (:mod:`repro.obs.flightrec`); the production aggregating
    subscribers are :mod:`repro.obs.metrics` and
    :mod:`repro.obs.chrome_trace`.

    Storage is a ``deque`` bounded at ``maxlen`` (default
    :data:`EVENT_LOG_MAXLEN`): once full, the oldest events are silently
    dropped, so an always-attached log never grows without limit.  Pass
    ``maxlen=None`` for the old unbounded behavior.
    """

    def __init__(self, maxlen: int | None = EVENT_LOG_MAXLEN) -> None:
        self.events: deque[Event] = deque(maxlen=maxlen)

    @property
    def maxlen(self) -> int | None:
        return self.events.maxlen

    def attach(self, bus: EventBus) -> Callable[[], None]:
        #: ``deque.append`` drops from the far end at capacity, so the
        #: subscription itself is the zero-alloc ring append.
        return bus.subscribe(self.events.append)

    def of_type(self, *types: type) -> list[Event]:
        return [e for e in self.events if isinstance(e, types)]

    def __len__(self) -> int:
        return len(self.events)


def observe_blocks(bus: EventBus) -> "Any":
    """Context manager: route data-block retain/release through ``bus``.

    Block reference traffic is the one event source hooked module-wide
    (``repro.runtime.blocks`` has no per-run state to hang a bus on), so
    it is opt-in and scoped::

        with observe_blocks(bus):
            executor.run(...)
    """
    from contextlib import contextmanager

    from ..runtime import blocks as _blocks

    @contextmanager
    def _ctx():
        # ``block.nbytes`` measures the payload on first read, so an
        # event nobody subscribed to must not be built at all.
        def hook(kind: str, block: Any, n: int) -> None:
            if kind == "retain":
                if bus.wants(BlockRetained):
                    bus.emit(
                        BlockRetained(bus.now(), block.nbytes, n, block.rc)
                    )
            elif kind == "alloc":
                if bus.wants(BlockAllocated):
                    bus.emit(BlockAllocated(bus.now(), block.nbytes))
            elif bus.wants(BlockReleased):
                bus.emit(BlockReleased(bus.now(), block.nbytes, n, block.rc))

        previous = _blocks.set_block_hook(hook, hook)
        try:
            yield bus
        finally:
            _blocks.set_block_hook(*previous)

    return _ctx()
