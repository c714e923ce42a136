"""Flight recorder: the black box for crashed and degraded runs.

PR 5's supervision layer detects a worker crash instantly — and then the
evidence is gone: the events that led up to it were never recorded
(recording everything is exactly what the zero-overhead contract
forbids), so a crash report says *what* died but not *what the run was
doing*.  The flight recorder closes that gap the way avionics do: an
always-on bounded ring buffer (:class:`~repro.obs.events.EventLog` with
a small ``maxlen``) of the most recent interesting events, dumped to
disk together with an engine-state snapshot the moment something goes
wrong.

Costs are bounded by construction.  The ring only subscribes to the
event types in :data:`DEFAULT_EVENTS` — dispatch/commit traffic, faults,
expansions, memory-path events — not to the per-fire firehose
(``TaskEnqueued``/``OpStarted``/...), so emit sites guarded by
``bus.wants`` never resurrect per-fire event construction on its
account.  The append itself is ``deque.append`` of an event object the
bus already built for delivery: no copy, no allocation, no formatting
until a dump actually happens.

A dump (``<run_id>.flightrec.json``) contains:

* the trigger (a :class:`~repro.obs.events.WorkerCrashed` /
  :class:`~repro.obs.events.ExecutorDegraded` /
  :class:`~repro.obs.events.FireTimedOut` event, an operator error, or a
  fatal signal),
* the last ``capacity`` recorded events, oldest first,
* one snapshot per registered provider: ready-queue depths, in-flight
  fires, worker incarnations, shared-memory arena occupancy — whatever
  the executor wired up via
  :meth:`~repro.obs.runctx.RunContext.add_snapshot_source`.

See ``docs/OBSERVABILITY.md`` for the crash-debugging walkthrough.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
from typing import Any, Callable

from .events import (
    CheckpointWritten,
    CowCopy,
    Event,
    EventBus,
    EventLog,
    ExecutorDegraded,
    Expansion,
    FireRetried,
    FireTimedOut,
    OperatorsFused,
    ResultReceived,
    RunFinished,
    RunResumed,
    RunStarted,
    ShmBlockCreated,
    ShmSegmentReclaimed,
    TaskDispatched,
    WorkerCrashed,
    WorkerRespawned,
)

#: Event types the recorder keeps in its ring.  Deliberately excludes the
#: per-fire firehose (``TaskEnqueued``/``TaskFired``/``OpStarted``/
#: ``OpFinished``/block traffic): recording those would re-enable their
#: construction at every ``wants``-guarded hot emit site.  What remains
#: is the narrative a crash report needs — what was dispatched where,
#: what came back, what expanded, what faulted.
DEFAULT_EVENTS: tuple[type, ...] = (
    RunStarted,
    RunFinished,
    TaskDispatched,
    ResultReceived,
    ShmBlockCreated,
    Expansion,
    OperatorsFused,
    CowCopy,
    WorkerCrashed,
    WorkerRespawned,
    FireRetried,
    FireTimedOut,
    ExecutorDegraded,
    ShmSegmentReclaimed,
    CheckpointWritten,
    RunResumed,
)

#: Event types whose arrival triggers an automatic dump.
TRIGGER_EVENTS: tuple[type, ...] = (
    WorkerCrashed,
    FireTimedOut,
    ExecutorDegraded,
)

#: Default ring capacity: enough to hold the full dispatch history of a
#: mid-sized run and the last few seconds of a large one, at ~100 bytes
#: an event.
DEFAULT_CAPACITY = 512


def encode_event(event: Event) -> dict[str, Any]:
    """One event as a JSON-ready dict (``type`` plus its fields)."""
    out: dict[str, Any] = {"type": type(event).__name__}
    out.update(dataclasses.asdict(event))
    return out


class FlightRecorder:
    """Bounded ring of recent events, dumped to JSON on faults.

    Parameters
    ----------
    run_id:
        Names the dump file (``<run_id>.flightrec.json``).
    capacity:
        Ring size (events retained), default :data:`DEFAULT_CAPACITY`.
    path:
        Dump file path; defaults to ``<directory>/<run_id>.flightrec.json``.
    directory:
        Directory for the default path (default: current directory).
    events / triggers:
        Override the recorded set and the auto-dump set.
    auto_dump:
        Dump on every trigger event (default).  ``False`` records only;
        call :meth:`dump` yourself.
    """

    def __init__(
        self,
        run_id: str = "run",
        capacity: int = DEFAULT_CAPACITY,
        path: str | None = None,
        directory: str | None = None,
        events: tuple[type, ...] = DEFAULT_EVENTS,
        triggers: tuple[type, ...] = TRIGGER_EVENTS,
        auto_dump: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.run_id = run_id
        self.ring = EventLog(maxlen=capacity)
        self.events = tuple(events)
        self.triggers = tuple(triggers)
        self.auto_dump = auto_dump
        self.path = path or os.path.join(
            directory or ".", f"{run_id}.flightrec.json"
        )
        self.dumps = 0
        self._bus: EventBus | None = None
        self._snapshot_sources: dict[str, Callable[[], Any]] = {}
        self._detach: Callable[[], None] | None = None
        self._prev_handlers: dict[int, Any] = {}

    # -- wiring ---------------------------------------------------------
    def attach(self, bus: EventBus) -> Callable[[], None]:
        """Subscribe to ``bus``; returns the unsubscribe callable."""
        self._bus = bus
        watched = tuple(dict.fromkeys(self.events + self.triggers))
        self._detach = bus.subscribe(self._on_event, events=watched)
        return self._detach

    def detach(self) -> None:
        if self._detach is not None:
            self._detach()
            self._detach = None

    def add_snapshot_source(
        self, name: str, source: Callable[[], Any]
    ) -> None:
        """Register a provider polled at dump time (queue depths, arena
        occupancy, supervisor in-flight table...).  Providers that raise
        contribute an ``{"error": ...}`` entry instead of killing the
        dump — the recorder must work exactly when things are broken."""
        self._snapshot_sources[name] = source

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """Dump on fatal signals, then re-raise to the previous handler.

        Only callable from the main thread (CPython restriction); the
        CLI opts in, library users usually should not.
        """
        for signum in signals:
            self._prev_handlers[signum] = signal.getsignal(signum)

            def handler(num: int, frame: Any, _rec: "FlightRecorder" = self) -> None:
                _rec.dump(reason=f"signal {signal.Signals(num).name}")
                previous = _rec._prev_handlers.get(num)
                signal.signal(num, previous or signal.SIG_DFL)
                signal.raise_signal(num)

            signal.signal(signum, handler)

    def uninstall_signal_handlers(self) -> None:
        for signum, previous in self._prev_handlers.items():
            signal.signal(signum, previous)
        self._prev_handlers.clear()

    # -- recording ------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        self.ring.events.append(event)
        if self.auto_dump and isinstance(event, self.triggers):
            self.dump(trigger=event)

    # -- dumping --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, source in self._snapshot_sources.items():
            try:
                out[name] = source()
            except Exception as exc:  # noqa: BLE001 - keep dumping
                out[name] = {"error": repr(exc)}
        return out

    def to_dict(
        self, trigger: Event | None = None, reason: str | None = None
    ) -> dict[str, Any]:
        bus = self._bus
        return {
            "run_id": self.run_id,
            "dumped_at": bus.now() if bus is not None else None,
            "trigger": encode_event(trigger) if trigger is not None else None,
            "reason": reason,
            "capacity": self.ring.maxlen,
            "events": [encode_event(e) for e in self.ring.events],
            "snapshot": self.snapshot(),
        }

    def dump(
        self,
        trigger: Event | None = None,
        reason: str | None = None,
        path: str | None = None,
    ) -> str:
        """Write the dump file (overwriting — latest state wins) and
        return its path."""
        target = path or self.path
        doc = self.to_dict(trigger, reason)
        tmp = target + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, default=repr)
            os.replace(tmp, target)
        except BaseException:
            # A dump interrupted mid-write (the recorder runs on crash
            # paths by design) must not leave a stale ``.tmp`` behind.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.dumps += 1
        return target
