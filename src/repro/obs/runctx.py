"""Run-scoped observability contexts.

Serving Delirium programs means one process hosting many concurrent
runs whose events and metrics never mix.  The event substrate is already
*capable* of that — an :class:`~repro.obs.events.EventBus` is plain
per-run state — but nothing owned the wiring: callers built a
bus, attached subscribers, picked file names, and threaded everything
through executor constructors by hand, so every run in a process shared
whatever bus happened to be global-ish.

:class:`RunContext` is that owner.  One context carries:

* a **run id** (caller-chosen or generated, unique within the process),
* a private child **EventBus** — isolation is structural: two contexts
  share no objects, so their event streams are disjoint by construction,
  not by filtering;
* a private **MetricsRegistry** filled by the standard subscriber;
* an always-on **flight recorder** (:mod:`repro.obs.flightrec`) whose
  dump file is named by the run id;
* the executor handshake: executors accept ``run_ctx=...``, take their
  bus from it, register engine/queue/supervisor snapshot sources for the
  recorder, and bracket the run with
  :class:`~repro.obs.events.RunStarted` /
  :class:`~repro.obs.events.RunFinished`.

Typical use::

    ctx = RunContext()                      # or RunContext(run_id="job-7")
    result = SequentialExecutor(run_ctx=ctx).run(program)
    print(ctx.metrics.summary_table())
    print(ctx.metrics.to_prometheus())      # scrape surface
    report = ctx.critical_path(result.wall_seconds)  # needs record_events

Server-mode prerequisite (tested): two contexts driven concurrently on
one process observe exactly their own run and nothing else.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import TYPE_CHECKING, Any, Callable

from .events import EventBus, EventLog, RunFinished, RunStarted
from .flightrec import DEFAULT_CAPACITY, FlightRecorder
from .metrics import MetricsRegistry, attach_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .critpath import CriticalPathReport

_run_counter = itertools.count(1)
_run_counter_lock = threading.Lock()


def next_run_id(prefix: str = "run") -> str:
    """Process-unique run id: ``<prefix>-<pid>-<n>``."""
    with _run_counter_lock:
        n = next(_run_counter)
    return f"{prefix}-{os.getpid()}-{n}"


class RunContext:
    """One run's private observability: id, bus, metrics, black box.

    Parameters
    ----------
    run_id:
        Names the run (and its flight-recorder dump); generated when
        omitted.
    metrics:
        Attach the standard metrics subscriber (default on).
    flight_recorder:
        Attach the always-on flight recorder (default on).
    flightrec_capacity / flightrec_dir:
        Ring size and dump directory for the recorder.
    record_events:
        Also attach an unbounded-ish :class:`~repro.obs.events.EventLog`
        capturing the full stream — required for
        :meth:`critical_path`, off by default (it re-enables per-fire
        event construction, which is the point of profiling runs and the
        antithesis of cheap monitoring ones).
    """

    def __init__(
        self,
        run_id: str | None = None,
        *,
        metrics: bool = True,
        flight_recorder: bool = True,
        flightrec_capacity: int = DEFAULT_CAPACITY,
        flightrec_dir: str | None = None,
        record_events: bool = False,
    ) -> None:
        self.run_id = run_id if run_id is not None else next_run_id()
        self.bus = EventBus()
        self.metrics: MetricsRegistry | None = (
            attach_metrics(self.bus) if metrics else None
        )
        self.flightrec: FlightRecorder | None = None
        if flight_recorder:
            self.flightrec = FlightRecorder(
                run_id=self.run_id,
                capacity=flightrec_capacity,
                directory=flightrec_dir,
            )
            self.flightrec.attach(self.bus)
        self.log: EventLog | None = None
        if record_events:
            self.log = EventLog()
            self.log.attach(self.bus)
        self._executor: str = ""
        self._snapshot_sources: dict[str, Callable[[], Any]] = {}

    # -- executor handshake ---------------------------------------------
    def add_snapshot_source(self, name: str, source: Callable[[], Any]) -> None:
        """Register a state provider for flight-recorder dumps."""
        self._snapshot_sources[name] = source
        if self.flightrec is not None:
            self.flightrec.add_snapshot_source(name, source)

    def run_started(self, executor: str) -> None:
        """Executor bracket: the run began (clock is already set)."""
        self._executor = executor
        if self.bus.active:
            self.bus.emit(RunStarted(self.bus.now(), self.run_id, executor))

    def run_finished(self, wall_seconds: float, ok: bool = True) -> None:
        if self.bus.active:
            self.bus.emit(
                RunFinished(
                    self.bus.now(), self.run_id, self._executor,
                    wall_seconds, ok,
                )
            )

    def run_failed(self, exc: BaseException, wall_seconds: float) -> None:
        """Executor bracket for the raising path: emit the failed
        :class:`~repro.obs.events.RunFinished` and dump the black box."""
        self.run_finished(wall_seconds, ok=False)
        if self.flightrec is not None:
            self.flightrec.dump(reason=f"run failed: {exc!r}")

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Current state of every registered snapshot source."""
        out: dict[str, Any] = {"run_id": self.run_id}
        for name, source in self._snapshot_sources.items():
            try:
                out[name] = source()
            except Exception as exc:  # noqa: BLE001 - diagnostics only
                out[name] = {"error": repr(exc)}
        return out

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` document for a metrics server."""
        doc: dict[str, Any] = {"run_id": self.run_id}
        if self._executor:
            doc["executor"] = self._executor
        if self.flightrec is not None:
            doc["flightrec_dumps"] = self.flightrec.dumps
        return doc

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1"):
        """Start a :class:`~repro.obs.expo.MetricsServer` for this run.

        Returns the started server; caller stops it.  Requires
        ``metrics=True``.
        """
        from .expo import MetricsServer

        if self.metrics is None:
            raise ValueError("RunContext was built with metrics=False")
        return MetricsServer(
            self.metrics, port=port, host=host, health=self.health
        ).start()

    def critical_path(
        self, wall_seconds: float | None = None
    ) -> "CriticalPathReport":
        """Profile the recorded stream (requires ``record_events=True``)."""
        from .critpath import critical_path

        if self.log is None:
            raise ValueError(
                "RunContext was built without record_events=True; there is "
                "no event stream to profile"
            )
        return critical_path(self.log.events, wall_seconds)
