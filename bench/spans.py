"""In-memory span recording for the traced pass.

Spans are ``{name, start, end, parent, run_id}`` records made by bench
code only: around each public call into the program, and — through an
``EventBus`` subscription — one per operator body.  Nothing is written
until the run ends (``dump``).  A layer's *self time* is its spans'
duration minus the part their child spans cover; the spans of one
traced iteration share a ``run_id``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Iterator

from . import add_src_to_path

add_src_to_path()

from repro.obs import EventBus  # noqa: E402
from repro.obs.events import CheckpointWritten, OpFinished  # noqa: E402


class SpanRecorder:
    """A stack-disciplined span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Record the enclosed block as a child of the current span."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record an already-finished interval under the current span."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
        )

    def enclose(self, name: str, start: float, end: float) -> None:
        """Record a finished interval and adopt the current span's
        children that began inside it.

        For work learned about only after the fact — a
        ``CheckpointWritten`` event arrives when the snapshot (and the
        sink flush inside it, already recorded) is over.
        """
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        for record in self.spans:
            if record["parent"] == parent and record["start"] >= start:
                record["parent"] = index
        self.leaf(name, start, end)

    def bus(self) -> EventBus:
        """An event bus whose operator-body and checkpoint events become
        spans (``op:<name>`` leaves, ``write_checkpoint`` enclosures)."""
        bus = EventBus()

        def on_op(event: OpFinished) -> None:
            now = time.perf_counter()
            self.leaf("op:" + event.name, now - event.duration, now)

        def on_checkpoint(event: CheckpointWritten) -> None:
            now = time.perf_counter()
            self.enclose("write_checkpoint", now - event.seconds, now)

        bus.subscribe(on_op, (OpFinished,))
        bus.subscribe(on_checkpoint, (CheckpointWritten,))
        return bus

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (operator bodies pooled as ``op``).

        Children never overlap (one thread, stack discipline), so the
        part of a span its children cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, child_seconds in zip(self.spans, covered):
            name = record["name"].split(":", 1)[0]
            own = record["end"] - record["start"] - child_seconds
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def dump(self, path: str, **header: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


class SpanSource:
    """A pull source wrapper: one ``source.next`` span per item."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def next(self) -> Any:
        with self.recorder.span("source.next"):
            return self.inner.next()

    def seek(self, offset: int) -> None:
        self.inner.seek(offset)

    def close(self) -> None:
        self.inner.close()

    @property
    def offset(self) -> int:
        return self.inner.offset


class SpanSink:
    """A sink wrapper: ``sink.append`` / ``sink.flush`` spans.

    Everything else (durable position, digest, restore) is the wrapped
    sink's, so checkpoints see exactly what they would without tracing.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def append(self, item: Any) -> None:
        with self.recorder.span("sink.append"):
            self.inner.append(item)

    def flush(self) -> None:
        with self.recorder.span("sink.flush"):
            self.inner.flush()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
