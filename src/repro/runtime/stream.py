"""Streaming sources and sinks with bounded backpressure.

Delirium programs are finite graphs, but the workloads the runtime must
serve are not: a retina watching a camera, a log pipeline, a market
feed.  This module opens that scenario class without touching the
engine's semantics.  A :class:`StreamRunner` drives one compiled
program over an unbounded sequence of items as **one run**: one engine
state and set of counters, one fault injector, one backend (the thread
set, or the supervised worker pool), one ``RunStarted``/``RunFinished``
bracket and one clock, from the start of the stream.  Each item is one
entry call on that run — one call of the entry's crown where the entry
clips, else the entry started on the graph and the loop driven to
exhaustion — so an item costs its own work and no run set-up.  A pool
the run loses past its respawn budget is not rebuilt for the next item:
the stream finishes on the rung the run stepped down to.

**Backpressure is the design, not a feature flag.**  Sources are
pull-based: the runner asks for the next item only after the previous
item's entire firing frontier has drained and its result committed, so
at any instant the master holds one item's activations plus the carried
value — RSS stays flat over 10⁶ firings because nothing accumulates.

**Carry mode** is how state crosses items in a single-assignment world:
``main(carry, item)`` (or ``main(carry)``) receives the previous item's
result as its first argument.  The carried value is an ordinary
Delirium value — which is exactly why checkpointing it (a pickle) is
consistent: at an item boundary it is the *only* live state.

**Checkpoint/resume** (:mod:`repro.runtime.checkpoint`): give the
runner a checkpoint path and a cadence (every N operator calls, and/or
every S wall seconds via ``FaultPolicy(checkpoint=S)``) and it
periodically flushes the sink and snapshots the frontier atomically.
``resume=`` rebuilds the stream from the snapshot: seek the source,
truncate the sink to its durable prefix (verified by rolling digest),
restore the carry and the run's injector cursors, and continue —
committed items are never re-fired (single-assignment makes them
final), and the sink output is bit-identical to an uninterrupted run.
Property-tested in ``tests/test_checkpoint.py``; the real ``kill -9``
path runs in ``benchmarks/bench_checkpoint_smoke.py`` via the
``masterkill`` fault kind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import DeliriumError
from ..faults.spec import FaultSpec
from ..obs.events import CheckpointWritten, EventBus, RunResumed
from .checkpoint import (
    Checkpoint,
    CheckpointCadence,
    program_fingerprint,
    read_checkpoint,
    registry_fingerprint,
    verify_compatible,
    write_checkpoint,
)
from .engine import EngineStats

#: Sentinel a source returns when it is exhausted.  Distinct from
#: ``None`` so streams can carry ``None`` items.
END = type("EndOfStream", (), {"__repr__": lambda self: "END"})()


class StreamError(DeliriumError):
    """A source, sink, or stream-runner contract violation."""


_DIGEST0 = hashlib.sha256(b"").hexdigest()


def _encode_item(item: Any) -> bytes:
    """Canonical bytes for one sink item (JSON, sorted keys).

    Sink items must be JSON-representable — emit functions reduce rich
    results (NumPy state, aggregates) to plain scalars/lists/dicts.
    This is what makes "bit-identical sink output" a *file-level*
    statement rather than a Python-object one.
    """
    try:
        return (
            json.dumps(item, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
    except TypeError as exc:
        raise StreamError(
            f"sink item {item!r} is not JSON-representable: {exc}; "
            f"pass an emit= function reducing results to plain data"
        )


def _chain(digest: str, line: bytes) -> str:
    """Advance the rolling sink digest by one encoded item."""
    return hashlib.sha256(digest.encode("ascii") + line).hexdigest()


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class CallableSource:
    """A pull-based source computing item ``i`` as ``fn(i)``.

    Deterministic by construction — the item depends only on the
    offset — which is what lets a checkpoint store *just* the offset.
    ``n_items=None`` streams forever (the caller bounds the run with
    ``limit=``).
    """

    def __init__(
        self, fn: Callable[[int], Any], n_items: int | None = None
    ) -> None:
        if n_items is not None and n_items < 0:
            raise StreamError(f"n_items={n_items} must be >= 0")
        self.fn = fn
        self.n_items = n_items
        self.offset = 0

    def next(self) -> Any:
        if self.n_items is not None and self.offset >= self.n_items:
            return END
        item = self.fn(self.offset)
        self.offset += 1
        return item

    def seek(self, offset: int) -> None:
        if self.n_items is not None and offset > self.n_items:
            raise StreamError(
                f"cannot seek to {offset}: source ends at {self.n_items}"
            )
        self.offset = offset

    def close(self) -> None:
        pass


def count_source(n_items: int | None = None) -> CallableSource:
    """The identity stream: item ``i`` is the integer ``i``."""
    return CallableSource(lambda i: i, n_items)


class LineSource:
    """A pull-based source of JSON lines; the offset is the line index.

    Each line is decoded as JSON (the ``delirium run --stream
    lines:FILE`` feed format); a line that is not valid JSON arrives as
    the raw string, so plain-text logs stream too.  ``seek`` re-reads
    from the start of the file — resume pays one linear scan of the
    already-consumed prefix, never re-emits it.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "r", encoding="utf-8")
        self.offset = 0

    def next(self) -> Any:
        line = self._fh.readline()
        if line == "":
            return END
        self.offset += 1
        text = line.rstrip("\n")
        try:
            return json.loads(text)
        except ValueError:
            return text

    def seek(self, offset: int) -> None:
        self._fh.seek(0)
        for _ in range(offset):
            if self._fh.readline() == "":
                raise StreamError(
                    f"cannot seek to line {offset}: {self.path!r} has "
                    f"fewer lines"
                )
        self.offset = offset

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class MemorySink:
    """An in-memory sink with the same flushed/durable contract as the
    file sink — the property tests' reference output."""

    def __init__(self) -> None:
        self.items: list[Any] = []  # flushed ("durable") prefix
        self._pending: list[Any] = []
        self.digest = _DIGEST0

    def append(self, item: Any) -> None:
        self._pending.append(item)

    def flush(self) -> None:
        for item in self._pending:
            self.digest = _chain(self.digest, _encode_item(item))
            self.items.append(item)
        self._pending.clear()

    @property
    def flushed(self) -> int:
        return len(self.items)

    def state_dict(self) -> dict[str, Any]:
        return {"items": len(self.items), "digest": self.digest}

    def restore(self, state: dict[str, Any]) -> None:
        n = int(state["items"])
        if len(self.items) < n:
            raise StreamError(
                f"sink has {len(self.items)} flushed items, checkpoint "
                f"expects at least {n}"
            )
        self._pending.clear()
        del self.items[n:]
        digest = _DIGEST0
        for item in self.items:
            digest = _chain(digest, _encode_item(item))
        if digest != state["digest"]:
            raise StreamError(
                "sink content does not match checkpoint digest; refusing "
                "to resume onto divergent output"
            )
        self.digest = digest

    def close(self) -> None:
        pass


class JsonlSink:
    """An append-only JSON-lines file sink with durable flush offsets.

    ``append`` buffers; ``flush`` writes, ``fsync``\\ s, and advances the
    durable byte offset and rolling digest.  On resume,
    :meth:`restore` re-verifies the durable prefix against the
    checkpoint's digest and truncates anything after it — output
    beyond the last checkpoint was not durable at the crash and is
    re-produced, byte for byte, by the resumed run.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        mode = "r+b" if (resume and os.path.exists(path)) else "wb"
        self._fh = open(path, mode)
        self._buffer: list[bytes] = []
        self.flushed = 0  # items durable
        self.nbytes = 0  # bytes durable
        self.digest = _DIGEST0

    def append(self, item: Any) -> None:
        self._buffer.append(_encode_item(item))

    def flush(self) -> None:
        if self._buffer:
            blob = b"".join(self._buffer)
            self._fh.seek(self.nbytes)
            self._fh.write(blob)
            for line in self._buffer:
                self.digest = _chain(self.digest, line)
            self.flushed += len(self._buffer)
            self.nbytes += len(blob)
            self._buffer.clear()
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def state_dict(self) -> dict[str, Any]:
        return {
            "items": self.flushed,
            "nbytes": self.nbytes,
            "digest": self.digest,
        }

    def restore(self, state: dict[str, Any]) -> None:
        nbytes = int(state["nbytes"])
        self._fh.seek(0, os.SEEK_END)
        size = self._fh.tell()
        if size < nbytes:
            raise StreamError(
                f"sink file {self.path!r} has {size} bytes, checkpoint "
                f"expects at least {nbytes}"
            )
        self._fh.seek(0)
        prefix = self._fh.read(nbytes)
        digest = _DIGEST0
        for line in prefix.splitlines(keepends=True):
            digest = _chain(digest, line)
        if digest != state["digest"]:
            raise StreamError(
                f"sink file {self.path!r} does not match checkpoint "
                f"digest; refusing to resume onto divergent output"
            )
        self._fh.truncate(nbytes)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._buffer.clear()
        self.flushed = int(state["items"])
        self.nbytes = nbytes
        self.digest = digest

    def close(self) -> None:
        self._fh.close()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class StreamResult:
    """Outcome of one :meth:`StreamRunner.run` call."""

    items: int
    #: Operator calls (``ops_executed``) over the items: the checkpoint
    #: cadence's unit.
    fires: int
    wall_seconds: float
    stats: dict[str, float]
    checkpoints_written: int
    resumed_from: str | None
    sink_digest: str
    value: Any  # final carry (carry mode) or last emitted item


class StreamRunner:
    """Drive one compiled program over a stream: each :meth:`run` call is
    one run of the program, and each item one entry call on it.

    Parameters
    ----------
    program / registry:
        The compiled graph and its operators, identical for every item
        (that is what lets one run, and its one worker pool, serve them
        all).
    executor:
        ``"sequential"`` | ``"threaded"`` | ``"process"``.  The choice
        does not affect sink output (bit-identity across executors is
        the runtime's standing guarantee) and deliberately does not
        enter the checkpoint identity: a run checkpointed under one
        executor may resume under another.
    carry:
        When True the previous item's result is threaded into the next
        item's call.  ``make_args`` builds each call's argument tuple from
        ``(item, carry)``; its default is ``(carry, item)`` in carry
        mode and ``(item,)`` otherwise.
    initial:
        The first carry value (carry mode only).
    emit:
        Reduces each item's result to the JSON-representable item
        appended to the sink (default: identity).
    checkpoint_path / checkpoint_every / fault_policy.checkpoint:
        Enable periodic snapshots: every ``checkpoint_every`` operator
        calls (``ops_executed``, equal on every path a run may take,
        clipped or not) and/or every ``FaultPolicy(checkpoint=S)``
        seconds.  A final snapshot is always written on normal
        completion when a path is configured.
    fault_spec:
        A :class:`~repro.faults.FaultSpec`.  The stream's run builds its
        one injector, so clause cursors span the whole stream and land
        in the checkpoint.  ``masterkill`` clauses are consulted at every
        item boundary.
    flags:
        Extra identity entries for the checkpoint manifest (the CLI
        records its graph-pass tuple and compile-cache key here);
        resume refuses a different flag set.
    """

    def __init__(
        self,
        program: Any,
        registry: Any = None,
        *,
        executor: str = "sequential",
        n_workers: int = 4,
        carry: bool = False,
        initial: Any = None,
        make_args: Callable[[Any, Any], tuple] | None = None,
        emit: Callable[[Any], Any] | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        fault_policy: Any = None,
        fault_spec: FaultSpec | None = None,
        flags: dict[str, Any] | None = None,
        bus: EventBus | None = None,
        run_ctx: Any = None,
        executor_options: dict[str, Any] | None = None,
    ) -> None:
        if executor not in ("sequential", "threaded", "process"):
            raise StreamError(
                f"unknown executor {executor!r}; expected sequential, "
                f"threaded, or process"
            )
        # Accept a CompiledProgram (compiler front door) or a bare
        # GraphProgram; the executors want the graph, and the compiled
        # wrapper carries the registry the caller usually means.
        if not hasattr(program, "entry_template") and hasattr(
            program, "graph"
        ):
            if registry is None:
                registry = getattr(program, "registry", None)
            program = program.graph
        self.program = program
        self.registry = registry
        self.executor_name = executor
        self.n_workers = n_workers
        self.carry = carry
        self.initial = initial
        if make_args is not None:
            self.make_args = make_args
        elif carry:
            self.make_args = lambda item, carry: (carry, item)
        else:
            self.make_args = lambda item, carry: (item,)
        self.emit = emit if emit is not None else (lambda value: value)
        self.checkpoint_path = checkpoint_path
        self.fault_policy = fault_policy
        self.fault_spec = fault_spec
        self.flags = dict(flags or {})
        self.flags.setdefault("carry", bool(carry))
        self.bus = bus
        self.run_ctx = run_ctx
        self.executor_options = dict(executor_options or {})
        every_seconds = (
            fault_policy.checkpoint if fault_policy is not None else None
        )
        self.cadence = CheckpointCadence(
            every_fires=checkpoint_every, every_seconds=every_seconds
        )
        self._program_fp: str | None = None
        self._registry_fp: str | None = None
        self._executor: Any = None

    # -- identity -------------------------------------------------------
    def fingerprints(self) -> tuple[str, str]:
        if self._program_fp is None:
            self._program_fp = program_fingerprint(self.program)
            from .operators import builtin_registry

            reg = (
                self.registry
                if self.registry is not None
                else builtin_registry()
            )
            self._registry_fp = registry_fingerprint(reg)
        return self._program_fp, self._registry_fp

    # -- executor -------------------------------------------------------
    def _build_executor(self) -> Any:
        from .executors import (
            ProcessExecutor,
            SequentialExecutor,
            ThreadedExecutor,
        )

        common: dict[str, Any] = dict(
            bus=self.bus,
            run_ctx=self.run_ctx,
            fault_policy=self.fault_policy,
            fault_spec=self.fault_spec,
        )
        common.update(self.executor_options)
        if self.executor_name == "sequential":
            return SequentialExecutor(**common)
        if self.executor_name == "threaded":
            return ThreadedExecutor(n_workers=self.n_workers, **common)
        return ProcessExecutor(
            n_workers=self.n_workers, persistent=True, **common
        )

    @property
    def executor(self) -> Any:
        if self._executor is None:
            self._executor = self._build_executor()
        return self._executor

    def close(self) -> None:
        """Release the worker pool a persistent process executor keeps
        between :meth:`run` calls."""
        if self._executor is not None:
            close = getattr(self._executor, "close", None)
            if close is not None:
                close()
            self._executor = None

    # -- checkpointing --------------------------------------------------
    def _snapshot(
        self,
        run: Any,
        source: Any,
        sink: Any,
        carry: Any,
        items: int,
        fires: int,
        seq: int,
        base: dict[str, float],
    ) -> None:
        """Flush the sink, write one atomic snapshot and announce it."""
        t0 = time.perf_counter()
        sink.flush()
        program_fp, registry_fp = self.fingerprints()
        manifest = {
            "seq": seq,
            "items": items,
            "fires": fires,
            "source_offset": source.offset,
            "sink": sink.state_dict(),
            "program": program_fp,
            "registry": registry_fp,
            "flags": self.flags,
            "created": time.time(),
        }
        injector = run.injector
        payload = {
            "carry": carry,
            "injector": injector.state_dict() if injector is not None else None,
            "stats": _totals(base, run.state.stats),
        }
        nbytes = write_checkpoint(self.checkpoint_path, manifest, payload)
        self.cadence.mark(fires)
        bus = run.bus
        if bus is not None and bus.wants(CheckpointWritten):
            bus.emit(
                CheckpointWritten(
                    bus.now(), self.checkpoint_path, seq, items, fires, nbytes,
                    time.perf_counter() - t0,
                )
            )

    # -- the loop -------------------------------------------------------
    def run(
        self,
        source: Any,
        sink: Any,
        *,
        limit: int | None = None,
        resume: str | Checkpoint | None = None,
        stop_after_items: int | None = None,
    ) -> StreamResult:
        """Drain ``source`` into ``sink``; optionally resume a snapshot.

        The call is one run of the program (one ``RunStarted`` /
        ``RunFinished`` bracket, one clock, one set of counters), and
        each item one entry call on it.  ``limit`` bounds how many items
        this call processes (``None`` = until the source ends).
        ``stop_after_items`` abandons the stream after N items *without*
        a final flush or checkpoint — the in-process stand-in for a
        master crash that the property tests use (the real SIGKILL path
        is the ``masterkill`` fault kind).
        """
        began = time.perf_counter()
        base: dict[str, float] = {}
        items = fires = seq = 0
        ckpt: Checkpoint | None = None
        carry = self.initial
        if resume is not None:
            ckpt = (
                resume
                if isinstance(resume, Checkpoint)
                else read_checkpoint(resume)
            )
            program_fp, registry_fp = self.fingerprints()
            verify_compatible(
                ckpt,
                program_fp=program_fp,
                registry_fp=registry_fp,
                flags=self.flags,
            )
            source.seek(ckpt.source_offset)
            sink.restore(ckpt.sink_state)
            carry = ckpt.payload.get("carry")
            base = dict(ckpt.payload.get("stats") or {})
            items, fires, seq = ckpt.items, ckpt.fires, ckpt.seq
        self.cadence.mark(fires)
        fires0, seq0 = fires, seq
        crashed = False
        run = self.executor.open(self.program, self.registry)
        try:
            bus, injector, stats = run.bus, run.injector, run.state.stats
            if ckpt is not None:
                if injector is not None and ckpt.payload.get("injector") is not None:
                    injector.load_state(ckpt.payload["injector"])
                if bus is not None and bus.wants(RunResumed):
                    bus.emit(RunResumed(bus.now(), ckpt.path, items, fires))
            done = 0
            while limit is None or done < limit:
                item = source.next()
                if item is END:
                    break
                value = run.call(self.make_args(item, carry))
                if self.carry:
                    carry = value
                sink.append(self.emit(value))
                items += 1
                done += 1
                fires = fires0 + stats.ops_executed
                if injector is not None:
                    # May SIGKILL this process (masterkill) — everything
                    # after this line must be redoable from the last
                    # checkpoint, and is.
                    injector.on_master_boundary()
                if stop_after_items is not None and done >= stop_after_items:
                    # Simulated crash: no flush, no snapshot, just stop.
                    crashed = True
                    break
                if self.checkpoint_path is not None and (
                    self.cadence.enabled and self.cadence.due(fires)
                ):
                    seq += 1
                    self._snapshot(
                        run, source, sink, carry, items, fires, seq, base
                    )
            if crashed:
                pass  # no final flush or snapshot either
            elif self.checkpoint_path is None:
                sink.flush()
            else:
                # The final snapshot flushes the sink itself.
                seq += 1
                self._snapshot(run, source, sink, carry, items, fires, seq, base)
        except BaseException as exc:
            run.close(exc)
            raise
        run.close()
        return StreamResult(
            items=items,
            fires=fires,
            wall_seconds=time.perf_counter() - began,
            stats=_totals(base, stats),
            checkpoints_written=seq - seq0,
            resumed_from=ckpt.path if ckpt is not None else None,
            sink_digest=sink.digest,
            value=(
                carry if self.carry
                else None if crashed
                else self.emit_last(sink)
            ),
        )

    @staticmethod
    def emit_last(sink: Any) -> Any:
        items = getattr(sink, "items", None)
        if items:
            return items[-1]
        return None


#: The numeric :class:`EngineStats` counters (the dict-valued fields are
#: per-run snapshots, not summable).
_NUMERIC_STATS = tuple(
    f.name
    for f in dataclasses.fields(EngineStats)
    if isinstance(f.default, (int, float))
)


def _totals(base: dict[str, float], stats: EngineStats) -> dict[str, float]:
    """The stream's counters: the run's, plus those of the stream it
    resumed (``base``, from the checkpoint)."""
    totals = dict(base)
    for name in _NUMERIC_STATS:
        totals[name] = base.get(name, 0) + getattr(stats, name)
    return totals
