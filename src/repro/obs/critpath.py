"""Critical-path profiler: causal time attribution over one run's events.

The paper's timing dump (§5.2) sums time per operator; that view found
``post_up`` but cannot answer the question behind the paper's overhead
figure: *which sequence of firings determined the makespan, and where
does the master's overhead fraction actually live?*  This module
reconstructs the causal DAG of one run from its event stream and
answers both.

Causality reconstruction
------------------------
Single-assignment semantics make the causal parent of a firing precise:
a task enters the ready queue the moment the firing that delivered its
*last missing input* commits.  Every executor serializes engine
bookkeeping (the sequential executor trivially, the process executor's
master loop by construction), and each firing's
:class:`~repro.obs.events.TaskEnqueued` children are emitted *before*
that firing's own :class:`~repro.obs.events.TaskFired` span — so in
stream order, a ``TaskFired`` claims every unclaimed enqueue before it.
The tasks ``state.start`` enqueued — whatever was born ready in the root
activation, operators with all-static inputs included — are stamped
before any span starts, so no firing claims them: they are the roots of
the DAG, on the master's track or a worker's.
``TaskEnqueued.seq`` / ``TaskFired.seq`` join the two halves of each
task, and :class:`~repro.obs.events.TaskDispatched` /
:class:`~repro.obs.events.ResultReceived` (joined on ``call_id``) add
the IPC legs of remote firings.

The **critical path** is then the parent chain from the last-finishing
firing back to a root: the one sequence of causally ordered work whose
durations bound the makespan from below.  **Slack** per firing is how
long its commit could have been delayed before its earliest dependent
(or the end of the run) would have noticed.

Master-overhead attribution
---------------------------
Master-track spans (``processor == 0``) tile the master's timeline, so
the run's wall time decomposes into three wall-additive parts —
operator bodies run on the master, engine overhead inside master spans
(dispatch + commit + bookkeeping), and master wait (gaps between master
spans: blocking on workers, or pure scheduler cost between fires).  The
decomposition is *measured*, not defined: bodies come from
``OpFinished``, spans from ``TaskFired``, wall from the run — so
``reconciliation_error`` is a genuine cross-check that the accounting
explains the measured wallclock (the acceptance bound is 5% on the
retina benchmark).  Worker bodies and per-call IPC latency are reported
alongside (they overlap the master timeline, so they are informational,
not additive).

Scope: built for the sequential and process executors, whose masters
serialize bookkeeping.  Threaded runs produce op spans only; the
profiler degrades to body/IPC accounting there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .events import (
    Event,
    OpFinished,
    ResultReceived,
    TaskDispatched,
    TaskEnqueued,
    TaskFired,
)

#: Reconciliation bound the benchmarks commit to: attributed time must
#: explain measured wallclock to within this fraction.
RECONCILIATION_TOLERANCE = 0.05


@dataclass
class FiringRecord:
    """One task firing, with its causal parent and queue timing."""

    seq: int
    label: str
    kind: str
    template: str
    aid: int
    node_id: int
    start: float
    duration: float
    processor: int
    enqueued: float | None = None
    parent_seq: int | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def queue_wait(self) -> float:
        if self.enqueued is None:
            return 0.0
        return max(0.0, self.start - self.enqueued)


@dataclass
class CriticalPathReport:
    """Everything :func:`critical_path` derives from one run's events."""

    #: Measured run wall time (supplied, or the last event timestamp).
    wall_seconds: float
    #: Firings with known identity (``seq >= 0``).
    n_firings: int
    #: Root-to-final chain of causally ordered firings.
    path: list[FiringRecord] = field(default_factory=list)
    #: seq -> slack seconds (how late the firing could have finished).
    slack: dict[int, float] = field(default_factory=dict)
    #: Wall-additive master-timeline decomposition plus informational
    #: (overlapping) terms; see the module docstring.
    attribution: dict[str, float] = field(default_factory=dict)

    @property
    def path_seconds(self) -> float:
        return sum(r.duration for r in self.path)

    @property
    def path_queue_wait(self) -> float:
        return sum(r.queue_wait for r in self.path)

    @property
    def explained_seconds(self) -> float:
        """The wall-additive attribution terms, summed."""
        return (
            self.attribution.get("operator_body", 0.0)
            + self.attribution.get("engine_overhead", 0.0)
            + self.attribution.get("master_wait", 0.0)
        )

    @property
    def reconciliation_error(self) -> float:
        """|explained − wall| / wall: 0 means perfect accounting."""
        if self.wall_seconds <= 0:
            return 0.0
        return abs(self.explained_seconds - self.wall_seconds) / self.wall_seconds

    @property
    def master_overhead_fraction(self) -> float:
        """Engine overhead over wall: the master's overhead fraction, the
        figure the paper reports as its runtime overhead."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.attribution.get("engine_overhead", 0.0) / self.wall_seconds

    def top_slack(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` slackest firings: (label, slack seconds)."""
        by_seq = {r.seq: r for r in self.path}
        ranked = sorted(
            (
                (seq, s)
                for seq, s in self.slack.items()
                if seq not in by_seq
            ),
            key=lambda kv: -kv[1],
        )[:n]
        labels = self._labels_by_seq()
        return [(labels.get(seq, f"seq {seq}"), s) for seq, s in ranked]

    def _labels_by_seq(self) -> dict[int, str]:
        return getattr(self, "_label_cache", {})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (benchmark records, compare_runs)."""
        return {
            "wall_seconds": self.wall_seconds,
            "n_firings": self.n_firings,
            "path_seconds": self.path_seconds,
            "path_length": len(self.path),
            "path_queue_wait": self.path_queue_wait,
            "path_labels": [r.label for r in self.path],
            "attribution": dict(self.attribution),
            "explained_seconds": self.explained_seconds,
            "reconciliation_error": self.reconciliation_error,
            "master_overhead_fraction": self.master_overhead_fraction,
        }

    def describe(self, unit: str = "seconds", top: int = 12) -> str:
        """Human rendering for ``delirium profile --critical-path``."""
        fmt = (lambda v: f"{v:.6f}") if unit == "seconds" else (
            lambda v: f"{v:.0f}"
        )
        lines = [
            f"critical path: {len(self.path)} of {self.n_firings} firings, "
            f"{fmt(self.path_seconds)} busy + {fmt(self.path_queue_wait)} "
            f"queued of {fmt(self.wall_seconds)} wall"
        ]
        shown = self.path if len(self.path) <= top else (
            self.path[: top // 2] + self.path[-(top - top // 2):]
        )
        lines.append(
            f"  {'label':<22} {'kind':<6} {'start':>12} {'dur':>12} "
            f"{'wait':>12} {'proc':>4}"
        )
        for i, r in enumerate(shown):
            if len(self.path) > top and i == top // 2:
                lines.append(f"  ... {len(self.path) - top} more ...")
            lines.append(
                f"  {r.label:<22} {r.kind:<6} {fmt(r.start):>12} "
                f"{fmt(r.duration):>12} {fmt(r.queue_wait):>12} "
                f"{r.processor:>4}"
            )
        lines.append("attribution:")
        wall = self.wall_seconds or 1.0
        for key in (
            "operator_body",
            "engine_overhead",
            "master_wait",
            "worker_body",
            "ipc_latency",
            "queue_wait",
        ):
            if key in self.attribution:
                v = self.attribution[key]
                note = (
                    ""
                    if key in ("operator_body", "engine_overhead", "master_wait")
                    else "  (overlaps)"
                )
                lines.append(
                    f"  {key:<18} {fmt(v):>12}  {v / wall:>6.1%}{note}"
                )
        lines.append(
            f"explained {fmt(self.explained_seconds)} vs wall "
            f"{fmt(self.wall_seconds)} "
            f"(reconciliation error {self.reconciliation_error:.1%})"
        )
        return "\n".join(lines)


def critical_path(
    events: Iterable[Event], wall_seconds: float | None = None
) -> CriticalPathReport:
    """Reconstruct the causal DAG of one run and attribute its time.

    ``events`` is the run's stream in emission order (an
    :class:`~repro.obs.events.EventLog`'s ``.events`` or any iterable);
    ``wall_seconds`` the measured wall time (defaults to the latest span
    end seen, which under-reads by the final commit's tail).
    """
    firings: dict[int, FiringRecord] = {}
    order: list[int] = []
    enqueues: dict[int, float] = {}
    unclaimed: list[int] = []
    parent: dict[int, int] = {}
    op_body = 0.0
    worker_body = 0.0
    dispatched_at: dict[int, float] = {}
    ipc_latency = 0.0
    queue_wait_total = 0.0
    last_ts = 0.0

    for e in events:
        if isinstance(e, TaskEnqueued):
            enqueues[e.seq] = e.ts
            unclaimed.append(e.seq)
        elif isinstance(e, TaskFired):
            last_ts = max(last_ts, e.ts + e.duration)
            if e.seq < 0:
                continue  # unattributed span (legacy threaded emitters)
            rec = FiringRecord(
                e.seq,
                e.label,
                e.kind,
                e.template,
                e.aid,
                e.node_id,
                e.ts,
                e.duration,
                e.processor,
                enqueued=enqueues.get(e.seq),
            )
            firings[e.seq] = rec
            order.append(e.seq)
            # Claim the enqueues this firing emitted: they arrive in
            # stream order just before this span, and are stamped after
            # the span's start.  Anything earlier (root enqueues from
            # ``state.start``, or a sibling's leftovers) stays unclaimed
            # rather than being mis-parented.
            still: list[int] = []
            for child in unclaimed:
                if child != e.seq and enqueues[child] >= e.ts:
                    parent[child] = e.seq
                else:
                    still.append(child)
            unclaimed = still
        elif isinstance(e, OpFinished):
            op_body += e.duration
            last_ts = max(last_ts, e.ts)
        elif isinstance(e, ResultReceived):
            worker_body += e.duration
            t_sent = dispatched_at.pop(e.call_id, None)
            if t_sent is not None:
                ipc_latency += max(0.0, (e.ts - t_sent) - e.duration)
            last_ts = max(last_ts, e.ts)
        elif isinstance(e, TaskDispatched):
            dispatched_at[e.call_id] = e.ts

    for rec in firings.values():
        p = parent.get(rec.seq)
        if p is not None and p in firings:
            rec.parent_seq = p
        queue_wait_total += rec.queue_wait

    wall = wall_seconds if wall_seconds is not None else last_ts

    # -- critical path: parent chain from the last-finishing firing -----
    path: list[FiringRecord] = []
    if firings:
        cur: FiringRecord | None = max(firings.values(), key=lambda r: r.end)
        seen: set[int] = set()
        while cur is not None and cur.seq not in seen:
            seen.add(cur.seq)
            path.append(cur)
            cur = (
                firings.get(cur.parent_seq)
                if cur.parent_seq is not None
                else None
            )
        path.reverse()

    # -- per-firing slack ------------------------------------------------
    children: dict[int, list[FiringRecord]] = {}
    for rec in firings.values():
        if rec.parent_seq is not None:
            children.setdefault(rec.parent_seq, []).append(rec)
    run_end = max((r.end for r in firings.values()), default=wall)
    slack: dict[int, float] = {}
    for rec in firings.values():
        kids = children.get(rec.seq)
        if kids:
            slack[rec.seq] = max(
                0.0, min(k.start for k in kids) - rec.end
            )
        else:
            slack[rec.seq] = max(0.0, run_end - rec.end)

    # -- master-timeline decomposition -----------------------------------
    # Master spans (processor 0) are serialized; local bodies are the
    # OpFinished total minus the worker-reported share.
    master = sorted(
        (r for r in firings.values() if r.processor == 0),
        key=lambda r: r.start,
    )
    master_busy = sum(r.duration for r in master)
    local_body = max(0.0, op_body - worker_body)
    # A run whose every firing went to a worker has no master span at
    # all: the master waited for the whole of it.
    master_wait = 0.0
    cursor = 0.0
    for r in master:
        master_wait += max(0.0, r.start - cursor)
        cursor = max(cursor, r.end)
    master_wait += max(0.0, wall - cursor)
    attribution = {
        "operator_body": local_body,
        "engine_overhead": max(0.0, master_busy - local_body),
        "master_wait": master_wait,
        "queue_wait": queue_wait_total,
    }
    if worker_body or ipc_latency:
        attribution["worker_body"] = worker_body
        attribution["ipc_latency"] = ipc_latency

    report = CriticalPathReport(
        wall_seconds=wall,
        n_firings=len(firings),
        path=path,
        slack=slack,
        attribution=attribution,
    )
    report._label_cache = {  # type: ignore[attr-defined]
        seq: rec.label for seq, rec in firings.items()
    }
    return report


def compare_critical_paths(
    baseline: CriticalPathReport, candidate: CriticalPathReport
) -> str:
    """Diff two critical-path summaries (regression-triage view).

    Used by :mod:`repro.tools.compare_runs`; answers "did the path get
    longer, and which attribution bucket moved?".
    """
    lines = [
        f"wall:          {baseline.wall_seconds:.6f} -> "
        f"{candidate.wall_seconds:.6f} "
        f"({_delta(baseline.wall_seconds, candidate.wall_seconds)})",
        f"critical path: {baseline.path_seconds:.6f} -> "
        f"{candidate.path_seconds:.6f} "
        f"({_delta(baseline.path_seconds, candidate.path_seconds)}), "
        f"{len(baseline.path)} -> {len(candidate.path)} firings",
        f"overhead frac: {baseline.master_overhead_fraction:.1%} -> "
        f"{candidate.master_overhead_fraction:.1%}",
    ]
    keys = sorted(set(baseline.attribution) | set(candidate.attribution))
    for key in keys:
        before = baseline.attribution.get(key, 0.0)
        after = candidate.attribution.get(key, 0.0)
        if before or after:
            lines.append(
                f"  {key:<18} {before:>12.6f} -> {after:>12.6f} "
                f"({_delta(before, after)})"
            )
    before_ops = [r.label for r in baseline.path if r.kind == "op"]
    after_ops = [r.label for r in candidate.path if r.kind == "op"]
    if before_ops != after_ops:
        lines.append(
            f"path operators changed: {_summarize(before_ops)} -> "
            f"{_summarize(after_ops)}"
        )
    return "\n".join(lines)


def _delta(before: float, after: float) -> str:
    if before <= 0:
        return "n/a"
    return f"{(after - before) / before:+.1%}"


def _summarize(labels: list[str], limit: int = 6) -> str:
    if len(labels) <= limit:
        return ",".join(labels) or "(none)"
    return ",".join(labels[:limit]) + f",...({len(labels) - limit} more)"
