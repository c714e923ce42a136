"""The ready queue with the paper's three-level priority scheme.

Section 7: "The ready queue has three levels of priority.  In decreasing
order of priority, they are: normal operators, non-recursive call-closure
operators, and recursive call-closure operators.  The priority scheme
reduces the number of template activations required to evaluate a Delirium
program, by making activations available for re-use as early as possible."

Normal node firings drain existing activations toward completion before any
new subgraph is expanded; recursive expansions — the ones that can multiply
without bound in programs like parallel backtracking — go last.  The effect
is a bounded-frontier, depth-biased exploration instead of a breadth-first
explosion, and it is ablatable (``use_priorities=False`` degrades to a
single FIFO) so the claim can be measured (``benchmarks/
bench_priority_ablation.py``).

Determinism note: the *results* of a Delirium program never depend on pop
order (that is the coordination model's guarantee, which the property tests
exercise by randomizing pop order with ``seed``); only resource usage does.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..graph.ir import (  # noqa: F401 - canonical home; re-exported here
    PRIORITY_CALL,
    PRIORITY_NORMAL,
    PRIORITY_RECURSIVE_CALL,
)
from ..obs.events import EventBus, QueueDepthSample, QueueSaturated


@dataclass(slots=True, eq=False)
class Task:
    """A ready node firing: (activation, node) plus its priority class.

    Treated as immutable by convention; not ``frozen=True`` because the
    engine constructs one per firing and the frozen ``__init__`` pays an
    ``object.__setattr__`` per field on the hottest allocation path.
    """

    activation: Any  # Activation; typed loosely to avoid an import cycle
    node_id: int
    priority: int
    seq: int

    def label(self) -> str:
        return self.activation.template.nodes[self.node_id].label


class ReadyQueue:
    """Three-level priority queue of :class:`Task`.

    Parameters
    ----------
    use_priorities:
        When ``False`` all tasks share one FIFO — the ablation mode.
    seed:
        When given, pops within the selected priority class pick a random
        queued task (seeded, reproducible).  Used by the determinism
        property tests; production executors leave it ``None`` for FIFO
        order within each class.
    bus:
        Optional event bus; when it has subscribers the queue emits a
        :class:`~repro.obs.events.QueueDepthSample` after every push and
        pop — the depth-over-time telemetry scaling PRs are judged by.
    max_ready:
        Optional saturation watermark.  The queue never refuses a push
        (engine correctness requires every newly ready task to be
        accepted), but crossing the watermark sets :attr:`saturated` and
        emits one :class:`~repro.obs.events.QueueSaturated` per upward
        crossing.  Streaming sources poll :attr:`saturated` as the
        backpressure signal; ``None`` (the default) disables the check
        entirely so non-streaming hot loops pay nothing.
    """

    def __init__(
        self,
        use_priorities: bool = True,
        seed: int | None = None,
        bus: EventBus | None = None,
        max_ready: int | None = None,
    ) -> None:
        if max_ready is not None and max_ready < 1:
            raise ValueError(f"max_ready={max_ready} must be >= 1")
        self.use_priorities = use_priorities
        self._rng = random.Random(seed) if seed is not None else None
        # Three named, preallocated deques; ``_queues`` aliases them for
        # the sampling and seeded-pop paths.  The common production case
        # (no rng, no bus) pops through the named references directly.
        self._q0: deque[Task] = deque()
        self._q1: deque[Task] = deque()
        self._q2: deque[Task] = deque()
        self._queues: list[deque[Task]] = [self._q0, self._q1, self._q2]
        self._size = 0
        self._bus = bus if (bus is not None and bus.active) else None
        # Snapshot of the subscriber set (executors do the same for
        # TaskFired): a bus whose subscribers ignore depth samples must
        # not pay a ``wants`` resolution on every push and pop.  Queues
        # are constructed after subscriptions are attached.
        self._sampling = self._bus is not None and self._bus.wants(
            QueueDepthSample
        )
        self._fast = self._rng is None and not self._sampling
        self.max_ready = max_ready
        self._watch = max_ready is not None
        #: True while the depth sits at or above ``max_ready``; re-armed
        #: (set back False) as soon as a pop takes the depth below it.
        self.saturated = False
        #: Total upward watermark crossings over the queue's lifetime.
        self.saturations = 0
        self._sat_emit = self._bus is not None and self._bus.wants(
            QueueSaturated
        )

    def _check_high(self) -> None:
        """Record an upward watermark crossing (``_watch`` is True)."""
        if not self.saturated and self._size >= self.max_ready:
            self.saturated = True
            self.saturations += 1
            if self._sat_emit:
                bus = self._bus
                bus.emit(
                    QueueSaturated(bus.now(), self._size, self.max_ready)
                )

    def depths(self) -> tuple[int, int, int]:
        """Current depth per priority class (flight-recorder snapshot)."""
        return (len(self._q0), len(self._q1), len(self._q2))

    def _sample_depth(self) -> None:
        bus = self._bus
        q0, q1, q2 = self._queues
        bus.emit(QueueDepthSample(bus.now(), (len(q0), len(q1), len(q2))))

    def push(self, task: Task) -> None:
        level = task.priority if self.use_priorities else 0
        self._queues[level].append(task)
        self._size += 1
        if self._watch:
            self._check_high()
        if self._sampling:
            self._sample_depth()

    def push_all(self, tasks: list[Task]) -> None:
        if self._fast and self.use_priorities:
            q = self._queues
            for t in tasks:
                q[t.priority].append(t)
            self._size += len(tasks)
            if self._watch:
                self._check_high()
            return
        for t in tasks:
            self.push(t)

    def pop(self) -> Task:
        if self._size == 0:
            raise IndexError("pop from empty ready queue")
        if self._fast:
            self._size -= 1
            if self.saturated and self._size < self.max_ready:
                self.saturated = False
            q0 = self._q0
            if q0:
                return q0.popleft()
            q1 = self._q1
            if q1:
                return q1.popleft()
            return self._q2.popleft()
        for q in self._queues:
            if q:
                self._size -= 1
                if self.saturated and self._size < self.max_ready:
                    self.saturated = False
                if self._rng is None or len(q) == 1:
                    task = q.popleft()
                else:
                    i = self._rng.randrange(len(q))
                    q.rotate(-i)
                    task = q.popleft()
                    q.rotate(i)
                if self._sampling:
                    self._sample_depth()
                return task
        raise AssertionError("size/queue mismatch")  # pragma: no cover

    def pop_batch(self, limit: int, key: Any) -> list[Task]:
        """Pop the next task plus same-key peers from its priority class.

        ``key(task)`` names the group — e.g. ``(template, node)``, as
        the executors' peer expansion keys it, and ``None`` for tasks
        that are never grouped.  The head task is popped exactly as
        :meth:`pop` would (so a seeded queue still randomizes the head),
        then :meth:`take_peers` collects up to ``limit - 1`` tasks with
        the head's key.  A ``None``-keyed head returns as a singleton.
        """
        head = self.pop()
        if limit <= 1 or self._size == 0:
            return [head]
        k = key(head)
        if k is None:
            return [head]
        return [head, *self.take_peers(head, k, limit - 1, key)]

    def has_peer(self, head: Task) -> bool:
        """Is another firing of ``head``'s ``(template, node)`` queued?

        Answers whether :meth:`take_peers` would come back non-empty for
        a head keyed by its template and node, without paying for it: one
        pass over ``head``'s priority class that stops at the first
        match, calls no key function and moves nothing.
        """
        node_id = head.node_id
        template = head.activation.template
        for t in self._queues[head.priority if self.use_priorities else 0]:
            if t.node_id == node_id and t.activation.template is template:
                return True
        return False

    def take_peers(
        self, head: Task, k: Any, limit: int, key: Any
    ) -> list[Task]:
        """Remove up to ``limit`` tasks keyed ``k`` from ``head``'s class.

        The second half of :meth:`pop_batch`, for callers that classify
        the already-popped ``head`` before paying for the scan of its
        priority class (ask :meth:`has_peer` first when a lone head is
        the common case); non-matching tasks keep their relative order.

        Safe under single-assignment: batching reorders only *when*
        bodies run relative to other groups, and results never depend on
        pop order (the module docstring's determinism note) — resource
        usage is the only observable difference, exactly as with seeded
        pops.
        """
        if limit < 1 or self._size == 0:
            return []
        q = self._queues[head.priority if self.use_priorities else 0]
        peers: list[Task] = []
        kept: list[Task] = []
        while q and limit:
            t = q.popleft()
            if key(t) == k:
                peers.append(t)
                limit -= 1
            else:
                kept.append(t)
        if kept:
            q.extendleft(reversed(kept))
        self._size -= len(peers)
        if self.saturated and self._size < self.max_ready:
            self.saturated = False
        if self._sampling:
            self._sample_depth()
        return peers

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
