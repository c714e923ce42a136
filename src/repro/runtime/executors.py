"""Executors: one firing loop, and three places a suspended body can run.

A run is a :class:`Run` — bus, engine state, ready queue, clock, run
bracket, stall check — driving one loop (:meth:`Run.loop`): pop a ready
task, look up its node's dispatch class, and fire it; a firing that comes
back suspended (a :class:`~repro.runtime.engine.PendingOp`) has its body
run *somewhere*.  The executors are that somewhere:

* :class:`SequentialExecutor` — one logical processor; a suspended body
  runs at once, where it was fired.  The reference executor and the
  debugging story of the paper ("we generally debug programs on a
  single-processor workstation").
* :class:`ThreadedExecutor` — several threads drive the loop under one
  engine lock and release it around each body, so threads overlap
  wherever a kernel releases the GIL.  Pure-Python operators still
  serialize on the GIL itself — use :class:`ProcessExecutor` for those.
* :class:`ProcessExecutor` — bodies the dispatch policy picks go to a
  supervised pool of worker processes (the
  :class:`~repro.runtime.supervise.Supervisor` is the backend): true
  multi-core execution, with large NumPy payloads traveling through
  shared memory and cheap glue operators kept in-process (see
  :mod:`repro.runtime.workers`).  The pool is built by the first run
  that leaves its entry's crown; one that cannot be built, or dies, is
  swapped for one of the other two backends on the same run.

Which path a firing takes is selected by what the run observes — a
``TaskFired`` subscriber, a fault injector, ``check_purity``, a cost
hint — never by a switch.  All three run every ready task to
queue exhaustion and produce identical results: the coordination model's
determinism guarantee, which ``tests/test_executor_conformance.py``
checks cell by cell.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any

from ..errors import PoolIrrecoverableError, RuntimeFailure
from ..graph.ir import GraphProgram, NodeKind
from ..obs.events import (
    BlockCached,
    EventBus,
    ExecutorDegraded,
    FireRetried,
    ResultReceived,
    TaskFired,
)
from ..obs.runctx import RunContext
from .blocks import DataBlock
from .crown import crown_for, entry_row
from .engine import EngineStats, ExecutionState, PendingOp
from .operators import OperatorRegistry, builtin_registry, collect_fused_chains
from .scheduler import ReadyQueue, Task
from .supervise import Completion, FaultPolicy, Supervisor, run_with_retries
from .tracing import Tracer
from .workers import (
    SHM_THRESHOLD_DEFAULT,
    DispatchPolicy,
    RegistryRef,
    WorkerPool,
    decode_value,
    encode_value,
)


def resolve_bus(
    bus: EventBus | None,
    trace: bool,
    run_ctx: RunContext | None = None,
) -> tuple[EventBus | None, Tracer | None]:
    """Shared executor preamble: tracer-as-subscriber plus fast-path check.

    An explicit ``bus`` wins; otherwise the run-scoped context supplies
    its private bus.  ``trace=True`` guarantees a bus (creating a private
    one if none was supplied) and attaches a :class:`Tracer` to it; a bus
    that still has no subscribers is then dropped entirely so the run
    pays nothing for instrumentation nobody is watching.
    """
    if bus is None and run_ctx is not None:
        bus = run_ctx.bus
    tracer: Tracer | None = None
    if trace:
        bus = bus if bus is not None else EventBus()
        tracer = Tracer()
        tracer.attach(bus)
    if bus is not None and not bus.active:
        bus = None
    return bus, tracer


def batch_key(task: Task) -> tuple[int, int] | None:
    """Peer key for :meth:`ReadyQueue.take_peers`.

    Ready fires of the same ``(template, node)`` are peers: a ``_CALL``
    head is fired together with them (:meth:`Run.loop`).  ``CALL`` and
    ``OP`` nodes qualify (under threads an ``OP`` head is a ``_CALL``
    head); everything else — ``IF`` expansions, plumbing — returns
    ``None`` and is never a peer.
    """
    node = task.activation.template.nodes[task.node_id]
    kind = node.kind
    if kind is NodeKind.OP or kind is NodeKind.CALL:
        return (id(task.activation.template), task.node_id)
    return None


#: Dispatch classes of :meth:`Run.loop`, decided once per node and
#: executor configuration (:meth:`Run._node_class`).  A ``_CLIP`` call is
#: fired whole, as its crown (:mod:`repro.runtime.crown`).
_FIRE, _OP, _CALL, _CLIP = range(4)

#: Most ready fires of one ``CALL`` node that expand together, the head
#: included.
_GROUP_MAX = 32


@dataclass(slots=True)
class RunResult:
    """Outcome of one program execution."""

    value: Any
    stats: EngineStats
    tracer: Tracer | None
    wall_seconds: float


class _Threads:
    """Backend of a run driven by several threads under one engine lock.

    Every thread runs :meth:`Run.loop` holding ``lock``; a suspended body
    still runs where it was fired, but between :meth:`leave` and
    :meth:`enter` — with the lock released, so kernels that drop the GIL
    overlap across threads.  ``in_flight`` counts the bodies out there,
    and :meth:`pump` is a thread with nothing to pop waiting for one of
    them to come back with new work.
    """

    def __init__(self, run: "Run") -> None:
        self.n_threads = run.executor.n_workers
        self.lock = threading.Condition()
        self.in_flight = 0
        self.errors: list[BaseException] = []
        self._slot = threading.local()

    def leave(self) -> None:
        self.in_flight += 1
        # The queue may hold work for a thread waiting in pump().
        self.lock.notify_all()
        self.lock.release()

    def enter(self) -> None:
        self.lock.acquire()
        self.in_flight -= 1

    def index(self) -> int:
        """The calling thread's number: the track its spans go on."""
        return self._slot.index

    def pump(self, block: bool = True) -> tuple[()]:
        self.lock.wait()
        return ()

    def drive(self, run: "Run") -> None:
        """Run the loop on ``n_threads`` threads, the caller's included.

        The calling thread is thread 0, so a host that cannot start a
        helper thread still finishes the run — on fewer threads.
        """

        def worker(index: int) -> None:
            self._slot.index = index
            with self.lock:
                try:
                    run.loop()
                except Exception as exc:  # noqa: BLE001 - collected
                    self.errors.append(exc)
                except BaseException as exc:
                    # Control-flow exceptions (KeyboardInterrupt,
                    # SystemExit) must win over any operator error when
                    # errors[0] is re-raised below.
                    self.errors.insert(0, exc)
                finally:
                    run.halted = bool(self.errors)
                    self.lock.notify_all()

        helpers: list[threading.Thread] = []
        for i in range(1, self.n_threads):
            t = threading.Thread(
                target=worker, args=(i,), name=f"delirium-worker-{i}"
            )
            try:
                t.start()
            except RuntimeError:  # the host is out of threads
                break
            helpers.append(t)
        worker(0)
        for t in helpers:
            t.join()
        if self.errors:
            raise self.errors[0]


class Run:
    """One execution of a program: the skeleton every executor shares.

    Owns what a run is made of — bus and tracer, engine state, ready
    queue, clock, snapshot sources, the ``RunStarted``/``RunFinished``
    bracket, the stall check, the :class:`RunResult` — and the one firing
    loop (:meth:`loop`).  The executor that builds it supplies only the
    configuration and, to :meth:`execute`, the function that makes its
    backend.  A run whose entry clips is one crown call and builds only
    the stats, the argument shares and the result: the loop's state is a
    class default until :meth:`_drive` sets it.
    """

    queue: ReadyQueue | None = None
    #: Where suspended bodies go, with the surface the
    #: :class:`~repro.runtime.supervise.Supervisor` has: ``dispatch``,
    #: ``pump``, ``in_flight``, ``take_completions``, ``drain_in_flight``.
    #: ``None`` takes nothing: every body runs where it was fired.
    backend: Any = None
    threads: _Threads | None = None
    #: Decides which suspended bodies go to the backend; ``None`` keeps
    #: them all here.
    dispatch_policy: DispatchPolicy | None = None
    classify: Any = None
    #: Calls expand together with their ready peers, and every operator
    #: body suspends.
    batching = suspend = False
    #: Called after every pump and once when the run ends (the process
    #: executor's live gauges).
    on_pump: Any = None

    def __init__(
        self,
        executor: Any,
        name: str,
        program: GraphProgram,
        registry: OperatorRegistry,
    ) -> None:
        self.executor = executor
        self.name = name
        self.ctx = ctx = executor.run_ctx
        bus, self.tracer = resolve_bus(executor.bus, executor.trace, ctx)
        self.bus = bus
        self.state = state = ExecutionState(
            program, registry, executor.check_purity, bus, executor.profile_ops
        )
        self.began = began = time.perf_counter()
        if bus is not None:
            bus.set_clock(lambda: time.perf_counter() - began)
        spec = executor.fault_spec
        self.injector = injector = spec.build() if spec is not None else None
        policy = executor.fault_policy
        if policy is None and injector is not None:
            policy = FaultPolicy()
        #: The retry rule of every local body; ``None`` wraps a failure
        #: at once.
        self.policy = policy
        # Snapshot of the subscriber set: a span costs a clock read and
        # an event object per firing, which a bus carrying only coarse
        # subscribers (flight recorder, say) must not pay.
        self.wants_fired = bus is not None and bus.wants(TaskFired)
        #: Set when a driving thread failed: the others stop popping.
        self.halted = False
        #: Calls may be clipped: nothing watches or perturbs single
        #: firings, pops are not shuffled and one thread drives the loop.
        self.clipping = (
            injector is None
            and not executor.check_purity
            and not self.wants_fired
            and executor.seed is None
            and name != "threaded"
        )
        if ctx is not None:
            ctx.add_snapshot_source("engine", state.snapshot_state)
            ctx.add_snapshot_source("ready_queue", lambda: {
                "depths": self.queue.depths() if self.queue is not None else (0, 0, 0)
            })

    def execute(
        self,
        args: tuple[Any, ...],
        make_backend: Any = None,
        dispatch_policy: DispatchPolicy | None = None,
    ) -> RunResult:
        """Run the program to its result: an entry that clips as one call
        of its crown, any other on the backend ``make_backend(self)``
        makes then (``None``: every body runs here; a made ``None``: the
        backend could not be built, and the run goes on on threads).

        ``dispatch_policy`` decides which suspended bodies go to the
        backend; without one they all run here.
        """
        # Peer expansion pays where expanded leaves meet in the queue to
        # be dispatched together, so it is on exactly when bodies may
        # leave the master; injection decisions are per firing, so an
        # injector switches it off.
        batching = dispatch_policy is not None and self.injector is None
        # Everything :meth:`_node_class` reads besides the node: runs of
        # one configuration share a token, so only the first of them
        # classifies.  The run's name stands for its backend's kind.
        key = (self.name, batching, dispatch_policy, self.clipping)
        self.token = self.executor.class_tokens.setdefault(key, key)
        if dispatch_policy is not None:
            self.dispatch_policy, self.batching = dispatch_policy, batching
            self.classify = dispatch_policy.should_dispatch
        state, ctx, began = self.state, self.ctx, self.began
        if ctx is not None:
            ctx.run_started(self.name)
        try:
            # A body the single pass called unwrapped joins the retry
            # rule from its first failure.
            if self.policy is not None:
                state.recover_op = self.retrying
            # A run is a call: an entry that clips runs as its crown.
            crown = self._clip_of(entry_row(state)) if self.clipping else None
            if crown is not None:
                state.call(crown, args)
            else:
                self._drive(args, make_backend)
            if self.on_pump is not None:
                self.on_pump()
            wall = time.perf_counter() - began
            if not state.finished:
                raise RuntimeFailure(
                    "execution stalled: ready queue drained without "
                    "producing a result (ill-formed graph?)\n"
                    + state.stall_report()
                )
        except BaseException as exc:
            if ctx is not None:
                ctx.run_failed(exc, time.perf_counter() - began)
            raise
        finally:
            state.recover_op = state.clip = None
        if ctx is not None:
            ctx.run_finished(wall)
        return RunResult(state.result(), state.snapshot_stats(), self.tracer, wall)

    def _drive(self, args: tuple[Any, ...], make_backend: Any) -> None:
        """Make the backend, start the entry on the graph and drive the
        loop to exhaustion."""
        backend = make_backend(self) if make_backend is not None else None
        if backend is None and make_backend is not None:
            # The ladder's first rung: the backend could not be built.
            self._step_down(_Threads(self))
        else:
            self.backend = backend
            self.threads = backend if type(backend) is _Threads else None
            # A thread releases the lock around every body, and an injector
            # sees every body before it runs: neither may take the single pass.
            self.suspend = self.injector is not None or self.threads is not None
        ex, threads, state = self.executor, self.threads, self.state
        self.queue = queue = ReadyQueue(ex.use_priorities, ex.seed, bus=self.bus)
        state.clip = self._clip_of if self.clipping else None
        queue.push_all(state.start(args))
        if threads is not None:
            threads.drive(self)
        else:
            self.loop()

    # -- the loop ---------------------------------------------------------
    def loop(self) -> None:
        """The firing loop: ``pop → class → fire → local body | submit``,
        then ``poll → commit``.

        Each node has one dispatch class, memoized in its row of the
        template's per-node table (:meth:`_node_class`) under the token
        of the run's configuration: the first run of a configuration
        classifies, the rest read.
        A ``_FIRE`` or ``_CLIP`` head is fired with nothing to ask: its
        body, if any, stays here.  An ``_OP`` or ``_CALL`` head is fired
        with the dispatch policy's ``classify``, which may send its body
        away.  In a batching run (one with a dispatch policy and no
        injector) a ``_CALL`` head whose queue holds a ready peer of its
        node (:meth:`ReadyQueue.has_peer`) expands together with its
        peers, all fired before any body runs.
        Whatever comes back suspended and stays here runs in
        :meth:`_local`; the rest goes to the backend and comes back
        through :meth:`_commit`.
        """
        queue = self.queue
        token, node_class = self.token, self._node_class
        batching, classify = self.batching, self.classify
        fire, place = self._fire, self._place
        backend = self.backend
        while True:
            while queue and not self.halted:
                task = queue.pop()
                entry = task.activation.plan.nodes[task.node_id]
                memo = entry.memo
                if memo[0] is token:
                    cls = memo[1]
                else:
                    cls = node_class(entry)
                    entry.memo = (token, cls)
                if cls == _FIRE or cls == _CLIP:
                    pending = fire(task, None)
                elif cls == _CALL and batching and queue.has_peer(task):
                    # Expanded together, the peers' leaves meet in the
                    # queue.
                    peers = queue.take_peers(
                        task, batch_key(task), _GROUP_MAX - 1, batch_key
                    )
                    for pending in [fire(t, classify) for t in (task, *peers)]:
                        if pending is not None:
                            place(pending)
                    continue
                else:
                    pending = fire(task, classify)
                if pending is not None:
                    place(pending)
            if self.halted or backend is None or not backend.in_flight:
                return
            try:
                completions = backend.pump(block=True)
            except PoolIrrecoverableError as exc:
                if self.policy.degrade == "off":
                    raise
                self._degrade(str(exc))
                backend, token = self.backend, self.token
                batching, classify = self.batching, self.classify
                continue
            for c in completions:
                self._commit(c)
            if self.on_pump is not None:
                self.on_pump()

    def _node_class(self, entry: Any) -> int:
        """How the loop treats the node of ``entry`` at the head of the
        queue.

        A head is fired whole (``_FIRE``) when its body is sure to run
        here, alone and at once: nothing can send it away, it does not
        expand with peers, and no lock has to be released around it.
        """
        kind = entry.kind
        away = self.dispatch_policy is not None or self.threads is not None
        if kind is NodeKind.CALL:
            if self.clipping and self._clips(entry):
                return _CLIP
            # A callee known only at fire time may be an operator.  A
            # batching run also collects the ready peers of a call it
            # knows to expand a closure.
            if self.batching or (away and entry.callee is None):
                return _CALL
            return _FIRE
        if kind is not NodeKind.OP:
            return _FIRE
        if self.threads is not None:
            return _CALL
        policy = self.dispatch_policy
        spec = self.state.op_spec(entry)
        if policy is None or policy.static_dispatch(spec) is False:
            return _FIRE
        return _OP

    def _clips(self, entry: Any) -> bool:
        """Crown eligibility: the call's callee closure is closed, and
        every operator in it would run here — no dispatch policy, or one
        that keeps each of them home whatever its payloads."""
        crown = crown_for(self.state, entry)
        if crown is None:
            return False
        policy = self.dispatch_policy
        return policy is None or all(
            policy.static_dispatch(spec) is False for spec in crown.specs
        )

    def _clip_of(self, entry: Any) -> Any:
        """The engine's view of the memo: the crown a ``CALL`` fires as,
        or ``None``; decided on first sight under this run's token."""
        memo = entry.memo
        if memo[0] is not self.token:
            memo = entry.memo = (self.token, self._node_class(entry))
        return entry.crown if memo[1] == _CLIP else None

    def _who(self, fired: Any, label: str, kind: str) -> tuple:
        """The identity fields of a span (``fired`` is a :class:`Task` or
        a :class:`PendingOp`)."""
        act = fired.activation
        return (
            label, kind, fired.priority, act.template.name, act.aid,
            fired.node_id, fired.seq,
        )

    def span(
        self,
        who: tuple,
        start: float,
        duration: float,
        processor: int | None = None,
    ) -> None:
        """Emit one :class:`TaskFired` (built nowhere else): ``who`` from
        :meth:`_who`, ``start`` in run-relative seconds, on the track of
        the thread that drives the loop unless ``processor`` names a
        worker's."""
        if processor is None:
            processor = self.threads.index() if self.threads is not None else 0
        self.bus.emit(TaskFired(start, *who, duration, processor))

    def _fire(self, task: Task, classify: Any) -> PendingOp | None:
        """Fire one task: push what it made ready, or return its suspended
        body for :meth:`loop` to place.

        A firing that completes here is spanned whole — master engine
        spans: consts, expansions and result plumbing would otherwise
        vanish from the stream, and with them the causal chain and the
        master's share of the timeline.  A suspended one is spanned where
        its body runs (:meth:`_local`, :meth:`_commit`), so every firing
        emits one :class:`TaskFired`.
        """
        if not self.wants_fired:
            fired = self.state.fire(task, -1, classify, self.suspend)
            if fired.__class__ is list:
                self.queue.push_all(fired)
                return None
            return fired
        node = task.activation.template.nodes[task.node_id]
        who = self._who(task, node.label, node.kind.value)
        t0 = time.perf_counter()
        fired = self.state.fire(task, -1, classify, self.suspend)
        if fired.__class__ is not list:
            return fired
        self.queue.push_all(fired)
        self.span(who, t0 - self.began, time.perf_counter() - t0)
        return None

    def _place(self, pending: PendingOp) -> None:
        """Ship a suspended body to the backend, or run it here."""
        if pending.remote:
            self.backend.dispatch(pending)
        else:
            self._local(pending)

    def retrying(
        self,
        spec: Any,
        args: Any,
        node_id: int,
        failed: Exception | None = None,
    ) -> Any:
        """Run one local body under the run's retry rule.

        The only caller of :func:`run_with_retries`, so the only place a
        local body's exception is wrapped — for :meth:`_local`, and for
        the engine's ``recover_op`` hook (``failed`` is what the single
        pass's unwrapped first attempt raised).  A firing that ends in
        success counts its retries and announces one
        :class:`FireRetried` each; one that exhausts its budget raises
        before either.
        """
        policy = self.policy
        if failed is None and self.injector is None:
            # Nothing to consult before the body: the first attempt runs
            # bare, as in the engine's single pass.
            try:
                return spec.fn(*args)
            except Exception as exc:  # noqa: BLE001 - the rule decides
                failed = exc
        retries: list[int] = []
        raw = run_with_retries(
            spec, args, policy, self.injector, node_id=node_id,
            on_retry=lambda n, exc: retries.append(n), failed=failed,
        )
        if retries:
            threads = self.threads
            if threads is not None:
                # Between leave() and enter(): the stats object and bus
                # subscribers are not thread-safe.
                threads.lock.acquire()
            try:
                self.state.stats.fires_retried += len(retries)
                bus = self.bus
                if bus is not None and bus.wants(FireRetried):
                    now = bus.now()
                    for n in retries:
                        backoff = policy.backoff * 2 ** (n - 1)
                        bus.emit(
                            FireRetried(
                                now, spec.name, -1, node_id, n + 1, "error",
                                backoff,
                            )
                        )
            finally:
                if threads is not None:
                    threads.lock.release()
        return raw

    def _local(self, pending: PendingOp, isolate: bool = False) -> None:
        """Run one suspended body here, under :meth:`retrying`, and commit
        it.  Under threads the body runs with the engine lock released.
        """
        state, threads = self.state, self.threads
        spec = pending.spec
        # The span is emitted after the commit, so the firing's children
        # are enqueued (stream order) before the span that caused them —
        # the causal-profiler contract.  Only the body is spanned here:
        # engine bookkeeping under a lock is not attributable to a thread.
        who = self._who(pending, spec.name, "op") if self.wants_fired else None
        args = pending.args
        if isolate:
            # A remote pending skipped its physical COW copies
            # (serialization was going to isolate the worker's writes);
            # running it here needs private copies, made through the same
            # codec a worker would have used — with every buffer in-band,
            # as nothing leaves this process.
            args = tuple(decode_value(encode_value(a, sys.maxsize)) for a in args)
        if threads is not None:
            threads.leave()
        t0 = time.perf_counter()
        try:
            raw = self.retrying(spec, args, pending.node_id)
        finally:
            seconds = time.perf_counter() - t0
            if threads is not None:
                threads.enter()
        if state.profile_ops:
            state.stats.op_body_seconds += seconds
        self.queue.push_all(state.complete_fire(pending, raw, seconds))
        if who is not None:
            self.span(who, t0 - self.began, seconds)

    def _commit(self, c: Completion) -> None:
        """Commit one firing the backend finished elsewhere."""
        state, bus = self.state, self.bus
        pending = c.pending
        spec = pending.spec
        who = self._who(pending, spec.name, "op") if self.wants_fired else None
        # Commit first: the firing's children are enqueued (and
        # announced) before the span that caused them, which is the
        # order the causal profiler reconstructs parents from.  The
        # worker-measured body time rides along so OpFinished carries
        # real compute seconds, not compute + queue + IPC.
        newly = state.complete_fire(pending, c.raw, op_seconds=c.duration)
        tracker = self.backend.residency
        if tracker is not None and c.cached and c.rbid is not None:
            # The worker kept its raw result resident under rbid.
            # Adopt only when the committed block holds exactly the
            # decoded payload (identity check — fan-out/untuple
            # commits leave result_value unset and are skipped).
            result = pending.result_value
            if type(result) is DataBlock and result.payload is c.raw:
                tracker.adopt(result, c.rbid, c.worker)
                state.stats.blocks_cached += 1
                if bus is not None and bus.wants(BlockCached):
                    bus.emit(
                        BlockCached(
                            bus.now(), c.rbid, result.nbytes, c.worker, "result"
                        )
                    )
        if bus is not None and bus.wants(ResultReceived):
            bus.emit(
                ResultReceived(
                    bus.now(), spec.name, c.call_id, c.worker, c.duration,
                    c.nbytes, c.via_shm,
                )
            )
        if who is not None:
            self.span(who, max(0.0, c.t0 - self.began), c.duration, c.worker + 1)
        self.queue.push_all(newly)

    def degraded(self, from_executor: str, to_executor: str, reason: str) -> None:
        """Record one step down the degradation ladder."""
        self.state.stats.executor_degraded += 1
        bus = self.bus
        if bus is not None:
            bus.emit(
                ExecutorDegraded(bus.now(), from_executor, to_executor, reason)
            )

    def _step_down(self, threads: _Threads | None) -> None:
        """Go on without the pool, on ``threads`` or (``None``) this thread:
        nothing is dispatched, batched or clipped, and every body suspends."""
        self.backend = self.threads = threads
        self.dispatch_policy = self.classify = self.state.clip = None
        self.batching = self.clipping = False
        self.suspend = True
        # What is classified from here on is not the executor's
        # configuration: keep it out of the classes later runs read.
        self.token = object()

    def _degrade(self, reason: str) -> None:
        """The pool is irrecoverable mid-run: commit what it produced, step
        down to this thread (the engine state is live in it, so threads
        cannot take over) and re-run the abandoned in-flight firings on
        isolated argument copies."""
        supervisor = self.backend
        self.degraded("process", "sequential", reason)
        for c in supervisor.take_completions():
            self._commit(c)
        self._step_down(None)
        for pending in supervisor.drain_in_flight():
            self._local(pending, isolate=True)


class _Executor:
    """A :class:`Run` reads its configuration off the executor that builds
    it; a parameter one of the three lacks reads as its default here."""

    seed: int | None = None
    profile_ops = False

    def __init__(
        self,
        use_priorities: bool,
        check_purity: bool,
        trace: bool,
        bus: EventBus | None,
        fault_policy: FaultPolicy | None,
        fault_spec: Any,
        run_ctx: RunContext | None,
    ) -> None:
        self.use_priorities = use_priorities
        self.check_purity = check_purity
        self.trace = trace
        self.bus = bus
        self.fault_policy = fault_policy
        self.fault_spec = fault_spec
        self.run_ctx = run_ctx
        #: One token per configuration a dispatch class depends on
        #: (backend kind, batching, dispatch policy), kept as long as the
        #: executor: the classes its first run memoized in a program's
        #: plans are read, not decided again, by every later run.
        self.class_tokens: dict[tuple, tuple] = {}


class SequentialExecutor(_Executor):
    """Run a coordination graph on one processor.

    Parameters
    ----------
    use_priorities:
        The three-level ready queue (default) vs. plain FIFO (ablation).
    seed:
        Randomize pop order within priority classes (determinism tests).
    check_purity:
        Enable the engine's undeclared-write detector.
    trace:
        Collect per-node wall-clock timings.
    bus:
        Optional :class:`~repro.obs.events.EventBus`.  When it has
        subscribers, the executor stamps its clock (wall seconds since
        run start), emits one :class:`~repro.obs.events.TaskFired` span
        per node firing, and threads it through the engine, scheduler,
        and activation pool.
    fault_policy:
        Optional :class:`~repro.runtime.supervise.FaultPolicy`; failed
        operator bodies are retried per the policy (non-``modifies``
        operators, plus any pre-body injected fault).
    fault_spec:
        Optional :class:`~repro.faults.FaultSpec`; a per-run injector is
        consulted before every operator body.  ``kill`` and ``arena``
        clauses are inert in-process by design, so one spec string works
        under every executor.
    run_ctx:
        Optional :class:`~repro.obs.runctx.RunContext`.  Supplies the bus
        when none is given explicitly, receives engine / ready-queue
        snapshot sources for flight-recorder dumps, and has the run
        bracketed with :class:`~repro.obs.events.RunStarted` /
        :class:`~repro.obs.events.RunFinished` (failures dump the black
        box).
    """

    def __init__(
        self,
        use_priorities: bool = True,
        seed: int | None = None,
        check_purity: bool = False,
        trace: bool = False,
        bus: EventBus | None = None,
        fault_policy: FaultPolicy | None = None,
        fault_spec: Any = None,
        run_ctx: RunContext | None = None,
        profile_ops: bool = False,
    ) -> None:
        super().__init__(
            use_priorities, check_purity, trace, bus, fault_policy, fault_spec,
            run_ctx,
        )
        self.seed = seed
        #: Accumulate operator-body wall seconds in
        #: ``stats.op_body_seconds`` via two bare clock reads per firing —
        #: the benchmark phase-split probe (far cheaper than subscribing
        #: to ``OpStarted``/``OpFinished`` events).
        self.profile_ops = profile_ops

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else builtin_registry()
        return Run(self, "sequential", program, registry).execute(args)


class ThreadedExecutor(_Executor):
    """Run a coordination graph on real OS threads.

    ``n_workers`` threads (the calling one included) drive the run's loop
    under one engine lock.  Every operator body suspends — it surfaces as
    a :class:`~repro.runtime.engine.PendingOp` — and executes with the
    lock *released*: NumPy/SciPy kernels that drop the GIL then genuinely
    overlap across threads, while the commit (result delivery, reference
    releases) retakes the lock.  Results are identical to the sequential
    executor — the coordination model guarantees it, and the tests
    verify it.
    """

    def __init__(
        self,
        n_workers: int = 4,
        use_priorities: bool = True,
        check_purity: bool = False,
        trace: bool = False,
        bus: EventBus | None = None,
        fault_policy: FaultPolicy | None = None,
        fault_spec: Any = None,
        run_ctx: RunContext | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        super().__init__(
            use_priorities, check_purity, trace, bus, fault_policy, fault_spec,
            run_ctx,
        )
        self.n_workers = n_workers

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else builtin_registry()
        return Run(self, "threaded", program, registry).execute(args, _Threads)


class ProcessExecutor(_Executor):
    """Run a coordination graph with operator bodies on worker processes.

    The master keeps the entire coordination semantics — ready queue,
    firing order, copy-on-write decisions, result commits — and ships
    only the opaque operator computations to a persistent
    :class:`~repro.runtime.workers.WorkerPool`, so results are
    bit-identical to :class:`SequentialExecutor` while heavy kernels use
    real cores with no GIL in the way.

    Dispatch policy (see :class:`~repro.runtime.workers.DispatchPolicy`):
    an operator crosses the process boundary only when its cost hint
    clears ``cost_threshold`` ticks (falling back to a payload-size test
    when it has no usable hint), so scalar glue never pays IPC.  A
    dispatched call is staged and sent, one call per message, when the
    ready queue drains (a call expands together with its ready same-node
    peers, so the leaves of a fan-out go out together).  Argument and
    result payloads whose NumPy buffers reach ``shm_threshold`` bytes
    travel via POSIX shared memory
    (:class:`~repro.obs.events.ShmBlockCreated` on the bus); the rest
    ride the pickle stream.

    Parameters mirror :class:`SequentialExecutor` plus:

    n_workers:
        Worker process count.
    cost_threshold / shm_threshold:
        Dispatch and transport tuning (see above).
    measured_costs / min_dispatch_seconds:
        Measured per-firing wall seconds by operator name (from
        :func:`repro.machine.calibrate.calibrate_dispatch`) and the
        per-call IPC cost bar they are compared against; measured
        operators bypass the static cost-hint test entirely, and
        ``{name: 0.0}`` keeps an operator in-process.
    registry_ref:
        :class:`~repro.runtime.workers.RegistryRef` naming an importable
        registry factory — required only on platforms without ``fork``,
        where workers cannot inherit the master's registry.
    fault_policy:
        :class:`~repro.runtime.supervise.FaultPolicy` governing retries,
        per-fire timeouts, respawn budget, and the degradation ladder.
        The default policy is used when ``None``.
    fault_spec:
        Optional :class:`~repro.faults.FaultSpec` for deterministic
        fault injection — shipped to every worker (and respawned
        worker), consulted by the master's inline path, and hooked into
        the shared-memory arena.
    affinity:
        Locality policy for remote dispatch: ``"data"`` (default —
        place fires on the idle worker already holding the most input
        bytes, ship resident inputs by reference), ``"operator"``
        (prefer the worker an operator last ran on), or ``"none"``
        (legacy least-loaded dispatch, full encodings always).  See
        :mod:`repro.runtime.affinity` and the residency machinery in
        :mod:`repro.runtime.supervise`.  Results are bit-identical
        across all three settings.
    persistent:
        Keep the worker pool alive across :meth:`run` calls (streaming
        and server-style use: repeated runs of the *same* program and
        registry skip pool startup and registry/fused-chain shipping).
        Either way the pool is built by the first run that leaves its
        entry's crown (a run that clips forks nothing), rebuilt when a
        different program or registry arrives, and torn down by
        :meth:`close`; without ``persistent``, or when the run failed or
        degraded, when the run ends.
        Worker block caches persist across runs too, and so does the
        one residency tracker that records what they hold
        (``WorkerPool.residency``).  That is safe because block ids are
        never reused while a cache can still name them, and a block that
        dies — in a run or between runs — queues its invalidation, which
        rides on the next message its holder receives (the next run's
        first one, at the latest) before any call in it runs; a stale
        entry can waste cache budget, but it is never served.
    """

    def __init__(
        self,
        n_workers: int = 4,
        cost_threshold: float = 2_000_000.0,
        shm_threshold: int = SHM_THRESHOLD_DEFAULT,
        use_priorities: bool = True,
        seed: int | None = None,
        check_purity: bool = False,
        trace: bool = False,
        bus: EventBus | None = None,
        registry_ref: RegistryRef | None = None,
        measured_costs: dict[str, float] | None = None,
        min_dispatch_seconds: float = 0.002,
        fault_policy: FaultPolicy | None = None,
        fault_spec: Any = None,
        run_ctx: RunContext | None = None,
        affinity: str = "data",
        persistent: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if fault_policy is None:
            fault_policy = FaultPolicy()
        super().__init__(
            use_priorities, check_purity, trace, bus, fault_policy, fault_spec,
            run_ctx,
        )
        self.n_workers = n_workers
        self.policy = DispatchPolicy(
            cost_threshold=cost_threshold,
            nbytes_threshold=shm_threshold,
            measured_seconds=measured_costs,
            min_dispatch_seconds=min_dispatch_seconds,
        )
        self.shm_threshold = shm_threshold
        self.seed = seed
        self.registry_ref = registry_ref
        self.affinity = affinity
        self.persistent = persistent
        self._pool: WorkerPool | None = None
        #: The (program, registry) the warm pool was built for, held
        #: weakly: an id alone would let a new program that lands at a
        #: dead one's address reuse workers that carry the old fused
        #: chains.
        self._pool_for: tuple[weakref.ref, weakref.ref] | None = None

    def close(self) -> None:
        """Tear down the worker pool, if one is warm."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self._pool_for = None
            pool.close()

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else builtin_registry()
        built_for = self._pool_for
        if self._pool is not None and (
            built_for[0]() is not program or built_for[1]() is not registry
        ):
            self.close()
        run = Run(self, "process", program, registry)
        if self._pool is not None:
            # The warm workers may hold blocks this run writes in place.
            run.state.locality = self._pool.residency
        keep = False
        try:
            result = run.execute(args, self._supervise, self.policy)
            keep = self.persistent and not result.stats.executor_degraded
        finally:
            # A run that errored may leave the pool in an unknown state
            # (mid-respawn, poisoned pipes), one that degraded lost it.
            if not keep:
                self.close()
        return result

    def _supervise(self, run: Run) -> Supervisor | None:
        """The backend of a run that leaves its entry's crown: a
        :class:`Supervisor` over the warm pool or one built now; ``None``
        (the step down recorded) when none can be built."""
        state, ctx, pool = run.state, self.run_ctx, self._pool
        if pool is None:
            try:
                pool = WorkerPool(
                    self.n_workers,
                    registry=state.registry,
                    registry_ref=self.registry_ref,
                    shm_threshold=self.shm_threshold,
                    fused_chains=collect_fused_chains(state.program),
                    fault_spec=self.fault_spec,
                )
            except Exception as exc:
                if self.fault_policy.degrade != "ladder":
                    raise
                # The ladder handles *machinery* failures: the same run,
                # configuration and fault contract, on the thread backend
                # (bodies still overlap where kernels release the GIL).
                run.degraded("process", "threaded", repr(exc))
                return None
            self._pool = pool
            self._pool_for = (weakref.ref(state.program), weakref.ref(state.registry))
        if run.injector is not None:
            pool.arena.fail_hook = run.injector.on_arena_acquire
        supervisor = Supervisor(
            pool,
            run.policy,
            shm_threshold=self.shm_threshold,
            bus=run.bus,
            stats=state.stats,
            affinity=self.affinity,
        )
        state.locality = supervisor.residency
        if ctx is None:
            return supervisor

        def export_memory_gauges() -> None:
            metrics = ctx.metrics
            if metrics is None:
                return
            for key, value in pool.arena.stats().items():
                metrics.gauge(f"shm_arena/{key}").set(float(value))
            for key, value in supervisor.locality_stats().items():
                metrics.gauge(f"worker_cache/{key}").set(float(value))

        ctx.add_snapshot_source("supervisor", supervisor.snapshot)
        ctx.add_snapshot_source(
            "workers",
            lambda: {
                "respawns": pool.respawns,
                "arena": pool.arena.stats(),
                "locality": supervisor.locality_stats(),
            },
        )
        run.on_pump = export_memory_gauges
        return supervisor
