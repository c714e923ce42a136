"""Executors: policies for driving an :class:`ExecutionState`.

* :class:`SequentialExecutor` — one logical processor; the reference
  executor and the debugging story of the paper ("we generally debug
  programs on a single-processor workstation").
* :class:`ThreadedExecutor` — real OS threads sharing the ready queue.
  Engine bookkeeping is serialized under one lock; operator bodies run
  outside it, so threads overlap wherever a kernel releases the GIL.
  Pure-Python operators still serialize on the GIL itself — use
  :class:`ProcessExecutor` for those.
* :class:`ProcessExecutor` — deterministic firing semantics in the
  master, operator *computation* on a persistent pool of worker
  processes: true multi-core execution of the coordination graph, with
  large NumPy payloads traveling through shared memory and cheap glue
  operators kept in-process (see :mod:`repro.runtime.workers`).

All run every ready task to queue exhaustion and produce identical
results — the coordination model's determinism guarantee, which the
property tests hammer across all executors.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any

from ..errors import (
    DeliriumError,
    OperatorError,
    PoolIrrecoverableError,
    RuntimeFailure,
)
from ..graph.ir import GraphProgram, NodeKind
from ..obs.events import (
    BlockCached,
    EventBus,
    ExecutorDegraded,
    FireBatchFormed,
    FireRetried,
    ResultReceived,
    TaskFired,
)
from ..obs.runctx import RunContext
from .blocks import DataBlock
from .engine import EngineStats, ExecutionState, PendingOp
from .operators import (
    OperatorRegistry,
    batch_call,
    collect_codegen_sources,
    collect_fused_chains,
    default_registry,
)
from .scheduler import ReadyQueue, Task
from .supervise import (
    DEFAULT_BATCH_THRESHOLD,
    Completion,
    FaultPolicy,
    Supervisor,
    run_with_retries,
)
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


def make_inline_run_op(
    fault_policy: FaultPolicy | None,
    fault_spec: Any,
    stats: EngineStats,
    bus: EventBus | None,
) -> Any:
    """Build the engine's ``run_op`` hook for in-process fault handling.

    Returns ``None`` — the zero-overhead default — when neither a fault
    policy nor a fault spec is configured, so ordinary runs pay nothing.
    Otherwise operator bodies run through
    :func:`~repro.runtime.supervise.run_with_retries` with the per-run
    injector, and every retry is counted on ``stats`` and announced on
    the bus.
    """
    if fault_policy is None and fault_spec is None:
        return None
    policy = fault_policy if fault_policy is not None else FaultPolicy()
    injector = fault_spec.build() if fault_spec is not None else None
    return partial(
        run_counting_retries,
        policy=policy, injector=injector, stats=stats, bus=bus,
    )


def run_counting_retries(
    spec: Any,
    args: Any,
    node_id: int = -1,
    failed: Exception | None = None,
    *,
    policy: FaultPolicy,
    injector: Any,
    stats: EngineStats,
    bus: EventBus | None,
) -> Any:
    """:func:`run_with_retries`, then account for the retries it made.

    A firing that ends in success bumps ``stats.fires_retried`` and
    announces one :class:`FireRetried` per retry; one that exhausts its
    budget raises before either.  (The threaded executor runs bodies off
    the engine lock and calls :func:`count_retries` back under it.)
    """
    retries: list[int] = []
    raw = run_with_retries(
        spec, args, policy, injector, node_id=node_id,
        on_retry=lambda n, exc: retries.append(n), failed=failed,
    )
    if retries:
        count_retries(retries, spec.name, node_id, policy, stats, bus)
    return raw


def count_retries(
    retries: list[int],
    op_name: str,
    node_id: int,
    policy: FaultPolicy,
    stats: EngineStats,
    bus: EventBus | None,
) -> None:
    stats.fires_retried += len(retries)
    if bus is not None and bus.wants(FireRetried):
        now = bus.now()
        for n in retries:
            backoff = policy.backoff * (2 ** (n - 1)) if policy.backoff else 0.0
            bus.emit(
                FireRetried(now, op_name, -1, node_id, n + 1, "error", backoff)
            )


def batch_key(task: Task) -> tuple[int, int] | None:
    """Coalescing key for :meth:`ReadyQueue.pop_batch`.

    Ready fires of the same ``(template, node)`` are candidates for one
    :class:`FireBatch` — they run the same operator on symmetric
    activations, which is what a vectorized ``batch_call`` (or one
    grouped IPC message) can exploit.  ``OP`` nodes and ``CALL`` nodes
    both qualify (a ``CALL`` may resolve to an operator value, e.g. the
    prelude's ``par_reduce`` leaf calls); everything else — consts,
    expansions, plumbing — returns ``None`` and pops as a singleton.
    """
    node = task.activation.template.nodes[task.node_id]
    kind = node.kind
    if kind is NodeKind.OP or kind is NodeKind.CALL:
        return (id(task.activation.template), task.node_id)
    return None


def commit_batch(
    state: ExecutionState,
    queue: ReadyQueue,
    bus: EventBus | None,
    pendings: list[PendingOp],
    raws: Any,
    base: float,
    seconds: float,
    processor: int = 0,
) -> None:
    """Commit one vectorized in-process group in master-assigned order.

    The tail every executor's local batch shares: the batch counters and
    :class:`FireBatchFormed`, ``complete_fires`` with each member's share
    of the kernel call's ``seconds``, then one :class:`TaskFired` span per
    member laid end to end from ``base`` (the call's run-relative start).
    """
    spec = pendings[0].spec
    per = seconds / len(pendings)
    state.stats.fire_batches += 1
    state.stats.batched_fires += len(pendings)
    if bus is not None and bus.wants(FireBatchFormed):
        bus.emit(
            FireBatchFormed(
                bus.now(), spec.name, pendings[0].node_id, len(pendings), False
            )
        )
    queue.push_all(
        state.complete_fires(list(zip(pendings, raws)), op_seconds=per)
    )
    if bus is not None and bus.wants(TaskFired):
        for i, p in enumerate(pendings):
            act = p.activation
            bus.emit(
                TaskFired(
                    base + i * per, spec.name, "op", p.priority,
                    act.template.name, act.aid, p.node_id, p.seq, per,
                    processor,
                )
            )


#: Dispatch classes of :meth:`ProcessExecutor._run_supervised`.
_FIRE, _OP, _VECTOR, _CALL = range(4)


@dataclass
class RunResult:
    """Outcome of one program execution."""

    value: Any
    stats: EngineStats
    tracer: Tracer | None
    wall_seconds: float


class SequentialExecutor:
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
        batch: bool = False,
        batch_threshold: int | None = None,
        max_ready: int | None = None,
    ) -> None:
        self.use_priorities = use_priorities
        self.seed = seed
        self.check_purity = check_purity
        self.trace = trace
        self.bus = bus
        self.fault_policy = fault_policy
        self.fault_spec = fault_spec
        self.run_ctx = run_ctx
        self.max_ready = max_ready
        #: Accumulate operator-body wall seconds in
        #: ``stats.op_body_seconds`` via two bare clock reads per firing —
        #: the benchmark phase-split probe (far cheaper than subscribing
        #: to ``OpStarted``/``OpFinished`` events).
        self.profile_ops = profile_ops
        #: Opt-in same-node fire coalescing (default off: one processor
        #: gains only the vectorized-kernel win, and the reference
        #: executor stays the simplest possible drain loop).  Groups up
        #: to ``batch_threshold`` ready fires per :func:`batch_key` and
        #: runs them through the operator's ``batch_call``.
        self.batch = batch
        self.batch_threshold = batch_threshold

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else default_registry()
        ctx = self.run_ctx
        bus, tracer = resolve_bus(self.bus, self.trace, ctx)
        state = ExecutionState(
            program,
            registry,
            check_purity=self.check_purity,
            bus=bus,
            profile_ops=self.profile_ops,
        )
        queue = ReadyQueue(
            self.use_priorities, self.seed, bus=bus, max_ready=self.max_ready
        )
        began = time.perf_counter()
        if bus is not None:
            bus.set_clock(lambda: time.perf_counter() - began)
        if ctx is not None:
            ctx.add_snapshot_source("engine", state.snapshot_state)
            ctx.add_snapshot_source(
                "ready_queue", lambda: {"depths": queue.depths()}
            )
            ctx.run_started("sequential")
        try:
            run_op = make_inline_run_op(
                self.fault_policy, self.fault_spec, state.stats, bus
            )
            # Snapshot of the subscriber set: the span branch below costs
            # a clock read and an event object per firing, which a bus
            # carrying only coarse subscribers (flight recorder, say)
            # must not pay.
            wants_fired = bus is not None and bus.wants(TaskFired)
            queue.push_all(state.start(args))
            if self.batch and run_op is None:
                self._drain_batched(state, queue, began, bus, wants_fired)
            elif not wants_fired and run_op is None:
                # The queue's own drain loop: per-task pop/push method
                # dispatch folded into one frame.
                queue.drain(state.fire)
            elif not wants_fired:
                pop = queue.pop
                push_all = queue.push_all
                fire = state.fire
                while queue._size:
                    push_all(fire(pop(), run_op=run_op))
            else:
                while queue:
                    task = queue.pop()
                    act = task.activation
                    node = act.template.nodes[task.node_id]
                    template_name, aid = act.template.name, act.aid
                    t0 = time.perf_counter() - began
                    queue.push_all(state.fire(task, run_op=run_op))
                    t1 = time.perf_counter() - began
                    bus.emit(
                        TaskFired(
                            t0,
                            node.label,
                            node.kind.value,
                            task.priority,
                            template_name,
                            aid,
                            task.node_id,
                            task.seq,
                            t1 - t0,
                            0,
                        )
                    )
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
        if ctx is not None:
            ctx.run_finished(wall)
        return RunResult(state.result(), state.snapshot_stats(), tracer, wall)

    def _drain_batched(
        self,
        state: ExecutionState,
        queue: ReadyQueue,
        began: float,
        bus: EventBus | None,
        wants_fired: bool,
    ) -> None:
        """The batched drain loop: coalesce, vectorize, commit in order.

        Singleton pops go through the ordinary ``state.fire`` fast path;
        groups are begun with :meth:`ExecutionState.begin_fires`, their
        operator bodies run through :func:`batch_call` (one vectorized
        kernel call when the operator has a batch form, a plain loop
        otherwise), and committed with
        :meth:`ExecutionState.complete_fires` in master-assigned order —
        so results are bit-identical to the unbatched drain.
        """
        threshold = self.batch_threshold or DEFAULT_BATCH_THRESHOLD
        profile = self.profile_ops
        stats = state.stats
        while queue:
            tasks = queue.pop_batch(threshold, batch_key)
            if len(tasks) == 1:
                task = tasks[0]
                if not wants_fired:
                    queue.push_all(state.fire(task))
                    continue
                act = task.activation
                node = act.template.nodes[task.node_id]
                template_name, aid = act.template.name, act.aid
                t0 = time.perf_counter() - began
                queue.push_all(state.fire(task))
                bus.emit(
                    TaskFired(
                        t0,
                        node.label,
                        node.kind.value,
                        task.priority,
                        template_name,
                        aid,
                        task.node_id,
                        task.seq,
                        time.perf_counter() - began - t0,
                        0,
                    )
                )
                continue
            pendings: list[PendingOp] = []
            for outcome in state.begin_fires(tasks):
                if outcome.newly:
                    queue.push_all(outcome.newly)
                if outcome.pending is not None:
                    pendings.append(outcome.pending)
            if not pendings:
                continue
            spec = pendings[0].spec
            if len(pendings) == 1 or any(
                p.spec is not spec for p in pendings
            ):
                # A lone pending, or a CALL node that resolved to
                # different operators across activations: per-fire path.
                for p in pendings:
                    self._finish_one(state, queue, began, bus, wants_fired, p)
                continue
            args_lists = [p.args for p in pendings]
            t0 = time.perf_counter()
            try:
                raws = batch_call(spec, args_lists)
            except Exception:
                # Nothing is committed yet: re-run per fire so the
                # failing firing surfaces its own error, exactly as the
                # unbatched drain would have.
                for p in pendings:
                    self._finish_one(state, queue, began, bus, wants_fired, p)
                continue
            t1 = time.perf_counter()
            if profile:
                stats.op_body_seconds += t1 - t0
            commit_batch(state, queue, bus, pendings, raws, t0 - began, t1 - t0)

    def _finish_one(
        self,
        state: ExecutionState,
        queue: ReadyQueue,
        began: float,
        bus: EventBus | None,
        wants_fired: bool,
        pending: PendingOp,
    ) -> None:
        """Run and commit one begun pending (batched drain's scalar leg)."""
        spec = pending.spec
        t0 = time.perf_counter()
        raw = spec.fn(*pending.args)
        t1 = time.perf_counter()
        if self.profile_ops:
            state.stats.op_body_seconds += t1 - t0
        queue.push_all(state.complete_fire(pending, raw, op_seconds=t1 - t0))
        if wants_fired:
            act = pending.activation
            bus.emit(
                TaskFired(
                    t0 - began,
                    spec.name,
                    "op",
                    pending.priority,
                    act.template.name,
                    act.aid,
                    pending.node_id,
                    pending.seq,
                    t1 - t0,
                    0,
                )
            )


class ThreadedExecutor:
    """Run a coordination graph on real OS threads.

    Built on the engine's ``begin_fire`` / ``complete_fire`` split: a
    worker pops a task and runs the engine bookkeeping under the shared
    condition lock, but any operator body surfaces as a
    :class:`~repro.runtime.engine.PendingOp` and executes with the lock
    *released* — NumPy/SciPy kernels that drop the GIL then genuinely
    overlap across threads, while the commit (result delivery, reference
    releases) reacquires the lock.  Results are identical to the
    sequential executor — the coordination model guarantees it, and the
    tests verify it.
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
        batch: bool = False,
        batch_threshold: int | None = None,
        max_ready: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.use_priorities = use_priorities
        self.check_purity = check_purity
        self.trace = trace
        self.bus = bus
        self.fault_policy = fault_policy
        self.fault_spec = fault_spec
        self.run_ctx = run_ctx
        self.max_ready = max_ready
        #: Opt-in same-node fire coalescing (see :func:`batch_key`): a
        #: worker thread claims a whole group under the lock and runs one
        #: ``batch_call`` outside it — fewer lock round-trips per firing
        #: and a vectorized kernel when the operator has a batch form.
        #: Disabled automatically when a fault policy or fault spec is
        #: active (retry/injection decisions are per firing).
        self.batch = batch
        self.batch_threshold = batch_threshold

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else default_registry()
        ctx = self.run_ctx
        bus, tracer = resolve_bus(self.bus, self.trace, ctx)
        state = ExecutionState(
            program, registry, check_purity=self.check_purity, bus=bus
        )
        queue = ReadyQueue(
            self.use_priorities, bus=bus, max_ready=self.max_ready
        )
        condition = threading.Condition()
        active = 0
        errors: list[BaseException] = []
        run_began = time.perf_counter()
        if bus is not None:
            bus.set_clock(lambda: time.perf_counter() - run_began)
        if ctx is not None:
            ctx.add_snapshot_source("engine", state.snapshot_state)
            ctx.add_snapshot_source(
                "ready_queue", lambda: {"depths": queue.depths()}
            )
            ctx.run_started("threaded")
        wants_fired = bus is not None and bus.wants(TaskFired)

        fault_policy = self.fault_policy
        injector = (
            self.fault_spec.build() if self.fault_spec is not None else None
        )
        retry_policy = (
            fault_policy
            if fault_policy is not None
            else (FaultPolicy() if injector is not None else None)
        )
        batching = self.batch and retry_policy is None
        threshold = self.batch_threshold or DEFAULT_BATCH_THRESHOLD

        def run_pending(pending: PendingOp) -> None:
            # Drop the engine lock for the duration of the sequential
            # sub-computation; this is the concurrency the model permits.
            spec = pending.spec
            error: BaseException | None = None
            raw: Any = None
            retries: list[int] = []
            condition.release()
            t0 = time.perf_counter()
            try:
                if retry_policy is not None:
                    raw = run_with_retries(
                        spec,
                        pending.args,
                        retry_policy,
                        injector,
                        node_id=pending.node_id,
                        on_retry=lambda n, exc: retries.append(n),
                    )
                else:
                    raw = spec.fn(*pending.args)
            except OperatorError as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 - wrapped, re-raised
                error = OperatorError(spec.name, exc)
            finally:
                elapsed = time.perf_counter() - t0
                condition.acquire()
            if retries:
                # Counted (and announced) back under the lock: the stats
                # object and bus subscribers are not thread-safe.
                count_retries(
                    retries, spec.name, pending.node_id, retry_policy,
                    state.stats, bus,
                )
            if error is not None:
                raise error
            act = pending.activation
            template_name, aid = act.template.name, act.aid
            queue.push_all(state.complete_fire(pending, raw))
            if wants_fired:
                # Emitted under the lock, after the commit so the
                # firing's children are enqueued (stream-order) before
                # the span that caused them — the causal-profiler
                # contract.  The worker's thread index stands in for a
                # processor id.  Only operator calls get spans here —
                # engine bookkeeping is serialized under the lock and is
                # not attributable to a worker.
                name = threading.current_thread().name
                processor = int(name.rsplit("-", 1)[-1]) if "-" in name else 0
                bus.emit(
                    TaskFired(
                        t0 - run_began,
                        spec.name,
                        "op",
                        pending.priority,
                        template_name,
                        aid,
                        pending.node_id,
                        pending.seq,
                        elapsed,
                        processor,
                    )
                )

        def run_pendings(pendings: list[PendingOp]) -> None:
            # The batched analogue of run_pending: one lock release, one
            # batch_call over all N bodies, one in-order commit.
            spec = pendings[0].spec
            error: BaseException | None = None
            raws: Any = None
            condition.release()
            t0 = time.perf_counter()
            try:
                raws = batch_call(spec, [p.args for p in pendings])
            except OperatorError as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 - wrapped, re-raised
                error = OperatorError(spec.name, exc)
            finally:
                elapsed = time.perf_counter() - t0
                condition.acquire()
            if error is not None:
                raise error
            name = threading.current_thread().name if wants_fired else ""
            commit_batch(
                state, queue, bus, pendings, raws, t0 - run_began, elapsed,
                int(name.rsplit("-", 1)[-1]) if "-" in name else 0,
            )

        def fire_batch(tasks: list[Task]) -> None:
            pendings: list[PendingOp] = []
            for outcome in state.begin_fires(tasks):
                queue.push_all(outcome.newly)
                if outcome.pending is not None:
                    pendings.append(outcome.pending)
            if not pendings:
                return
            spec = pendings[0].spec
            if len(pendings) > 1 and all(p.spec is spec for p in pendings):
                run_pendings(pendings)
            else:
                for p in pendings:
                    run_pending(p)

        def worker() -> None:
            nonlocal active
            with condition:
                while True:
                    while not queue and active > 0 and not errors:
                        condition.wait()
                    if errors or (not queue and active == 0):
                        condition.notify_all()
                        return
                    active += 1
                    try:
                        if batching:
                            tasks = queue.pop_batch(threshold, batch_key)
                            if len(tasks) > 1:
                                fire_batch(tasks)
                            else:
                                outcome = state.begin_fire(tasks[0])
                                queue.push_all(outcome.newly)
                                if outcome.pending is not None:
                                    run_pending(outcome.pending)
                        else:
                            task = queue.pop()
                            outcome = state.begin_fire(task)
                            queue.push_all(outcome.newly)
                            if outcome.pending is not None:
                                run_pending(outcome.pending)
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(exc)
                    except BaseException as exc:
                        # Control-flow exceptions (KeyboardInterrupt,
                        # SystemExit) must win over any operator error
                        # when the main thread re-raises errors[0].
                        errors.insert(0, exc)
                    finally:
                        active -= 1
                        condition.notify_all()

        began = run_began
        with condition:
            queue.push_all(state.start(args))
        threads = [
            threading.Thread(target=worker, name=f"delirium-worker-{i}")
            for i in range(self.n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - began
        try:
            if errors:
                raise errors[0]
            if not state.finished:
                raise RuntimeFailure(
                    "execution stalled: ready queue drained without "
                    "producing a result (ill-formed graph?)\n"
                    + state.stall_report()
                )
        except BaseException as exc:
            if ctx is not None:
                ctx.run_failed(exc, wall)
            raise
        if ctx is not None:
            ctx.run_finished(wall)
        return RunResult(state.result(), state.snapshot_stats(), tracer, wall)


class ProcessExecutor:
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
    when it has no usable hint), so scalar glue never pays IPC.  Ready
    dispatches are staged and sent in batches of up to ``batch_size``
    calls — but never so coarse that a worker sits idle while another
    holds the whole frontier.  Argument and result payloads whose NumPy
    buffers reach ``shm_threshold`` bytes travel via POSIX shared memory
    (:class:`~repro.obs.events.ShmBlockCreated` on the bus); the rest
    ride the pickle stream.

    Parameters mirror :class:`SequentialExecutor` plus:

    n_workers:
        Worker process count.
    batch_size:
        Maximum operator calls per IPC message.
    cost_threshold / shm_threshold / pinned_local:
        Dispatch and transport tuning (see above).
    measured_costs / min_dispatch_seconds:
        Measured per-firing wall seconds by operator name (from
        :func:`repro.machine.calibrate.calibrate_dispatch`) and the
        per-call IPC cost bar they are compared against; measured
        operators bypass the static cost-hint test entirely.
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
        registry skip pool startup and registry/fused-chain/codegen
        shipping).  The pool is rebuilt automatically when a different
        program or registry arrives, and torn down by :meth:`close`.
        Worker block caches persist across runs too; that is safe
        because each run's fresh residency tracker never ref-ships a
        block it did not itself record, so a stale entry can only be
        overwritten (at next full ship of its bid) or LRU-evicted —
        never served.
    """

    def __init__(
        self,
        n_workers: int = 4,
        batch_size: int = 4,
        batch: bool = True,
        batch_threshold: int | None = None,
        cost_threshold: float = 2_000_000.0,
        shm_threshold: int = SHM_THRESHOLD_DEFAULT,
        use_priorities: bool = True,
        seed: int | None = None,
        check_purity: bool = False,
        trace: bool = False,
        bus: EventBus | None = None,
        registry_ref: RegistryRef | None = None,
        pinned_local: tuple[str, ...] = (),
        measured_costs: dict[str, float] | None = None,
        min_dispatch_seconds: float = 0.002,
        fault_policy: FaultPolicy | None = None,
        fault_spec: Any = None,
        run_ctx: RunContext | None = None,
        affinity: str = "data",
        max_ready: int | None = None,
        persistent: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n_workers = n_workers
        self.batch_size = batch_size
        #: Batched execution (default on): ready same-node fires are
        #: coalesced per :func:`batch_key`, remote groups ship as one
        #: grouped IPC message answered by one N-result message, and
        #: operators with a vectorized batch form run all N firings in
        #: one kernel call (worker-side, or inline for kept-local
        #: groups).  ``batch_threshold`` caps firings per group
        #: (default :data:`~repro.runtime.supervise.
        #: DEFAULT_BATCH_THRESHOLD`; the CLI passes a measured
        #: suggestion from ``suggest_batch_threshold``).  Automatically
        #: disabled while fault injection is active, since injection
        #: decisions are per firing.
        self.batch = batch
        self.batch_threshold = batch_threshold
        self.policy = DispatchPolicy(
            cost_threshold=cost_threshold,
            nbytes_threshold=shm_threshold,
            pinned_local=frozenset(pinned_local),
            measured_seconds=measured_costs,
            min_dispatch_seconds=min_dispatch_seconds,
        )
        self.shm_threshold = shm_threshold
        self.use_priorities = use_priorities
        self.seed = seed
        self.check_purity = check_purity
        self.trace = trace
        self.bus = bus
        self.registry_ref = registry_ref
        self.fault_policy = fault_policy
        self.fault_spec = fault_spec
        self.run_ctx = run_ctx
        self.affinity = affinity
        self.max_ready = max_ready
        self.persistent = persistent
        self._pool: WorkerPool | None = None
        self._pool_key: tuple[int, int] | None = None
        #: Dispatch class by ``id(node)``, filled as nodes first reach the
        #: head of the queue.  A function of (program, registry, dispatch
        #: policy) only, so it lives exactly as long as a persistent pool.
        self._node_classes: dict[int, int] = {}

    def close(self) -> None:
        """Tear down the persistent worker pool, if one is warm."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self._pool_key = None
            self._node_classes = {}
            pool.close()

    def _build_pool(
        self, program: GraphProgram, registry: OperatorRegistry
    ) -> WorkerPool:
        return WorkerPool(
            self.n_workers,
            registry=registry,
            registry_ref=self.registry_ref,
            shm_threshold=self.shm_threshold,
            fused_chains=collect_fused_chains(program),
            fault_spec=self.fault_spec,
            codegen_sources=collect_codegen_sources(program),
        )

    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> RunResult:
        registry = registry if registry is not None else default_registry()
        policy = (
            self.fault_policy
            if self.fault_policy is not None
            else FaultPolicy()
        )
        if self.persistent:
            key = (id(program), id(registry))
            if self._pool is not None and self._pool_key != key:
                self.close()
            if self._pool is None:
                try:
                    self._pool = self._build_pool(program, registry)
                    self._pool_key = key
                except Exception as exc:
                    if policy.degrade != "ladder":
                        raise
                    return self._run_degraded(
                        program, args, registry, repr(exc)
                    )
            try:
                return self._run_supervised(
                    self._pool, program, args, registry, policy
                )
            except BaseException:
                # A run that errored may leave the pool in an unknown
                # state (mid-respawn, poisoned pipes); don't reuse it.
                self.close()
                raise
        try:
            pool = self._build_pool(program, registry)
        except Exception as exc:
            if policy.degrade != "ladder":
                raise
            return self._run_degraded(program, args, registry, repr(exc))
        try:
            return self._run_supervised(pool, program, args, registry, policy)
        finally:
            pool.close()

    def _run_degraded(
        self,
        program: GraphProgram,
        args: tuple[Any, ...],
        registry: OperatorRegistry,
        reason: str,
    ) -> RunResult:
        """The pool could not be built: fall down the executor ladder.

        Process → threaded first (operator bodies still overlap where
        kernels release the GIL); threaded → sequential only if even
        thread creation fails.  Delirium-level errors (operator
        failures, stalls) propagate — the ladder handles *machinery*
        failures, not program failures.
        """
        bus = self.bus
        if bus is None and self.run_ctx is not None:
            bus = self.run_ctx.bus
        if bus is not None and not bus.active:
            bus = None
        if bus is not None:
            bus.emit(
                ExecutorDegraded(bus.now(), "process", "threaded", reason)
            )
        threaded = ThreadedExecutor(
            n_workers=self.n_workers,
            use_priorities=self.use_priorities,
            check_purity=self.check_purity,
            trace=self.trace,
            bus=self.bus,
            fault_policy=self.fault_policy,
            fault_spec=self.fault_spec,
            run_ctx=self.run_ctx,
            batch=self.batch,
            batch_threshold=self.batch_threshold,
        )
        try:
            result = threaded.run(program, args, registry)
            result.stats.executor_degraded += 1
            return result
        except DeliriumError:
            raise
        except Exception as exc:
            if bus is not None:
                bus.emit(
                    ExecutorDegraded(
                        bus.now(), "threaded", "sequential", repr(exc)
                    )
                )
            sequential = SequentialExecutor(
                use_priorities=self.use_priorities,
                seed=self.seed,
                check_purity=self.check_purity,
                trace=self.trace,
                bus=self.bus,
                fault_policy=self.fault_policy,
                fault_spec=self.fault_spec,
                run_ctx=self.run_ctx,
            )
            result = sequential.run(program, args, registry)
            result.stats.executor_degraded += 2
            return result

    def _run_supervised(
        self,
        pool: WorkerPool,
        program: GraphProgram,
        args: tuple[Any, ...],
        registry: OperatorRegistry,
        policy: FaultPolicy,
    ) -> RunResult:
        """Drive one run: fire local work in place, ship the rest.

        Each node has one dispatch class (``docs/RUNTIME.md``, "The local
        leg"), cached: ``_FIRE`` heads take :meth:`ExecutionState.fire`
        as in the sequential executor, ``_OP`` heads
        :meth:`~ExecutionState.fire_unless_remote` and collect peers only
        once suspended, ``_VECTOR`` and ``_CALL`` heads collect peers
        first.  A local body that raises joins, from its first failure,
        the retry loop suspended fires run under ``policy``.  Runs with a
        fault injector, ``check_purity`` or a :class:`TaskFired`
        subscriber begin and complete every fire instead, keeping their
        per-firing injection, fingerprint and span streams.
        """
        ctx = self.run_ctx
        bus, tracer = resolve_bus(self.bus, self.trace, ctx)
        state = ExecutionState(
            program, registry, check_purity=self.check_purity, bus=bus
        )
        queue = ReadyQueue(
            self.use_priorities, self.seed, bus=bus, max_ready=self.max_ready
        )
        began = time.perf_counter()
        if bus is not None:
            bus.set_clock(lambda: time.perf_counter() - began)
        injector = (
            self.fault_spec.build() if self.fault_spec is not None else None
        )
        if injector is not None:
            pool.arena.fail_hook = injector.on_arena_acquire
        batching = self.batch and injector is None
        threshold = self.batch_threshold or DEFAULT_BATCH_THRESHOLD
        supervisor = Supervisor(
            pool,
            policy,
            batch_size=self.batch_size,
            batch_threshold=threshold,
            shm_threshold=self.shm_threshold,
            bus=bus,
            stats=state.stats,
            affinity=self.affinity,
        )
        # The engine's in-place-write paths must invalidate worker
        # residency before mutating a block (see ExecutionState.locality).
        state.locality = supervisor.residency

        def export_memory_gauges() -> None:
            metrics = ctx.metrics if ctx is not None else None
            if metrics is None:
                return
            for key, value in pool.arena.stats().items():
                metrics.gauge(f"shm_arena/{key}").set(float(value))
            for key, value in supervisor.locality_stats().items():
                metrics.gauge(f"worker_cache/{key}").set(float(value))

        if ctx is not None:
            ctx.add_snapshot_source("engine", state.snapshot_state)
            ctx.add_snapshot_source(
                "ready_queue", lambda: {"depths": queue.depths()}
            )
            ctx.add_snapshot_source("supervisor", supervisor.snapshot)
            ctx.add_snapshot_source(
                "workers",
                lambda: {
                    "respawns": pool.respawns,
                    "arena": pool.arena.stats(),
                    "locality": supervisor.locality_stats(),
                },
            )
            ctx.run_started("process")
        wants_fired = bus is not None and bus.wants(TaskFired)
        classify: Any = self.policy.should_dispatch
        fast = injector is None and not self.check_purity and not wants_fired
        classes = self._node_classes if self.persistent else {}
        # Holds the stats, not the state: the engine hook below must not
        # close a cycle that would leave the run's blocks to the collector.
        retrying = partial(
            run_counting_retries,
            policy=policy, injector=injector, stats=state.stats, bus=bus,
        )

        def node_class(node: Any) -> int:
            if node.kind is NodeKind.CALL:
                return _CALL
            if node.kind is not NodeKind.OP:
                return _FIRE
            spec = state.op_spec(node)
            if spec.batch_fn is not None:
                return _VECTOR
            if self.policy.static_dispatch(spec) is False:
                return _FIRE
            return _OP

        def commit(c: Completion) -> None:
            pending = c.pending
            spec = pending.spec
            act = pending.activation
            template_name, aid = act.template.name, act.aid
            # Commit first: the firing's children are enqueued (and
            # announced) before the span that caused them, which is the
            # order the causal profiler reconstructs parents from.  The
            # worker-measured body time rides along so OpFinished carries
            # real compute seconds, not compute + queue + IPC.
            newly = state.complete_fire(pending, c.raw, op_seconds=c.duration)
            tracker = supervisor.residency
            if tracker is not None and c.cached and c.rbid is not None:
                # The worker kept its raw result resident under rbid.
                # Adopt only when the committed block holds exactly the
                # decoded payload (identity check — fan-out/untuple
                # commits leave result_value unset and are skipped).
                result = pending.result_value
                if (
                    type(result) is DataBlock
                    and result.payload is c.raw
                ):
                    tracker.adopt(result, c.rbid, c.worker)
                    state.stats.blocks_cached += 1
                    if bus is not None and bus.wants(BlockCached):
                        bus.emit(
                            BlockCached(
                                bus.now(),
                                c.rbid,
                                result.nbytes,
                                c.worker,
                                "result",
                            )
                        )
            if bus is not None:
                if bus.wants(ResultReceived):
                    bus.emit(
                        ResultReceived(
                            bus.now(),
                            spec.name,
                            c.call_id,
                            c.worker,
                            c.duration,
                            c.nbytes,
                            c.via_shm,
                        )
                    )
                if wants_fired:
                    bus.emit(
                        TaskFired(
                            max(0.0, c.t0 - began),
                            spec.name,
                            "op",
                            pending.priority,
                            template_name,
                            aid,
                            pending.node_id,
                            pending.seq,
                            c.duration,
                            c.worker + 1,
                        )
                    )
            queue.push_all(newly)

        def run_inline(pending: PendingOp, isolate: bool = False) -> None:
            spec = pending.spec
            call_args = pending.args
            if isolate:
                # Degraded remote pendings skipped their physical COW
                # copies (serialization was going to isolate the worker's
                # writes); running them here needs private copies, made
                # through the same codec a worker would have used — with
                # every buffer in-band, as nothing leaves this process.
                call_args = tuple(
                    decode_value(encode_value(a, sys.maxsize))
                    for a in pending.args
                )
            t0 = time.perf_counter()
            raw = retrying(spec, call_args, pending.node_id)
            t1 = time.perf_counter()
            act = pending.activation
            template_name, aid = act.template.name, act.aid
            queue.push_all(
                state.complete_fire(pending, raw, op_seconds=t1 - t0)
            )
            if wants_fired:
                bus.emit(
                    TaskFired(
                        t0 - began,
                        spec.name,
                        "op",
                        pending.priority,
                        template_name,
                        aid,
                        pending.node_id,
                        pending.seq,
                        t1 - t0,
                        0,
                    )
                )

        def run_inline_batch(pendings: list[PendingOp]) -> None:
            # Kept-local group with a vectorized batch form: one kernel
            # call, one in-order commit.  Retries are per firing, so a
            # failed batch falls back to the per-fire inline path (with
            # its retry/poison handling) — nothing was committed.
            spec = pendings[0].spec
            t0 = time.perf_counter()
            try:
                raws = batch_call(spec, [p.args for p in pendings])
            except Exception:  # noqa: BLE001 - refired per-fire below
                for p in pendings:
                    run_inline(p)
                return
            commit_batch(
                state, queue, bus, pendings, raws,
                t0 - began, time.perf_counter() - t0,
            )

        def degrade(reason: str) -> None:
            """The pool is irrecoverable mid-run: finish in-process.

            Commits everything the pool already produced, re-executes
            the abandoned in-flight firings on isolated argument copies,
            and switches dispatch off — the rest of the run is inline
            (the in-master rung of the ladder; restarting on threads is
            impossible mid-run, the engine state is already live here).
            """
            nonlocal classify
            classify = None
            state.stats.executor_degraded += 1
            if bus is not None:
                bus.emit(
                    ExecutorDegraded(
                        bus.now(), "process", "sequential", reason
                    )
                )
            for c in supervisor.take_completions():
                commit(c)
            for pending in supervisor.drain_in_flight():
                run_inline(pending, isolate=True)

        def begin_one(task: Task) -> PendingOp | None:
            if wants_fired:
                # Master engine spans: fires that resolve without
                # an operator body (consts, expansions, result
                # plumbing) otherwise vanish from the stream, and
                # with them the causal chain and the master's
                # share of the timeline.
                act = task.activation
                node = act.template.nodes[task.node_id]
                template_name, aid = act.template.name, act.aid
                t0 = bus.now()
                outcome = state.begin_fire(task, classify=classify)
                if outcome.pending is None:
                    bus.emit(
                        TaskFired(
                            t0,
                            node.label,
                            node.kind.value,
                            task.priority,
                            template_name,
                            aid,
                            task.node_id,
                            task.seq,
                            bus.now() - t0,
                            0,
                        )
                    )
            else:
                outcome = state.begin_fire(task, classify=classify)
            queue.push_all(outcome.newly)
            return outcome.pending

        def fire_op(task: Task) -> PendingOp | None:
            fired = state.fire_unless_remote(task, classify)
            if type(fired) is list:
                queue.push_all(fired)
                return None
            return fired

        fire = state.fire
        try:
            state.recover_op = retrying if fast else None
            queue.push_all(state.start(args))
            while queue or supervisor.in_flight:
                while queue:
                    task = queue.pop()
                    pending = None
                    if fast:
                        node = task.activation.template.nodes[task.node_id]
                        cls = classes.get(id(node))
                        if cls is None:
                            cls = classes[id(node)] = node_class(node)
                        if cls == _FIRE:
                            queue.push_all(fire(task))
                            continue
                        if cls == _OP:
                            pending = fire_op(task)
                            if pending is None:
                                continue
                    else:
                        cls = _CALL
                    if batching:
                        key = batch_key(task)
                        peers = key is not None and queue.take_peers(
                            task, key, threshold - 1, batch_key
                        )
                        if peers:
                            # A head begun above stays first in the group.
                            begun = [] if pending is None else [pending]
                            tasks = peers if begun else (task, *peers)
                            local: list[PendingOp] = []
                            for p in begun + [begin_one(t) for t in tasks]:
                                if p is None:
                                    continue
                                if p.remote:
                                    # Vector-eligible: the supervisor
                                    # groups staged same-operator records
                                    # into one wire entry at flush time.
                                    supervisor.dispatch(p, vector=True)
                                else:
                                    local.append(p)
                            if (
                                len(local) > 1
                                and local[0].spec.batch_fn is not None
                                and all(
                                    p.spec is local[0].spec for p in local
                                )
                            ):
                                run_inline_batch(local)
                            else:
                                for p in local:
                                    run_inline(p)
                            continue
                    if pending is None:
                        lone = fire_op if cls == _VECTOR else begin_one
                        pending = lone(task)
                        if pending is None:
                            continue
                    if pending.remote:
                        supervisor.dispatch(pending, vector=batching)
                    else:
                        run_inline(pending)
                if not supervisor.in_flight:
                    continue
                try:
                    completions = supervisor.pump(block=True)
                except PoolIrrecoverableError as exc:
                    if policy.degrade == "off":
                        raise
                    degrade(str(exc))
                    continue
                for c in completions:
                    commit(c)
                export_memory_gauges()

            export_memory_gauges()
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
            state.recover_op = None
        if ctx is not None:
            ctx.run_finished(wall)
        return RunResult(state.result(), state.snapshot_stats(), tracer, wall)
