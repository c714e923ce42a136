"""The coordination-graph interpreter core.

:class:`ExecutionState` implements the *semantics* of template-activation
execution — node firing rules, reference-counted copy-on-write, call-closure
expansion, conditional-arm expansion and tail-call continuation
inheritance.  It deliberately contains no *policy*: executors (sequential,
threaded, simulated-machine) own the ready queue, the notion of time, and
processor placement, and drive the state through three calls:

* :meth:`start` — build the root activation, returning the initially ready
  tasks;
* :meth:`fire` — fire one ready task, returning the tasks it made ready,
  or the :class:`PendingOp` of an operator body that must run elsewhere;
* :meth:`complete_fire` — commit such a body's raw result, however and
  wherever the executor computed it.

An operator firing is written once, as two halves: *bind* (resolve the
spec, take the node's inputs, make every in-place / copy-on-write
decision — :meth:`ExecutionState._bind`) and *commit* (wrap and deliver
the result, release the input references —
:meth:`ExecutionState._commit`).  ``fire`` runs them back to back around
the body in one pass when it can; when the body must leave that pass
(it goes to a worker, a lock is released around it, an injector or the
purity check must see it, or the callee is an operator value) ``fire``
stops at the body and ``complete_fire`` runs the commit.  All engine
bookkeeping stays in the calling thread; only the opaque sequential
computation happens elsewhere.  The engine itself runs a body only in
the single pass and in a crown call (:mod:`repro.runtime.crown`).

Each rule of the engine has one site: :meth:`ExecutionState._deliver_output`
is the only code that writes an input slot, :func:`~repro.runtime.blocks.retain`
and :func:`~repro.runtime.blocks.release` the only code that changes a
block's count, and :meth:`ExecutionState._task` the only code that makes a
ready task.

Any interleaving of ``fire`` calls that respects readiness produces the
same final result; that is the determinism guarantee of the coordination
model (section 8 of the paper) and the property the test suite hammers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Any, Callable

import numpy as np

from ..errors import GraphError, OperatorError, RuntimeFailure
from ..graph.ir import GraphProgram, Node, NodeKind, Template
from ..obs.events import (
    CowCopy,
    EventBus,
    Expansion,
    OperatorsFused,
    OpFinished,
    OpStarted,
    TailExpansion,
    TaskEnqueued,
)
from .activation import Activation, ActivationPool, NodePlan, TemplatePlan
from .blocks import (
    _ATOMIC, DataBlock, is_truthy, release, retain, unwrap, wrap_payload,
)
from .operators import OperatorRegistry, OperatorSpec, fused_source_ops, node_spec
from .scheduler import ReadyQueue, Task
from .values import Closure, MultiValue, OperatorValue

_NO_RESULT = object()


class ProgramPlans:
    """Everything a (program, registry) pair answers before a run starts.

    ``templates`` holds the load plan of every template activated so far
    (their per-node tables carry the operator plans) and ``fused_specs``
    the composed specs of fused super-nodes, by fused node name (the name
    encodes the full recipe, so one entry serves every structurally
    identical fused node).  All of it is a deterministic function of the
    pair, built on first use and read-only afterwards, so every state
    over the pair shares one instance (:func:`_plans_for`); the worst
    concurrent case is two states computing the same value.  The pair is
    held weakly: the plans must not keep a program alive.
    """

    def __init__(self, program: GraphProgram, registry: OperatorRegistry) -> None:
        self.program = weakref.ref(program)
        self.registry = weakref.ref(registry)
        self.templates: dict[str, TemplatePlan] = {}
        self.fused_specs: dict[str, OperatorSpec] = {}
        #: The entry template's call-site row and, once asked for, its
        #: crown (:func:`repro.runtime.crown.entry_row`).
        self.entry: Any = None
        self._fused: tuple[int, int] | None = None

    def load(self, template: Template) -> TemplatePlan:
        """The load plan of ``template``, built the first time it is asked
        for.  Keyed by name; a closure from another program that brings a
        namesake is planned afresh rather than served the wrong rows."""
        plan = self.templates.get(template.name)
        if plan is None or plan.template is not template:
            plan = TemplatePlan(template, self.program())
            self.templates[template.name] = plan
        return plan

    def fused_counts(self) -> tuple[int, int]:
        """``(fused nodes, source operators they absorbed)`` program-wide."""
        if self._fused is None:
            fused_nodes = ops_absorbed = 0
            for tpl in self.program().templates.values():
                for n in tpl.nodes:
                    if n.fused is not None:
                        fused_nodes += 1
                        ops_absorbed += fused_source_ops(*n.fused)
            self._fused = (fused_nodes, ops_absorbed)
        return self._fused


#: Cross-run cache of :class:`ProgramPlans`, keyed by program identity
#: (``GraphProgram`` is an eq-comparing dataclass, hence unhashable — the
#: id plus the plans' weak reference gives identity semantics without
#: touching the class), so repeated runs of the same graph (benchmark
#: repeats, server loops) build nothing.  Entries whose program died are
#: pruned on insert; a different registry for the same program replaces
#: the entry.
_PLAN_CACHES: dict[int, ProgramPlans] = {}


def _plans_for(program: GraphProgram, registry: OperatorRegistry) -> ProgramPlans:
    plans = _PLAN_CACHES.get(id(program))
    if (
        plans is None
        or plans.program() is not program
        or plans.registry() is not registry
    ):
        for key in [k for k, v in _PLAN_CACHES.items() if v.program() is None]:
            del _PLAN_CACHES[key]
        plans = _PLAN_CACHES[id(program)] = ProgramPlans(program, registry)
    return plans

#: Hook type: decide whether an operator body should run *remotely* (in a
#: worker process) rather than in this interpreter.  Receives the spec and
#: the raw argument payloads *before* any copy-on-write copies are made.
Classify = Callable[[OperatorSpec, tuple[Any, ...]], bool]

#: Hook type: take over a single-pass firing whose body raised on its
#: first attempt.  Receives the spec, the argument payloads, the node id
#: and the exception; returns the raw result of a successful retry or
#: raises the final :class:`~repro.errors.OperatorError`.
RecoverOp = Callable[[OperatorSpec, Any, int, Exception], Any]


def _remote(spec: OperatorSpec, payloads: tuple[Any, ...]) -> bool:
    """The :data:`Classify` of a firing already classified remote."""
    return True


@dataclass(slots=True)
class PendingOp:
    """An operator firing suspended at the compute boundary.

    Returned by :meth:`ExecutionState.fire`; every copy-on-write
    decision has already been made and recorded.  The executor runs
    ``spec.fn(*args)`` (locally or in a worker) and passes the raw result
    to :meth:`ExecutionState.complete_fire`.

    ``remote=True`` means the executor declared (via ``classify``) that
    the body will run in another process: the engine then *skips the
    physical copy-on-write copy* — serialization across the process
    boundary already isolates the worker's writes — while still counting
    the COW decision in the stats, so decision counters stay comparable
    across executors.
    """

    activation: Any
    node_id: int
    spec: OperatorSpec
    #: Payloads to call the operator with (post-COW unless ``remote``).
    args: tuple[Any, ...]
    #: Blocks aligned with ``args`` for result identity reuse (empty when
    #: ``remote`` — a worker result can never alias master memory).
    arg_blocks: list[DataBlock | None]
    #: The operator-argument edge values (for the purity check).
    op_inputs: list[Any]
    #: Every edge value to release on completion (includes the callee for
    #: CALL-of-operator firings).
    all_inputs: list[Any]
    fingerprints: list[tuple[int, object]]
    home: int
    remote: bool
    op_began: float | None = None
    #: Identity of the task this firing came from (``fire`` stamps
    #: them) so executor-emitted :class:`~repro.obs.events.TaskFired`
    #: spans for operator bodies carry the same (seq, priority) as their
    #: :class:`~repro.obs.events.TaskEnqueued` — the join key the
    #: critical-path profiler reconstructs the causal DAG with.
    seq: int = -1
    priority: int = 0
    #: Set by :meth:`ExecutionState.complete_fire` on commit.  A retried
    #: fire must never be committed twice — the second commit would
    #: double-release every input share and underflow the pools.
    committed: bool = False
    #: The wrapped value :meth:`complete_fire` delivered for a
    #: single-output firing (``None`` for multi-output fused untuples).
    #: The supervised executor reads it after commit to adopt a
    #: worker-cached result into the residency tracker — but only when it
    #: is a :class:`DataBlock` whose payload *is* the raw result, which
    #: proves the worker's cached copy and the master's block hold the
    #: same value.
    result_value: Any = None


class PurityViolationError(RuntimeFailure):
    """Debug mode caught an operator writing an argument it did not declare."""


@dataclass(slots=True)
class EngineStats:
    """Counters accumulated during one execution."""

    tasks_fired: int = 0
    ops_executed: int = 0
    #: Firings of fused super-nodes, and how many source-graph firings
    #: those saved (chain length minus one, absorbed untuples included).
    fused_fires: int = 0
    fused_ops_saved: int = 0
    cow_copies: int = 0
    in_place_writes: int = 0
    expansions: int = 0
    tail_expansions: int = 0
    #: Fault-tolerance counters (supervised executors; see
    #: :mod:`repro.runtime.supervise`).
    worker_crashes: int = 0
    worker_respawns: int = 0
    fires_retried: int = 0
    fires_timed_out: int = 0
    executor_degraded: int = 0
    shm_segments_reclaimed: int = 0
    #: Dispatch counters (see :mod:`repro.runtime.supervise`): how many
    #: firings were dispatched to workers, and the raw IPC message
    #: traffic (both directions) — ``ipc_messages_sent +
    #: ipc_messages_received`` over ``dispatched_fires`` is the per-fire
    #: round-trip cost.
    dispatched_fires: int = 0
    ipc_messages_sent: int = 0
    ipc_messages_received: int = 0
    #: Locality counters (process executor with ``--affinity``; see
    #: :mod:`repro.runtime.supervise`): blocks made resident in a worker
    #: cache (shipped arguments + adopted results), inputs shipped as
    #: ``("ref", bid)`` tokens instead of full encodings, ref fires the
    #: worker could not serve (re-dispatched with full encodings), bytes
    #: of argument encodings actually produced, and bytes a full encoding
    #: would have cost where a ref sufficed.
    blocks_cached: int = 0
    blocks_ref_shipped: int = 0
    affinity_misses: int = 0
    encode_bytes: int = 0
    encode_bytes_avoided: int = 0
    #: Wall seconds spent inside operator bodies, accumulated only when
    #: the state runs with ``profile_ops=True`` — the low-overhead probe
    #: the wallclock benchmark uses for its phase split (two bare
    #: ``perf_counter`` reads per firing, no event objects).
    op_body_seconds: float = 0.0
    activation_stats: dict[str, int] = field(default_factory=dict)
    #: Copy-on-write copies attributed to the operator that forced them —
    #: the profiling view a Delirium programmer uses to find the large
    #: structure that should have been split (section 2.1's advice).
    copies_by_operator: dict[str, int] = field(default_factory=dict)
    #: Bytes copied by COW, by operator (same attribution).
    copy_bytes_by_operator: dict[str, int] = field(default_factory=dict)


def _payload_of(value: Any) -> Any:
    """Convert an edge value to what an operator receives."""
    if isinstance(value, DataBlock):
        return value.payload
    if isinstance(value, MultiValue):
        return tuple(_payload_of(v) for v in value.items)
    return value


def _package_blocks(values: Any) -> list[DataBlock]:
    """The blocks inside the packages among ``values``."""
    packages = [v.items for v in values if type(v) is MultiValue]
    return [b for p in packages for b in p if type(b) is DataBlock] + [
        b for p in packages for b in _package_blocks(p)
    ]


def _arg_codes(spec: OperatorSpec, n_args: int) -> tuple[bool, ...] | None:
    """Per-argument write flags for :meth:`ExecutionState._bind`.

    Whether the body modifies argument ``i``; ``None`` when the operator
    writes none of its arguments — the ``i in modifies`` set probe folded
    into one tuple index.
    """
    modifies = spec.modifies
    if not modifies:
        return None
    return tuple(i in modifies for i in range(n_args))


def check_package(value: Any, kind: type, n: int, what: str, where: str) -> None:
    """Refuse to decompose ``value`` into ``n`` names unless it is a
    package (``kind``) of that many values."""
    if not isinstance(value, kind):
        raise RuntimeFailure(
            f"cannot decompose non-package value {value!r} ({what} in {where!r})"
        )
    if len(value) != n:
        raise RuntimeFailure(
            f"package of {len(value)} value(s) decomposed into {n} name(s) "
            f"in {where!r}"
        )


def _fingerprint(payload: Any) -> object:
    """Cheap content fingerprint for purity checking (debug mode only)."""
    if isinstance(payload, np.ndarray):
        return (payload.shape, str(payload.dtype), hash(payload.tobytes()))
    try:
        return hash(payload)
    except TypeError:
        return hash(repr(payload))


class ExecutionState:
    """Mutable state of one program execution.

    Parameters
    ----------
    program:
        The compiled coordination graphs.
    registry:
        Operator registry resolving ``OP`` nodes.
    check_purity:
        Debug mode: fingerprint read-only block arguments around every
        operator call and raise :class:`PurityViolationError` when an
        operator mutates an argument it did not declare in ``modifies``.
        Costly; meant for tests and development, like the original
        system's uniprocessor debugging story.
    bus:
        Optional :class:`~repro.obs.events.EventBus`.  Kept only when it
        has subscribers at construction time, so an idle bus costs the
        hot path a single ``is not None`` check per emit site.
    """

    # What only some runs use is a class default until a run first needs
    # it: a run of a clipped entry (:meth:`call`) builds only the stats.
    #: The run's activations, made with the first (:meth:`activations`).
    pool: ActivationPool | None = None
    #: The process executor's residency tracker: an in-place write of a
    #: block with a ``bid`` invalidates its worker-resident copies first.
    locality: Any = None
    #: Retry hook for the single-pass ``OP`` path (see
    #: :data:`RecoverOp`); ``None`` wraps a body exception at once.
    #: An executor that installs one clears it when its run ends.
    recover_op: RecoverOp | None = None
    #: Set by a run whose configuration lets calls be clipped: maps a
    #: ``CALL``'s row to the crown it fires as one operator-like
    #: firing, or ``None`` (see :mod:`repro.runtime.crown`).
    clip: Callable[[NodePlan], Any] | None = None
    _final: Any = _NO_RESULT
    _task_seq = 0

    def __init__(
        self,
        program: GraphProgram,
        registry: OperatorRegistry,
        check_purity: bool = False,
        bus: EventBus | None = None,
        profile_ops: bool = False,
    ) -> None:
        self.program = program
        self.registry = registry
        self.check_purity = check_purity
        #: When set, bracket every operator body with two bare
        #: ``perf_counter`` reads and accumulate into
        #: ``stats.op_body_seconds`` — the benchmark phase-split probe,
        #: orders of magnitude cheaper than per-firing event objects.
        self.profile_ops = profile_ops
        self.bus = bus = bus if (bus is not None and bus.active) else None
        self.stats = EngineStats()
        #: The load plans every activation is instantiated from, shared
        #: with every other state over the same (program, registry).
        self.plans = _plans_for(program, registry)
        # Subscriber-set snapshot for the per-firing emit sites (the same
        # discipline executors use for TaskFired): ``wants`` resolution
        # is cheap but not free, and these are consulted for every task.
        # Subscribe before constructing the state, as every executor and
        # run context does.
        self._wants_enqueued = bus is not None and bus.wants(TaskEnqueued)
        self._wants_op_started = bus is not None and bus.wants(OpStarted)
        self._wants_op_finished = bus is not None and bus.wants(OpFinished)
        self._wants_cow = bus is not None and bus.wants(CowCopy)
        self._wants_expansion = bus is not None and bus.wants(Expansion)
        self._wants_tail_expansion = bus is not None and bus.wants(
            TailExpansion
        )

    def activations(self) -> ActivationPool:
        """The run's activation pool, made with its first activation."""
        pool = self.pool
        if pool is None:
            pool = self.pool = ActivationPool(bus=self.bus)
        return pool

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def _entry(self, args: tuple[Any, ...]) -> Template:
        """The entry template, checked against ``args``; announces the
        program's fused nodes."""
        template = self.program.entry_template()
        if template.captures:
            raise GraphError(
                f"entry template {template.name!r} has captures; it cannot "
                "be an entry point"
            )
        if len(args) != len(template.params):
            raise RuntimeFailure(
                f"entry {template.name!r} takes {len(template.params)} "
                f"argument(s), got {len(args)}"
            )
        bus = self.bus
        if bus is not None:
            fused_nodes, ops_absorbed = self.plans.fused_counts()
            if fused_nodes:
                bus.emit(OperatorsFused(bus.now(), fused_nodes, ops_absorbed))
        return template

    def start(self, args: tuple[Any, ...] = ()) -> list[Task]:
        """Create the root activation of the entry template."""
        # The entry template is instantiated even when it is a shortcut:
        # there is no expanding node to deliver its result for it.
        plan = self.plans.load(self._entry(args))
        root = self.activations().acquire(plan)
        root.continuation = None
        newly: list[Task] = [self._task(root, nid) for nid in plan.ready]
        for i, a in enumerate(args):
            self._deliver_output(root, i, 0, wrap_payload(a), 0, newly)
        return newly

    def call(self, crown: Any, args: tuple[Any, ...] = ()) -> None:
        """Run the whole program as one call of the entry's crown, in
        place of :meth:`start` and a loop: one firing, the checks of
        :meth:`start`, each argument handed over with one share."""
        self._entry(args)
        self.stats.tasks_fired += 1
        values = []
        for a in args:
            if a.__class__ not in _ATOMIC:  # an atomic circulates as it is
                a = wrap_payload(a)
                retain(a, 1)
            values.append(a)
        self._final = self._call_crown(crown, values)

    def fire(
        self,
        task: Task,
        home: int = -1,
        classify: Classify | None = None,
        suspend: bool = False,
    ) -> list[Task] | PendingOp:
        """Fire one ready task; return the newly ready tasks, or the
        :class:`PendingOp` of an operator body that must leave the single
        pass.

        A pure ``OP`` node takes the single pass of
        :meth:`_fire_op_inline` unless ``classify`` (see
        :data:`Classify`; it sees the slot payloads *before* any
        copy-on-write decision) sends the body to another process,
        ``suspend`` asks for the body (a lock is released around it, or
        an injector must see it) or the state checks purity.  A ``CALL``
        of an operator value always suspends; every other kind completes
        here.  A firing that suspends has delivered nothing yet, so
        ready tasks and a pending op never come back together: the
        executor runs the body and hands its raw result to
        :meth:`complete_fire`.  ``CONST``, ``OPREF`` and ``CLOSURE`` nodes
        get here only when they are not static (see
        :class:`~repro.runtime.activation.TemplatePlan`).
        """
        act = task.activation
        node_id = task.node_id
        entry = act.plan.nodes[node_id]
        kind = entry.kind
        if kind is NodeKind.OP and not suspend:
            plan = entry.op or self._op_plan(entry)
            if plan[-1] and not self.check_purity:
                if classify is None or not classify(
                    plan[0], tuple(map(_payload_of, act.slots[node_id]))
                ):
                    return self._fire_op_inline(task, act, plan, home)
                classify = _remote
        act.fired += 1
        self.stats.tasks_fired += 1
        node = entry.node
        newly: list[Task] = []
        pending: PendingOp | None = None
        if kind is NodeKind.IF:
            self._fire_if(act, node_id, entry, newly)
        elif kind is NodeKind.CALL:
            pending = self._fire_call(act, node_id, entry, newly, home, classify)
        elif kind is NodeKind.CONST:
            self._deliver_output(act, node_id, 0, node.value, 0, newly)
        elif kind is NodeKind.OP:
            inputs = act.take_inputs(node_id)
            pending = self._begin_operator(
                act,
                node_id,
                entry.op or self._op_plan(entry),
                inputs,
                inputs,
                home,
                classify,
            )
        elif kind is NodeKind.OPREF:
            self._deliver_output(act, node_id, 0, OperatorValue(node.name), 0, newly)
        elif kind is NodeKind.TUPLE:
            inputs = act.take_inputs(node_id)
            mv = MultiValue(tuple(inputs))
            self._deliver_output(act, node_id, 0, mv, 0, newly)
            release(mv, 1)  # drop the input slots' shares
        elif kind is NodeKind.UNTUPLE:
            value = act.take_inputs(node_id)[0]
            check_package(
                value, MultiValue, node.n_outputs, f"node {node.label!r}",
                act.template.name,
            )
            for i, element in enumerate(value.items):
                self._deliver_output(act, node_id, i, element, 0, newly)
            release(value, 1)
        elif kind is NodeKind.CLOSURE:
            cells = tuple(act.take_inputs(node_id))
            template = self.program.template(node.template)
            if len(cells) != len(template.captures):
                raise GraphError(
                    f"closure over {template.name!r}: {len(cells)} cell(s) "
                    f"for {len(template.captures)} capture(s)"
                )
            closure = Closure(template, cells).tie_self()
            # Cells keep the input slots' shares as permanent pins: a
            # captured block is always treated as shared (conservative,
            # documented in blocks.py).
            self._deliver_output(act, node_id, 0, closure, 0, newly)
        else:  # pragma: no cover - placeholders never reach the queue
            raise GraphError(f"cannot fire node of kind {kind}")
        if pending is None:
            self._maybe_free(act)
            return newly
        # The task's identity rides on the firing so executor-emitted
        # spans for its body join their TaskEnqueued on (seq, priority).
        pending.seq = task.seq
        pending.priority = task.priority
        return pending

    def _op_plan(self, entry: NodePlan) -> tuple:
        """Compute the per-node constants of one ``OP`` node into its row
        of the template's table.

        ``(spec, fn, untuple_n, n_source_ops, is_fused, arg_codes,
        single_pass)``.  ``arg_codes`` is what :meth:`_bind`
        reads; ``single_pass`` is False on a static arity mismatch (the
        suspending path raises the canonical error).  A purity-checking
        state shares the plan and never takes the single pass: its
        fingerprints live on the :class:`PendingOp`.
        """
        node = entry.node
        spec = node_spec(self.registry, node, self.plans.fused_specs)
        fused = node.fused
        if fused is not None:
            untuple_n = fused[1]
            n_source_ops = fused_source_ops(*fused)
        else:
            untuple_n = 0
            n_source_ops = 1
        n = len(node.inputs)
        plan = entry.op = (
            spec,
            spec.fn,
            untuple_n,
            n_source_ops,
            fused is not None,
            _arg_codes(spec, n),
            spec.arity in (None, n),
        )
        return plan

    def _fire_op_inline(
        self,
        task: Task,
        act: Activation,
        plan: tuple,
        home: int,
    ) -> list[Task]:
        """One pure ``OP`` firing in a single pass: bind, body, commit.

        The same two halves a suspended firing runs either side of its
        body (:meth:`fire`, :meth:`complete_fire`), minus the :class:`PendingOp` a
        synchronous firing never needs.  ``OpStarted``/``OpFinished``
        bracket only the operator body, so generated fused frames
        attribute to ``operator_body`` in the critical-path profile,
        keeping the reconciliation bound.
        """
        node_id = task.node_id
        act.fired += 1
        stats = self.stats
        stats.tasks_fired += 1
        spec, fn, untuple_n, n_source_ops, is_fused, codes, _ = plan
        # The live slots row, not a copy: the activation is pinned until
        # the commit below ends, and a node fires exactly once, so
        # nothing can write the row while we hold it.
        inputs = act.slots[node_id]
        args, arg_blocks = self._bind(spec, inputs, codes, home, False, None)
        stats.ops_executed += 1
        if is_fused:
            stats.fused_fires += 1
            stats.fused_ops_saved += n_source_ops - 1
        bus = self.bus
        op_began: float | None = None
        wants_finished = self._wants_op_finished
        if bus is not None:
            now = bus.now
            if wants_finished or self._wants_op_started:
                op_began = now()
            if self._wants_op_started:
                bus.emit(OpStarted(op_began, spec.name, n_source_ops))
        t_body = _perf_counter() if self.profile_ops else 0.0
        try:
            raw_result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - retried or wrapped
            raw_result = self._body_failed(spec, args, node_id, exc)
        if self.profile_ops:
            stats.op_body_seconds += _perf_counter() - t_body
        if wants_finished:
            op_ended = now()
            bus.emit(OpFinished(op_ended, spec.name, op_ended - op_began))
        # Pin the activation across the commit exactly as a pending op
        # would: a delivered result may mark it done mid-commit, and the
        # pin keeps ``_maybe_free`` from releasing it before its inputs.
        act.pend_ops += 1
        return self._commit(
            act, node_id, untuple_n, raw_result, arg_blocks, inputs, home,
            None,
        )

    def _body_failed(
        self, spec: OperatorSpec, args: Any, node_id: int, exc: Exception
    ) -> Any:
        if self.recover_op is None:
            raise OperatorError(
                spec.name, exc, node_id=node_id, label=spec.label
            ) from exc
        return self.recover_op(spec, args, node_id, exc)

    def op_spec(self, entry: NodePlan) -> OperatorSpec:
        """The spec an ``OP`` node fires (fused bodies composed once)."""
        return (entry.op or self._op_plan(entry))[0]

    def complete_fire(
        self,
        pending: PendingOp,
        raw_result: Any,
        op_seconds: float | None = None,
    ) -> list[Task]:
        """Commit a suspended operator firing; return the newly ready tasks.

        ``raw_result`` is whatever the operator function returned (in this
        process or another).  Exactly one ``complete_fire`` must follow
        every :class:`PendingOp` :meth:`fire` returns; an abandoned one
        leaves its activation pinned, which the stall report will point
        at.

        ``op_seconds``, when given, overrides the duration reported on the
        :class:`~repro.obs.events.OpFinished` event.  The process executor
        passes the worker-measured body time here: without it the default
        (commit time minus ``op_began``) would report the dispatch→commit
        round trip, not the operator, for every remote firing.
        """
        spec = pending.spec
        if pending.committed:
            raise RuntimeFailure(
                f"pending fire of {spec.name!r} (node {pending.node_id}) "
                "committed twice — a retry path delivered the same firing "
                "to complete_fire() more than once"
            )
        pending.committed = True
        if self._wants_op_finished:
            bus = self.bus
            op_ended = bus.now()
            if op_seconds is None:
                began = (
                    pending.op_began if pending.op_began is not None else op_ended
                )
                op_seconds = op_ended - began
            bus.emit(OpFinished(op_ended, spec.name, op_seconds))
        for i, fp in pending.fingerprints:
            if _fingerprint(pending.op_inputs[i].payload) != fp:
                raise PurityViolationError(
                    f"operator {spec.name!r} modified argument {i} "
                    "without declaring it in modifies=(...)"
                )
        act = pending.activation
        fused = act.template.nodes[pending.node_id].fused
        return self._commit(
            act,
            pending.node_id,
            fused[1] if fused is not None else 0,
            raw_result,
            pending.arg_blocks,
            pending.all_inputs,
            pending.home,
            pending,
        )

    def _commit(
        self,
        act: Activation,
        node_id: int,
        untuple_n: int,
        raw_result: Any,
        arg_blocks: list[DataBlock | None],
        inputs: list[Any],
        home: int,
        pending: PendingOp | None,
    ) -> list[Task]:
        """The commit half of every operator firing.

        Checks a fused untuple, wraps and delivers the result, releases
        the firing's share of every edge value in ``inputs``, and unpins
        the activation (the caller pinned it with ``pend_ops``).
        """
        newly: list[Task] = []
        if untuple_n or type(raw_result) is tuple:
            # Elements handed back from a package input (a folded ``IF``
            # selecting one) keep their blocks, as the IF would have.
            arg_blocks = arg_blocks + _package_blocks(inputs)
        if untuple_n:
            # Fused chain ending in an absorbed untuple: the final step's
            # raw tuple is delivered element-by-element to this node's
            # output ports, exactly as the standalone UNTUPLE would have
            # delivered the elements of the MultiValue it unpacked.
            template = act.template
            check_package(
                raw_result, tuple, untuple_n,
                f"fused node {template.nodes[node_id].label!r}", template.name,
            )
            for out, element in enumerate(raw_result):
                self._deliver_output(
                    act, node_id, out,
                    self._wrap_result(element, arg_blocks, home), 0, newly,
                )
        else:
            value = self._wrap_result(raw_result, arg_blocks, home)
            self._deliver_output(act, node_id, 0, value, 0, newly)
            if pending is not None:
                pending.result_value = value
        for v in inputs:
            release(v, 1)
        act.pend_ops -= 1
        self._maybe_free(act)
        return newly

    @property
    def finished(self) -> bool:
        return self._final is not _NO_RESULT

    def result(self) -> Any:
        """The program result, unwrapped for the API boundary."""
        if self._final is _NO_RESULT:
            raise RuntimeFailure("program has not produced a result")
        return unwrap(self._final)

    def snapshot_stats(self) -> EngineStats:
        pool = self.pool
        self.stats.activation_stats = (
            pool.stats() if pool is not None else {"created": 0, "peak_live": 0}
        )
        return self.stats

    def snapshot_state(self) -> dict[str, Any]:
        """Point-in-time engine state for the flight recorder: cheap,
        JSON-ready, and safe to call mid-run (including from a fault
        path, when some invariants may already be broken)."""
        pool = self.activations()
        return {
            "tasks_fired": self.stats.tasks_fired,
            "ops_executed": self.stats.ops_executed,
            "live_activations": pool.live,
            "in_flight_ops": sum(a.pend_ops for a in pool.live_set),
            "finished": self.finished,
            "activation_stats": pool.stats(),
        }

    def stall_report(self, limit: int = 8) -> str:
        """Describe what is stuck when execution stalls without a result.

        Lists live activations with their unfired nodes and which inputs
        those nodes still await — the first thing to read when a
        hand-built graph (or an engine bug) deadlocks.
        """
        pool = self.activations()
        in_flight = sum(a.pend_ops for a in pool.live_set)
        lines: list[str] = [
            f"{pool.live} live activation(s) at stall"
            + (f" ({in_flight} operator firing(s) never completed)"
               if in_flight else "")
            + ":"
        ]
        for act in sorted(pool.live_set, key=lambda a: a.aid)[:limit]:
            lines.append(
                f"  #{act.aid} {act.template.name}: fired "
                f"{act.fired}/{act.fireable_nodes()}, "
                f"result_done={act.result_done}"
            )
            for node_id, missing in enumerate(act.missing):
                node = act.template.nodes[node_id]
                if missing > 0 and node.kind not in (
                    NodeKind.PARAM,
                    NodeKind.CAPTURE,
                ):
                    lines.append(
                        f"    node {node_id} ({node.label or node.kind.value})"
                        f" awaits {missing} input(s)"
                    )
        if pool.live > limit:
            lines.append(f"  ... and {pool.live - limit} more")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Node semantics
    # ------------------------------------------------------------------
    def _task(self, act: Activation, node_id: int) -> Task:
        """The ready task of ``act``'s node ``node_id``, with the next
        sequence number."""
        template = act.template
        # Priorities are precomputed per node at template finalize time;
        # the hot path never touches the Node object.
        priority = template.priorities[node_id]
        seq = self._task_seq = self._task_seq + 1
        if self._wants_enqueued:
            node = template.nodes[node_id]
            bus = self.bus
            bus.emit(
                TaskEnqueued(
                    bus.now(),
                    node.label,
                    node.kind.value,
                    priority,
                    template.name,
                    act.aid,
                    node_id,
                    seq,
                )
            )
        return Task(act, node_id, priority, seq)

    def _deliver_output(
        self,
        act: Activation,
        node_id: int,
        out: int,
        value: Any,
        carried_share: int,
        newly: list[Task],
    ) -> None:
        template = act.template
        consumers = template.consumers[node_id][out]
        is_result = template.result_node == node_id and template.result_out == out
        shares = len(consumers) + 1 if is_result else len(consumers)
        retain(value, shares)
        release(value, carried_share)
        slots = act.slots
        missing = act.missing
        for dest, idx in consumers:
            slots[dest][idx] = value
            left = missing[dest] - 1
            missing[dest] = left
            if left == 0:
                newly.append(self._task(act, dest))
        if is_result:
            self._handle_result(act, value, newly)

    def _deliver_values(
        self,
        act: Activation,
        first: int,
        values: list[Any],
        carried_share: int,
        newly: list[Task],
    ) -> None:
        """Deliver ``values`` to consecutive placeholder nodes of ``act``,
        each carrying ``carried_share`` references handed on to it."""
        for node_id, value in enumerate(values, first):
            self._deliver_output(act, node_id, 0, value, carried_share, newly)

    def _handle_result(self, act: Activation, value: Any, newly: list[Task]) -> None:
        act.result_done = True
        continuation = act.continuation
        self._maybe_free(act)
        if continuation is None:
            self._final = value
            return
        parent, parent_node = continuation
        parent.pend_children -= 1
        self._deliver_output(parent, parent_node, 0, value, 1, newly)
        # The parent may have been waiting only on this child; re-check.
        self._maybe_free(parent)

    def _maybe_free(self, act: Activation) -> None:
        if (
            act.result_done
            and act.fired >= act.fireable
            and act.pend_children == 0
            and act.pend_ops == 0
        ):
            act.result_done = False  # guard against double release
            self.pool.release(act)

    # ------------------------------------------------------------------
    def _begin_operator(
        self,
        act: Activation,
        node_id: int,
        plan: tuple,
        op_inputs: list[Any],
        all_inputs: list[Any],
        home: int,
        classify: Classify | None,
    ) -> PendingOp:
        """The begin half of a suspended operator firing: bind, pin, announce."""
        spec, _, _, n_source_ops, is_fused, codes, _ = plan
        if spec.arity is not None and spec.arity != len(op_inputs):
            raise RuntimeFailure(
                f"operator {spec.name!r} takes {spec.arity} argument(s), "
                f"got {len(op_inputs)}"
            )
        remote = classify is not None and classify(
            spec, tuple(map(_payload_of, op_inputs))
        )
        fingerprints: list[tuple[int, object]] = []
        args, arg_blocks = self._bind(
            spec,
            op_inputs,
            codes,
            home,
            remote,
            fingerprints if self.check_purity and not remote else None,
        )
        stats = self.stats
        stats.ops_executed += 1
        if is_fused:
            stats.fused_fires += 1
            stats.fused_ops_saved += n_source_ops - 1
        act.pend_ops += 1
        op_began: float | None = None
        bus = self.bus
        if bus is not None:
            # The subscriber-set snapshot lets an unsubscribed event skip
            # both the object construction and the clock read — the
            # dominant emit-site costs on the master's critical path.
            wants_started = self._wants_op_started
            if wants_started or self._wants_op_finished:
                op_began = bus.now()
            if wants_started:
                bus.emit(OpStarted(op_began, spec.name, n_source_ops))
        return PendingOp(
            activation=act,
            node_id=node_id,
            spec=spec,
            args=tuple(args),
            arg_blocks=[] if remote else arg_blocks,
            op_inputs=op_inputs,
            all_inputs=all_inputs,
            fingerprints=fingerprints,
            home=home,
            remote=remote,
            op_began=op_began,
        )

    def _bind(
        self,
        spec: OperatorSpec,
        inputs: list[Any],
        codes: tuple[bool, ...] | None,
        home: int,
        remote: bool,
        fingerprints: list[tuple[int, object]] | None,
    ) -> tuple[list[Any], list[DataBlock | None]]:
        """Turn a firing's operator inputs into call arguments.

        The one place the in-place / copy-on-write decision is made, for
        the single-pass fire and for a suspended one alike: a written
        argument whose block holds the sole reference (``rc == 1``) is
        written in place, any other is copied first (§2.1).
        ``codes`` (see :func:`_arg_codes`) says which arguments the body
        writes.  ``remote`` — the body will run in another process —
        counts every decision but skips the physical copy and the
        residency invalidation: serialization isolates the worker's
        write and leaves the master's bytes intact.  ``fingerprints``,
        when a list, collects the purity fingerprints of the read-only
        block arguments.  Returns the payloads and, aligned with them,
        the blocks a result may reuse the identity of.
        """
        args: list[Any] = []
        arg_blocks: list[DataBlock | None] = []
        for i, v in enumerate(inputs):
            if codes is not None and codes[i]:
                v = self._write(spec, i, v, home, remote)
            elif fingerprints is not None and type(v) is DataBlock:
                fingerprints.append((i, _fingerprint(v.payload)))
            if type(v) is DataBlock:
                args.append(v.payload)
                arg_blocks.append(v)
            else:
                args.append(_payload_of(v))
                arg_blocks.append(None)
        return args, arg_blocks

    def _write(
        self, spec: OperatorSpec, i: int, v: Any, home: int, remote: bool
    ) -> Any:
        """What a body that writes argument ``i`` gets: a block itself
        when it holds the sole reference, else a copy (not made when
        ``remote``); an atomic as it is.  A package is refused."""
        if type(v) is not DataBlock:
            if isinstance(v, MultiValue):
                raise RuntimeFailure(
                    f"operator {spec.name!r} declares it modifies argument "
                    f"{i}, which is a multiple-value package; split the "
                    "package and pass the parts instead"
                )
            return v
        stats = self.stats
        if v.rc == 1:
            stats.in_place_writes += 1
            if v.bid is not None and not remote:
                # The body is about to mutate this payload in place while
                # workers may hold resident copies keyed by its block id:
                # invalidate before the bytes change.
                if self.locality is not None:
                    self.locality.forget(v)
                v.bid = None
            # The size is a function of the current payload: forget it so
            # a body that resizes the payload cannot leave it stale.
            v.drop_size()
            return v
        return self._cow(spec.name, v, home, remote)

    def _cow(self, name: str, v: DataBlock, home: int, remote: bool) -> Any:
        """The copy-on-write of a shared block ``v`` that operator ``name``
        writes: counted, sized, announced, and (unless ``remote``) made.
        The one place a copy-on-write copy is made, for :meth:`_write` and
        for a crown's inlined write (:mod:`repro.runtime.crown`)."""
        stats = self.stats
        stats.cow_copies += 1
        nbytes = v.nbytes
        by_op = stats.copies_by_operator
        by_op[name] = by_op.get(name, 0) + 1
        by_op = stats.copy_bytes_by_operator
        by_op[name] = by_op.get(name, 0) + nbytes
        if self._wants_cow:
            bus = self.bus
            bus.emit(CowCopy(bus.now(), name, nbytes))
        if not remote:
            v = v.copy(home)
        return v

    def _wrap_result(
        self, raw: Any, arg_blocks: list[DataBlock | None], home: int
    ) -> Any:
        if isinstance(raw, tuple):
            return MultiValue(
                tuple(self._wrap_result(x, arg_blocks, home) for x in raw)
            )
        for block in arg_blocks:
            if block is not None and block.payload is raw:
                # The operator returned one of its inputs: keep the block's
                # identity — this is the paper's "merging is free" idiom.
                if home >= 0:
                    block.home = home
                return block
        if isinstance(raw, np.ndarray) and raw.base is not None:
            # A view over an input's buffer would alias it behind the
            # reference counter's back; copy defensively.  Operators that
            # want zero-copy splitting should return the whole array or
            # independent arrays.
            base: Any = raw
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            for block in arg_blocks:
                if block is not None and block.payload is base:
                    raw = raw.copy()
                    break
        return wrap_payload(raw, home)

    # ------------------------------------------------------------------
    def _fire_call(
        self,
        act: Activation,
        node_id: int,
        entry: NodePlan,
        newly: list[Task],
        home: int,
        classify: Classify | None,
    ) -> PendingOp | None:
        inputs = act.take_inputs(node_id)
        callee = inputs[0]
        if self.clip is not None:
            crown = self.clip(entry)
            if crown is not None:
                # The callee's whole subtree runs here as one operator-like
                # firing; the parameters hand their shares on and the cells
                # none, as an expansion does.
                value = self._call_crown(crown, (*inputs[1:], *inputs[0].cells))
                self._deliver_output(act, node_id, 0, value, 1, newly)
                return None
        if entry.callee is not None:
            # The template created this closure itself: nothing to learn
            # from the value, and it has no cells.
            plan = entry.expands[0] or self._target(entry, 0)
            cells: tuple[Any, ...] = ()
        elif isinstance(callee, OperatorValue):
            # The callee is known only now, so its constants are too: a
            # plan like an ``OP`` node's, with no fusion facts.
            call_args = inputs[1:]
            spec = self.registry.get(callee.name)
            codes = _arg_codes(spec, len(call_args))
            return self._begin_operator(
                act,
                node_id,
                (spec, spec.fn, 0, 1, False, codes, False),
                call_args,
                inputs,
                home,
                classify,
            )
        elif isinstance(callee, Closure):
            plan = self.plans.load(callee.template)
            cells = callee.cells
        else:
            raise RuntimeFailure(
                f"call of non-function value {callee!r} "
                f"(node {entry.node.label!r} in {act.template.name!r})"
            )
        self._expand(act, node_id, entry.node, plan, inputs[1:], 1, cells, 0, newly)
        return None

    def _call_crown(self, crown: Any, args: Any) -> Any:
        """Call ``crown`` on ``args`` as one operator-like body; returns
        the result carrying its one share."""
        fn = crown.bind()
        bus = self.bus
        if bus is not None:
            began = bus.now()
            if self._wants_op_started:
                bus.emit(OpStarted(began, crown.name, 1))
        t_body = _perf_counter() if self.profile_ops else 0.0
        value = fn(self, self.stats, *args, 0)
        if self.profile_ops:
            self.stats.op_body_seconds += _perf_counter() - t_body
        if self._wants_op_finished:
            ended = bus.now()
            bus.emit(OpFinished(ended, crown.name, ended - began))
        return value

    def _run_nested(
        self, template: Template, params: tuple[Any, ...], cells: tuple[Any, ...]
    ) -> Any:
        """Evaluate a call on the graph path, in a nested loop with
        clipping off: where a clipped call goes past its depth bound.
        Returns the result carrying its one share, as a crown call does.
        A clipped closure holds only operators that take the single pass,
        so every firing here comes back as its ready tasks."""
        clip, final = self.clip, self._final
        self.clip, self._final = None, _NO_RESULT
        try:
            plan = self.plans.load(template)
            act = self.activations().acquire(plan)
            newly = [self._task(act, nid) for nid in plan.ready]
            if params:
                self._deliver_values(act, 0, params, 1, newly)
            if cells:
                self._deliver_values(act, len(params), cells, 0, newly)
            queue = ReadyQueue()
            queue.push_all(newly)
            while queue:
                queue.push_all(self.fire(queue.pop()))
            value = self._final
        finally:
            self.clip, self._final = clip, final
        if value is _NO_RESULT:
            raise RuntimeFailure(
                "execution stalled in a nested run\n" + self.stall_report()
            )
        return value

    def _target(self, entry: NodePlan, which: int) -> TemplatePlan:
        """The plan of a template ``entry`` expands, loaded when first
        taken: the callee of a known ``CALL``, else arm ``which`` of an
        ``IF`` (0 then, 1 else)."""
        template = entry.callee
        if template is None:
            node = entry.node
            template = self.program.template(
                node.else_template if which else node.then_template
            )
        plan = entry.expands[which] = self.plans.load(template)
        return plan

    def _fire_if(
        self, act: Activation, node_id: int, entry: NodePlan, newly: list[Task]
    ) -> None:
        inputs = act.take_inputs(node_id)
        cond = inputs[0]
        n_then = entry.node.n_then_captures
        if is_truthy(cond):
            which, taken = 0, inputs[1 : 1 + n_then]
            dropped = inputs[1 + n_then :]
        else:
            which, taken = 1, inputs[1 + n_then :]
            dropped = inputs[1 : 1 + n_then]
        for v in dropped:
            release(v, 1)
        release(cond, 1)
        plan = entry.expands[which] or self._target(entry, which)
        self._expand(act, node_id, entry.node, plan, (), 0, taken, 1, newly)

    def _expand(
        self,
        parent: Activation,
        node_id: int,
        node: Node,
        plan: TemplatePlan,
        params: Any,
        param_share: int,
        captures: Any,
        capture_share: int,
        newly: list[Task],
    ) -> None:
        """Expand ``plan``'s template as a child of ``node``'s firing.

        ``params`` / ``captures`` each carry ``param_share`` /
        ``capture_share`` references of the firing node's, handed on to
        the child.  A shortcut template is not instantiated: the firing
        drops the shares it does not pass on and delivers the result as
        its own output, which for a tail node is the activation's result.
        """
        template = plan.template
        if len(params) != len(template.params):
            raise RuntimeFailure(
                f"{template.name!r} takes {len(template.params)} argument(s), "
                f"got {len(params)}"
            )
        if len(captures) != len(template.captures):
            raise GraphError(
                f"{template.name!r} expects {len(template.captures)} "
                f"capture(s), got {len(captures)}"
            )
        if plan.shortcut is not None:
            index, value = plan.shortcut
            share, n = 0, len(params)
            if index >= n:
                value, share = captures[index - n], capture_share
            elif index >= 0:
                value, share = params[index], param_share
            for i, v in enumerate(params):
                if i != index:
                    release(v, param_share)
            for i, v in enumerate(captures, n):
                if i != index:
                    release(v, capture_share)
            self._deliver_output(parent, node_id, 0, value, share, newly)
            return
        self.stats.expansions += 1
        child = self.pool.acquire(plan)
        bus = self.bus
        if node.tail:
            self.stats.tail_expansions += 1
            if self._wants_tail_expansion:
                bus.emit(TailExpansion(bus.now(), template.name, child.aid))
            child.continuation = parent.continuation
            # Delegate: the parent will never see a result of its own.
            parent.result_done = True
        else:
            if self._wants_expansion:
                bus.emit(Expansion(bus.now(), template.name, child.aid))
            child.continuation = (parent, node_id)
            parent.pend_children += 1
        newly.extend([self._task(child, nid) for nid in plan.ready])
        if params:
            self._deliver_values(child, 0, params, param_share, newly)
        if captures:
            self._deliver_values(
                child, len(template.params), captures, capture_share, newly
            )
