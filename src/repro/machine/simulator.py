"""Discrete-event simulation of coordination-graph execution.

:class:`SimulatedExecutor` runs a compiled program on a
:class:`~repro.machine.model.MachineModel`: operators execute for real (so
results are exact), but *time* is simulated ticks charged from operator
cost hints, machine overheads, and memory-system penalties.  The schedule
is greedy list scheduling — whenever a processor is idle and a task is
ready, the highest-priority ready task starts immediately — which matches
the paper's runtime ("whenever an operator has all its inputs, it is put
in the ready queue") and carries Graham's bound:
``makespan <= work/P + critical_path``, tested as a property.

Why simulate?  The evaluation hardware (Cray Y-MP, Sequent, Butterfly) no
longer exists, and on a GIL-bound single-CPU host real threads cannot show
4-way speedups; the curves the paper reports are functions of the graph,
the costs, and P — exactly what the simulator reproduces, deterministically
and fast.  Functional (non-performance) parity with real concurrency is
demonstrated separately by :class:`~repro.runtime.executors.ThreadedExecutor`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from ..errors import MachineError, RuntimeFailure
from ..graph.ir import GraphProgram, Node, NodeKind
from ..obs.events import EventBus, TaskFired
from ..runtime.affinity import AffinityPolicy, make_policy
from ..runtime.blocks import DataBlock
from ..runtime.engine import EngineStats, ExecutionState, _payload_of
from ..runtime.executors import resolve_bus
from ..runtime.operators import OperatorRegistry, builtin_registry
from ..runtime.scheduler import ReadyQueue, Task
from ..runtime.tracing import Tracer
from ..runtime.values import Closure, MultiValue, OperatorValue
from .memory import MemoryInventory, TrafficAccount, inventory, template_bytes
from .model import MachineModel


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    value: Any
    stats: EngineStats
    tracer: Tracer | None
    machine: MachineModel
    #: Makespan: simulated completion time of the whole program.
    ticks: float
    #: Busy (non-idle) ticks per processor, dispatch overhead included.
    busy_ticks: list[float] = field(default_factory=list)
    #: Total scheduler overhead charged (sum over tasks of dispatch cost).
    dispatch_ticks_total: float = 0.0
    #: Pure compute ticks (operator + node costs, no dispatch, no memory).
    compute_ticks_total: float = 0.0
    traffic: TrafficAccount = field(default_factory=TrafficAccount)
    memory: MemoryInventory = field(default_factory=MemoryInventory)

    @property
    def processors(self) -> int:
        return self.machine.processors

    def utilization(self) -> float:
        """Mean fraction of the makespan each processor was busy."""
        if self.ticks <= 0:
            return 1.0
        return sum(self.busy_ticks) / (self.ticks * self.processors)

    def overhead_fraction(self) -> float:
        """Scheduler overhead relative to total busy time (section 7)."""
        busy = sum(self.busy_ticks)
        if busy <= 0:
            return 0.0
        return self.dispatch_ticks_total / busy

    def describe(self) -> str:
        return (
            f"{self.machine.name} P={self.processors}: {self.ticks:.0f} ticks, "
            f"utilization {self.utilization():.1%}, "
            f"overhead {self.overhead_fraction():.2%}"
        )


class SimulatedExecutor:
    """Execute a coordination graph on a simulated multiprocessor.

    Parameters
    ----------
    machine:
        The machine model (processor count, overheads, NUMA costs).
    affinity:
        Placement policy: ``"none"`` (default), ``"operator"``, ``"data"``,
        or an :class:`~repro.runtime.affinity.AffinityPolicy` instance.
    op_cost_overrides:
        Per-operator cost overrides (name -> ticks or callable over the
        raw payloads), taking precedence over the specs' cost hints.
        Benchmarks use this to model workload variants without touching
        the registries.
    use_priorities / seed / check_purity / trace:
        As in :class:`~repro.runtime.executors.SequentialExecutor`;
        tracing records per-node tick timings (the paper's node-timing
        tool).
    bus:
        Optional :class:`~repro.obs.events.EventBus`.  Events are
        stamped in simulated ticks; each task dispatch emits a
        :class:`~repro.obs.events.TaskFired` span carrying its processor,
        which the Chrome trace exporter renders as one Perfetto track per
        simulated processor.
    """

    def __init__(
        self,
        machine: MachineModel,
        affinity: "str | AffinityPolicy" = "none",
        op_cost_overrides: dict[str, Any] | None = None,
        use_priorities: bool = True,
        seed: int | None = None,
        check_purity: bool = False,
        trace: bool = False,
        bus: EventBus | None = None,
    ) -> None:
        self.machine = machine
        self.affinity_spec = affinity
        self.op_cost_overrides = dict(op_cost_overrides or {})
        self.use_priorities = use_priorities
        self.seed = seed
        self.check_purity = check_purity
        self.trace = trace
        self.bus = bus

    # ------------------------------------------------------------------
    def _op_cost(self, name: str, spec: Any, args: tuple[Any, ...]) -> float:
        override = self.op_cost_overrides.get(name)
        if override is not None:
            return float(override(*args)) if callable(override) else float(override)
        hinted = spec.cost_ticks(args)
        if hinted is not None:
            return hinted
        return self.machine.default_op_ticks

    def _base_cost(
        self, task: Task, state: ExecutionState, graph: GraphProgram
    ) -> tuple[float, float]:
        """(compute ticks, template-fetch bytes) for a ready task."""
        act = task.activation
        entry = act.plan.nodes[task.node_id]
        node: Node = entry.node
        machine = self.machine
        fetch_bytes = 0.0
        if node.kind is NodeKind.OP:
            spec = state.op_spec(entry)
            args = tuple(map(_payload_of, act.slots[task.node_id]))
            return self._op_cost(node.name, spec, args), 0.0
        if node.kind is NodeKind.CALL:
            slots = act.slots[task.node_id]
            callee = slots[0]
            if isinstance(callee, OperatorValue):
                spec = state.registry.get(callee.name)
                args = tuple(map(_payload_of, slots[1:]))
                return self._op_cost(callee.name, spec, args), 0.0
            if not machine.replicate_templates and isinstance(callee, Closure):
                fetch_bytes = float(template_bytes(callee.template))
            return machine.activation_ticks, fetch_bytes
        if node.kind is NodeKind.IF:
            if not machine.replicate_templates:
                fetch_bytes = float(
                    template_bytes(graph.template(node.then_template))
                )
            return machine.activation_ticks, fetch_bytes
        return machine.node_overhead_ticks, 0.0

    def _memory_cost(
        self, task: Task, processor: int, traffic: TrafficAccount
    ) -> tuple[float, float]:
        """(latency penalty, interconnect bytes) for the task's inputs."""
        machine = self.machine
        if machine.remote_ticks_per_byte == 0 and machine.local_ticks_per_byte == 0:
            return 0.0, 0.0
        penalty = 0.0
        moved_bytes = 0.0

        def visit(value: Any) -> None:
            nonlocal penalty, moved_bytes
            if isinstance(value, DataBlock):
                remote = (
                    machine.numa and value.home >= 0 and value.home != processor
                )
                traffic.charge_data(value.nbytes, remote, processor)
                rate = (
                    machine.remote_ticks_per_byte
                    if remote
                    else machine.local_ticks_per_byte
                )
                if rate > 0:
                    penalty += value.nbytes * rate
                    moved_bytes += value.nbytes
            elif isinstance(value, MultiValue):
                for item in value.items:
                    visit(item)

        for value in task.activation.slots[task.node_id]:
            visit(value)
        return penalty, moved_bytes

    # ------------------------------------------------------------------
    def run(
        self,
        program: GraphProgram,
        args: tuple[Any, ...] = (),
        registry: OperatorRegistry | None = None,
    ) -> SimResult:
        registry = registry if registry is not None else builtin_registry()
        machine = self.machine
        bus, tracer = resolve_bus(self.bus, self.trace)
        if bus is not None:
            bus.set_time(0.0)
        state = ExecutionState(
            program, registry, check_purity=self.check_purity, bus=bus
        )
        ready = ReadyQueue(self.use_priorities, self.seed, bus=bus)
        policy = make_policy(self.affinity_spec)
        traffic = TrafficAccount()

        n_procs = machine.processors
        idle: set[int] = set(range(n_procs))
        busy_ticks = [0.0] * n_procs
        dispatch_total = 0.0
        compute_total = 0.0
        bus_free_at = 0.0
        #: (finish_time, event_seq, processor, task)
        events: list[tuple[float, int, int, Task]] = []
        event_seq = 0
        now = 0.0

        ready.push_all(state.start(args))

        def dispatch() -> None:
            nonlocal event_seq, dispatch_total, compute_total, bus_free_at
            while ready and idle:
                task = ready.pop()
                processor = policy.choose(task, idle)
                if processor not in idle:
                    raise MachineError(
                        f"affinity policy {policy.name!r} chose a busy "
                        f"processor {processor}"
                    )
                idle.discard(processor)
                policy.notify(task, processor)
                compute, fetch_bytes = self._base_cost(task, state, program)
                latency, moved_bytes = self._memory_cost(task, processor, traffic)
                if fetch_bytes:
                    traffic.charge_template(int(fetch_bytes))
                    latency += fetch_bytes * machine.template_fetch_ticks_per_byte
                    moved_bytes += fetch_bytes
                if machine.bus_bytes_per_tick > 0 and moved_bytes > 0:
                    # Finite-bandwidth mode: all interconnect traffic
                    # serializes through one bus.  The task pays queueing
                    # delay plus its transfer time; this *replaces* the
                    # per-byte latency charge (same bytes, one bill).
                    transfer = moved_bytes / machine.bus_bytes_per_tick
                    start = max(now, bus_free_at)
                    bus_free_at = start + transfer
                    wait = start - now
                    traffic.bus_wait_ticks += wait
                    memory = wait + transfer
                else:
                    memory = latency
                duration = machine.dispatch_ticks + compute + memory
                dispatch_total += machine.dispatch_ticks
                compute_total += compute
                busy_ticks[processor] += duration
                if bus is not None:
                    act = task.activation
                    node = act.template.nodes[task.node_id]
                    bus.emit(
                        TaskFired(
                            now,
                            node.label,
                            node.kind.value,
                            task.priority,
                            act.template.name,
                            act.aid,
                            task.node_id,
                            task.seq,
                            duration,
                            processor,
                        )
                    )
                event_seq += 1
                heapq.heappush(
                    events, (now + duration, event_seq, processor, task)
                )

        dispatch()
        while events:
            finish, _, processor, task = heapq.heappop(events)
            now = finish
            if bus is not None:
                bus.set_time(now)
            fired = state.fire(task, home=processor)
            if fired.__class__ is not list:
                # A call of an operator value, or a purity-checked body:
                # the engine suspends it, and it runs here, its failure
                # wrapped as the engine's single pass wraps one.
                try:
                    raw = fired.spec.fn(*fired.args)
                except Exception as exc:  # noqa: BLE001 - wrapped
                    raw = state._body_failed(
                        fired.spec, fired.args, fired.node_id, exc
                    )
                fired = state.complete_fire(fired, raw)
            ready.push_all(fired)
            idle.add(processor)
            dispatch()

        if ready:
            raise MachineError("simulation ended with ready tasks unplaced")
        if not state.finished:
            raise RuntimeFailure(
                "execution stalled: ready queue drained without producing a "
                "result (ill-formed graph?)\n" + state.stall_report()
            )

        mem = inventory(
            program,
            state.pool.peak_by_template,
            processors=n_procs,
            replicated=machine.replicate_templates,
        )
        return SimResult(
            value=state.result(),
            stats=state.snapshot_stats(),
            tracer=tracer,
            machine=machine,
            ticks=now,
            busy_ticks=busy_ticks,
            dispatch_ticks_total=dispatch_total,
            compute_ticks_total=compute_total,
            traffic=traffic,
            memory=mem,
        )


def speedup_curve(
    program: GraphProgram,
    machine: MachineModel,
    processor_counts: list[int],
    args: tuple[Any, ...] = (),
    registry: OperatorRegistry | None = None,
    **executor_kwargs: Any,
) -> dict[int, float]:
    """Speedup over P=1 for each processor count (figure-1 style sweeps).

    Speedup is measured against the same machine with one processor — the
    paper likewise normalizes to "the original sequential version".
    """
    baseline = SimulatedExecutor(
        machine.with_processors(1), **executor_kwargs
    ).run(program, args=args, registry=registry)
    curve: dict[int, float] = {}
    for p in processor_counts:
        if p == 1:
            curve[1] = 1.0
            continue
        result = SimulatedExecutor(
            machine.with_processors(p), **executor_kwargs
        ).run(program, args=args, registry=registry)
        curve[p] = baseline.ticks / result.ticks
    return curve
