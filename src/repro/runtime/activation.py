"""Template activations: the runtime's unit of execution state.

Section 7 of the paper: "The run time system executes small data structures
called template activations which contain enough data buffer space to
execute the given subgraph, and a pointer back to the template."  A tree of
activations generalizes the sequential call stack.

An activation owns one input-slot buffer per node and a countdown of
missing inputs; when a node's countdown hits zero it is ready.  Because
every node fires exactly once, the buffers never need clearing mid-run, and
an activation whose nodes have all fired (and whose result has been
delivered or delegated to a tail call) can be recycled through a per-
template free list — the reuse the paper's priority scheme is designed to
maximize.

The paper's split is static template / per-invocation buffer space; the
:class:`TemplatePlan` is everything on the static side that the IR does
not spell out: the pristine buffer rows an activation starts from (with
the values of constant nodes already in them), which nodes are ready at
birth, and one :class:`NodePlan` per node.
"""

from __future__ import annotations

from typing import Any

from ..graph.ir import GraphProgram, Node, NodeKind, Template
from ..obs.events import ActivationAllocated, ActivationRecycled, EventBus
from .blocks import DataBlock
from .values import Closure, MultiValue, OperatorValue

#: Sentinel marking an input slot that has not received its value yet.
_EMPTY = object()


class NodePlan:
    """One row of a template's per-node table: what is decided about a
    node before it fires, so no firing decides it again.

    ``op`` is the operator plan of an ``OP`` node
    (``ExecutionState._op_plan``), built when the node first fires so an
    unknown operator is reported then, as ever.  ``callee`` is the
    template a ``CALL`` node is sure to expand: its callee port is fed by
    a static closure node of its own template.  ``expands`` holds the plans
    of the templates the node may expand — ``[then, else]`` of an ``IF``,
    ``[callee]`` of a known ``CALL`` — each resolved when first taken.
    ``memo`` is ``(configuration token, dispatch class)``: the class the
    executor loop gave the node, valid for every run that carries the
    token — an executor keeps one per configuration a class depends on
    (backend kind, batching, dispatch policy), so its later runs read
    the class instead of deciding it again.  One slot: executors of
    different configuration taking turns on a program overwrite it.
    """

    __slots__ = ("node", "kind", "op", "callee", "expands", "memo")

    def __init__(self, node: Node) -> None:
        self.node = node
        self.kind = node.kind
        self.op: tuple | None = None
        self.callee: Template | None = None
        self.expands: list["TemplatePlan | None"] = [None, None]
        self.memo: tuple[Any, int] = (None, 0)


def _static_value(node: Node, program: GraphProgram) -> Any:
    """The value ``node`` would deliver in every activation, or ``_EMPTY``.

    A literal, an operator reference and a closure over a capture-free
    template depend on nothing an activation supplies.  Reference-counted
    values are left to fire: a share is taken by a delivery.
    """
    kind = node.kind
    if kind is NodeKind.CONST:
        if not isinstance(node.value, (DataBlock, MultiValue)):
            return node.value
    elif kind is NodeKind.OPREF:
        return OperatorValue(node.name)
    elif kind is NodeKind.CLOSURE and not node.inputs:
        template = program.templates.get(node.template)
        if template is not None and not template.captures:
            return Closure(template, ())
    return _EMPTY


class TemplatePlan:
    """What a template knows before it runs: the prototype every
    activation of it is instantiated from, and its per-node table.

    Built once per (program, registry) when the template is first
    activated, then shared read-only by every run and executor.  A
    *static* node — one with a :func:`_static_value` that is not the
    template's result — never becomes a task: its value sits in the
    pristine slot rows (``blank``) of its consumers, whose ``missing``
    seeds no longer count it.  The result node always fires, because the
    result is delivered by a firing.

    ``shortcut`` marks a template in which nothing but the result would
    fire: ``(placeholder, value)`` says its result is the value handed
    to that placeholder, or (placeholder ``-1``) the static ``value``.
    The expanding node delivers such a result as its own output instead
    of instantiating the template.
    """

    __slots__ = (
        "template", "blank", "missing", "ready", "fireable", "nodes",
        "shortcut",
    )

    def __init__(self, template: Template, program: GraphProgram) -> None:
        self.template = template
        nodes = template.nodes
        n_ph = template.n_placeholders()
        static = {}
        for node_id in range(n_ph, len(nodes)):
            value = _static_value(nodes[node_id], program)
            if value is not _EMPTY:
                static[node_id] = value
        result = template.result_node
        self.shortcut: tuple[int, Any] | None = None
        if len(static) == len(nodes) - n_ph:
            self.shortcut = (
                (result, None) if result < n_ph else (-1, static[result])
            )
        static.pop(result, None)
        self.blank: list[list[Any]] = [
            [static.get(port.node, _EMPTY) for port in node.inputs]
            for node in nodes
        ]
        self.missing = [sum(v is _EMPTY for v in row) for row in self.blank]
        self.ready = [
            node_id
            for node_id in range(n_ph, len(nodes))
            if not self.missing[node_id] and node_id not in static
        ]
        self.fireable = len(nodes) - n_ph - len(static)
        self.nodes = [NodePlan(node) for node in nodes]
        for entry in self.nodes:
            if entry.kind is NodeKind.CALL and entry.node.inputs:
                callee = static.get(entry.node.inputs[0].node)
                if isinstance(callee, Closure):
                    entry.callee = callee.template


class Activation:
    """One in-flight evaluation of a template.

    Attributes
    ----------
    plan / template:
        The prototype this activation was instantiated from, and the
        static subgraph being evaluated.
    slots:
        ``slots[node][input_index]`` — received input values.
    missing:
        Per-node count of inputs not yet present.
    continuation:
        Where the result goes: ``(parent_activation, node_id)`` meaning
        "this is the output of that node", or ``None`` for the root
        activation (result returned to the caller of the executor).
    fired:
        Number of nodes fired so far.
    result_done:
        The result was delivered — or delegated to a tail call's child.
    aid:
        Serial number (diagnostics and deterministic tie-breaking).
    pend_ops / pend_children:
        In-flight operator firings and outstanding non-tail children of
        this activation; both must be zero before it can be recycled.
        Kept as plain counters on the activation (rather than engine-side
        dicts keyed by ``aid``) because the recycling check runs after
        every firing.
    """

    __slots__ = (
        "plan",
        "template",
        "slots",
        "missing",
        "continuation",
        "fired",
        "result_done",
        "aid",
        "pend_ops",
        "pend_children",
        "fireable",
    )

    def __init__(self, plan: TemplatePlan, aid: int) -> None:
        self.plan = plan
        self.template = plan.template
        self.slots: list[list[Any]] = [row[:] for row in plan.blank]
        self.missing: list[int] = plan.missing[:]
        self.continuation: tuple["Activation", int] | None = None
        self.fired = 0
        self.result_done = False
        self.aid = aid
        self.pend_ops = 0
        self.pend_children = 0
        self.fireable = plan.fireable

    # ------------------------------------------------------------------
    def reset(self, aid: int) -> None:
        """Recycle this activation for a fresh evaluation of its template:
        one C-level slice assignment per row restores the static values."""
        for slot_row, blank in zip(self.slots, self.plan.blank):
            slot_row[:] = blank
        self.missing[:] = self.plan.missing
        self.continuation = None
        self.fired = 0
        self.result_done = False
        self.aid = aid
        self.pend_ops = 0
        self.pend_children = 0

    def fireable_nodes(self) -> int:
        """Nodes that will fire (placeholders and static nodes do not)."""
        return self.fireable

    def take_inputs(self, node_id: int) -> list[Any]:
        """Return the received inputs of a ready node (slots keep them;
        per the execution model data is consumed exactly once, by the
        node's single firing)."""
        assert self.missing[node_id] == 0, "node fired before ready"
        return self.slots[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Activation#{self.aid}({self.template.name})"


class ActivationPool:
    """Per-template free lists enabling activation reuse.

    The paper: the priority scheme "reduces the number of template
    activations required ... by making activations available for re-use as
    early as possible."  The pool makes that measurable: the ablation
    benchmark reports created/reused counts and the peak number live.

    Free lists are bounded per template (``max_free_per_template``): a
    burst of parallelism — a wide fork-join that briefly needs hundreds
    of activations of one template — must not pin that burst's slot
    buffers (and every block they reference is already cleared, but the
    list/slot structures themselves are not small) for the rest of the
    run.  Releases beyond the bound simply drop the activation to the
    garbage collector.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        max_free_per_template: int = 64,
    ) -> None:
        self._bus = bus if (bus is not None and bus.active) else None
        self.max_free_per_template = max_free_per_template
        self.free_dropped = 0
        self._free: dict[str, list[Activation]] = {}
        self.created = 0
        self.reused = 0
        self.live = 0
        self.peak_live = 0
        self.live_by_template: dict[str, int] = {}
        self.peak_by_template: dict[str, int] = {}
        #: Currently live activations (identity set; diagnostics only).
        self.live_set: set[Activation] = set()
        self._serial = 0
        # Subscriber-set snapshot (same discipline as the engine and the
        # ready queue): pools are constructed after subscriptions attach.
        bus = self._bus
        self._wants_alloc = bus is not None and bus.wants(ActivationAllocated)
        self._wants_recycled = bus is not None and bus.wants(
            ActivationRecycled
        )

    def acquire(self, plan: TemplatePlan) -> Activation:
        self._serial += 1
        name = plan.template.name
        free_list = self._free.get(name)
        if free_list:
            act = free_list.pop()
            act.reset(self._serial)
            self.reused += 1
            reused = True
        else:
            act = Activation(plan, self._serial)
            self.created += 1
            reused = False
        self.live += 1
        self.peak_live = max(self.peak_live, self.live)
        live = self.live_by_template.get(name, 0) + 1
        self.live_by_template[name] = live
        if live > self.peak_by_template.get(name, 0):
            self.peak_by_template[name] = live
        self.live_set.add(act)
        bus = self._bus
        if self._wants_alloc:
            bus.emit(
                ActivationAllocated(bus.now(), name, act.aid, reused, self.live)
            )
        return act

    def release(self, act: Activation) -> None:
        if act not in self.live_set:
            raise RuntimeError(
                f"activation {act.aid} of {act.template.name!r} released "
                "twice — a firing was committed more than once "
                "(retry double-release?)"
            )
        self.live -= 1
        self.live_by_template[act.template.name] -= 1
        self.live_set.discard(act)
        free_list = self._free.setdefault(act.template.name, [])
        if len(free_list) < self.max_free_per_template:
            free_list.append(act)
        else:
            self.free_dropped += 1
        bus = self._bus
        if self._wants_recycled:
            bus.emit(
                ActivationRecycled(
                    bus.now(), act.template.name, act.aid, self.live
                )
            )

    def stats(self) -> dict[str, int]:
        return {
            "created": self.created,
            "reused": self.reused,
            "peak_live": self.peak_live,
            "free_dropped": self.free_dropped,
        }
