"""Template activations: the runtime's unit of execution state.

Section 7 of the paper: "The run time system executes small data structures
called template activations which contain enough data buffer space to
execute the given subgraph, and a pointer back to the template."  A tree of
activations generalizes the sequential call stack.

An activation owns one input-slot buffer per node and a countdown of
missing inputs; when a node's countdown hits zero it is ready.  Because
every node fires exactly once, the buffers never need clearing mid-run.
An activation whose nodes have all fired (and whose result has been
delivered or delegated to a tail call) is released to the garbage
collector.  The paper's priority scheme exists to release activations as
early as possible; :class:`ActivationPool` measures how well it does by
the number live at once.

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
from .values import _SELF, Closure, MultiValue, OperatorValue

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
    ``crown`` is set on a ``CALL`` whose callee port is fed by a closure
    node of its own template: first ``(callee name, self capture)``, then,
    once the executor asks, the callee closure's generated code
    (:func:`repro.runtime.crown.crown_for`) or ``None``.
    """

    __slots__ = ("node", "kind", "op", "callee", "expands", "memo", "crown")

    def __init__(self, node: Node) -> None:
        self.node = node
        self.kind = node.kind
        self.op: tuple | None = None
        self.callee: Template | None = None
        self.expands: list["TemplatePlan | None"] = [None, None]
        self.memo: tuple[Any, int] = (None, 0)
        self.crown: Any = None


def self_capture(closure: Node, nodes: list[Node]) -> int | None:
    """Which cell of a ``CLOSURE`` node is the closure itself (a recursive
    local function): ``None`` for none, ``-1`` for more than one."""
    selfs = [
        j for j, p in enumerate(closure.inputs)
        if nodes[p.node].kind is NodeKind.CONST and nodes[p.node].value is _SELF
    ]
    return selfs[0] if len(selfs) == 1 else -1 if selfs else None


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
                source = nodes[entry.node.inputs[0].node]
                if source.kind is NodeKind.CLOSURE:
                    entry.crown = (source.template, self_capture(source, nodes))


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
        this activation; both must be zero before it can be released.
        Kept as plain counters on the activation (rather than engine-side
        dicts keyed by ``aid``) because the release check runs after
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
    """The live activations of one run, and how many were live at once.

    The paper: the priority scheme "reduces the number of template
    activations required ... by making activations available for re-use as
    early as possible."  The pool makes that measurable: ``created``
    counts every activation and ``peak_live`` / ``peak_by_template`` the
    most live at once, which the ablation benchmark and the simulator's
    memory inventory read.  A released activation is dropped, not kept for
    reuse: the pool holds no reference to it.
    """

    def __init__(self, bus: EventBus | None = None) -> None:
        self._bus = bus if (bus is not None and bus.active) else None
        self.created = 0
        self.live = 0
        self.peak_live = 0
        self.live_by_template: dict[str, int] = {}
        self.peak_by_template: dict[str, int] = {}
        #: Currently live activations (identity set; diagnostics and the
        #: double-release check).
        self.live_set: set[Activation] = set()
        # Subscriber-set snapshot (same discipline as the engine and the
        # ready queue): pools are constructed after subscriptions attach.
        bus = self._bus
        self._wants_alloc = bus is not None and bus.wants(ActivationAllocated)
        self._wants_recycled = bus is not None and bus.wants(
            ActivationRecycled
        )

    def acquire(self, plan: TemplatePlan) -> Activation:
        self.created += 1
        act = Activation(plan, self.created)
        name = plan.template.name
        self.live += 1
        self.peak_live = max(self.peak_live, self.live)
        live = self.live_by_template.get(name, 0) + 1
        self.live_by_template[name] = live
        if live > self.peak_by_template.get(name, 0):
            self.peak_by_template[name] = live
        self.live_set.add(act)
        bus = self._bus
        if self._wants_alloc:
            bus.emit(ActivationAllocated(bus.now(), name, act.aid, self.live))
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
        bus = self._bus
        if self._wants_recycled:
            bus.emit(
                ActivationRecycled(
                    bus.now(), act.template.name, act.aid, self.live
                )
            )

    def stats(self) -> dict[str, int]:
        return {"created": self.created, "peak_live": self.peak_live}
