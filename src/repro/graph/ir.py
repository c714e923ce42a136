"""Coordination-graph intermediate representation.

The Pythia compiler converts each Delirium function into a *template*: a
static dataflow subgraph whose nodes are sequential operators and whose
edges are data paths (section 7 of the paper).  The runtime instantiates
*template activations* — small structures with buffer space for one
evaluation of the template — and fires nodes when all their inputs are
present.  Two properties of templates make scheduling cheap and execution
deterministic:

1. every node in an activation fires **exactly once**, and
2. once data is present on an input it stays until the node fires and is
   never present again.

Control flow never lives inside a template.  A conditional compiles to an
:class:`NodeKind.IF` node holding two *arm templates* that are expanded
lazily (only the taken arm ever runs; a fused node keeps that laziness
for each ``IF`` it folds, see :attr:`Node.fused`), and every function call
is a :class:`NodeKind.CALL` ("call-closure") node that expands the
callee's template as a child activation.  Recursion and iteration
(lowered to tail recursion) therefore cost one activation per live call,
and tail calls re-use the parent's continuation so loops run in constant
activation space.

Node input ports are wired by :class:`Port` references ``(node_id,
out_port)``; almost every node has one output, except ``UNTUPLE`` which has
one output per package element.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import GraphError


class NodeKind(enum.Enum):
    """The kinds of coordination-graph nodes."""

    PARAM = "param"        #: placeholder filled at activation creation
    CAPTURE = "capture"    #: placeholder filled from the closure environment
    CONST = "const"        #: literal value; fires immediately
    OP = "op"              #: application of an external (embedded) operator
    OPREF = "opref"        #: an operator used as a first-class value
    CLOSURE = "closure"    #: create a closure over a template
    CALL = "call"          #: call-closure: expand a closure's template
    IF = "if"              #: conditional: expand the chosen arm template
    TUPLE = "tuple"        #: build a multiple-value package
    UNTUPLE = "untuple"    #: decompose a multiple-value package


#: Node kinds that expand subgraphs at run time (the call-closure family).
EXPANDING_KINDS = frozenset({NodeKind.CALL, NodeKind.IF})


#: Ready-queue priority classes (section 7's three levels).  Defined here —
#: not in the scheduler — so :meth:`Template.finalize` can precompute each
#: node's priority once per template instead of per firing; the scheduler
#: re-exports them under the same names.
PRIORITY_NORMAL = 0
PRIORITY_CALL = 1
PRIORITY_RECURSIVE_CALL = 2


@dataclass(frozen=True, slots=True)
class Port:
    """A reference to output ``out`` of node ``node`` within a template."""

    node: int
    out: int = 0


@dataclass(slots=True)
class Node:
    """One coordination-graph node.

    Attributes
    ----------
    kind:
        The :class:`NodeKind`.
    inputs:
        Ports this node reads, in positional order.  Input counts by kind:
        ``PARAM``/``CAPTURE``/``CONST``/``OPREF`` take none; ``OP`` takes its
        operator's arguments; ``CLOSURE`` takes its captured values; ``CALL``
        takes the callee closure followed by call arguments; ``IF`` takes the
        condition, the then-arm captures, then the else-arm captures;
        ``TUPLE`` takes the package elements; ``UNTUPLE`` takes one package.
    n_outputs:
        Number of output ports (1 for everything except ``UNTUPLE``).
    value:
        Constant payload for ``CONST`` nodes.
    name:
        Operator name for ``OP``/``OPREF``; variable name for
        ``PARAM``/``CAPTURE`` (debugging / node-timing labels).
    template / then_template / else_template:
        Template *names* referenced by ``CLOSURE`` and ``IF`` nodes.
    n_then_captures:
        For ``IF``: how many of the capture inputs belong to the then arm
        (the rest belong to the else arm).
    recursive:
        For ``CALL``: the compiler proved the call is part of a recursive
        cycle; the scheduler gives such expansions the lowest priority.
    fused:
        For ``OP`` nodes produced by the fusion pass: the recipe
        ``(steps, untuple_n)`` where ``steps`` is a tuple of
        ``(op_name, arg_refs)`` entries executed in order and each arg ref
        is ``("i", k)`` (the fused node's k-th input) or ``("t", j)`` (the
        j-th step's result).  A folded ``IF`` adds *guarded* steps
        ``(op_name, arg_refs, (cond_ref, taken))`` — run only when
        ``is_truthy(cond) == taken``, its arms' operators — directly
        before a *select* ``("?", (cond, then_ref, else_ref))`` whose value
        is the taken arm's.  ``untuple_n > 0`` means the final step's
        package is decomposed in place: the fused node has ``untuple_n``
        outputs instead of one.  ``None`` for ordinary nodes.  The
        recipe is the node's whole artifact: each process generates the
        body it fires from it (:func:`repro.runtime.operators.fused_spec`).
    tail:
        The node's output *is* the template result; expansions inherit the
        parent continuation (constant-space loops).
    label:
        Human-readable label used by node-timing reports and the visualizer.
    """

    kind: NodeKind
    inputs: list[Port] = field(default_factory=list)
    n_outputs: int = 1
    value: object = None
    name: str = ""
    template: str = ""
    then_template: str = ""
    else_template: str = ""
    n_then_captures: int = 0
    recursive: bool = False
    fused: tuple | None = None
    tail: bool = False
    label: str = ""

    def arity(self) -> int:
        return len(self.inputs)


@dataclass
class Template:
    """A compiled Delirium function: a static, immutable subgraph.

    Attributes
    ----------
    name:
        Qualified function name (local functions get ``outer.inner`` names,
        compiler-generated loop functions ``outer.loop$k``, and conditional
        arms ``outer.if$k.then`` / ``.else``).
    params:
        Declared parameter names, in order.  Parameter ``i`` is node ``i``.
    captures:
        Free variables closed over, in order.  Capture ``j`` is node
        ``len(params) + j``.
    nodes:
        All nodes.  The first ``len(params) + len(captures)`` are the
        ``PARAM``/``CAPTURE`` placeholders.
    result:
        The port whose value is the template's result.
    consumers:
        Derived wiring: ``consumers[node][out]`` lists ``(dest_node,
        input_index)`` pairs.  Built by :meth:`finalize`.
    initial_ready:
        Derived: nodes with zero inputs that are not placeholders — these
        are ready the moment an activation is created.
    in_counts / priorities / result_node / result_out:
        Derived engine fast-path arrays: per-node input counts (activation
        ``missing`` seeds), per-node ready-queue priority class, and the
        result port as two plain ints — precomputed once here so the hot
        firing loops index arrays instead of re-deriving them per task.
    source_function:
        The unqualified Delirium function this template came from (arm and
        loop templates point at their host function).
    """

    name: str
    params: list[str] = field(default_factory=list)
    captures: list[str] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)
    result: Port | None = None
    consumers: list[list[list[tuple[int, int]]]] = field(default_factory=list)
    initial_ready: list[int] = field(default_factory=list)
    in_counts: list[int] = field(default_factory=list)
    priorities: list[int] = field(default_factory=list)
    result_node: int = -1
    result_out: int = -1
    source_function: str = ""

    # ------------------------------------------------------------------
    def n_placeholders(self) -> int:
        return len(self.params) + len(self.captures)

    def placeholder_names(self) -> list[str]:
        return list(self.params) + list(self.captures)

    def finalize(self) -> "Template":
        """Derive consumer lists and the initial ready set; validate wiring.

        Must be called once after construction; templates are treated as
        immutable afterwards (they are shared by every activation and, on
        the simulated machines, replicated per processor).
        """
        n = len(self.nodes)
        self.consumers = [
            [[] for _ in range(node.n_outputs)] for node in self.nodes
        ]
        for node_id, node in enumerate(self.nodes):
            for input_index, port in enumerate(node.inputs):
                if not (0 <= port.node < n):
                    raise GraphError(
                        f"template {self.name!r}: node {node_id} input "
                        f"{input_index} references missing node {port.node}"
                    )
                src = self.nodes[port.node]
                if not (0 <= port.out < src.n_outputs):
                    raise GraphError(
                        f"template {self.name!r}: node {node_id} reads "
                        f"output {port.out} of node {port.node}, which has "
                        f"only {src.n_outputs} outputs"
                    )
                self.consumers[port.node][port.out].append((node_id, input_index))
        if self.result is None:
            raise GraphError(f"template {self.name!r} has no result port")
        if not (0 <= self.result.node < n):
            raise GraphError(f"template {self.name!r}: result references missing node")
        self.initial_ready = [
            node_id
            for node_id, node in enumerate(self.nodes)
            if not node.inputs
            and node.kind not in (NodeKind.PARAM, NodeKind.CAPTURE)
        ]
        self.in_counts = [len(node.inputs) for node in self.nodes]
        self.priorities = [
            (
                (PRIORITY_RECURSIVE_CALL if node.recursive else PRIORITY_CALL)
                if node.kind is NodeKind.CALL
                else PRIORITY_CALL
                if node.kind is NodeKind.IF
                else PRIORITY_NORMAL
            )
            for node in self.nodes
        ]
        self.result_node = self.result.node
        self.result_out = self.result.out
        return self

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A compact one-template dump used by tests and the CLI."""
        lines = [f"template {self.name}({', '.join(self.params)})"]
        if self.captures:
            lines.append(f"  captures: {', '.join(self.captures)}")
        for node_id, node in enumerate(self.nodes):
            ins = ", ".join(
                f"{p.node}" if p.out == 0 else f"{p.node}.{p.out}"
                for p in node.inputs
            )
            extra = ""
            if node.kind is NodeKind.CONST:
                extra = f" value={node.value!r}"
            elif node.kind is NodeKind.OP and node.fused is not None:
                steps, untuple_n = node.fused
                chain = ">".join(step[0] for step in steps)
                if untuple_n:
                    chain += f">untuple{untuple_n}"
                extra = f" fused=[{chain}]"
            elif node.kind in (NodeKind.OP, NodeKind.OPREF):
                extra = f" op={node.name}"
            elif node.kind is NodeKind.CLOSURE:
                extra = f" template={node.template}"
            elif node.kind is NodeKind.IF:
                extra = f" then={node.then_template} else={node.else_template}"
            elif node.kind in (NodeKind.PARAM, NodeKind.CAPTURE):
                extra = f" name={node.name}"
            flags = "".join(
                f" [{f}]"
                for f in (
                    "tail" if node.tail else "",
                    "rec" if node.recursive else "",
                )
                if f
            )
            lines.append(f"  {node_id}: {node.kind.value}({ins}){extra}{flags}")
        assert self.result is not None
        lines.append(f"  result: {self.result.node}.{self.result.out}")
        return "\n".join(lines)


@dataclass
class GraphProgram:
    """A compiled program: every template plus the entry-point name.

    ``templates`` maps qualified names to templates.  ``entry`` names the
    template the runtime expands first (``main`` for whole programs; the
    compiler driver can also compile a single function for embedding).
    """

    templates: dict[str, Template] = field(default_factory=dict)
    entry: str = "main"

    def add(self, template: Template) -> Template:
        if template.name in self.templates:
            raise GraphError(f"duplicate template name {template.name!r}")
        self.templates[template.name] = template
        return template

    def template(self, name: str) -> Template:
        try:
            return self.templates[name]
        except KeyError:
            raise GraphError(f"no template named {name!r}") from None

    def entry_template(self) -> Template:
        return self.template(self.entry)

    def total_nodes(self) -> int:
        """Total node count across templates (the compiler's cost metric)."""
        return sum(len(t.nodes) for t in self.templates.values())

    def reachable_templates(self) -> set[str]:
        """Templates reachable from the entry through CLOSURE/IF references.

        Every dynamic expansion goes through a closure created by a
        ``CLOSURE`` node or an arm named by an ``IF`` node, so static
        reachability is exact.
        """
        seen: set[str] = set()
        frontier = [self.entry]
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self.templates:
                continue
            seen.add(name)
            for node in self.templates[name].nodes:
                if node.kind is NodeKind.CLOSURE:
                    frontier.append(node.template)
                elif node.kind is NodeKind.IF:
                    frontier.append(node.then_template)
                    frontier.append(node.else_template)
        return seen

    def prune_unreachable(self) -> int:
        """Drop templates unreachable from the entry; returns the count.

        The graph-level complement of dead-code elimination: after
        inlining, whole helper templates can become dead weight —
        "unnecessary nodes in the graph translate into extra overhead"
        (and, on the simulated machines, replicated template memory).
        """
        reachable = self.reachable_templates()
        dead = [name for name in self.templates if name not in reachable]
        for name in dead:
            del self.templates[name]
        return len(dead)

    def memory_bytes(self, per_node: int = 64, per_edge: int = 16) -> int:
        """Rough byte size of the static templates.

        Used by the section-7 experiment showing templates dominate runtime
        memory and are worth replicating per processor.
        """
        nodes = self.total_nodes()
        edges = sum(
            len(node.inputs) for t in self.templates.values() for node in t.nodes
        )
        return nodes * per_node + edges * per_edge
