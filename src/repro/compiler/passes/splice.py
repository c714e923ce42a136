"""Inline expansion of calls around a recursive cycle, on the graphs.

The AST inliner (:mod:`.inline`) refuses every callee on a call-graph
cycle, which in a backtracking or mutually recursive program is every
function (the paper's section 3: ``do_it`` <-> ``try``).  Cloning such a
body on the AST would clone its conditional arms with it; here only the
callee's *own* nodes are copied into the caller's template and its ``IF``
nodes keep naming the same arm templates, so the graph does not grow::

    do_it:  closure(try); call(., board, queen, 1)      (six times)
        =>  add_queen(board, queen, 1); is_valid(.); if(...) then=try.if$1.then

Each cycle of two or more functions first gets **loop breakers**, which
stay calls: every member that calls itself (so each lowered ``iterate``
loop), then the member with the largest own template of whatever cycle
is left, until none is.  The other members are *spliceable* when they
are top-level, capture-free and at most :data:`SPLICE_MAX_NODES` nodes;
every ``CALL`` that names one through an input-less ``CLOSURE`` and
passes as many arguments as it has parameters is replaced by a copy of
its body.  Everything else is left as it is: arity mismatches (the
run-time error must survive), computed or capturing callees, breakers.

Every node of a template fires exactly once and arms stay lazy, so a
splice only removes work — the ``CALL`` firing and the activation — and
single assignment makes the earlier firing of the copied nodes invisible
in results.  This is the graph half of the ``inline`` pass
(:data:`.pipeline.PASSES`): it runs, after template generation, exactly
when ``inline`` is enabled, and its one stat is ``inline.spliced``.
"""

from __future__ import annotations

from ...graph.ir import GraphProgram, Node, NodeKind, Port, Template
from ...runtime.operators import OperatorRegistry
from ..analysis import ProgramAnalysis, strongly_connected_components

#: Largest callee body (non-placeholder nodes of its own template; arm
#: templates are shared, not copied) that is spliced into its callers.
SPLICE_MAX_NODES = 8


def _own_size(template: Template) -> int:
    return len(template.nodes) - template.n_placeholders()


def _callee_first(
    members: list[str], analysis: ProgramAnalysis, graph: GraphProgram
) -> list[str]:
    """The members of one cycle that are not loop breakers, callees first."""
    functions = analysis.env.functions
    left = {m: functions[m].calls for m in members if m not in functions[m].calls}
    while True:
        # Successors that are not (or no longer) vertices are ignored.
        components = strongly_connected_components(left)
        cyclic = [m for c in components if len(c) > 1 for m in c]
        if not cyclic:
            return [c[0] for c in components]
        del left[min(cyclic, key=lambda m: (-_own_size(graph.templates[m]), m))]


def _copy(node: Node, inputs: list[Port], tail: bool) -> Node:
    return Node(
        kind=node.kind,
        inputs=inputs,
        n_outputs=node.n_outputs,
        value=node.value,
        name=node.name,
        template=node.template,
        then_template=node.then_template,
        else_template=node.else_template,
        n_then_captures=node.n_then_captures,
        recursive=node.recursive,
        fused=node.fused,
        tail=tail,
        label=node.label,
    )


def _splice(template: Template, callee: Template) -> int:
    """Replace ``template``'s calls of ``callee`` by its body; returns how many."""
    nodes = template.nodes
    n_params = len(callee.params)
    closures = {
        i
        for i, node in enumerate(nodes)
        if node.kind is NodeKind.CLOSURE
        and node.template == callee.name
        and not node.inputs
    }
    sites = {
        i
        for i, node in enumerate(nodes)
        if node.kind is NodeKind.CALL
        and len(node.inputs) == n_params + 1
        and node.inputs[0].node in closures
    }
    if not sites:
        return 0
    # A closure node goes when nothing but spliced calls read it.
    gone = {
        c
        for c in {nodes[i].inputs[0].node for i in sites}
        if template.result.node != c
        and all(d in sites and k == 0 for d, k in template.consumers[c][0])
    }
    body = callee.nodes[n_params:]
    result = callee.result
    # Where each surviving node lands (for a site: where its copy starts).
    new_id, next_id = [], 0
    for i in range(len(nodes)):
        new_id.append(next_id)
        if i in sites:
            next_id += len(body)
        elif i not in gone:
            next_id += 1

    def moved(port: Port) -> Port:
        """The port of the new node list that carries what ``port`` did."""
        while port.node in sites:
            if result.node >= n_params:
                return Port(new_id[port.node] + result.node - n_params, result.out)
            # The callee returns a parameter: forward the argument.
            port = nodes[port.node].inputs[1 + result.node]
        at = new_id[port.node]
        return port if at == port.node else Port(at, port.out)

    out: list[Node] = []
    for i, node in enumerate(nodes):
        if i in sites:
            base = new_id[i] - n_params
            out.extend(
                _copy(
                    b,
                    [
                        moved(node.inputs[1 + p.node])
                        if p.node < n_params
                        else Port(base + p.node, p.out)
                        for p in b.inputs
                    ],
                    b.tail and node.tail,
                )
                for b in body
            )
        elif i not in gone:
            node.inputs = [moved(p) for p in node.inputs]
            out.append(node)
    template.result = moved(template.result)
    template.nodes = out
    template.finalize()
    return len(sites)


def run(
    graph: GraphProgram, analysis: ProgramAnalysis, registry: OperatorRegistry
) -> dict[str, int]:
    """Splice every spliceable cycle member into its callers, in place;
    ``inline.spliced`` counts the call sites replaced."""
    if not analysis.cyclic_sccs:
        return {}
    spliced = 0
    top_level = set(analysis.env.top_level)
    for scc_id in sorted(analysis.cyclic_sccs):
        members = [m for m in analysis.components[scc_id] if m in graph.templates]
        if len(members) < 2:
            continue
        for name in _callee_first(members, analysis, graph):
            callee = graph.templates[name]
            if (
                name in top_level
                and not callee.captures
                and _own_size(callee) <= SPLICE_MAX_NODES
            ):
                for template in graph.templates.values():
                    spliced += _splice(template, callee)
    if not spliced:
        return {}
    graph.prune_unreachable()
    return {"inline.spliced": spliced}
