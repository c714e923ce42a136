"""Visualization of coordination frameworks.

The paper's environment includes "a visualization tool for coordination
frameworks"; one can "completely discover the topology of the program's
parallel execution simply by reading its Delirium code" — or by rendering
the compiled graphs.  Three renderers:

* :func:`to_networkx` — a ``networkx.DiGraph`` for programmatic analysis
  (critical paths, widths, and the property tests use it);
* :func:`to_dot` — Graphviz DOT text, one cluster per template;
* :func:`ascii_framework` — a terminal rendering of each template as
  layered stages, showing the parallel width of every stage (four
  ``convol_bite`` nodes side by side *is* the retina story).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ir import GraphProgram, NodeKind, Template

if TYPE_CHECKING:
    import networkx as nx


def _node_title(template: Template, node_id: int) -> str:
    node = template.nodes[node_id]
    if node.kind is NodeKind.OP:
        return node.name
    if node.kind in (NodeKind.PARAM, NodeKind.CAPTURE):
        return f"{node.kind.value}:{node.name}"
    if node.kind is NodeKind.CONST:
        return f"const {node.value!r}"
    if node.kind is NodeKind.CLOSURE:
        return f"closure {node.template}"
    if node.kind is NodeKind.CALL:
        return node.label or "call"
    if node.kind is NodeKind.IF:
        return node.label or "if"
    return node.label or node.kind.value


def to_networkx(program: GraphProgram) -> "nx.DiGraph":
    """The whole program as one digraph.

    Node ids are ``"template:node_id"`` strings; data edges carry
    ``kind="data"``; template references (closure/if) carry
    ``kind="expands"`` edges from the referencing node to the target
    template's result node, capturing the dynamic-expansion topology.
    """
    # Imported on use: a tenth of a second no compile or run needs.
    import networkx as nx

    g = nx.DiGraph()
    for template in program.templates.values():
        for node_id, node in enumerate(template.nodes):
            g.add_node(
                f"{template.name}:{node_id}",
                template=template.name,
                kind=node.kind.value,
                title=_node_title(template, node_id),
                tail=node.tail,
                recursive=node.recursive,
            )
        for node_id, node in enumerate(template.nodes):
            for port in node.inputs:
                g.add_edge(
                    f"{template.name}:{port.node}",
                    f"{template.name}:{node_id}",
                    kind="data",
                )
    for template in program.templates.values():
        for node_id, node in enumerate(template.nodes):
            targets = []
            if node.kind is NodeKind.CLOSURE:
                targets = [node.template]
            elif node.kind is NodeKind.IF:
                targets = [node.then_template, node.else_template]
            for target in targets:
                t = program.templates.get(target)
                if t is not None and t.result is not None:
                    g.add_edge(
                        f"{template.name}:{node_id}",
                        f"{target}:{t.result.node}",
                        kind="expands",
                    )
    return g


def to_dot(program: GraphProgram) -> str:
    """Graphviz DOT text, one cluster per template."""
    lines = ["digraph delirium {", "  rankdir=TB;", "  node [shape=box];"]
    for ti, template in enumerate(program.templates.values()):
        lines.append(f"  subgraph cluster_{ti} {{")
        lines.append(f'    label="{template.name}";')
        for node_id, node in enumerate(template.nodes):
            title = _node_title(template, node_id).replace('"', "'")
            style = ""
            if node.kind in (NodeKind.PARAM, NodeKind.CAPTURE):
                style = ", shape=ellipse"
            elif node.kind in (NodeKind.CALL, NodeKind.IF):
                style = ", shape=hexagon"
            assert template.result is not None
            if template.result.node == node_id:
                style += ", peripheries=2"
            lines.append(
                f'    "{template.name}:{node_id}" [label="{title}"{style}];'
            )
        for node_id, node in enumerate(template.nodes):
            for port in node.inputs:
                lines.append(
                    f'    "{template.name}:{port.node}" -> '
                    f'"{template.name}:{node_id}";'
                )
        lines.append("  }")
    for template in program.templates.values():
        for node_id, node in enumerate(template.nodes):
            targets = []
            if node.kind is NodeKind.CLOSURE:
                targets = [node.template]
            elif node.kind is NodeKind.IF:
                targets = [node.then_template, node.else_template]
            for target in targets:
                if target in program.templates:
                    lines.append(
                        f'  "{template.name}:{node_id}" -> "{target}:0" '
                        "[style=dashed, constraint=false];"
                    )
    lines.append("}")
    return "\n".join(lines)


def template_layers(template: Template) -> list[list[int]]:
    """Topological layers of a template (nodes grouped by dependency depth).

    Layer k contains nodes whose longest dependency chain from a source
    has length k.  The width of a layer is the parallelism available at
    that stage — what the paper's framework diagrams convey.
    """
    depth = [0] * len(template.nodes)
    for node_id, node in enumerate(template.nodes):
        for port in node.inputs:
            depth[node_id] = max(depth[node_id], depth[port.node] + 1)
        # Builders append in dependency order, so one pass suffices; the
        # validator guarantees acyclicity.
    layers: dict[int, list[int]] = {}
    for node_id, d in enumerate(depth):
        layers.setdefault(d, []).append(node_id)
    return [layers[d] for d in sorted(layers)]


def ascii_framework(program: GraphProgram, entry_only: bool = False) -> str:
    """Terminal rendering: each template as layered parallel stages."""
    out: list[str] = []
    names = [program.entry] if entry_only else list(program.templates)
    for name in names:
        template = program.templates[name]
        out.append(f"=== {template.name}({', '.join(template.params)}) ===")
        if template.captures:
            out.append(f"    captures: {', '.join(template.captures)}")
        for layer in template_layers(template):
            titles = [_node_title(template, i) for i in layer]
            out.append("    " + "  |  ".join(titles))
        assert template.result is not None
        out.append(f"    -> result: {_node_title(template, template.result.node)}")
        out.append("")
    return "\n".join(out)
