"""Structural validation of coordination graphs.

The compiler is trusted to emit well-formed templates (``Template.finalize``
already checks wiring), but hand-built graphs, corrupted pickles, and — most
importantly — compiler bugs caught by the test suite deserve a precise
diagnosis.  :func:`validate_program` checks the whole-program invariants:

* every template referenced by a ``CLOSURE``/``IF`` node exists and its
  capture arity matches the referencing node;
* templates are acyclic (data flows forward only — cycles would deadlock
  the firing rule);
* placeholders are exactly the leading nodes and never fire on their own;
* fused recipes satisfy their static rules (:func:`fusion_violation`);
* ``IF`` capture splits are consistent; ``UNTUPLE`` output counts are
  positive; every non-placeholder node is reachable... every node's value
  is *used* somewhere or is the result (an unused node is legal — DCE
  exists because they occur — so that last one is reported as a statistic,
  not an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import GraphError
from ..runtime.operators import SELECT, fused_name
from .ir import GraphProgram, NodeKind, Template


@dataclass
class ValidationReport:
    """What validation found (errors raise; oddities are recorded)."""

    templates_checked: int = 0
    #: (template, node_id) pairs whose outputs are never consumed and are
    #: not the template result — dead nodes the optimizer left behind.
    dead_nodes: list[tuple[str, int]] = field(default_factory=list)


def _check_acyclic(template: Template) -> None:
    """Data edges must flow from lower topological layers only.

    Because builders append nodes in evaluation order, inputs normally
    reference earlier nodes; but the invariant worth checking is the
    semantic one — no cycles — so run a proper Kahn pass.
    """
    n = len(template.nodes)
    indegree = [len(node.inputs) for node in template.nodes]
    ready = [i for i, d in enumerate(indegree) if d == 0]
    seen = 0
    while ready:
        node_id = ready.pop()
        seen += 1
        for out_consumers in template.consumers[node_id]:
            for dest, _ in out_consumers:
                indegree[dest] -= 1
                if indegree[dest] == 0:
                    ready.append(dest)
    if seen != n:
        raise GraphError(
            f"template {template.name!r} contains a data-dependency cycle"
        )


def _check_placeholders(template: Template) -> None:
    n_ph = template.n_placeholders()
    for i, node in enumerate(template.nodes):
        is_leading = i < n_ph
        is_placeholder = node.kind in (NodeKind.PARAM, NodeKind.CAPTURE)
        if is_leading != is_placeholder:
            raise GraphError(
                f"template {template.name!r}: node {i} "
                f"({node.kind.value}) violates the placeholder layout "
                f"(the first {n_ph} nodes must be the placeholders)"
            )
        if is_placeholder and node.inputs:
            raise GraphError(
                f"template {template.name!r}: placeholder {i} has inputs"
            )


def _check_references(
    template: Template, program: GraphProgram
) -> None:
    for i, node in enumerate(template.nodes):
        if node.kind is NodeKind.CLOSURE:
            target = program.templates.get(node.template)
            if target is None:
                raise GraphError(
                    f"template {template.name!r}: closure node {i} "
                    f"references missing template {node.template!r}"
                )
            if len(node.inputs) != len(target.captures):
                raise GraphError(
                    f"template {template.name!r}: closure node {i} supplies "
                    f"{len(node.inputs)} capture(s); {target.name!r} "
                    f"declares {len(target.captures)}"
                )
        elif node.kind is NodeKind.IF:
            for attr in ("then_template", "else_template"):
                name = getattr(node, attr)
                target = program.templates.get(name)
                if target is None:
                    raise GraphError(
                        f"template {template.name!r}: if node {i} references "
                        f"missing arm template {name!r}"
                    )
                if target.params:
                    raise GraphError(
                        f"arm template {name!r} must not declare parameters"
                    )
            then_t = program.templates[node.then_template]
            else_t = program.templates[node.else_template]
            want = 1 + len(then_t.captures) + len(else_t.captures)
            if len(node.inputs) != want:
                raise GraphError(
                    f"template {template.name!r}: if node {i} has "
                    f"{len(node.inputs)} input(s); expected {want} "
                    "(condition + both arms' captures)"
                )
            if node.n_then_captures != len(then_t.captures):
                raise GraphError(
                    f"template {template.name!r}: if node {i} capture split "
                    "disagrees with the then-arm template"
                )
        elif node.kind is NodeKind.UNTUPLE:
            if node.n_outputs < 1:
                raise GraphError(
                    f"template {template.name!r}: untuple node {i} has "
                    f"{node.n_outputs} outputs"
                )


def fusion_violation(
    template: Template, node_id: int, registry: Any = None
) -> str | None:
    """Why node ``node_id``'s fused recipe must NOT be run, or ``None``.

    In a recipe ``(steps, untuple_n)`` a step's ``("t", j)`` names an
    *earlier* step (steps replay in order inside one frame) and its
    ``("i", k)`` one of the node's inputs; every input is read by some
    step (an unread one would hold the fire back for nothing);
    ``untuple_n`` agrees with the output ports; the guarded steps of an
    ``IF`` precede its select; ``name`` spells the recipe, so no two
    recipes share a spec-cache or code-cache slot.  With the operator
    ``registry`` the program will run against, every member must resolve
    in it and declare no ``modifies``, and none may be named the select.
    What is refused here
    would otherwise be an ``IndexError`` inside the first fire, or a wrong
    value.
    """
    node = template.nodes[node_id]
    steps, untuple_n = node.fused
    if node.kind is not NodeKind.OP or not steps:
        return "it is not an operator node with at least one step"
    pending = None  # the condition of guarded steps awaiting their select
    for j, step in enumerate(steps):
        if len(step) not in (2, 3):
            return f"step {j} is not (name, refs) or (name, refs, guard)"
        (name, refs), guard = step[:2], step[2] if len(step) == 3 else None
        if guard is not None and type(guard[1]) is not bool:
            return f"step {j} has a guard whose arm is not true or false"
        for kind, k in refs + (guard[:1] if guard else ()):
            if kind not in ("i", "t"):
                return f"step {j} has an argument of unknown kind {kind!r}"
            if kind == "t" and not 0 <= k < j:
                return f"step {j} reads step {k}, which is not an earlier step"
            if kind == "i" and not 0 <= k < len(node.inputs):
                n = len(node.inputs)
                return f"step {j} reads input {k}; the node has {n} input(s)"
        if name == SELECT and (guard or len(refs) != 3):
            return f"select step {j} is guarded or does not have 3 refs"
        # Guarded steps run under one condition, then their select names it.
        cond = guard[0] if guard else refs[0] if name == SELECT else None
        if pending not in (None, cond):
            return f"step {j} breaks off the guarded steps before it"
        pending = cond if guard else None
        # A guarded value exists only under its guard: read it under the
        # same guard, or as the matching arm of its select.
        for pos, (kind, k) in enumerate(refs):
            want = (refs[0], pos == 1) if name == SELECT and pos else guard
            if kind == "t" and len(steps[k]) == 3 and steps[k][2] != want:
                return f"step {j} reads guarded step {k} outside its arm"
    if pending is not None:
        return "its last guarded steps have no select"
    read = {k for step in steps for kind, k in step[1] if kind == "i"}
    unread = set(range(len(node.inputs))) - read
    if unread:
        return f"input(s) {sorted(unread)} are read by no step"
    if node.n_outputs != (untuple_n or 1):
        return (
            f"untuple count {untuple_n} disagrees with the node's "
            f"{node.n_outputs} output(s)"
        )
    if node.name != fused_name(steps, untuple_n):
        return "its name does not spell its recipe"
    if registry is not None:
        if SELECT in registry:
            return f"the registry defines an operator named {SELECT!r}"
        for name in [step[0] for step in steps if step[0] != SELECT]:
            if name not in registry:
                return f"member {name!r} is not a registered operator"
            if registry.get(name).modifies:
                return f"member {name!r} declares modifies"
    return None


def _check_fusions(template: Template, registry: Any) -> None:
    for node_id, node in enumerate(template.nodes):
        if node.fused is None:
            continue
        reason = fusion_violation(template, node_id, registry)
        if reason is not None:
            raise GraphError(
                f"template {template.name!r}: node {node_id} carries a "
                f"fused recipe, but {reason}"
            )


def _find_dead_nodes(template: Template, report: ValidationReport) -> None:
    assert template.result is not None
    for node_id, node in enumerate(template.nodes):
        if node.kind in (NodeKind.PARAM, NodeKind.CAPTURE):
            continue
        used = any(template.consumers[node_id][o] for o in range(node.n_outputs))
        is_result = template.result.node == node_id
        if not used and not is_result:
            report.dead_nodes.append((template.name, node_id))


def validate_template(
    template: Template, program: GraphProgram, registry: Any = None
) -> None:
    """Check one template; raises :class:`GraphError` on violations."""
    if not template.consumers:
        raise GraphError(
            f"template {template.name!r} was not finalized (call finalize())"
        )
    _check_placeholders(template)
    _check_acyclic(template)
    _check_references(template, program)
    _check_fusions(template, registry)


def validate_program(
    program: GraphProgram, registry: Any = None
) -> ValidationReport:
    """Validate every template plus whole-program invariants.

    ``registry`` is the :class:`~repro.runtime.operators.OperatorRegistry`
    the program will run against, when the caller has one: fused recipes
    are then also checked against it (:func:`fusion_violation`)."""
    if program.entry not in program.templates:
        raise GraphError(f"entry template {program.entry!r} is missing")
    report = ValidationReport()
    for template in program.templates.values():
        validate_template(template, program, registry)
        _find_dead_nodes(template, report)
        report.templates_checked += 1
    entry = program.entry_template()
    if entry.captures:
        raise GraphError(
            f"entry template {entry.name!r} must not have captures"
        )
    return report
