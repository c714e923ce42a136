"""Serialization of compiled coordination graphs.

Templates are static — "the templates do not change at runtime" (section
7) — which makes them trivially serializable.  A compiled program can be
saved as JSON and reloaded later (or shipped to another process), skipping
the compiler entirely; only the operator registry (Python code) must be
present at load time, exactly as the original system needed the compiled
C operators linked in.

Constant values inside templates are restricted to JSON-representable
atoms plus ``NULL`` and the compiler's self-capture placeholder; that is
all the compiler ever emits (operators, not constants, carry application
data).
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import GraphError
from ..runtime.values import NULL, _SELF
from .ir import GraphProgram, Node, NodeKind, Port, Template
from .validate import validate_program

#: Format version; bump on breaking changes.
FORMAT_VERSION = 1

#: Written only for a graph with a guarded fused step (a folded ``IF``).
GUARDED_FORMAT_VERSION = 2

#: Revision of what the compiler emits; bump whenever identical source,
#: defines and passes can compile to a different graph (the compile cache
#: hashes it).  2: calls around a recursive cycle are spliced.  3: ``fuse``
#: grows single-exit regions where it collapsed linear chains.  4: ``fuse``
#: folds an ``IF`` whose arms are cheap operators into its region.  5: a
#: fused node no longer carries generated source (it is made from the
#: recipe at load).  6: an operator node no longer carries static last-use
#: edges (the engine's sole-reference check is the only copy decision).
#: 7: CSE keys a nested ``let`` on its structure, not its text, and
#: ``constprop`` folds only a value the language can spell.
COMPILER_REVISION = 7

_NULL_MARKER = {"$delirium": "null"}
_SELF_MARKER = {"$delirium": "self"}


def _encode_value(value: Any) -> Any:
    if value is NULL:
        return _NULL_MARKER
    if value is _SELF:
        return _SELF_MARKER
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise GraphError(
        f"cannot serialize constant of type {type(value).__name__}; "
        "templates may only hold atomic constants"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        kind = value.get("$delirium")
        if kind == "null":
            return NULL
        if kind == "self":
            return _SELF
        raise GraphError(f"unknown constant marker {value!r}")
    return value


def _encode_node(node: Node) -> dict:
    out: dict[str, Any] = {
        "kind": node.kind.value,
        "inputs": [[p.node, p.out] for p in node.inputs],
    }
    if node.n_outputs != 1:
        out["n_outputs"] = node.n_outputs
    if node.kind is NodeKind.CONST:
        out["value"] = _encode_value(node.value)
    if node.name:
        out["name"] = node.name
    if node.template:
        out["template"] = node.template
    if node.then_template:
        out["then_template"] = node.then_template
        out["else_template"] = node.else_template
        out["n_then_captures"] = node.n_then_captures
    if node.recursive:
        out["recursive"] = True
    if node.fused is not None:
        steps, untuple_n = node.fused
        out["fused"] = {
            "steps": [
                [step[0], [[kind, k] for kind, k in step[1]]]
                + ([[list(step[2][0]), step[2][1]]] if len(step) > 2 else [])
                for step in steps
            ],
            "untuple": untuple_n,
        }
    if node.tail:
        out["tail"] = True
    if node.label:
        out["label"] = node.label
    return out


def _decode_step(op_name: str, refs: list, *guard: list) -> tuple:
    step = (op_name, tuple((kind, int(k)) for kind, k in refs))
    if guard:
        ((kind, k), taken), = guard
        step += (((kind, int(k)), taken),)
    return step


def _decode_node(data: dict) -> Node:
    node = Node(
        kind=NodeKind(data["kind"]),
        inputs=[Port(int(n), int(o)) for n, o in data.get("inputs", [])],
        n_outputs=int(data.get("n_outputs", 1)),
        name=data.get("name", ""),
        template=data.get("template", ""),
        then_template=data.get("then_template", ""),
        else_template=data.get("else_template", ""),
        n_then_captures=int(data.get("n_then_captures", 0)),
        recursive=bool(data.get("recursive", False)),
        tail=bool(data.get("tail", False)),
        label=data.get("label", ""),
    )
    if node.kind is NodeKind.CONST:
        node.value = _decode_value(data.get("value"))
    fused = data.get("fused")
    if fused is not None:
        node.fused = (
            tuple(_decode_step(*step) for step in fused["steps"]),
            int(fused.get("untuple", 0)),
        )
    # Keys this build does not read are ignored, among them two that older
    # builds stored: the generated ``codegen`` text (a body is made from
    # its recipe) and per-edge last-use lists (the engine decides every
    # copy from the reference count).
    return node


def program_to_dict(program: GraphProgram) -> dict:
    """A JSON-representable dict for a whole compiled program."""
    return {
        "format": GUARDED_FORMAT_VERSION if _guarded(program) else FORMAT_VERSION,
        "entry": program.entry,
        "templates": {
            name: {
                "params": t.params,
                "captures": t.captures,
                "result": [t.result.node, t.result.out] if t.result else None,
                "source_function": t.source_function,
                "nodes": [_encode_node(n) for n in t.nodes],
            }
            for name, t in program.templates.items()
        },
    }


def _guarded(program: GraphProgram) -> bool:
    nodes = [n for t in program.templates.values() for n in t.nodes if n.fused]
    return any(len(step) > 2 for n in nodes for step in n.fused[0])


def program_from_dict(data: dict) -> GraphProgram:
    """Rebuild (and re-finalize) a program from :func:`program_to_dict`."""
    version = data.get("format")
    if version not in (FORMAT_VERSION, GUARDED_FORMAT_VERSION):
        raise GraphError(
            f"unsupported graph format {version!r} (this build reads "
            f"versions {FORMAT_VERSION} and {GUARDED_FORMAT_VERSION})"
        )
    program = GraphProgram(entry=data["entry"])
    for name, tdata in data["templates"].items():
        template = Template(
            name=name,
            params=list(tdata["params"]),
            captures=list(tdata["captures"]),
            source_function=tdata.get("source_function", ""),
        )
        template.nodes = [_decode_node(nd) for nd in tdata["nodes"]]
        result = tdata.get("result")
        if result is not None:
            template.result = Port(int(result[0]), int(result[1]))
        program.add(template.finalize())
    if version == FORMAT_VERSION and _guarded(program):
        raise GraphError("graph format 1 cannot carry a guarded fused step")
    return program


def dumps(program: GraphProgram, indent: int | None = None) -> str:
    """Serialize a compiled program to JSON text."""
    return json.dumps(program_to_dict(program), indent=indent)


def loads(text: str) -> GraphProgram:
    """Load a compiled program from JSON text (a ``.dlc`` file, a compile
    cache entry).  Whatever is wrong with it — not JSON, a missing key, a
    graph :func:`validate_program` refuses — is one :class:`GraphError`,
    raised before anything can fire."""
    try:
        program = program_from_dict(json.loads(text))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(
            f"malformed graph file: {type(exc).__name__}: {exc}"
        ) from exc
    validate_program(program)
    return program


def save(program: GraphProgram, path: str) -> None:
    """Write a compiled program to a ``.dlc`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(program))


def load(path: str) -> GraphProgram:
    """Read a compiled program from a ``.dlc`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
