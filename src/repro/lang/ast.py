"""Abstract syntax tree for Delirium.

The language has exactly the six constructs listed in section 3 of the
paper:

1. atomic values (integers, strings, floats) — :class:`Literal`, plus the
   distinguished :class:`Null` value used by conditional arms;
2. multiple values — :class:`TupleExpr` construction and
   :class:`TupleBinding` decomposition;
3. let bindings — :class:`Let` with :class:`SimpleBinding`,
   :class:`TupleBinding`, or :class:`FunBinding` (local function
   definition);
4. conditionals — :class:`If`;
5. iteration — :class:`Iterate` (compiled into tail-recursive functions by
   the lowering pass);
6. function or operator application — :class:`Apply`.

Every node carries a source position and supports :meth:`Node.children` so
generic tree walks (the optimization passes and the parallel tree-walk case
study) need no per-node dispatch.  Nodes are mutable dataclasses: the
optimizer rewrites trees in place where convenient and rebuilds where not.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, fields
from typing import Iterator


@functools.cache
def _child_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of node class ``cls`` that hold child nodes (a
    node or a list of nodes), in dataclass field order.  Worked out once
    per class, so traversal never reflects per node."""
    hints = typing.get_type_hints(cls)
    names = []
    for f in fields(cls):
        held = typing.get_args(hints[f.name]) or (hints[f.name],)
        if isinstance(held[0], type) and issubclass(held[0], Node):
            names.append(f.name)
    return tuple(names)


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True, compare=False)
    column: int = field(default=0, kw_only=True, compare=False)

    def children(self) -> list["Node"]:
        """Direct child nodes, in source order (dataclass field order)."""
        out: list[Node] = []
        for name in _child_fields(type(self)):
            v = getattr(self, name)
            if isinstance(v, Node):
                out.append(v)
            elif v:
                out.extend(v)
        return out

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order.

        One loop over an explicit stack: depth is bounded by memory, not
        by the interpreter's recursion limit.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += node.children()[::-1]

    def size(self) -> int:
        """Number of nodes in this subtree (the paper's subtree 'weight')."""
        return sum(1 for _ in self.walk())

    def clone(self) -> "Node":
        """A copy of this subtree, positions included, sharing no node or
        list with it (``copy.deepcopy`` of a tree, without the memo)."""
        new = object.__new__(type(self))
        new.__dict__ = state = self.__dict__.copy()
        for name, v in state.items():
            if type(v) is list:
                state[name] = [x.clone() if isinstance(x, Node) else x for x in v]
            elif isinstance(v, Node):
                state[name] = v.clone()
        return new


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """An atomic value: integer, float, or string."""

    value: object = None


@dataclass
class Null(Expr):
    """The distinguished ``NULL`` value (used e.g. by failed queens tries)."""


@dataclass
class Var(Expr):
    """A reference to a bound name (variable, parameter, or function)."""

    name: str = ""


@dataclass
class TupleExpr(Expr):
    """Multiple-value construction: ``<e1, e2, ..., en>``."""

    items: list[Expr] = field(default_factory=list)


@dataclass
class Apply(Expr):
    """Function or operator application: ``callee(arg1, ..., argn)``.

    ``callee`` is an arbitrary expression; the common case is a :class:`Var`
    naming an operator or a Delirium function.  When the callee is not a
    statically known operator the compiler emits a call-closure node.
    """

    callee: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)


@dataclass
class If(Expr):
    """Conditional: ``if cond then then_expr else else_expr``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    orelse: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------


@dataclass
class Binding(Node):
    """Base class for the three binding forms inside ``let``."""

    def bound_names(self) -> list[str]:
        raise NotImplementedError


@dataclass
class SimpleBinding(Binding):
    """``name = expr``."""

    name: str = ""
    expr: Expr = None  # type: ignore[assignment]

    def bound_names(self) -> list[str]:
        return [self.name]


@dataclass
class TupleBinding(Binding):
    """``<a, b, c> = expr`` — decompose a multiple-value package."""

    names: list[str] = field(default_factory=list)
    expr: Expr = None  # type: ignore[assignment]

    def bound_names(self) -> list[str]:
        return list(self.names)


@dataclass
class FunBinding(Binding):
    """A local function definition appearing as a let binding."""

    func: "FunDef" = None  # type: ignore[assignment]

    def bound_names(self) -> list[str]:
        return [self.func.name]


@dataclass
class Let(Expr):
    """``let b1 ... bn in body``.

    Bindings in one ``let`` are mutually visible only lexically downward
    (each binding sees earlier bindings and enclosing scopes; local function
    definitions additionally see themselves, enabling recursion).  Any two
    bindings without a data dependency may execute in parallel — that is the
    whole point of the notation.
    """

    bindings: list[Binding] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


@dataclass
class LoopVar(Node):
    """One loop variable of an ``iterate``: ``target = init, update``.

    ``target`` is a single name (the usual case).  ``init`` is evaluated
    once before the first test; ``update`` is evaluated on every iteration
    whose test succeeded, with all loop variables of the *previous*
    iteration in scope (simultaneous rebinding, like Scheme's ``do``).
    """

    name: str = ""
    init: Expr = None  # type: ignore[assignment]
    update: Expr = None  # type: ignore[assignment]


@dataclass
class Iterate(Expr):
    """``iterate { v1=i1,u1  v2=i2,u2 ... } while cond, result expr``.

    Semantics (section 5 of the paper; while-do): bind every ``init``;
    while ``cond`` holds, simultaneously rebind every variable to its
    ``update``; when ``cond`` fails, the value of the construct is
    ``result``.  The lowering pass compiles this to a tail-recursive
    function, which the runtime executes with activation reuse.
    """

    loopvars: list[LoopVar] = field(default_factory=list)
    cond: Expr = None  # type: ignore[assignment]
    result: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class FunDef(Node):
    """A named function: ``name(p1, ..., pn) body``."""

    name: str = ""
    params: list[str] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]


@dataclass
class Program(Node):
    """A whole Delirium program: a set of functions, one called ``main``."""

    functions: list[FunDef] = field(default_factory=list)

    def function(self, name: str) -> FunDef:
        """Return the function named ``name`` (KeyError if absent)."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def function_names(self) -> list[str]:
        return [f.name for f in self.functions]


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------


def unparse(node: Node, indent: int = 0) -> str:
    """Render an AST back to concrete Delirium syntax.

    The output re-parses to an equal AST (tested property), which makes it
    usable both as a debugging aid and as the canonical structural key for
    common-subexpression elimination.
    """
    pad = "  " * indent
    if isinstance(node, Program):
        return "\n\n".join(unparse(f) for f in node.functions) + "\n"
    if isinstance(node, FunDef):
        head = f"{node.name}({', '.join(node.params)})"
        return f"{pad}{head}\n{unparse(node.body, indent + 1)}"
    if isinstance(node, Literal):
        if isinstance(node.value, str):
            escaped = node.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'{pad}"{escaped}"'
        return f"{pad}{node.value!r}"
    if isinstance(node, Null):
        return f"{pad}NULL"
    if isinstance(node, Var):
        return f"{pad}{node.name}"
    if isinstance(node, TupleExpr):
        inner = ", ".join(unparse(e).strip() for e in node.items)
        return f"{pad}<{inner}>"
    if isinstance(node, Apply):
        callee = unparse(node.callee).strip()
        if not isinstance(node.callee, Var):
            callee = f"({callee})"
        args = ", ".join(unparse(a).strip() for a in node.args)
        return f"{pad}{callee}({args})"
    if isinstance(node, If):
        return (
            f"{pad}if {unparse(node.cond).strip()}\n"
            f"{pad}then {unparse(node.then).strip()}\n"
            f"{pad}else {unparse(node.orelse).strip()}"
        )
    if isinstance(node, SimpleBinding):
        return f"{pad}{node.name} = {unparse(node.expr).strip()}"
    if isinstance(node, TupleBinding):
        return f"{pad}<{', '.join(node.names)}> = {unparse(node.expr).strip()}"
    if isinstance(node, FunBinding):
        return unparse(node.func, indent)
    if isinstance(node, Let):
        lines = [f"{pad}let"]
        for b in node.bindings:
            lines.append(unparse(b, indent + 1))
        lines.append(f"{pad}in {unparse(node.body).strip()}")
        return "\n".join(lines)
    if isinstance(node, LoopVar):
        return (
            f"{pad}{node.name} = {unparse(node.init).strip()},"
            f" {unparse(node.update).strip()}"
        )
    if isinstance(node, Iterate):
        lines = [f"{pad}iterate", f"{pad}{{"]
        for lv in node.loopvars:
            lines.append(unparse(lv, indent + 1))
        lines.append(f"{pad}}}")
        lines.append(f"{pad}while {unparse(node.cond).strip()},")
        lines.append(f"{pad}result {unparse(node.result).strip()}")
        return "\n".join(lines)
    raise TypeError(f"cannot unparse {type(node).__name__}")
