"""A reference evaluator: what a Delirium program means, without graphs.

The six constructs given a direct recursive semantics over the parsed
AST, for the test suite to compare every compiled run against:

* **atoms** — literals and ``NULL`` evaluate to themselves;
* **packages** — ``<e1, ..., en>`` builds a
  :class:`~repro.runtime.values.MultiValue`, and ``<a, b> = e`` in a ``let``
  takes one apart (an operator sees a package as a tuple and may return
  a tuple, as at run time);
* **let** — bindings in order, each seeing the ones before it; a function
  binding makes a closure over the scope it is defined in (and itself,
  so it may recurse);
* **if** — evaluates the condition, then one arm (``NULL`` is false);
* **iterate** — a loop: the inits once, then while the condition holds
  every update sees the previous round's values, then the result;
* **application** — of a top-level function, a closure, or an operator,
  named directly or passed as a value.

An operator that declares ``modifies`` gets a deep copy of each argument
it writes, at every call: the paper's copy rule (section 2.1) without the
"unless it is the sole reference" half.  Only values are comparable with a
compiled run; copy counts are not.

Nothing here knows about coordination graphs, templates, activations or
reference counts: besides the front end, this module imports only the
operator registry and the value kinds, and nothing from the compiler,
the graph layer, the engine or the executors.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from ..errors import DeliriumError
from ..runtime.operators import OperatorRegistry, default_registry
from ..runtime.blocks import is_truthy
from ..runtime.values import NULL, MultiValue
from . import ast
from .parser import parse_program
from .preprocessor import preprocess


class EvaluationError(DeliriumError):
    """A program the reference evaluator cannot give a meaning to."""


@dataclass(frozen=True)
class _Function:
    """A Delirium function value: a definition and the scope it closes over."""

    fundef: ast.FunDef
    scope: dict[str, Any]


@dataclass(frozen=True)
class _Operator:
    """An operator used as a first-class value."""

    name: str


def _payload(value: Any) -> Any:
    """What an operator receives: packages as tuples."""
    if isinstance(value, MultiValue):
        return tuple(_payload(v) for v in value.items)
    return value


def _value(raw: Any) -> Any:
    """What an operator's result is: tuples as packages."""
    if isinstance(raw, tuple):
        return MultiValue(tuple(_value(v) for v in raw))
    return raw


class _Evaluator:
    def __init__(self, program: ast.Program, registry: OperatorRegistry) -> None:
        self.functions = {f.name: f for f in program.functions}
        self.registry = registry

    def call(self, fn: Any, args: list[Any]) -> Any:
        if isinstance(fn, _Operator):
            spec = self.registry.get(fn.name)
            raw = [
                copy.deepcopy(a) if i in spec.modifies else a
                for i, a in enumerate(map(_payload, args))
            ]
            return _value(spec.fn(*raw))
        if isinstance(fn, _Function):
            params = fn.fundef.params
            if len(params) != len(args):
                raise EvaluationError(
                    f"{fn.fundef.name!r} takes {len(params)} argument(s), "
                    f"got {len(args)}"
                )
            scope = dict(fn.scope)
            scope.update(zip(params, args))
            return self.eval(fn.fundef.body, scope)
        raise EvaluationError(f"cannot apply {fn!r}")

    def lookup(self, name: str, scope: dict[str, Any]) -> Any:
        if name in scope:
            return scope[name]
        if name in self.functions:
            return _Function(self.functions[name], {})
        if name in self.registry:
            return _Operator(name)
        raise EvaluationError(f"{name!r} is not bound")

    def eval(self, e: ast.Expr, scope: dict[str, Any]) -> Any:
        if isinstance(e, ast.Literal):
            return e.value
        if isinstance(e, ast.Null):
            return NULL
        if isinstance(e, ast.Var):
            return self.lookup(e.name, scope)
        if isinstance(e, ast.TupleExpr):
            return MultiValue(tuple(self.eval(i, scope) for i in e.items))
        if isinstance(e, ast.Apply):
            fn = self.eval(e.callee, scope)
            return self.call(fn, [self.eval(a, scope) for a in e.args])
        if isinstance(e, ast.If):
            taken = e.then if is_truthy(self.eval(e.cond, scope)) else e.orelse
            return self.eval(taken, scope)
        if isinstance(e, ast.Let):
            inner = dict(scope)
            for b in e.bindings:
                if isinstance(b, ast.SimpleBinding):
                    inner[b.name] = self.eval(b.expr, inner)
                elif isinstance(b, ast.TupleBinding):
                    package = self.eval(b.expr, inner)
                    if not isinstance(package, MultiValue) or len(package) != len(
                        b.names
                    ):
                        raise EvaluationError(
                            f"cannot decompose {package!r} into {len(b.names)} "
                            "name(s)"
                        )
                    inner.update(zip(b.names, package.items))
                else:
                    # The closure's scope is ``inner`` itself, so the
                    # function sees its own name.
                    inner[b.func.name] = _Function(b.func, inner)
                    inner = dict(inner)
            return self.eval(e.body, inner)
        if isinstance(e, ast.Iterate):
            loop = dict(scope)
            for lv in e.loopvars:
                loop[lv.name] = self.eval(lv.init, scope)
            while is_truthy(self.eval(e.cond, loop)):
                updates = [self.eval(lv.update, loop) for lv in e.loopvars]
                loop = dict(scope)
                loop.update(zip((lv.name for lv in e.loopvars), updates))
            return self.eval(e.result, loop)
        raise TypeError(f"unexpected AST node {type(e).__name__}")


def evaluate(
    program: ast.Program,
    args: tuple[Any, ...] = (),
    registry: OperatorRegistry | None = None,
    entry: str = "main",
) -> Any:
    """The value of ``entry`` applied to ``args`` in ``program``."""
    registry = registry if registry is not None else default_registry()
    evaluator = _Evaluator(program, registry)
    return evaluator.call(evaluator.lookup(entry, {}), list(args))


def evaluate_source(
    source: str,
    args: tuple[Any, ...] = (),
    registry: OperatorRegistry | None = None,
    defines: dict[str, object] | None = None,
    entry: str = "main",
) -> Any:
    """:func:`evaluate` on Delirium source text (``#define``s expanded)."""
    return evaluate(
        parse_program(preprocess(source, defines)), args, registry, entry
    )
