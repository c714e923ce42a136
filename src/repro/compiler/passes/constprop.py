"""Constant propagation and folding.

Three rewrites, iterated to each function's fixpoint by the pipeline:

1. **propagation** — a use of ``x`` where ``x = <literal>`` becomes the
   literal; a use of ``x`` where ``x = y`` (copy) becomes ``y``;
2. **folding** — applying a *foldable* registered operator to all-literal
   arguments is evaluated at compile time (failures leave the expression
   untouched: a division by zero must still happen at run time, on the
   machine, deterministically);
3. **branch folding** — ``if <literal> then a else b`` becomes the taken
   arm (``NULL`` counts as false, like the runtime's truthiness).

Because single assignment forbids shadowing within a function, one flat
name→value table per top-level function is sound.
"""

from __future__ import annotations

from ...lang import ast
from ...runtime.blocks import is_truthy
from ...runtime.values import NULL
from .common import PassContext

NAME = "constprop"


def _literal_value(e: ast.Expr) -> tuple[bool, object]:
    if isinstance(e, ast.Literal):
        return True, e.value
    if isinstance(e, ast.Null):
        return True, NULL
    return False, None


def _as_literal_expr(value: object, like: ast.Expr) -> ast.Expr:
    if value is NULL:
        return ast.Null(line=like.line, column=like.column)
    return ast.Literal(value=value, line=like.line, column=like.column)


class _Folder:
    def __init__(self, ctx: PassContext) -> None:
        self.ctx = ctx
        self.changed = False
        #: name -> Literal/Null expr (propagate) or Var (copy propagate)
        self.table: dict[str, ast.Expr] = {}
        #: names bound to anything (so operator lookups are not fooled)
        self.bound: set[str] = set()

    # ------------------------------------------------------------------
    def function(self, f: ast.FunDef) -> None:
        self.bound.update(f.params)
        f.body = self.expr(f.body)

    # ------------------------------------------------------------------
    def expr(self, e: ast.Expr) -> ast.Expr:
        if isinstance(e, (ast.Literal, ast.Null)):
            return e
        if isinstance(e, ast.Var):
            replacement = self.table.get(e.name)
            if replacement is not None:
                self.changed = True
                self.ctx.bump(f"{NAME}.propagated")
                if isinstance(replacement, ast.Var):
                    return ast.Var(
                        name=replacement.name, line=e.line, column=e.column
                    )
                is_lit, value = _literal_value(replacement)
                assert is_lit
                return _as_literal_expr(value, e)
            return e
        if isinstance(e, ast.TupleExpr):
            e.items = [self.expr(i) for i in e.items]
            return e
        if isinstance(e, ast.Apply):
            return self.apply(e)
        if isinstance(e, ast.If):
            e.cond = self.expr(e.cond)
            is_lit, value = _literal_value(e.cond)
            if is_lit:
                self.changed = True
                self.ctx.bump(f"{NAME}.branches_folded")
                taken = e.then if is_truthy(value) else e.orelse
                return self.expr(taken)
            e.then = self.expr(e.then)
            e.orelse = self.expr(e.orelse)
            return e
        if isinstance(e, ast.Let):
            for b in e.bindings:
                if isinstance(b, ast.SimpleBinding):
                    b.expr = self.expr(b.expr)
                    self.bound.add(b.name)
                    is_lit, _ = _literal_value(b.expr)
                    if is_lit or isinstance(b.expr, ast.Var):
                        self.table[b.name] = b.expr
                elif isinstance(b, ast.TupleBinding):
                    b.expr = self.expr(b.expr)
                    self.bound.update(b.names)
                elif isinstance(b, ast.FunBinding):
                    self.bound.add(b.func.name)
                    self.bound.update(b.func.params)
                    b.func.body = self.expr(b.func.body)
            e.body = self.expr(e.body)
            return e
        if isinstance(e, ast.Iterate):  # pre-lowering robustness
            for lv in e.loopvars:
                lv.init = self.expr(lv.init)
                self.bound.add(lv.name)
            e.cond = self.expr(e.cond)
            for lv in e.loopvars:
                lv.update = self.expr(lv.update)
            e.result = self.expr(e.result)
            return e
        raise TypeError(f"unexpected AST node {type(e).__name__}")

    # ------------------------------------------------------------------
    def apply(self, e: ast.Apply) -> ast.Expr:
        e.callee = self.expr(e.callee)
        e.args = [self.expr(a) for a in e.args]
        if not isinstance(e.callee, ast.Var):
            return e
        name = e.callee.name
        if name in self.bound or not self.ctx.operator_is_foldable(name):
            return e
        values = []
        for a in e.args:
            is_lit, value = _literal_value(a)
            if not is_lit:
                return e
            values.append(value)
        assert self.ctx.registry is not None
        spec = self.ctx.registry.get(name)
        if spec.arity is not None and spec.arity != len(values):
            return e  # leave the arity error for env analysis / runtime
        try:
            folded = spec.fn(*values)
        except Exception:  # noqa: BLE001 - must fail at run time instead
            return e
        if not isinstance(folded, (int, float, str, bool)) and folded is not NULL:
            return e
        self.changed = True
        self.ctx.bump(f"{NAME}.folded")
        return _as_literal_expr(folded, e)


def run(function: ast.FunDef, ctx: PassContext) -> bool:
    """Run constant propagation over one top-level function; True when
    changed."""
    folder = _Folder(ctx)
    folder.function(function)
    return folder.changed
