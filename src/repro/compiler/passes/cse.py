"""Common-subexpression elimination.

Two let bindings with syntactically identical, *pure* right-hand sides
compute the same value (purity plus single assignment guarantee it), so
the later one can reuse the earlier one's name.  Availability respects
lexical scope: an expression bound inside one conditional arm is not
available in the other.  An expression's key (:func:`~.common.pure_key`)
is built in the walk that decides its purity: its structure, never its
text.

Example::

    let a = incr(n)        let a = incr(n)
        b = incr(n)   =>       b = a
    in f(a, b)             in f(a, b)

Copy propagation (constprop) then forwards ``b``; dead-code elimination
removes the leftover binding.
"""

from __future__ import annotations

from ...lang import ast
from .common import PassContext, pure_key

NAME = "cse"


class _CSE:
    def __init__(self, ctx: PassContext) -> None:
        self.ctx = ctx
        self.changed = False

    def function(self, f: ast.FunDef) -> None:
        self._expr(f.body, {}, set(f.params))

    # ------------------------------------------------------------------
    def _expr(self, e: ast.Expr, available: dict[tuple, str], bound: set[str]) -> None:
        """Walk ``e`` with the table of available expressions.

        ``available`` maps keys to the bound name that already
        holds the value; child scopes extend a *copy* so availability
        cannot leak across arms.
        """
        if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
            return
        if isinstance(e, (ast.TupleExpr, ast.Apply)):
            for child in e.children():
                self._expr(child, available, bound)
            return
        if isinstance(e, ast.If):
            self._expr(e.cond, available, bound)
            self._expr(e.then, dict(available), set(bound))
            self._expr(e.orelse, dict(available), set(bound))
            return
        if isinstance(e, ast.Let):
            inner = dict(available)
            inner_bound = set(bound)
            for b in e.bindings:
                if isinstance(b, ast.SimpleBinding):
                    self._expr(b.expr, inner, inner_bound)
                    if not isinstance(b.expr, (ast.Var, ast.Literal, ast.Null)):
                        key = pure_key(b.expr, self.ctx, inner_bound)
                        existing = inner.get(key)
                        if existing is not None:
                            b.expr = ast.Var(
                                name=existing, line=b.expr.line, column=b.expr.column
                            )
                            self.changed = True
                            self.ctx.bump(f"{NAME}.eliminated")
                        elif key is not None:
                            inner[key] = b.name
                    inner_bound.add(b.name)
                elif isinstance(b, ast.TupleBinding):
                    self._expr(b.expr, inner, inner_bound)
                    inner_bound.update(b.names)
                elif isinstance(b, ast.FunBinding):
                    inner_bound.add(b.func.name)
                    fn_bound = inner_bound | set(b.func.params)
                    # Availability flows into the nested function (its
                    # free variables are visible there), but expressions
                    # discovered inside must not escape back out.
                    self._expr(b.func.body, dict(inner), fn_bound)
            self._expr(e.body, inner, inner_bound)
            return
        raise TypeError(f"unexpected AST node {type(e).__name__}")


def run(function: ast.FunDef, ctx: PassContext) -> bool:
    """Run CSE over one top-level function; True when anything was
    eliminated."""
    cse = _CSE(ctx)
    cse.function(function)
    return cse.changed
