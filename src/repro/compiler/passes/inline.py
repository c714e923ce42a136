"""Inline function expansion.

Replaces a direct call to a small, non-recursive Delirium function with a
let that binds fresh copies of the parameters and the alpha-renamed body::

    double(x) add(x, x)
    main()    double(3)        =>        main() let x$1 = 3 in add(x$1, x$1)

Benefits mirror the paper's: every inlined call is one fewer call-closure
expansion (template activation) at run time, and the exposed body becomes
visible to constant propagation / CSE / DCE.  The definition itself is left
alone; once no function the entry reaches calls or reads it any more,
the pipeline drops it (:func:`.dce.dead_functions`).  The pipeline
optimizes callees before their callers, so a call site receives the
callee's final body.

Safety conditions checked per call site:

* the callee is statically known (top-level or local function in scope);
* the callee is not part of a recursive cycle (``ProgramAnalysis``);
* the callee's body size is at most :data:`DEFAULT_THRESHOLD` AST nodes;
* no *global* name the callee's body relies on (operator or top-level
  function) is shadowed by a local binding at the call site.
"""

from __future__ import annotations

import copy

from ...lang import ast
from ..analysis import free_variables
from .common import PassContext, bound_names_in, rename_bound

NAME = "inline"

#: Default maximum callee body size (AST nodes) for inlining.
DEFAULT_THRESHOLD = 40


class _Inliner:
    def __init__(self, ctx: PassContext) -> None:
        self.ctx = ctx
        self.changed = False
        self.top_level = ctx.top_level
        self.current: str = ""

    # ------------------------------------------------------------------
    def function(self, f: ast.FunDef) -> None:
        self.current = f.name
        f.body = self._expr(f.body, {}, set(f.params))

    # ------------------------------------------------------------------
    def _candidate(
        self, name: str, locals_in_scope: dict[str, tuple[str, ast.FunDef]]
    ) -> tuple[str, ast.FunDef] | None:
        """Resolve a callee name to (qualname, fundef) if statically known."""
        if name in locals_in_scope:
            return locals_in_scope[name]
        if name in self.top_level:
            return name, self.top_level[name]
        return None

    def _should_inline(
        self, qualname: str, fundef: ast.FunDef, visible: set[str]
    ) -> bool:
        if self.ctx.analysis.is_recursive_function(qualname):
            return False
        info = self.ctx.env.functions.get(qualname)
        if info is None:
            return False
        # Measured here, not read from ``info.body_size``: a local callee
        # defined earlier in the current function has had its own calls
        # expanded by this very sweep.
        if fundef.body.size() > DEFAULT_THRESHOLD:
            return False
        # Global names the body relies on must not be shadowed at the site.
        globals_used = [
            n
            for n in free_variables(fundef.body, set(fundef.params))
            if n not in info.free
        ]
        if any(g in visible for g in globals_used):
            return False
        # A *local* callee's captured names must be visible at the call
        # site — they always are, because the callee itself is in scope
        # only where its definition (and hence its captures) dominate.
        return True

    def _inline_call(
        self, call: ast.Apply, fundef: ast.FunDef
    ) -> ast.Expr:
        body = copy.deepcopy(fundef.body)
        mapping = {
            name: self.ctx.fresh.fresh(name)
            for name in (set(fundef.params) | bound_names_in(body))
        }
        rename_bound(body, mapping)
        bindings: list[ast.Binding] = [
            ast.SimpleBinding(
                name=mapping[p],
                expr=arg,
                line=call.line,
                column=call.column,
            )
            for p, arg in zip(fundef.params, call.args)
        ]
        self.changed = True
        self.ctx.bump(f"{NAME}.expanded")
        if not bindings:
            return body
        return ast.Let(
            bindings=bindings, body=body, line=call.line, column=call.column
        )

    # ------------------------------------------------------------------
    def _expr(
        self,
        e: ast.Expr,
        locals_in_scope: dict[str, tuple[str, ast.FunDef]],
        visible: set[str],
    ) -> ast.Expr:
        if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
            return e
        if isinstance(e, ast.TupleExpr):
            e.items = [self._expr(i, locals_in_scope, visible) for i in e.items]
            return e
        if isinstance(e, ast.Apply):
            e.callee = self._expr(e.callee, locals_in_scope, visible)
            e.args = [self._expr(a, locals_in_scope, visible) for a in e.args]
            if isinstance(e.callee, ast.Var):
                name = e.callee.name
                hit = self._candidate(name, locals_in_scope)
                # A top-level candidate is shadowed when the name is bound
                # locally to something else; a local-function candidate IS
                # the local binding, so visibility never disqualifies it.
                if (
                    hit is not None
                    and name not in locals_in_scope
                    and name in visible
                ):
                    hit = None
                if hit is not None:
                    qualname, fundef = hit
                    if len(e.args) == len(fundef.params) and self._should_inline(
                        qualname, fundef, visible
                    ):
                        return self._inline_call(e, fundef)
            return e
        if isinstance(e, ast.If):
            e.cond = self._expr(e.cond, locals_in_scope, visible)
            e.then = self._expr(e.then, locals_in_scope, visible)
            e.orelse = self._expr(e.orelse, locals_in_scope, visible)
            return e
        if isinstance(e, ast.Let):
            inner_locals = dict(locals_in_scope)
            inner_visible = set(visible)
            for b in e.bindings:
                if isinstance(b, ast.SimpleBinding):
                    b.expr = self._expr(b.expr, inner_locals, inner_visible)
                    inner_visible.add(b.name)
                elif isinstance(b, ast.TupleBinding):
                    b.expr = self._expr(b.expr, inner_locals, inner_visible)
                    inner_visible.update(b.names)
                elif isinstance(b, ast.FunBinding):
                    qual = f"{self.current}.{b.func.name}"
                    inner_locals[b.func.name] = (qual, b.func)
                    inner_visible.add(b.func.name)
                    saved = self.current
                    self.current = qual
                    fn_visible = inner_visible | set(b.func.params)
                    b.func.body = self._expr(b.func.body, inner_locals, fn_visible)
                    self.current = saved
            e.body = self._expr(e.body, inner_locals, inner_visible)
            return e
        raise TypeError(f"unexpected AST node {type(e).__name__}")


def run(function: ast.FunDef, ctx: PassContext) -> bool:
    """Run inline expansion over one top-level function; True when changed."""
    inliner = _Inliner(ctx)
    inliner.function(function)
    return inliner.changed
