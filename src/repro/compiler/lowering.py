"""Lowering: compile ``iterate`` into tail-recursive local functions.

Section 3 of the paper: "iteration — this is compiled into tail-recursive
functions which are handled efficiently in the run-time system."

The transformation for::

    iterate { v1 = i1, u1   ...   vn = in, un }
    while c, result r

is::

    let loop$k(v1, ..., vn)
          if c then loop$k(u1, ..., un) else r
    in loop$k(i1, ..., in)

which gives exactly the paper's while-do semantics: the inits are evaluated
once, the condition is tested before every update round, all updates of one
round see the *previous* round's values (they are the parameters), and the
result expression is evaluated with the final values.  The recursive call
sits in tail position of the then-arm, so the runtime executes the loop
with constant activation space via continuation inheritance.

Lowering rewrites innermost iterates first so nested loops (retina's
``main``/``do_convol``) each get their own loop function.
"""

from __future__ import annotations

from ..lang import ast
from .analysis import FreshNames, all_names


def lower_iterate_expr(it: ast.Iterate, fresh: FreshNames) -> ast.Expr:
    """Lower one (already child-lowered) iterate node."""
    loop_name = fresh.fresh("loop")
    params = [lv.name for lv in it.loopvars]
    recursive_call = ast.Apply(
        callee=ast.Var(name=loop_name, line=it.line, column=it.column),
        args=[lv.update for lv in it.loopvars],
        line=it.line,
        column=it.column,
    )
    body = ast.If(
        cond=it.cond,
        then=recursive_call,
        orelse=it.result,
        line=it.line,
        column=it.column,
    )
    fundef = ast.FunDef(
        name=loop_name,
        params=params,
        body=body,
        line=it.line,
        column=it.column,
    )
    first_call = ast.Apply(
        callee=ast.Var(name=loop_name, line=it.line, column=it.column),
        args=[lv.init for lv in it.loopvars],
        line=it.line,
        column=it.column,
    )
    return ast.Let(
        bindings=[ast.FunBinding(func=fundef, line=it.line, column=it.column)],
        body=first_call,
        line=it.line,
        column=it.column,
    )


def _lower(e: ast.Expr, fresh: FreshNames) -> ast.Expr:
    if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
        return e
    if isinstance(e, ast.TupleExpr):
        e.items = [_lower(item, fresh) for item in e.items]
        return e
    if isinstance(e, ast.Apply):
        e.callee = _lower(e.callee, fresh)
        e.args = [_lower(a, fresh) for a in e.args]
        return e
    if isinstance(e, ast.If):
        e.cond = _lower(e.cond, fresh)
        e.then = _lower(e.then, fresh)
        e.orelse = _lower(e.orelse, fresh)
        return e
    if isinstance(e, ast.Let):
        for b in e.bindings:
            if isinstance(b, (ast.SimpleBinding, ast.TupleBinding)):
                b.expr = _lower(b.expr, fresh)
            elif isinstance(b, ast.FunBinding):
                b.func.body = _lower(b.func.body, fresh)
        e.body = _lower(e.body, fresh)
        return e
    if isinstance(e, ast.Iterate):
        for lv in e.loopvars:
            lv.init = _lower(lv.init, fresh)
            lv.update = _lower(lv.update, fresh)
        e.cond = _lower(e.cond, fresh)
        e.result = _lower(e.result, fresh)
        return lower_iterate_expr(e, fresh)
    raise TypeError(f"unexpected AST node {type(e).__name__}")


def lower_program(program: ast.Program, fresh: FreshNames | None = None) -> ast.Program:
    """Lower every iterate in ``program`` (in place; returns the program),
    naming loops from ``fresh`` (it must have seen every name in ``program``).

    The contract every later stage relies on, and the only place it is
    stated:

    * no :class:`~repro.lang.ast.Iterate` remains anywhere in the program;
    * each loop is a local function (``loop$k``) whose only self-call is
      in tail position, in the then-arm of its body's ``if``.

    So environment analysis, the optimization passes (both halves) and the
    analyses they share handle no ``iterate``; graph generation refuses
    one with a :class:`~repro.errors.CompileError` naming this function.
    :func:`repro.compile_source` and the self-applied compiler
    (:mod:`repro.apps.compiler_app`) both lower before anything else runs.

    Idempotent: a program with no iterates is returned unchanged.
    """
    fresh = fresh or FreshNames(all_names(program))
    for f in program.functions:
        f.body = _lower(f.body, fresh)
    return program
