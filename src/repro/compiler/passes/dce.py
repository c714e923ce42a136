"""Dead-code elimination.

Removes let bindings that are never read and whose evaluation is pure
(deleting an impure operator application would change behaviour — the
paper's model allows operators with private effects like logging, and the
annotation burden is on ``modifies`` only, so we stay conservative).

A binding's liveness is judged by use counts over the whole enclosing
top-level function — exact, because single assignment makes names unique
within a function.  The counts live in one name -> reads table per
function, built in a single walk and kept equal to the live tree: when a
let drops bindings, their reads are subtracted, so judging a binding is a
lookup minus the reads in its own right-hand side and a sweep is linear
in the function's size.  Function bindings never execute anything by
themselves, so an unused function binding is always removable.  Lets that
lose all their bindings collapse into their bodies.

Removing one binding can kill the uses that kept another alive, so a
function is swept again after every sweep that removed something: ``run``
stops at its fixpoint, when a sweep removes nothing.

Whole top-level functions are the pipeline's concern: once no live
function reaches one from the entry, :func:`dead_functions` names it and
the pipeline drops it from the program (the AST counterpart of
:meth:`~repro.graph.ir.GraphProgram.prune_unreachable`).
"""

from __future__ import annotations

from ...lang import ast
from ..symtab import EnvAnalysis
from .common import PassContext, count_reads, count_uses, expr_is_pure

NAME = "dce"


class _DCE:
    def __init__(self, ctx: PassContext, function: ast.FunDef) -> None:
        self.ctx = ctx
        self.function = function
        self.changed = False
        #: name -> number of reads in the live ``function.body``.
        self.reads: dict[str, int] = {}

    def run(self) -> bool:
        """Sweep until a sweep removes nothing; True when any removed."""
        self.reads = count_reads(self.function.body)
        removed = False
        while True:
            self.changed = False
            self.function.body = self._expr(
                self.function.body, set(self.function.params)
            )
            if not self.changed:
                return removed
            removed = True

    def _unread_outside(self, name: str, rhs: ast.Node) -> bool:
        """No read of ``name`` in the function outside ``rhs``.

        ``rhs`` is the judged binding's own right-hand side: a binding may
        not reference itself (single assignment), but reads inside the
        very binding being judged disappear together with it.
        """
        reads = self.reads.get(name, 0)
        return reads == 0 or reads == count_uses(rhs, name)

    # ------------------------------------------------------------------
    def _expr(self, e: ast.Expr, bound: set[str]) -> ast.Expr:
        if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
            return e
        if isinstance(e, ast.TupleExpr):
            e.items = [self._expr(i, bound) for i in e.items]
            return e
        if isinstance(e, ast.Apply):
            e.callee = self._expr(e.callee, bound)
            e.args = [self._expr(a, bound) for a in e.args]
            return e
        if isinstance(e, ast.If):
            e.cond = self._expr(e.cond, bound)
            e.then = self._expr(e.then, bound)
            e.orelse = self._expr(e.orelse, bound)
            return e
        if isinstance(e, ast.Let):
            inner = set(bound)
            kept: list[ast.Binding] = []
            dropped: list[ast.Binding] = []
            for b in e.bindings:
                removable = False
                if isinstance(b, (ast.SimpleBinding, ast.TupleBinding)):
                    if all(
                        self._unread_outside(n, b.expr)
                        for n in b.bound_names()
                    ) and expr_is_pure(b.expr, self.ctx, inner):
                        removable = True
                elif isinstance(b, ast.FunBinding):
                    if self._unread_outside(b.func.name, b.func.body):
                        removable = True
                if removable:
                    self.changed = True
                    self.ctx.bump(f"{NAME}.removed")
                    dropped.append(b)
                    continue
                if isinstance(b, (ast.SimpleBinding, ast.TupleBinding)):
                    b.expr = self._expr(b.expr, inner)
                elif isinstance(b, ast.FunBinding):
                    fn_bound = inner | {b.func.name} | set(b.func.params)
                    b.func.body = self._expr(b.func.body, fn_bound)
                inner.update(b.bound_names())
                kept.append(b)
            # Dropped bindings stay in the tree (and in the counts) until
            # here, so later bindings of this let were judged against them.
            e.bindings = kept
            for b in dropped:
                for name, n in count_reads(b).items():
                    self.reads[name] -= n
            e.body = self._expr(e.body, inner)
            if not e.bindings:
                self.changed = True
                self.ctx.bump(f"{NAME}.lets_collapsed")
                return e.body
            return e
        if isinstance(e, ast.Iterate):  # pre-lowering robustness
            for lv in e.loopvars:
                lv.init = self._expr(lv.init, bound)
            inner = bound | {lv.name for lv in e.loopvars}
            e.cond = self._expr(e.cond, inner)
            for lv in e.loopvars:
                lv.update = self._expr(lv.update, inner)
            e.result = self._expr(e.result, inner)
            return e
        raise TypeError(f"unexpected AST node {type(e).__name__}")


def run(function: ast.FunDef, ctx: PassContext) -> bool:
    """Run DCE over one top-level function; True when anything was removed."""
    return _DCE(ctx, function).run()


def dead_functions(env: EnvAnalysis, entry: str) -> set[str]:
    """Top-level functions that no call or value read reaches from
    ``entry``, judged on the call graph ``env`` holds (a local function's
    calls count as its host's).  Empty when ``entry`` is not a function:
    the driver's entry check reports that, not this pass."""
    if entry not in env.functions:
        return set()
    edges: dict[str, set[str]] = {}
    for qualname, info in env.functions.items():
        out = edges.setdefault(qualname.split(".", 1)[0], set())
        out.update(q.split(".", 1)[0] for q in (*info.calls, *info.refs))
    live, pending = {entry}, [entry]
    while pending:
        for callee in edges[pending.pop()]:
            if callee not in live:
                live.add(callee)
                pending.append(callee)
    return set(env.top_level) - live
