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
lookup and a sweep is linear in the function's size.  A right-hand side
cannot read the names its binding binds (a read there resolves before the
binding exists, to something else); only a local function reads its own
name, when it recurses, and judging it subtracts those reads.  Function
bindings never execute anything by themselves, so an unused function
binding is always removable.  Lets that lose all their bindings collapse
into their bodies.

Removing one binding can kill the uses that kept another alive: when a
subtraction leaves a binding kept earlier in the sweep with no reads but
its own, the function is swept again.  ``run`` stops at its fixpoint,
without a last sweep that could only remove nothing.

Whole top-level functions are the pipeline's concern: once no live
function reaches one from the entry, :func:`dead_functions` names it and
the pipeline drops it from the program (the AST counterpart of
:meth:`~repro.graph.ir.GraphProgram.prune_unreachable`).
"""

from __future__ import annotations

from ...lang import ast
from ..symtab import EnvAnalysis
from .common import PassContext, count_reads, count_uses, pure_key

NAME = "dce"


class _DCE:
    def __init__(self, ctx: PassContext, function: ast.FunDef) -> None:
        self.ctx = ctx
        self.function = function
        self.changed = False
        #: name -> number of reads in the live ``function.body``.
        self.reads: dict[str, int] = {}

    def run(self) -> bool:
        """Sweep to the fixpoint; True when anything changed."""
        self.reads = count_reads(self.function.body)
        removed = False
        while True:
            self.changed = self.again = False
            #: name of a binding this sweep kept -> its reads of its own name.
            self.kept: dict[str, int] = {}
            self.function.body = self._expr(
                self.function.body, set(self.function.params)
            )
            removed = removed or self.changed
            if not self.again:
                return removed

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
                if isinstance(b, ast.FunBinding):
                    name = b.func.name
                    reads = self.reads.get(name, 0)
                    own = {name: reads and count_uses(b.func.body, name)}
                    removable = reads == own[name]
                else:
                    own = dict.fromkeys(b.bound_names(), 0)
                    removable = not any(
                        self.reads.get(n) for n in own
                    ) and pure_key(b.expr, self.ctx, inner) is not None
                if removable:
                    self.changed = True
                    self.ctx.bump(f"{NAME}.removed")
                    dropped.append(b)
                    continue
                self.kept.update(own)
                if isinstance(b, ast.FunBinding):
                    fn_bound = inner | {b.func.name} | set(b.func.params)
                    b.func.body = self._expr(b.func.body, fn_bound)
                else:
                    b.expr = self._expr(b.expr, inner)
                inner.update(own)
                kept.append(b)
            # Dropped bindings stay in the tree (and in the counts) until
            # here, so later bindings of this let were judged against them.
            e.bindings = kept
            for b in dropped:
                for name, n in count_reads(b).items():
                    self.reads[name] -= n
                    if self.reads[name] <= self.kept.get(name, -1):
                        self.again = True
            e.body = self._expr(e.body, inner)
            if not e.bindings:
                self.changed = True
                self.ctx.bump(f"{NAME}.lets_collapsed")
                return e.body
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
