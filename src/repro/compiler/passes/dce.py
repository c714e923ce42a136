"""Dead-code elimination.

Removes let bindings that are never read and whose evaluation is pure
(deleting an impure operator application would change behaviour — the
paper's model allows operators with private effects like logging, and the
annotation burden is on ``modifies`` only, so we stay conservative).

A binding's liveness is judged by its reads within its own scope.  Single
assignment forbids shadowing, but sibling scopes may bind the same name
(``a = let x = 5 in x  b = let x = add(n, 1) in x``), so a read is
resolved to its binder as the counting walk descends (:func:`scoped_reads`)
and counted under that binder's key, not under its name.  The counts
live in one binder -> reads table per function, built in a single walk
and kept equal to the live tree: when a let drops a binding, its reads
are subtracted, so judging a binding is a lookup and a sweep is linear in
the function's size.  A right-hand side cannot read the names its binding
binds (a read there resolves before the binding exists, to something
else); only a local function reads its own name, when it recurses, and
judging it subtracts those reads.  Function bindings never execute
anything by themselves, so an unused function binding is always
removable.  Lets that lose all their bindings collapse into their
bodies.

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
from .common import PassContext, count_uses, pure_key

NAME = "dce"

#: A binder: the identity of the binding that binds a name, and the name.
#: The sweep makes no node, so no live binding takes a dropped one's id.
Binder = tuple[int, str]


def _binders(b: ast.Binding) -> dict[str, Binder]:
    return {name: (id(b), name) for name in b.bound_names()}


def scoped_reads(
    e: ast.Node,
    env: dict[str, Binder | None],
    out: dict[Binder, int] | None = None,
) -> dict[Binder, int]:
    """The reads in ``e`` of each binder in scope, counted into ``out``.
    ``env`` maps the names in scope at ``e`` to their binders (``None``
    for a parameter); a let puts each binding's names in scope below it,
    a local function its own name and parameters in its body."""
    out = {} if out is None else out
    if isinstance(e, ast.Var):
        binder = env.get(e.name)
        if binder is not None:
            out[binder] = out.get(binder, 0) + 1
    elif isinstance(e, ast.Let):
        env = dict(env)
        for b in e.bindings:
            scoped_reads(b, env, out)
            env.update(_binders(b))
        scoped_reads(e.body, env, out)
    elif isinstance(e, ast.FunBinding):
        f = e.func
        env = {**env, **_binders(e), **dict.fromkeys(f.params)}
        scoped_reads(f.body, env, out)
    else:
        for child in e.children():
            scoped_reads(child, env, out)
    return out


class _DCE:
    def __init__(self, ctx: PassContext, function: ast.FunDef) -> None:
        self.ctx = ctx
        self.function = function
        self.changed = False
        #: binder -> number of reads in the live ``function.body``.
        self.reads: dict[Binder, int] = {}

    def run(self) -> bool:
        """Sweep to the fixpoint; True when anything changed."""
        params = dict.fromkeys(self.function.params)
        self.reads = scoped_reads(self.function.body, params)
        removed = False
        while True:
            self.changed = self.again = False
            #: binder of a binding this sweep kept -> its reads of itself.
            self.kept: dict[Binder, int] = {}
            self.function.body = self._expr(self.function.body, params)
            removed = removed or self.changed
            if not self.again:
                return removed

    # ------------------------------------------------------------------
    def _expr(self, e: ast.Expr, env: dict[str, Binder | None]) -> ast.Expr:
        """Sweep ``e``; ``env`` maps the names in scope to their binders,
        as in :func:`scoped_reads` (its keys are the bound names
        :func:`pure_key` asks about)."""
        if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
            return e
        if isinstance(e, ast.TupleExpr):
            e.items = [self._expr(i, env) for i in e.items]
            return e
        if isinstance(e, ast.Apply):
            e.callee = self._expr(e.callee, env)
            e.args = [self._expr(a, env) for a in e.args]
            return e
        if isinstance(e, ast.If):
            e.cond = self._expr(e.cond, env)
            e.then = self._expr(e.then, env)
            e.orelse = self._expr(e.orelse, env)
            return e
        if isinstance(e, ast.Let):
            inner = dict(env)
            kept: list[ast.Binding] = []
            for b in e.bindings:
                binders = _binders(b)
                if isinstance(b, ast.FunBinding):
                    (binder,) = binders.values()
                    # Within its body the name is the function's own: a
                    # read of it there is a recursive call.
                    reads = self.reads.get(binder, 0)
                    own = {binder: reads and count_uses(b.func.body, b.func.name)}
                    removable = reads == own[binder]
                else:
                    own = dict.fromkeys(binders.values(), 0)
                    removable = not any(
                        self.reads.get(k) for k in own
                    ) and pure_key(b.expr, self.ctx, inner) is not None
                if removable:
                    self.changed = True
                    self.ctx.bump(f"{NAME}.removed")
                    # It reads only names bound before it, so its reads
                    # leave the counts at once: no binding judged later
                    # in this let could have been kept by them.
                    for binder, n in scoped_reads(b, inner).items():
                        self.reads[binder] -= n
                        if self.reads[binder] <= self.kept.get(binder, -1):
                            self.again = True
                    continue
                self.kept.update(own)
                if isinstance(b, ast.FunBinding):
                    fn_env = {**inner, **binders, **dict.fromkeys(b.func.params)}
                    b.func.body = self._expr(b.func.body, fn_env)
                else:
                    b.expr = self._expr(b.expr, inner)
                inner.update(binders)
                kept.append(b)
            e.bindings = kept
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
