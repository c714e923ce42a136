"""Shared utilities for the optimization passes.

All four of the paper's optimizations (constant propagation, common
sub-expression elimination, dead-code elimination, inline function
expansion) are tree-walking passes over the AST, like the original Pythia
compiler ("a fairly traditional implementation based on walking a parse
tree", section 6).  They share three facilities:

* **purity of an expression** — may it be deleted, duplicated, or folded?
  Conservative: only applications of registered *pure* operators qualify;
  direct function calls qualify only after inlining exposes their bodies.
* **uniform renaming** — alpha-rename every name *bound within* a subtree
  to a fresh name (inlining uses this to keep single assignment intact).
* **use counting** — how many times a name is read in a subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...lang import ast
from ...runtime.operators import OperatorRegistry
from ..analysis import FreshNames, ProgramAnalysis
from ..symtab import EnvAnalysis


@dataclass
class PassContext:
    """Everything a pass may consult; rebuilt between pipeline rounds."""

    registry: OperatorRegistry | None
    env: EnvAnalysis
    analysis: ProgramAnalysis
    fresh: FreshNames
    stats: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def operator_is_pure(self, name: str) -> bool:
        if self.registry is None or name not in self.registry:
            return False
        return self.registry.get(name).pure

    def operator_is_foldable(self, name: str) -> bool:
        if self.registry is None or name not in self.registry:
            return False
        return self.registry.get(name).foldable


def expr_is_pure(e: ast.Expr, ctx: PassContext, bound: set[str]) -> bool:
    """Conservatively decide whether evaluating ``e`` has no effects.

    ``bound`` holds names bound in enclosing scopes — an applied name that
    is bound is a first-class function value whose purity we cannot see, so
    the application is treated as impure.
    """
    if isinstance(e, (ast.Literal, ast.Null, ast.Var)):
        return True
    if isinstance(e, ast.TupleExpr):
        return all(expr_is_pure(i, ctx, bound) for i in e.items)
    if isinstance(e, ast.Apply):
        if not isinstance(e.callee, ast.Var):
            return False
        name = e.callee.name
        if name in bound or not ctx.operator_is_pure(name):
            return False
        return all(expr_is_pure(a, ctx, bound) for a in e.args)
    if isinstance(e, ast.If):
        return (
            expr_is_pure(e.cond, ctx, bound)
            and expr_is_pure(e.then, ctx, bound)
            and expr_is_pure(e.orelse, ctx, bound)
        )
    if isinstance(e, ast.Let):
        inner = set(bound)
        for b in e.bindings:
            if isinstance(b, (ast.SimpleBinding, ast.TupleBinding)):
                if not expr_is_pure(b.expr, ctx, inner):
                    return False
            inner.update(b.bound_names())
        return expr_is_pure(e.body, ctx, inner)
    if isinstance(e, ast.Iterate):
        return False  # lowered away before optimization; stay conservative
    return False


def count_uses(e: ast.Node, name: str) -> int:
    """Number of reads of ``name`` inside subtree ``e``.

    Within one top-level function names are globally unique (the single
    assignment rule forbids shadowing), so a plain occurrence count is a
    correct use count.
    """
    return sum(
        1 for n in e.walk() if isinstance(n, ast.Var) and n.name == name
    )


def count_reads(e: ast.Node) -> dict[str, int]:
    """Reads of every name inside subtree ``e``, in one walk."""
    out: dict[str, int] = {}
    for n in e.walk():
        if isinstance(n, ast.Var):
            out[n.name] = out.get(n.name, 0) + 1
    return out


def bound_names_in(e: ast.Node) -> set[str]:
    """Every name bound anywhere inside subtree ``e``."""
    out: set[str] = set()
    for n in e.walk():
        if isinstance(n, (ast.SimpleBinding, ast.TupleBinding)):
            out.update(n.bound_names())
        elif isinstance(n, ast.FunBinding):
            out.add(n.func.name)
        elif isinstance(n, ast.FunDef):
            out.update(n.params)
        elif isinstance(n, ast.LoopVar):
            out.add(n.name)
    return out


def rename_bound(e: ast.Expr, mapping: dict[str, str]) -> ast.Expr:
    """Alpha-rename: rewrite binders and uses per ``mapping`` (in place).

    Only names present in ``mapping`` change; free names pass through.
    Because all names in ``mapping`` are bound *within* the subtree being
    renamed, this preserves meaning.
    """
    for n in e.walk():
        if isinstance(n, ast.Var) and n.name in mapping:
            n.name = mapping[n.name]
        elif isinstance(n, ast.SimpleBinding) and n.name in mapping:
            n.name = mapping[n.name]
        elif isinstance(n, ast.TupleBinding):
            n.names = [mapping.get(x, x) for x in n.names]
        elif isinstance(n, ast.FunDef):
            if n.name in mapping:
                n.name = mapping[n.name]
            n.params = [mapping.get(p, p) for p in n.params]
        elif isinstance(n, ast.LoopVar) and n.name in mapping:
            n.name = mapping[n.name]
    return e
