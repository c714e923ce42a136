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
from ..analysis import FreshNames, ProgramAnalysis, all_names, analyze_program
from ..symtab import EnvAnalysis, EnvAnalyzer


@dataclass
class PassContext:
    """Everything a pass may consult, built once per optimization and kept
    current as the pipeline rewrites one function at a time.

    A pass over function ``f`` changes only ``f``'s facts, so the pipeline
    marks ``f`` stale and :meth:`refresh` re-derives the environment facts
    of the stale functions alone, then the call graph's SCCs and purity
    from the per-function facts (a graph of one vertex per function).

    Only inlining adds calls, and only to a function that already calls
    one: constant propagation, CSE and DCE move or delete reads of names
    but never introduce a function name a function did not read.  So a
    function whose facts record no call and no read of a Delirium
    function keeps none, and the inliner need not look at it again
    (:meth:`uses_functions`).
    """

    registry: OperatorRegistry | None
    #: Holds the environment facts (:attr:`env`) and re-derives them.
    analyzer: EnvAnalyzer
    analysis: ProgramAnalysis
    #: One generator for the whole optimization: a name it handed out is
    #: never handed out again, even after DCE removed its binding.
    fresh: FreshNames
    #: The program's live top-level functions by name.
    top_level: dict[str, ast.FunDef] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
    #: Top-level functions rewritten since ``env``/``analysis`` were derived.
    stale: set[str] = field(default_factory=set)

    @classmethod
    def build(
        cls,
        program: ast.Program,
        registry: OperatorRegistry | None,
        stats: dict[str, int],
        analyzer: EnvAnalyzer | None = None,
        fresh: FreshNames | None = None,
    ) -> "PassContext":
        """The context of ``program``: its one whole-program analysis and
        name generator, or the caller's (run on it, and seen all its names)."""
        if analyzer is None:
            known = registry.names() if registry is not None else None
            analyzer = EnvAnalyzer(program, known, strict=False)
            analyzer.run()
        ctx = cls(
            registry=registry,
            analyzer=analyzer,
            analysis=ProgramAnalysis(env=analyzer.result),
            fresh=fresh or FreshNames(all_names(program)),
            top_level={f.name: f for f in program.functions},
            stats=stats,
        )
        ctx._derive()
        return ctx

    @property
    def env(self) -> EnvAnalysis:
        return self.analyzer.result

    def refresh(self, everything: bool = False) -> None:
        """Re-derive the stale functions that use functions, or ``everything``."""
        names = {n for n in self.stale if everything or self.uses_functions(n)}
        if names:
            for name in names:
                self.analyzer.reanalyze(self.top_level[name])
            self.stale -= names
            self._derive()

    def uses_functions(self, name: str) -> bool:
        """Whether top-level function ``name`` or a local function of it
        calls or reads a Delirium function, as its facts were last derived
        (stale facts over-estimate: see the class docstring)."""
        prefix = name + "."
        return any(
            info.calls or info.refs
            for qualname, info in self.env.functions.items()
            if qualname == name or qualname.startswith(prefix)
        )

    def drop(self, names: set[str]) -> None:
        """Forget the top-level functions ``names`` (the pipeline has
        removed them from the program)."""
        for name in names:
            del self.top_level[name]
        self.stale -= names
        self.analyzer.forget(names)
        self._derive()

    def _derive(self) -> None:
        pure = self.registry.pure_names() if self.registry is not None else set()
        self.analysis = analyze_program(self.env, pure_operators=pure)

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


def pure_key(e: ast.Expr, ctx: PassContext, bound: set[str]) -> tuple | None:
    """The structural key of ``e`` when evaluating it has no effect, else
    ``None``: CSE's availability key and DCE's purity test.

    Conservative: ``bound`` holds names bound in enclosing scopes, and an
    applied bound name is a function value whose purity cannot be seen.  A
    nested let is keyed on each binding's form, names and right-hand side,
    then its body, with the names it bound so far; a local function, which
    runs nothing until called, is keyed on its identity (the passes make
    no function while they hold keys, so no two keyed functions share one).
    """
    if isinstance(e, ast.Var):
        return ("var", e.name)
    if isinstance(e, ast.Literal):
        return ("lit", repr(e.value))
    if isinstance(e, ast.Null):
        return ("null",)
    if isinstance(e, ast.Let):
        key, parts, bound = ["let"], [e.body], set(bound)
        for b in e.bindings:
            if isinstance(b, ast.FunBinding):
                key.append(("fun", id(b)))
            else:
                part = pure_key(b.expr, ctx, bound)
                if part is None:
                    return None
                key.append((type(b).__name__, *b.bound_names(), part))
            bound.update(b.bound_names())
    elif isinstance(e, ast.TupleExpr):
        key, parts = ["tuple"], e.items
    elif isinstance(e, ast.If):
        key, parts = ["if"], [e.cond, e.then, e.orelse]
    elif isinstance(e, ast.Apply) and isinstance(e.callee, ast.Var):
        if e.callee.name in bound or not ctx.operator_is_pure(e.callee.name):
            return None
        key, parts = ["apply", e.callee.name], e.args
    else:
        return None
    for part in parts:
        key.append(pure_key(part, ctx, bound))
        if key[-1] is None:
            return None
    return tuple(key)


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
    return e
