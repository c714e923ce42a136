"""Environment analysis for the Pythia compiler.

This is the "Env Analysis" pass of Table 1 in the paper.  It walks every
function, building lexical scopes, and

* enforces **single assignment**: a name may not be rebound while an
  existing binding for it is visible (params, let bindings and function
  names all count);
* resolves every name to one of *parameter*, *local binding*, *local
  function*, *top-level function*, or *operator* — and, in strict mode,
  rejects names that resolve to none of these;
* checks the arity of calls whose callee is a statically known Delirium
  function (operator arities are checked by the registry at run time, since
  operators are external code);
* records, per function, the ordered free variables and the set of
  statically known callees — the inputs for recursion detection, closure
  conversion, and the purity analysis — plus the functions it reads as
  values, which with the callees say which functions are live.

A function's facts depend only on its own body and on the top-level
names and arities, so after an optimization pass rewrites one function
:meth:`EnvAnalyzer.reanalyze` re-derives that function's facts (and its
local functions') and keeps every other function's.

It runs on lowered programs (:func:`~.lowering.lower_program`): an
``iterate`` is a local function by then, so its loop variables are that
function's parameters, and an error in one is reported where the lowered
tree puts it.  Local functions are given qualified names
(``outer.inner``), the generated loop functions included
(``outer.loop$1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (
    ArityError,
    SingleAssignmentError,
    UnboundNameError,
)
from ..lang import ast


@dataclass
class FunctionInfo:
    """What environment analysis learned about one (possibly local) function."""

    qualname: str
    params: list[str]
    #: Free variables in first-use order (names bound in an enclosing
    #: function that this function's body reads).  These become the
    #: template's captures.
    free: list[str] = field(default_factory=list)
    #: Qualified names of Delirium functions this function applies directly.
    calls: set[str] = field(default_factory=set)
    #: Names of operators this function applies directly.
    op_calls: set[str] = field(default_factory=set)
    #: Qualified names of Delirium functions this function reads as values
    #: (passed or bound, not applied): not calls, but they keep the
    #: function alive.
    refs: set[str] = field(default_factory=set)
    #: True when some callee is a computed value (first-class function),
    #: so the static call graph is incomplete for this function.
    has_dynamic_calls: bool = False
    #: Number of AST nodes in the body (the tree 'weight' used by the
    #: parallel compilation case study and the inliner's size threshold).
    body_size: int = 0


class _Scope:
    """One lexical scope level: a mapping from names to resolution tags."""

    __slots__ = ("bindings", "parent", "function")

    def __init__(self, parent: "_Scope | None", function: str) -> None:
        self.bindings: dict[str, tuple[str, str]] = {}
        self.parent = parent
        #: Qualified name of the function whose body this scope is part of.
        self.function = function

    def lookup(self, name: str) -> tuple[str, str, str] | None:
        """Resolve ``name``; returns ``(kind, detail, owner_function)``."""
        scope: _Scope | None = self
        while scope is not None:
            hit = scope.bindings.get(name)
            if hit is not None:
                return hit[0], hit[1], scope.function
            scope = scope.parent
        return None

    def bind(self, name: str, kind: str, detail: str, node: ast.Node) -> None:
        if self.lookup(name) is not None:
            raise SingleAssignmentError(
                f"{name!r} is already bound; Delirium is single-assignment",
                node.line,
                node.column,
            )
        self.bindings[name] = (kind, detail)


@dataclass
class EnvAnalysis:
    """Result of environment analysis over a whole program."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Names of the top-level functions, in source order.
    top_level: list[str] = field(default_factory=list)

    def info(self, qualname: str) -> FunctionInfo:
        return self.functions[qualname]


class EnvAnalyzer:
    """Environment analysis of one program; after :meth:`run`, keeps its
    result current one function at a time (:meth:`reanalyze`)."""

    def __init__(
        self,
        program: ast.Program,
        known_operators: set[str] | None,
        strict: bool,
    ) -> None:
        self.program = program
        self.known_operators = known_operators
        self.strict = strict
        self.result = EnvAnalysis()
        self.top_level_arity: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> EnvAnalysis:
        for f in self.program.functions:
            if f.name in self.top_level_arity:
                raise SingleAssignmentError(
                    f"function {f.name!r} defined more than once",
                    f.line,
                    f.column,
                )
            self.top_level_arity[f.name] = len(f.params)
        self.result.top_level = self.program.function_names()
        self.globals_scope = _Scope(None, "")
        for f in self.program.functions:
            self.globals_scope.bindings[f.name] = ("topfun", f.name)
        for f in self.program.functions:
            self.function(f)
        return self.result

    def function(self, f: ast.FunDef) -> FunctionInfo:
        """Analyze top-level function ``f`` into ``self.result``."""
        return self._function(f, f.name, self.globals_scope)

    def reanalyze(self, f: ast.FunDef) -> None:
        """Re-derive the facts of top-level function ``f`` and its local
        functions from ``f``'s current body; every other function keeps
        its entry, and the entries keep their order."""
        result = self.result
        old = result.functions
        result.functions = {}
        self.function(f)
        new, prefix = result.functions, f.name + "."
        result.functions = {}
        for qualname, info in old.items():
            if qualname == f.name:
                result.functions.update(new)
            elif not qualname.startswith(prefix):
                result.functions[qualname] = info

    def forget(self, names: set[str]) -> None:
        """Drop the top-level functions ``names`` and their local functions."""
        result = self.result
        result.top_level = [n for n in result.top_level if n not in names]
        result.functions = {
            q: info
            for q, info in result.functions.items()
            if q.split(".", 1)[0] not in names
        }

    # ------------------------------------------------------------------
    def _function(self, f: ast.FunDef, qualname: str, outer: _Scope) -> FunctionInfo:
        info = FunctionInfo(qualname=qualname, params=list(f.params))
        self.result.functions[qualname] = info
        scope = _Scope(outer, qualname)
        for p in f.params:
            scope.bind(p, "param", p, f)
        self._expr(f.body, scope, info)
        return info

    def _note_free(self, name: str, owner: str, info: FunctionInfo) -> None:
        """Record a read of ``name`` bound in function ``owner``."""
        if owner != info.qualname and owner != "" and name not in info.free:
            info.free.append(name)

    def _resolve_use(
        self, node: ast.Var, scope: _Scope, info: FunctionInfo
    ) -> tuple[str, str]:
        hit = scope.lookup(node.name)
        if hit is not None:
            kind, detail, owner = hit
            self._note_free(node.name, owner, info)
            return kind, detail
        if self.known_operators is not None and node.name in self.known_operators:
            return "operator", node.name
        if self.known_operators is None:
            # Without a registry we assume external operator; the runtime
            # reports UnknownOperatorError if it is not.
            return "operator", node.name
        if self.strict:
            raise UnboundNameError(
                f"{node.name!r} is not bound, not a function, and not a "
                "registered operator",
                node.line,
                node.column,
            )
        return "operator", node.name

    # ------------------------------------------------------------------
    def _expr(self, e: ast.Expr, scope: _Scope, info: FunctionInfo) -> None:
        # ``body_size`` is ``f.body.size()`` counted on the way: one per
        # expression here, one per node that does not come through here
        # (a ``Var`` callee, bindings, nested ``FunDef``s)
        # where the traversal steps over it.
        info.body_size += 1
        if isinstance(e, (ast.Literal, ast.Null)):
            return
        if isinstance(e, ast.Var):
            kind, detail = self._resolve_use(e, scope, info)
            if kind in ("topfun", "localfun"):
                info.refs.add(detail)
            return
        if isinstance(e, ast.TupleExpr):
            for item in e.items:
                self._expr(item, scope, info)
            return
        if isinstance(e, ast.Apply):
            self._apply(e, scope, info)
            return
        if isinstance(e, ast.If):
            self._expr(e.cond, scope, info)
            self._expr(e.then, scope, info)
            self._expr(e.orelse, scope, info)
            return
        if isinstance(e, ast.Let):
            self._let(e, scope, info)
            return
        raise TypeError(f"unexpected AST node {type(e).__name__}")

    def _apply(self, e: ast.Apply, scope: _Scope, info: FunctionInfo) -> None:
        if isinstance(e.callee, ast.Var):
            info.body_size += 1
            kind, detail = self._resolve_use(e.callee, scope, info)
            if kind == "topfun":
                info.calls.add(detail)
                want = self.top_level_arity[detail]
                if len(e.args) != want:
                    raise ArityError(
                        f"{detail!r} takes {want} argument(s), got {len(e.args)}",
                        e.line,
                        e.column,
                    )
            elif kind == "localfun":
                info.calls.add(detail)
                local = self.result.functions.get(detail)
                if local is not None and len(e.args) != len(local.params):
                    raise ArityError(
                        f"{detail!r} takes {len(local.params)} argument(s), "
                        f"got {len(e.args)}",
                        e.line,
                        e.column,
                    )
            elif kind == "operator":
                info.op_calls.add(detail)
            else:
                # Calling through a variable: a first-class function value.
                info.has_dynamic_calls = True
        else:
            self._expr(e.callee, scope, info)
            info.has_dynamic_calls = True
        for a in e.args:
            self._expr(a, scope, info)

    def _let(self, e: ast.Let, scope: _Scope, info: FunctionInfo) -> None:
        inner = _Scope(scope, info.qualname)
        info.body_size += len(e.bindings)
        for b in e.bindings:
            if isinstance(b, ast.SimpleBinding):
                self._expr(b.expr, inner, info)
                inner.bind(b.name, "local", b.name, b)
            elif isinstance(b, ast.TupleBinding):
                self._expr(b.expr, inner, info)
                for n in b.names:
                    inner.bind(n, "local", n, b)
            elif isinstance(b, ast.FunBinding):
                qual = f"{info.qualname}.{b.func.name}"
                # Bind the name first so the local function can recurse.
                inner.bind(b.func.name, "localfun", qual, b)
                sub = self._function(b.func, qual, inner)
                info.body_size += 1 + sub.body_size
                # Free variables of the local function that are not bound in
                # *this* function propagate outward as our own free vars.
                for name in sub.free:
                    hit = inner.lookup(name)
                    if hit is not None:
                        _, _, owner = hit
                        self._note_free(name, owner, info)
            else:  # pragma: no cover - parser produces only the above
                raise TypeError(f"unexpected binding {type(b).__name__}")
        self._expr(e.body, inner, info)


def analyze(
    program: ast.Program,
    known_operators: set[str] | None = None,
    strict: bool = True,
) -> EnvAnalysis:
    """Run environment analysis over ``program``.

    Parameters
    ----------
    program:
        The parsed, macro-expanded and lowered program (no ``iterate``
        remains; see :func:`~.lowering.lower_program`).  Re-running it is safe.
    known_operators:
        Names of registered operators.  When given along with
        ``strict=True``, any unresolvable name raises
        :class:`~repro.errors.UnboundNameError`.  When ``None``, unknown
        names are assumed to be operators and left for the runtime to check.
    strict:
        Enable unbound-name errors (requires ``known_operators``).

    Raises
    ------
    SingleAssignmentError, UnboundNameError, ArityError
    """
    return EnvAnalyzer(program, known_operators, strict).run()
