"""Whole-program analyses: recursion detection, purity, free variables.

Built on top of :mod:`repro.compiler.symtab`'s per-function facts:

* **Recursion detection** — strongly connected components of the static
  call graph.  A call from ``f`` to ``g`` is *recursive* when ``f`` and
  ``g`` share an SCC (this covers self-recursion and mutual recursion).
  The runtime's three-level priority queue schedules recursive
  call-closure expansions last, which is what keeps parallel backtracking
  programs like eight queens from exploding into unbounded activations
  (sections 3 and 7 of the paper).
* **Purity** — a function is pure when every operator it applies is
  registered pure and every callee is pure; computed as a greatest
  fixpoint (assume pure, strike out).  Dynamic calls are conservatively
  impure.  Purity licenses common-subexpression and dead-code elimination.
* **Free variables of an arbitrary expression** — used by graph generation
  when closure-converting conditional arms and local functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from .symtab import EnvAnalysis


# ---------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan)
# ---------------------------------------------------------------------------


def strongly_connected_components(
    graph: dict[str, set[str]]
) -> list[list[str]]:
    """Tarjan's algorithm, iterative to survive deep recursion chains.

    ``graph`` maps each vertex to its successor set; successors that are
    not themselves vertices are ignored (calls to operators).
    Returns components in reverse topological order.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [
            (root, sorted(s for s in graph[root] if s in graph), 0)
        ]
        while work:
            v, succs, i = work.pop()
            if i == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while i < len(succs):
                w = succs[i]
                i += 1
                if w not in index:
                    work.append((v, succs, i))
                    work.append((w, sorted(s for s in graph[w] if s in graph), 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                component: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


# ---------------------------------------------------------------------------
# Program-level analysis results
# ---------------------------------------------------------------------------


@dataclass
class ProgramAnalysis:
    """Recursion and purity facts derived from an :class:`EnvAnalysis`."""

    env: EnvAnalysis
    #: The call graph's SCCs, callees first; an SCC id indexes this list.
    components: list[list[str]] = field(default_factory=list)
    #: Map function qualname -> SCC id.
    scc_of: dict[str, int] = field(default_factory=dict)
    #: SCC ids that contain a cycle (size > 1, or a self loop).
    cyclic_sccs: set[int] = field(default_factory=set)
    #: Function qualnames proven pure.
    pure_functions: set[str] = field(default_factory=set)

    def is_recursive_call(self, caller: str, callee: str) -> bool:
        """True when a static call ``caller -> callee`` closes a cycle."""
        a = self.scc_of.get(caller)
        b = self.scc_of.get(callee)
        return a is not None and a == b and a in self.cyclic_sccs

    def is_recursive_function(self, qualname: str) -> bool:
        scc = self.scc_of.get(qualname)
        return scc is not None and scc in self.cyclic_sccs

    def is_pure_function(self, qualname: str) -> bool:
        return qualname in self.pure_functions


def analyze_program(
    env: EnvAnalysis, pure_operators: set[str] | None = None
) -> ProgramAnalysis:
    """Compute recursion SCCs and the purity fixpoint.

    Parameters
    ----------
    env:
        The environment analysis (provides the call graph).
    pure_operators:
        Names of operators registered as pure.  ``None`` means "assume all
        operators pure", which is only safe for tests; the driver always
        passes the registry's actual pure set.
    """
    result = ProgramAnalysis(env=env)
    graph = {q: set(info.calls) for q, info in env.functions.items()}
    result.components = strongly_connected_components(graph)
    for scc_id, component in enumerate(result.components):
        cyclic = len(component) > 1 or (
            component[0] in graph.get(component[0], set())
        )
        for name in component:
            result.scc_of[name] = scc_id
        if cyclic:
            result.cyclic_sccs.add(scc_id)

    # Purity fixpoint: start optimistic, strike impure until stable.
    pure = set(env.functions)
    changed = True
    while changed:
        changed = False
        for qualname, info in env.functions.items():
            if qualname not in pure:
                continue
            impure = info.has_dynamic_calls
            if not impure and pure_operators is not None:
                impure = any(op not in pure_operators for op in info.op_calls)
            if not impure:
                impure = any(callee not in pure for callee in info.calls)
            if impure:
                pure.discard(qualname)
                changed = True
    result.pure_functions = pure
    return result


# ---------------------------------------------------------------------------
# Free variables of an expression
# ---------------------------------------------------------------------------


def free_variables(expr: ast.Expr, bound: set[str]) -> list[str]:
    """Names read by ``expr`` that are not in ``bound``, in first-use order.

    Function names and operator names count as free too — the caller
    decides which of them are globally resolvable (top-level functions and
    operators need no capture; everything else does).
    """
    out: list[str] = []
    seen: set[str] = set()

    def visit(e: ast.Expr, bound: frozenset[str]) -> None:
        if isinstance(e, ast.Var):
            if e.name not in bound and e.name not in seen:
                seen.add(e.name)
                out.append(e.name)
            return
        if isinstance(e, (ast.Literal, ast.Null)):
            return
        if isinstance(e, ast.TupleExpr):
            for item in e.items:
                visit(item, bound)
            return
        if isinstance(e, ast.Apply):
            visit(e.callee, bound)
            for a in e.args:
                visit(a, bound)
            return
        if isinstance(e, ast.If):
            visit(e.cond, bound)
            visit(e.then, bound)
            visit(e.orelse, bound)
            return
        if isinstance(e, ast.Let):
            inner = set(bound)
            for b in e.bindings:
                if isinstance(b, ast.SimpleBinding):
                    visit(b.expr, frozenset(inner))
                    inner.add(b.name)
                elif isinstance(b, ast.TupleBinding):
                    visit(b.expr, frozenset(inner))
                    inner.update(b.names)
                elif isinstance(b, ast.FunBinding):
                    inner.add(b.func.name)
                    fn_bound = inner | set(b.func.params)
                    visit(b.func.body, frozenset(fn_bound))
            visit(e.body, frozenset(inner))
            return
        raise TypeError(f"unexpected AST node {type(e).__name__}")

    visit(expr, frozenset(bound))
    return out


def all_names(program: ast.Program) -> set[str]:
    """Every identifier bound or read anywhere in ``program``, in one walk
    (what a :class:`FreshNames` over the program must avoid)."""
    names: set[str] = set()
    for node in program.walk():
        if isinstance(node, ast.Var):
            names.add(node.name)
        elif isinstance(node, ast.FunDef):
            names.add(node.name)
            names.update(node.params)
        elif isinstance(node, ast.SimpleBinding):
            names.add(node.name)
        elif isinstance(node, ast.TupleBinding):
            names.update(node.names)
        elif isinstance(node, ast.LoopVar):
            names.add(node.name)
    return names


class FreshNames:
    """Generator of names guaranteed not to collide with program names.

    Compiler-generated names contain ``$`` which the scanner accepts inside
    identifiers but user programs conventionally avoid; uniqueness is still
    enforced against the provided used-name set.
    """

    def __init__(self, used: set[str]) -> None:
        self._used = set(used)
        self._counters: dict[str, int] = {}

    def fresh(self, stem: str) -> str:
        n = self._counters.get(stem, 0)
        while True:
            n += 1
            candidate = f"{stem}${n}"
            if candidate not in self._used:
                self._counters[stem] = n
                self._used.add(candidate)
                return candidate
