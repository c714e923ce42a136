"""The pass manager: the compiler's one pass table and the AST fixpoint.

:data:`PASSES` names every pass once, in execution order, with its AST
half and its graph half.  :data:`PASS_ORDER`, :data:`GRAPH_PASS_ORDER` and
:data:`FULL_PASS_ORDER` are read off it, :func:`optimize` runs the AST
halves and ``compile_source`` runs the graph halves from it; no other
module spells a pass name.

:func:`optimize` runs the paper's four optimizations on each function to
its fixpoint::

    inline -> constant propagation -> CSE -> DCE

Inline first (it exposes operator applications to the scalar passes);
propagation before CSE (canonicalizes copies so syntactic keys match); DCE
last (sweeps the bindings the others orphaned).

Every function is optimized once, callees first: the top-level functions
are visited SCC by SCC of the call graph (a local function's calls count
as its host's), in the reverse topological order Tarjan's algorithm
returns, and each SCC is driven to its fixpoint before any caller is
visited.  A caller's inline pass therefore splices final callee bodies,
and no function is swept again once a later function has been visited.
Within one function the passes run in the order above, round after round,
and a pass runs again only after some pass has changed the function since
it last ran: the function is done when every enabled pass has seen its
final tree and changed nothing.  DCE iterates to its own fixpoint, so it
never needs a second look at a tree it left.

Only the inliner consults the call graph.  The context is built once per
:func:`optimize` (or seeded with the caller's analysis and name generator);
a pass that changes a function marks it stale, the inliner's next sweep
first re-derives the facts of the stale functions that use functions, the
end those of every stale function, and each then the SCCs and purity from
the per-function facts (:class:`.common.PassContext`).

Given the program's ``entry``, a top-level function that no live function
reaches from it is dropped from the program: before anything is swept,
and again once every function is done (inlining removes the last call of
most small helpers).  Without an entry nothing is dropped, and the
functions stay where they were.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...lang import ast
from ...runtime.operators import OperatorRegistry
from ..analysis import FreshNames, strongly_connected_components
from ..symtab import EnvAnalysis, EnvAnalyzer
from . import constprop, cse, dce, fuse, inline, splice
from .common import PassContext


@dataclass
class OptimizationReport:
    """What the optimizer did, for tests, Table 1, and the ablations."""

    #: The most rounds of the enabled passes any one function took to
    #: reach its fixpoint (the last round is the one that changed nothing;
    #: it may end early, see :mod:`.pipeline`).
    rounds: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: Wall seconds :func:`optimize` spent: ``"context"`` (building the
    #: analysis context once, keeping it current, finding dead functions)
    #: plus one key per :data:`PASS_ORDER` pass; they sum to ``seconds`` up
    #: to the loop's own bookkeeping.  Empty when only graph passes ran.
    pass_seconds: dict[str, float] = field(default_factory=dict)
    enabled: tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable summary, e.g. for ``delirium compile`` output."""
        if not self.stats:
            return (
                f"optimizer: nothing to do "
                f"(at most {self.rounds} round(s) per function, "
                f"passes: {', '.join(self.enabled)})"
            )
        parts = [
            f"{key.split('.', 1)[1].replace('_', ' ')} ({key.split('.')[0]}): {count}"
            for key, count in sorted(self.stats.items())
        ]
        return (
            f"optimizer (at most {self.rounds} round(s) per function): "
            + "; ".join(parts)
        )


#: The compiler's passes, named once, in execution order: ``(name, AST
#: half, graph half)``.  An AST half is ``run(function, ctx) -> changed``
#: and runs in :func:`optimize`'s fixpoint loop, in this order; a graph
#: half is ``run(graph, analysis, registry) -> stats`` and ``compile_source``
#: runs it on the coordination graphs, after template generation, in this
#: order.
#: Enabling a name enables both its halves: ``inline`` copies small
#: callees off every call-graph cycle on the AST and splices those on a
#: cycle into their callers' graphs (:mod:`.splice`).  Both halves run on
#: lowered programs: no ``iterate`` is left by then
#: (:func:`~repro.compiler.lowering.lower_program`).
PASSES = (
    ("inline", inline.run, splice.run),
    ("constprop", constprop.run, None),
    ("cse", cse.run, None),
    ("dce", dce.run, None),
    ("fuse", None, fuse.run),
)

#: The passes with an AST half: the default optimization set.
PASS_ORDER = tuple(name for name, ast_half, _ in PASSES if ast_half)

#: The passes with a graph half only; off by default (the paper's graphs
#: are unfused, and the figure tests pin them).
GRAPH_PASS_ORDER = tuple(name for name, ast_half, _ in PASSES if not ast_half)

#: Every pass name a caller may request, in execution order.
FULL_PASS_ORDER = tuple(name for name, _, _ in PASSES)

#: Safety net: the most rounds one function may take (each pass only
#: shrinks or canonicalizes, so a fixpoint comes long before).
MAX_ROUNDS = 8


def _callee_first(env: EnvAnalysis) -> list[list[str]]:
    """The top-level functions grouped by SCC of the call graph (a local
    function's calls count as its host's), callees first."""
    graph: dict[str, set[str]] = {name: set() for name in env.top_level}
    for qualname, info in env.functions.items():
        graph[qualname.split(".", 1)[0]].update(
            callee.split(".", 1)[0] for callee in info.calls
        )
    return strongly_connected_components(graph)


def optimize(
    program: ast.Program,
    registry: OperatorRegistry | None = None,
    enabled: tuple[str, ...] = PASS_ORDER,
    entry: str | None = None,
    analyzer: EnvAnalyzer | None = None,
    fresh: FreshNames | None = None,
) -> OptimizationReport:
    """Optimize ``program`` in place and return a report.

    ``enabled`` selects passes (ablation studies compile with subsets);
    unknown names raise ``KeyError`` loudly rather than silently skipping.
    ``entry`` names the function the program runs from; top-level
    functions it cannot reach are dropped.  ``None`` keeps every function
    in place (callers that zip the result back by position need that).
    ``analyzer`` (run on ``program``) and ``fresh`` (seen all its names)
    seed the context; ``analyzer`` returns with the optimized facts.
    """
    for name in enabled:
        if name not in PASS_ORDER:
            raise KeyError(f"unknown optimization pass {name!r}")
    report = OptimizationReport(enabled=tuple(enabled))
    spent = report.pass_seconds = dict.fromkeys(("context", *PASS_ORDER), 0.0)
    runners = {
        name: run for name, run, _ in PASSES if run and name in enabled
    }
    clock = time.perf_counter
    began = clock()

    ctx = PassContext.build(program, registry, report.stats, analyzer, fresh)

    def drop_dead() -> None:
        ctx.refresh()
        dead = dce.dead_functions(ctx.env, entry)
        if dead:
            program.functions[:] = [
                f for f in program.functions if f.name not in dead
            ]
            ctx.drop(dead)
            ctx.bump(f"{dce.NAME}.functions_dropped", len(dead))

    if entry is not None:
        drop_dead()
    spent["context"] += clock() - began

    def fixpoint(f: ast.FunDef) -> bool:
        """Drive ``f`` to its fixpoint; True when any pass changed it."""
        changed = False
        due = set(runners)  # passes that have not seen f's current tree
        rounds = 0
        while due and rounds < MAX_ROUNDS:
            rounds += 1
            for name, run in runners.items():
                if name not in due:
                    continue
                due.discard(name)
                if name == "inline":
                    # Only a function that uses a function has calls to
                    # expand; the inliner reads callees' current facts.
                    t0 = clock()
                    expand = ctx.uses_functions(f.name)
                    if expand:
                        ctx.refresh()
                    spent["context"] += clock() - t0
                    if not expand:
                        continue
                t0 = clock()
                hit = run(f, ctx)
                spent[name] += clock() - t0
                if hit:
                    changed = True
                    ctx.stale.add(f.name)
                    due = set(runners)
                    if name == "dce":
                        due.discard(name)  # DCE stops at its own fixpoint
        report.rounds = max(report.rounds, rounds)
        return changed

    for group in _callee_first(ctx.env):
        # Members of one SCC call each other: sweep them round-robin until
        # none changes (a single function needs one visit).
        changed = True
        while changed:
            changed = False
            for name in group:
                changed = fixpoint(ctx.top_level[name]) or changed
            changed = changed and len(group) > 1

    t0 = clock()
    if entry is not None:
        drop_dead()
    ctx.refresh(everything=True)
    spent["context"] += clock() - t0
    report.seconds = clock() - began
    return report
