"""The optimization pass manager.

Runs the paper's four optimizations on each function to its fixpoint::

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
:func:`optimize`; a pass that changes a function marks it stale, and the
inliner's next sweep first re-derives the stale functions' facts and the
SCCs and purity from the per-function facts (:class:`.common.PassContext`).

Given the program's ``entry``, a top-level function that no live function
reaches from it is dropped from the program: before anything is swept,
and again once every function is done (inlining removes the last call of
most small helpers).  Without an entry nothing is dropped, and the
functions stay where they were.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from ...lang import ast
from ...runtime.operators import OperatorRegistry
from ..analysis import strongly_connected_components
from ..symtab import EnvAnalysis
from . import constprop, cse, dce, inline
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


#: Canonical pass order (the AST-level fixpoint passes).
PASS_ORDER = ("inline", "constprop", "cse", "dce")

#: Graph-level passes, run by the driver *after* template generation (they
#: rewrite coordination graphs, not ASTs, so they live outside the fixpoint
#: loop).  Names share the same flat namespace as :data:`PASS_ORDER`.
GRAPH_PASS_ORDER = ("fuse",)

#: Every pass name a caller may request, in execution order.
FULL_PASS_ORDER = PASS_ORDER + GRAPH_PASS_ORDER


def split_passes(
    enabled: tuple[str, ...],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition requested pass names into (AST passes, graph passes)."""
    ast_passes = tuple(p for p in enabled if p not in GRAPH_PASS_ORDER)
    graph_passes = tuple(p for p in enabled if p in GRAPH_PASS_ORDER)
    return ast_passes, graph_passes

#: Each pass module's ``run(function, ctx) -> changed``.
_PASSES = {"inline": inline, "constprop": constprop, "cse": cse, "dce": dce}

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
    inline_threshold: int = inline.DEFAULT_THRESHOLD,
    entry: str | None = None,
) -> OptimizationReport:
    """Optimize ``program`` in place and return a report.

    ``enabled`` selects passes (ablation studies compile with subsets);
    unknown names raise ``KeyError`` loudly rather than silently skipping.
    ``entry`` names the function the program runs from; top-level
    functions it cannot reach are dropped.  ``None`` keeps every function
    in place (callers that zip the result back by position need that).
    """
    for name in enabled:
        if name not in _PASSES:
            raise KeyError(f"unknown optimization pass {name!r}")
    report = OptimizationReport(enabled=tuple(enabled))
    spent = report.pass_seconds = dict.fromkeys(("context", *PASS_ORDER), 0.0)
    runners = {name: _PASSES[name].run for name in PASS_ORDER if name in enabled}
    if "inline" in runners:
        runners["inline"] = functools.partial(
            inline.run, threshold=inline_threshold
        )
    clock = time.perf_counter
    began = clock()

    ctx = PassContext.build(program, registry, report.stats)

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

    if entry is not None:
        t0 = clock()
        drop_dead()
        spent["context"] += clock() - t0
    report.seconds = clock() - began
    return report
