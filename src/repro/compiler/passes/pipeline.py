"""The optimization pass manager.

Runs the paper's four optimizations in a fixpoint loop::

    inline -> constant propagation -> CSE -> DCE

Inline first (it exposes operator applications to the scalar passes);
propagation before CSE (canonicalizes copies so syntactic keys match); DCE
last (sweeps the bindings the others orphaned).  The analysis context is
rebuilt only when the tree changed since it was built: right after an
inline pass that expanded something (inlining changes the call graph the
scalar passes of the same round are handed), and at the start of a round
whose predecessor's scalar passes changed anything.  The loop stops when a
full round changes nothing, or after ``max_rounds`` (a safety net — each
pass only shrinks or canonicalizes).  DCE makes at most two sweeps per
function per round (see :mod:`.dce`), so a longer chain of dead bindings
costs further whole rounds: the bench's ten-function generated program
takes five, and all its third round does is remove four bindings a third
sweep in the second would have found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...lang import ast
from ...runtime.operators import OperatorRegistry
from ..analysis import FreshNames, all_names, analyze_program
from ..symtab import analyze
from . import constprop, cse, dce, inline
from .common import PassContext


@dataclass
class OptimizationReport:
    """What the optimizer did, for tests, Table 1, and the ablations."""

    rounds: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: Wall seconds :func:`optimize` spent, accumulated over all rounds:
    #: ``"context"`` (building the analysis contexts) plus one key per
    #: :data:`PASS_ORDER` pass; they sum to ``seconds`` up to the loop's own
    #: bookkeeping.  Empty when only graph passes ran.
    pass_seconds: dict[str, float] = field(default_factory=dict)
    enabled: tuple[str, ...] = ()

    def describe(self) -> str:
        """Human-readable summary, e.g. for ``delirium compile`` output."""
        if not self.stats:
            return (
                f"optimizer: nothing to do "
                f"({self.rounds} round(s), passes: {', '.join(self.enabled)})"
            )
        parts = [
            f"{key.split('.', 1)[1].replace('_', ' ')} ({key.split('.')[0]}): {count}"
            for key, count in sorted(self.stats.items())
        ]
        return (
            f"optimizer ({self.rounds} round(s)): " + "; ".join(parts)
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

_RUNNERS = {
    "inline": inline.run,
    "constprop": constprop.run,
    "cse": cse.run,
    "dce": dce.run,
}


def _make_context(
    program: ast.Program,
    registry: OperatorRegistry | None,
    stats: dict[str, int],
) -> PassContext:
    known = registry.names() if registry is not None else None
    env = analyze(program, known_operators=known, strict=False)
    pure = registry.pure_names() if registry is not None else set()
    analysis = analyze_program(env, pure_operators=pure)
    return PassContext(
        registry=registry,
        env=env,
        analysis=analysis,
        fresh=FreshNames(all_names(program)),
        stats=stats,
    )


def optimize(
    program: ast.Program,
    registry: OperatorRegistry | None = None,
    enabled: tuple[str, ...] = PASS_ORDER,
    max_rounds: int = 8,
    inline_threshold: int = inline.DEFAULT_THRESHOLD,
) -> OptimizationReport:
    """Optimize ``program`` in place and return a report.

    ``enabled`` selects passes (ablation studies compile with subsets);
    unknown names raise ``KeyError`` loudly rather than silently skipping.
    """
    for name in enabled:
        if name not in _RUNNERS:
            raise KeyError(f"unknown optimization pass {name!r}")
    report = OptimizationReport(enabled=tuple(enabled))
    spent = report.pass_seconds = dict.fromkeys(("context", *PASS_ORDER), 0.0)

    def timed(key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        spent[key] += time.perf_counter() - t0
        return result

    def context() -> PassContext:
        return timed("context", _make_context, program, registry, report.stats)

    began = time.perf_counter()
    stale = True  # the tree changed since ``ctx`` was built
    for _ in range(max_rounds):
        if stale:
            ctx = context()
            stale = False
        changed = False
        for name in PASS_ORDER:
            if name not in enabled:
                continue
            if name == "inline":
                if timed(name, inline.run, program, ctx, threshold=inline_threshold):
                    changed = True
                    # Inlining invalidates the call graph; refresh for the
                    # scalar passes in the same round.
                    ctx = context()
            elif timed(name, _RUNNERS[name], program, ctx):
                changed = stale = True
        report.rounds += 1
        if not changed:
            break
    report.seconds = time.perf_counter() - began
    return report
