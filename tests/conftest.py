"""Shared fixtures and program sources for the test suite."""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

from repro import compile_source, default_registry
from repro.compiler.analysis import FreshNames, analyze_program
from repro.compiler.passes import constprop, cse, inline
from repro.compiler.passes.common import PassContext, expr_is_pure
from repro.compiler.passes.pipeline import PASS_ORDER, OptimizationReport
from repro.compiler.symtab import analyze
from repro.lang import ast
from repro.runtime import OperatorRegistry


@pytest.fixture(scope="session", autouse=True)
def shm_leak_gate():
    """The whole suite is a leak gate: whatever a test puts in
    ``/dev/shm`` must be gone by the end of the session."""
    try:
        before = set(os.listdir("/dev/shm"))
    except OSError:  # no tmpfs to watch on this platform
        yield
        return
    yield
    leaked = sorted(set(os.listdir("/dev/shm")) - before)
    assert not leaked, f"shared-memory segments leaked: {leaked}"


def recursive_payload_nbytes(payload):
    """``payload_nbytes`` as it was when every block was sized at
    construction, verbatim: the oracle the explicit-stack walk must match
    integer for integer."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple, set)):
        return int(
            sys.getsizeof(payload)
            + sum(recursive_payload_nbytes(i) for i in payload)
        )
    if isinstance(payload, dict):
        return int(
            sys.getsizeof(payload)
            + sum(recursive_payload_nbytes(v) for v in payload.values())
        )
    try:
        return int(sys.getsizeof(payload))
    except TypeError:  # pragma: no cover - exotic objects
        return 64


# ---------------------------------------------------------------------------
# The AST traversal, DCE and pass loop as they were when every liveness
# question re-walked the whole function, verbatim: the oracles the
# linear-time optimizer must match node for node, stat for stat and round
# for round (tests/test_optimizer_linear.py).
# ---------------------------------------------------------------------------


def recursive_children(node):
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, ast.Node):
            yield v
        elif isinstance(v, (list, tuple)):
            for item in v:
                if isinstance(item, ast.Node):
                    yield item


def recursive_walk(node):
    yield node
    for child in recursive_children(node):
        yield from recursive_walk(child)


def oracle_count_uses(e, name):
    return sum(
        1 for n in recursive_walk(e) if isinstance(n, ast.Var) and n.name == name
    )


def oracle_bound_names_in(e):
    out = set()
    for n in recursive_walk(e):
        if isinstance(n, (ast.SimpleBinding, ast.TupleBinding)):
            out.update(n.bound_names())
        elif isinstance(n, ast.FunBinding):
            out.add(n.func.name)
        elif isinstance(n, ast.FunDef):
            out.update(n.params)
        elif isinstance(n, ast.LoopVar):
            out.add(n.name)
    return out


def oracle_count_uses_excluding_binding(function, name, binding):
    total = oracle_count_uses(function.body, name)
    if isinstance(binding, (ast.SimpleBinding, ast.TupleBinding)):
        total -= oracle_count_uses(binding.expr, name)
    elif isinstance(binding, ast.FunBinding):
        total -= oracle_count_uses(binding.func.body, name)
    return total


class OracleDCE:
    def __init__(self, ctx, function):
        self.ctx = ctx
        self.function = function
        self.changed = False

    def run(self):
        while True:
            before = self.changed
            self.function.body = self._expr(
                self.function.body, set(self.function.params)
            )
            if self.changed == before:
                return

    def _expr(self, e, bound):
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
            kept = []
            for b in e.bindings:
                removable = False
                if isinstance(b, ast.SimpleBinding):
                    if oracle_count_uses_excluding_binding(
                        self.function, b.name, b
                    ) == 0 and expr_is_pure(b.expr, self.ctx, inner):
                        removable = True
                elif isinstance(b, ast.TupleBinding):
                    if all(
                        oracle_count_uses_excluding_binding(self.function, n, b) == 0
                        for n in b.names
                    ) and expr_is_pure(b.expr, self.ctx, inner):
                        removable = True
                elif isinstance(b, ast.FunBinding):
                    external = oracle_count_uses(
                        self.function.body, b.func.name
                    ) - oracle_count_uses(b.func.body, b.func.name)
                    if external == 0:
                        removable = True
                if removable:
                    self.changed = True
                    self.ctx.bump("dce.removed")
                    continue
                if isinstance(b, (ast.SimpleBinding, ast.TupleBinding)):
                    b.expr = self._expr(b.expr, inner)
                elif isinstance(b, ast.FunBinding):
                    fn_bound = inner | {b.func.name} | set(b.func.params)
                    b.func.body = self._expr(b.func.body, fn_bound)
                inner.update(b.bound_names())
                kept.append(b)
            e.bindings = kept
            e.body = self._expr(e.body, inner)
            if not e.bindings:
                self.changed = True
                self.ctx.bump("dce.lets_collapsed")
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


def oracle_dce_run(program, ctx):
    changed = False
    for f in program.functions:
        dce = OracleDCE(ctx, f)
        dce.run()
        changed = changed or dce.changed
    return changed


def oracle_make_context(program, registry, stats):
    known = registry.names() if registry is not None else None
    env = analyze(program, known_operators=known, strict=False)
    pure = registry.pure_names() if registry is not None else set()
    analysis = analyze_program(env, pure_operators=pure)
    used = set()
    for f in program.functions:
        used.add(f.name)
        used.update(f.params)
        used.update(oracle_bound_names_in(f.body))
        for node in recursive_walk(f.body):
            if isinstance(node, ast.Var):
                used.add(node.name)
    return PassContext(
        registry=registry,
        env=env,
        analysis=analysis,
        fresh=FreshNames(used),
        stats=stats,
    )


def oracle_optimize(
    program,
    registry=None,
    enabled=PASS_ORDER,
    max_rounds=8,
    inline_threshold=inline.DEFAULT_THRESHOLD,
):
    """The pass loop with a context rebuilt at every round start and
    unconditionally after ``inline``, and the quadratic DCE."""
    runners = {
        "inline": inline.run,
        "constprop": constprop.run,
        "cse": cse.run,
        "dce": oracle_dce_run,
    }
    report = OptimizationReport(enabled=tuple(enabled))
    for _ in range(max_rounds):
        ctx = oracle_make_context(program, registry, report.stats)
        changed = False
        for name in PASS_ORDER:
            if name not in enabled:
                continue
            if name == "inline":
                changed = inline.run(program, ctx, threshold=inline_threshold) or changed
                ctx = oracle_make_context(program, registry, report.stats)
            else:
                changed = runners[name](program, ctx) or changed
        report.rounds += 1
        if not changed:
            break
    return report


#: The paper's fork-join example (section 2.1), verbatim modulo operators.
FORK_JOIN_SRC = """
main()
  let
     a_start = init_fn()
     a = convolve(a_start, 0)
     b = convolve(a_start, 1)
     c = convolve(a_start, 2)
     d = convolve(a_start, 3)
  in term_fn(a, b, c, d)
"""

#: Tail-recursive iterate: factorial.
FACTORIAL_SRC = """
main(n)
  iterate
  {
    i = 1, incr(i)
    acc = 1, mul(acc, i)
  }
  while is_less_equal(i, n),
  result acc
"""

#: Plain (non-tail) recursion.
FIB_SRC = """
main(n) fib(n)
fib(n)
  if is_less(n, 2)
  then n
  else add(fib(sub(n, 1)), fib(sub(n, 2)))
"""

#: First-class functions: apply a passed function twice.
HIGHER_ORDER_SRC = """
main(n)
  let twice(f, x) f(f(x))
  in twice(incr, n)
"""


def fork_join_registry() -> OperatorRegistry:
    reg = default_registry()

    @reg.register(cost=10.0)
    def init_fn():
        return 10

    @reg.register(pure=True, cost=1000.0)
    def convolve(x, k):
        return x * (k + 1)

    @reg.register(pure=True, cost=10.0)
    def term_fn(a, b, c, d):
        return a + b + c + d

    return reg


@pytest.fixture
def fork_join_program():
    reg = fork_join_registry()
    return compile_source(FORK_JOIN_SRC, registry=reg), reg


@pytest.fixture
def factorial_program():
    return compile_source(FACTORIAL_SRC)


@pytest.fixture
def fib_program():
    return compile_source(FIB_SRC)
