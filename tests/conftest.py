"""Shared fixtures and program sources for the test suite."""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

from repro import compile_source, default_registry
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


@pytest.fixture
def graph_path():
    """Run on the graph path: no call is clipped (crown clipping,
    ``repro.runtime.crown``).  For tests that pin graph mechanics —
    activations, expansions, per-node fires — and for the clipped-vs-graph
    properties."""
    from tests.programs import on_graph_path

    with on_graph_path():
        yield


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
# The AST traversal as it was when ``children`` reflected on dataclass
# fields and ``walk`` recursed, verbatim: the oracles the explicit-stack
# traversal must match node for node (tests/test_optimizer_linear.py).
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
