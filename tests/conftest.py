"""Shared fixtures and program sources for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import compile_source, default_registry
from repro.runtime import OperatorRegistry


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
