"""The reference evaluator reads each construct as the language means it.

:mod:`repro.lang.reference` is the meaning every compilation and every
executor must keep (``tests/test_oracle.py`` checks them against it);
these tests pin the evaluator itself, construct by construct, and that
it knows nothing of graphs or the engine.
"""

from __future__ import annotations

import ast as pyast
import inspect

import pytest

from repro import default_registry
from repro.lang import reference
from repro.lang.reference import EvaluationError, evaluate_source
from repro.runtime import OperatorRegistry
from repro.runtime.values import NULL, MultiValue


class TestConstructs:
    def test_atoms_and_null(self):
        assert evaluate_source("main() 7") == 7
        assert evaluate_source("main() NULL") is NULL
        assert evaluate_source("main(c) if c then 1 else 2", (NULL,)) == 2

    def test_packages_are_built_and_taken_apart(self):
        source = "main(n) let <a, b> = <incr(n), decr(n)> in <b, a, n>"
        assert evaluate_source(source, (5,)) == MultiValue((4, 6, 5))

    def test_local_functions_close_over_their_scope_and_recurse(self):
        source = """
main(n)
  let k = 10
      down(x) if is_less(x, 1) then k else down(decr(x))
  in down(n)
"""
        assert evaluate_source(source, (3,)) == 10

    def test_iterate_updates_see_the_previous_round(self):
        source = """
main(n)
  iterate { a = 0, b   b = 1, add(a, b)   i = 0, incr(i) }
  while is_less(i, n), result a
"""
        assert evaluate_source(source, (10,)) == 55

    def test_functions_and_operators_are_values(self):
        source = """
main(n)
  let twice(f, x) f(f(x))
  in add(twice(incr, n), twice(double, n))
double(x) add(x, x)
"""
        assert evaluate_source(source, (3,)) == 5 + 12

    def test_a_modifies_argument_is_copied_at_every_call(self):
        local = OperatorRegistry()

        @local.register(modifies=(0,))
        def push(xs, x):
            xs.append(x)
            return xs

        local.register(name="fresh")(list)
        registry = default_registry().merged_with(local)
        source = "main() let b = fresh() in <push(b, 1), push(b, 2), b>"
        assert evaluate_source(source, (), registry) == MultiValue(([1], [2], []))

    def test_unbound_names_are_refused(self):
        with pytest.raises(EvaluationError):
            evaluate_source("main() nowhere(1)")

    def test_it_knows_nothing_of_graphs_or_the_engine(self):
        tree = pyast.parse(inspect.getsource(reference))
        imported = [
            node.module.removeprefix("repro.")
            for node in pyast.walk(tree)
            if isinstance(node, pyast.ImportFrom) and node.module
        ]
        for module in imported:
            assert not module.startswith(("compiler", "graph")), module
            assert module not in ("runtime.engine", "runtime.executors"), module
        assert set(imported) >= {"runtime.operators", "runtime.values"}
