"""Compiler fuzzing over the generated programs of ``tests/programs.py``.

Loops (lowering and tail calls), closures (closure conversion),
packages, blocks under ``modifies`` writers, recursion and conditionals,
checked for the big equivalences:

* optimized == unoptimized,
* sequential == seeded == FIFO == simulated,
* serialization round-trip executes identically;

and that every generated program validates, unparses to itself and runs
in bounded activation space, and that every body the optimizer emits
prints as text that parses back to it.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import compile_source
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.graph.serialize import dumps, loads
from repro.lang import parse_expression
from repro.lang.ast import unparse
from repro.lang.reference import evaluate_source
from repro.machine import SimulatedExecutor, uniform
from repro.runtime import SequentialExecutor

from .programs import REGISTRY, graph_run, programs, same


class TestFuzzCompiler:
    @settings(max_examples=30, deadline=None)
    @given(programs(), st.integers(-4, 4))
    def test_optimizer_equivalence(self, source, n):
        full = compile_source(source, registry=REGISTRY)
        bare = compile_source(source, registry=REGISTRY, optimize_passes=())
        assert full.run(args=(n,)).value == bare.run(args=(n,)).value

    @settings(max_examples=20, deadline=None)
    @given(programs(), st.integers(-4, 4))
    def test_executor_equivalence(self, source, n):
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        for executor in (
            SequentialExecutor(seed=5),
            SequentialExecutor(use_priorities=False),
            SimulatedExecutor(uniform(3)),
        ):
            assert (
                executor.run(compiled.graph, args=(n,), registry=REGISTRY).value
                == reference
            )

    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(-4, 4))
    def test_serialization_equivalence(self, source, n):
        compiled = compile_source(source, registry=REGISTRY)
        restored = loads(dumps(compiled.graph))
        a = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        b = SequentialExecutor().run(restored, args=(n,), registry=REGISTRY).value
        assert a == b

    @settings(max_examples=15, deadline=None)
    @given(programs())
    def test_generated_programs_validate_and_unparse(self, source):
        from repro import validate_program
        from repro.lang import parse_program
        from repro.lang.ast import unparse

        compiled = compile_source(source, registry=REGISTRY)
        validate_program(compiled.graph)
        program = parse_program(source)
        assert parse_program(unparse(program)) == program

    @settings(max_examples=10, deadline=None)
    @given(programs(), st.integers(-4, 4))
    def test_loops_run_in_bounded_activation_space(self, source, n):
        compiled = compile_source(source, registry=REGISTRY)
        result = graph_run(compiled.graph, (n,), REGISTRY)
        # Every loop and recursion runs on a constant of at most four
        # rounds and tail calls keep no caller: whatever ``n`` is, peak
        # live stays small and flat on the graph path.
        assert result.stats.activation_stats["peak_live"] <= 48


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @example("main(n) let a = neg(mul(1e308, 10.0)) in <a, n>")
    @example("main(n) add(mul(1e308, 10.0), n)")
    @example("main(n) let a = let x = 5 in x  b = let x = add(n, 1) in x in <a, b>")
    @given(programs())
    def test_optimized_bodies_reparse(self, source):
        """A value with no literal spelling (``inf``, ``-inf``) is never
        folded into the text, so each body re-parses to an equal AST; and
        it means what the source means (a constant bound to a name in one
        ``let`` is not propagated into a sibling that binds it again)."""
        compiled = compile_source(
            source, registry=REGISTRY, optimize_passes=FULL_PASS_ORDER
        )
        for function in compiled.source_ast.functions:
            body = function.body
            assert parse_expression(unparse(body)) == body, function.name
        want = evaluate_source(source, (1,), REGISTRY)
        assert same(compiled.run(args=(1,)).value, want)
