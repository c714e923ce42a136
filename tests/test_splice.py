"""Calls around a recursive cycle are spliced into their callers' graphs.

``compiler/passes/splice.py`` is the graph half of inline expansion: it
runs whenever ``inline`` is enabled, so every program here is compiled
twice — with no pass at all (every call a ``CALL``) and with ``inline``
alone — and the two must agree on every executor while the spliced one
fires and expands strictly less.  The rest pins what is *not* spliced
(loop breakers, self-recursive and ``iterate``-lowered functions,
capturing and over-threshold callees, arity mismatches) and that the
pass is deterministic, idempotent and free for programs without a
multi-member cycle.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.apps import queens
from repro.compiler.analysis import analyze_program
from repro.compiler.passes import splice
from repro.compiler.symtab import analyze
from repro.errors import RuntimeFailure
from repro.graph.ir import NodeKind, Template
from repro.graph.serialize import dumps, loads
from repro.graph.validate import validate_program
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)

from .programs import REGISTRY as PROGRAM_REGISTRY
from .programs import programs

#: Every test here pins graph mechanics (expansions, tasks, activations):
#: the graph path, with no call clipped.
pytestmark = pytest.mark.usefixtures("graph_path")

REGISTRY = default_registry()


def both(source, registry=REGISTRY):
    """``(unspliced, spliced)`` compiles of ``source``; the spliced graph
    is validated."""
    plain = compile_source(source, registry=registry, optimize_passes=())
    spliced = compile_source(source, registry=registry, optimize_passes=("inline",))
    validate_program(spliced.graph)
    return plain, spliced


def spliced_count(compiled):
    return compiled.optimization.stats.get("inline.spliced", 0)


def agree(source, args=(), registry=REGISTRY):
    """The spliced compile gives the unspliced result on every executor,
    in strictly fewer fires and expansions; returns the spliced compile."""
    plain, spliced = both(source, registry)
    want = SequentialExecutor().run(plain.graph, args, registry)
    for executor in (SequentialExecutor(), ThreadedExecutor(2), ProcessExecutor(1)):
        got = executor.run(spliced.graph, args, registry)
        assert got.value == want.value, type(executor).__name__
        assert got.stats.tasks_fired < want.stats.tasks_fired
        assert got.stats.expansions < want.stats.expansions
        assert got.stats.ops_executed == want.stats.ops_executed
    return spliced


def before_the_pass(source, registry=REGISTRY):
    """``(graph, analysis)`` as ``compile_source`` holds them when it calls
    the pass (which reads no registry)."""
    compiled = compile_source(source, registry=registry, optimize_passes=())
    env = analyze(compiled.source_ast, known_operators=registry.names())
    return compiled.graph, analyze_program(env, registry.pure_names())


def calls_of(template, callee):
    """The ``CALL`` nodes of ``template`` whose callee is a closure over
    ``callee``."""
    return [
        node
        for node in template.nodes
        if node.kind is NodeKind.CALL
        and template.nodes[node.inputs[0].node].kind is NodeKind.CLOSURE
        and template.nodes[node.inputs[0].node].template == callee
    ]


# ---------------------------------------------------------------------------
# What is spliced
# ---------------------------------------------------------------------------

THREE_CYCLE = """
main(n) a(n)
a(n) if is_less(n, 1) then 0 else b(sub(n, 1))
b(n) incr(c(n))
c(n) a(n)
"""

EVEN_ODD = """
main(n) is_even(n)
is_even(n) if is_equal(n, 0) then 1 else is_odd(sub(n, 1))
is_odd(n) if is_equal(n, 0) then 0 else is_even(sub(n, 1))
"""

RESULT_IS_A_PARAMETER = """
main(n) f(n)
f(n) if is_less(n, 1) then 0 else pick(n, sub(n, 1))
pick(a, m) let unused = f(m) in a
"""

NESTED = """
main(n) g(n)
g(n) add(f(f(n, 1), 0), 0)
f(x, k)
  if is_less(x, 1) then k
  else if is_equal(k, 0) then x else incr(g(sub(x, k)))
"""

ALSO_A_VALUE = """
main(n) g(n)
g(n) add(f(n), apply1(f, n))
f(x) if is_less(x, 1) then 0 else incr(g(sub(x, 1)))
apply1(h, x) if is_less(x, 0) then apply1(h, x) else h(x)
"""


class TestQueens:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_try_is_spliced_into_do_it(self, n):
        # The breaker is chosen by own-template size, so not by n: a
        # heuristic that counted arm templates flipped at n <= 5.
        registry = queens.make_registry(n)
        spliced = agree(queens.queens_source(n), registry=registry)
        assert spliced_count(spliced) == n
        graph = spliced.graph
        assert "try" not in graph.templates
        assert not calls_of(graph.templates["do_it"], "try")
        ifs = [
            node
            for node in graph.templates["do_it"].nodes
            if node.kind is NodeKind.IF
        ]
        assert len(ifs) == n
        # The arm templates are shared, not cloned; do_it's calls of try
        # were not tail calls, so neither are the spliced conditionals.
        assert {node.then_template for node in ifs} == {"try.if$1.then"}
        assert not any(node.tail for node in ifs)

    def test_node_count_does_not_grow(self):
        plain, spliced = both(queens.queens_source(6), queens.make_registry(6))
        assert plain.graph.total_nodes() == spliced.graph.total_nodes() == 44
        assert len(plain.graph.templates) == 7
        assert len(spliced.graph.templates) == 6


class TestShapes:
    def test_three_function_cycle(self):
        spliced = agree(THREE_CYCLE, (5,))
        # ``a`` (largest own template, first by name) stays a call;
        # ``c`` went into ``b`` and ``b`` into ``a``'s arm.
        assert spliced_count(spliced) == 2
        assert {"a", "main"} <= set(spliced.graph.templates)
        assert not {"b", "c"} & set(spliced.graph.templates)

    def test_even_odd_keeps_the_tail_flag(self):
        spliced = agree(EVEN_ODD, (7,))
        assert spliced_count(spliced) == 1
        arm = spliced.graph.templates["is_even.if$1.else"]
        (copied,) = [n for n in arm.nodes if n.kind is NodeKind.IF]
        assert copied.tail and arm.result.node == arm.nodes.index(copied)
        assert copied.then_template == "is_odd.if$1.then"

    def test_callee_whose_result_is_a_parameter(self):
        spliced = agree(RESULT_IS_A_PARAMETER, (4,))
        assert "pick" not in spliced.graph.templates
        arm = spliced.graph.templates["f.if$1.else"]
        # The argument port is forwarded: the arm's result is its capture.
        assert arm.nodes[arm.result.node].kind is NodeKind.CAPTURE

    def test_nested_calls(self):
        spliced = agree(NESTED, (4,))
        assert spliced_count(spliced) == 2
        assert not calls_of(spliced.graph.templates["g"], "f")

    def test_callee_also_passed_as_a_value(self):
        spliced = agree(ALSO_A_VALUE, (4,))
        g = spliced.graph.templates["g"]
        assert spliced_count(spliced) == 1
        assert not calls_of(g, "f")
        # The closure that is an argument stays, and so does the template.
        closures = [n.template for n in g.nodes if n.kind is NodeKind.CLOSURE]
        assert closures.count("f") == 1
        assert "f" in spliced.graph.templates

    def test_closure_read_by_a_call_and_a_consumer_is_kept(self):
        graph, analysis = before_the_pass(ALSO_A_VALUE)
        g = graph.templates["g"]
        (call,) = calls_of(g, "f")
        value_use = next(
            n for n in g.nodes if n.kind is NodeKind.CALL and len(n.inputs) == 3
        )
        value_use.inputs[1] = call.inputs[0]  # one closure node, two readers
        g.finalize()
        assert splice.run(graph, analysis, REGISTRY) == {"inline.spliced": 1}
        validate_program(graph)
        shared = g.nodes[value_use.inputs[1].node]
        assert shared.kind is NodeKind.CLOSURE and shared.template == "f"
        assert SequentialExecutor().run(graph, (4,), REGISTRY).value == 30


# ---------------------------------------------------------------------------
# What is left exactly as it is
# ---------------------------------------------------------------------------

SELF_RECURSIVE = """
main(n) fact(n)
fact(n) if is_less(n, 2) then 1 else mul(n, fact(sub(n, 1)))
"""

LOOP_IN_A_CYCLE = """
main(n) outer(n)
outer(n)
  if is_less(n, 1) then 0
  else iterate { i = 0, incr(i)  acc = 0, add(acc, inner(n)) }
       while is_less(i, 2), result acc
inner(n) incr(outer(sub(n, 1)))
"""

CAPTURING_LOCAL = """
main(n) f(n)
f(n)
  let g(m) if is_less(m, 1) then n else f(sub(m, 1))
  in add(add(g(n), 0), add(0, 0))
"""

OVER_THRESHOLD = """
main(n) big(n)
big(n)
  add(add(add(add(add(add(add(add(add(small(n), 1), 1), 1), 1), 1), 1), 1), 1), 1)
small(n)
  let m = add(add(add(add(add(add(add(n, 1), 1), 1), 1), 1), 1), -7)
  in if is_less(m, 1) then 0 else big(sub(m, 1))
"""


class TestLeftAlone:
    def test_self_recursive_function(self):
        plain, spliced = both(SELF_RECURSIVE)
        assert spliced_count(spliced) == 0
        assert dumps(spliced.graph) == dumps(plain.graph)

    def test_iterate_lowered_loop_is_a_breaker(self):
        spliced = agree(LOOP_IN_A_CYCLE, (3,))
        # ``outer`` and ``inner`` go; the loop function calls itself, so
        # it stays a template and a call.
        assert "outer.loop$1" in spliced.graph.templates
        assert not {"outer", "inner"} & set(spliced.graph.templates)
        arm = spliced.graph.templates["outer.loop$1.if$1.then"]
        (again,) = [n for n in arm.nodes if n.kind is NodeKind.CALL]
        assert again.tail and again.recursive

    def test_capturing_local_function(self):
        plain, spliced = both(CAPTURING_LOCAL)
        assert spliced_count(spliced) == 0
        assert dumps(spliced.graph) == dumps(plain.graph)
        assert plain.run((3,)).value == spliced.run((3,)).value

    def test_over_threshold_callee(self):
        plain, spliced = both(OVER_THRESHOLD)
        small = plain.graph.templates["small"]
        assert len(small.nodes) - 1 > splice.SPLICE_MAX_NODES
        assert spliced_count(spliced) == 0
        assert dumps(spliced.graph) == dumps(plain.graph)

    def test_arity_mismatch_keeps_the_run_time_error(self):
        def broken():
            graph, analysis = before_the_pass(
                queens.queens_source(4), queens.make_registry(4)
            )
            do_it = graph.templates["do_it"]
            calls_of(do_it, "try")[0].inputs.pop()
            do_it.finalize()
            return graph, analysis

        def failure(graph):
            with pytest.raises(RuntimeFailure) as info:
                SequentialExecutor().run(graph, (), queens.make_registry(4))
            return str(info.value)

        graph, analysis = broken()
        assert splice.run(graph, analysis, REGISTRY) == {"inline.spliced": 3}
        validate_program(graph)
        assert len(calls_of(graph.templates["do_it"], "try")) == 1
        assert failure(graph) == failure(broken()[0])
        assert "'try' takes 3 argument(s), got 2" in failure(graph)

    def test_no_multi_member_cycle_finalizes_nothing(self, monkeypatch):
        finalized = []
        real = Template.finalize
        for source in (SELF_RECURSIVE, "main(n) add(twice(n), 1)\ntwice(n) add(n, n)"):
            graph, analysis = before_the_pass(source)
            monkeypatch.setattr(
                Template, "finalize", lambda t: finalized.append(t.name) or real(t)
            )
            assert splice.run(graph, analysis, REGISTRY) == {}
            monkeypatch.setattr(Template, "finalize", real)
        assert finalized == []


# ---------------------------------------------------------------------------
# Properties of the pass
# ---------------------------------------------------------------------------


class TestPass:
    def test_idempotent(self):
        graph, analysis = before_the_pass(
            queens.queens_source(5), queens.make_registry(5)
        )
        assert splice.run(graph, analysis, REGISTRY) == {"inline.spliced": 5}
        once = dumps(graph)
        assert splice.run(graph, analysis, REGISTRY) == {}
        assert dumps(graph) == once

    def test_serialize_round_trip(self):
        registry = queens.make_registry(5)
        spliced = compile_source(queens.queens_source(5), registry=registry)
        text = dumps(spliced.graph)
        reloaded = loads(text)
        validate_program(reloaded)
        assert dumps(reloaded) == text
        assert (
            SequentialExecutor().run(reloaded, (), registry).value
            == queens.solve_sequential(5)
        )

    def test_same_bytes_under_any_hash_seed(self):
        script = (
            "import hashlib\n"
            "from repro import compile_source\n"
            "from repro.graph.serialize import dumps\n"
            f"for source in {[THREE_CYCLE, EVEN_ODD, NESTED, LOOP_IN_A_CYCLE]!r}:\n"
            "    graph = compile_source(source).graph\n"
            "    print(hashlib.sha256(dumps(graph).encode()).hexdigest())\n"
        )
        outputs = set()
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, check=True, capture_output=True, text=True,
                ).stdout
            )
        assert len(outputs) == 1 and len(outputs.pop().split()) == 4


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------


class TestRandomPrograms:
    @settings(max_examples=60, deadline=None)
    @given(programs(), st.integers(-5, 5))
    def test_spliced_is_unspliced(self, source, n):
        plain, spliced = both(source, PROGRAM_REGISTRY)
        want = plain.run((n,))
        got = spliced.run((n,))
        assert got.value == want.value
        assert got.stats.ops_executed <= want.stats.ops_executed
        assert got.stats.tasks_fired <= want.stats.tasks_fired
        assert got.stats.expansions <= want.stats.expansions
        if spliced_count(spliced):
            reloaded = loads(dumps(spliced.graph))
            again = SequentialExecutor().run(reloaded, (n,), PROGRAM_REGISTRY)
            assert again.value == want.value
