"""Load plans: what a template answers before any activation of it runs.

Every template gets one plan per (program, registry): static nodes bound
into the prototype activations are instantiated from, shortcut templates
delivered by the node that would have expanded them, callees a template
created itself resolved without looking at the value.  This file holds
the behaviours that follow (values, share accounting, errors) on the
sequential executor — ``tests/test_executor_conformance.py`` runs the
same shapes on every executor — and the structural guards: which tasks
exist, which activations are allocated, when plans are built and freed.
"""

import gc

import numpy as np
import pytest

from repro import compile_source
from repro.apps import queens
from repro.errors import RuntimeFailure
from repro.graph.ir import GraphProgram, Node, NodeKind, Port, Template
from repro.obs import ActivationAllocated, EventBus, TaskEnqueued
from repro.runtime import (
    Closure,
    ExecutionState,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    activation,
    default_registry,
    engine,
    executors,
)
from repro.runtime.engine import PurityViolationError

#: Every test here pins graph mechanics (expansions, tasks, activations):
#: the graph path, with no call clipped.
pytestmark = pytest.mark.usefixtures("graph_path")


def _registry():
    registry = default_registry()

    @registry.register(name="tp_mk", cost=10.0)
    def tp_mk(n):
        return np.ones(n)

    @registry.register(name="tp_bump", modifies=(0,), cost=10.0)
    def tp_bump(a):
        a += 1.0
        return a

    @registry.register(name="tp_sneaky", pure=True, cost=10.0)
    def tp_sneaky(a):
        a += 1.0  # undeclared write
        return float(a.sum())

    return registry


def _run(source, args=(), registry=None, events=(), **options):
    """Compile with no passes — constants, closures and trivial arms
    survive to the graph — and run sequentially; returns ``(result,
    events seen)``."""
    registry = registry if registry is not None else default_registry()
    graph = compile_source(
        source, registry=registry, optimize_passes=(), **options
    ).graph
    seen = []
    bus = EventBus()
    if events:
        bus.subscribe(seen.append, events)
    result = SequentialExecutor(bus=bus).run(graph, args, registry)
    return result, seen


SHAPES = """
main(n)
  let
    k = konst(n)
    i = ident(n)
    w = wrap(n)
    t = pick(1, n)
    e = pick(0, n)
    m = add(if n then n else 0, if 0 then 1 else n)
  in add(add(add(k, i), add(w, t)), add(e, m))

konst(x) 7
ident(x) x
wrap(x) ident(x)
pick(c, x) if c then x else 9
"""


class TestStaticBinding:
    def test_operator_with_all_static_operands_is_born_ready(self):
        result, enqueued = _run("main() add(2, 3)", events=(TaskEnqueued,))
        assert result.value == 5
        assert result.stats.tasks_fired == 1
        assert [e.kind for e in enqueued] == ["op"]

    def test_result_node_constant_still_fires(self):
        # The result is delivered by a firing; there is nothing else to
        # deliver the entry template's for it.
        result, enqueued = _run("main() 42", events=(TaskEnqueued,))
        assert result.value == 42
        assert [e.kind for e in enqueued] == ["const"]

    def test_top_level_closure_as_program_result(self):
        result, _ = _run("main() step\n\nstep(x) add(x, 1)")
        assert isinstance(result.value, Closure)
        assert result.value.template.name == "step"
        assert result.stats.tasks_fired == 1

    def test_opref_handed_to_a_prelude_function(self):
        result, enqueued = _run(
            "main(n) par_reduce(add, incr, 0, n)", (5,),
            events=(TaskEnqueued,), prelude=True,
        )
        assert result.value == sum(i + 1 for i in range(5))
        assert "opref" not in {e.kind for e in enqueued}

    def test_every_activation_sees_its_constants(self):
        result, _ = _run(
            "main(n) count(0, n)\n\n"
            "count(i, n) if is_less(i, n) then count(add(i, 1), n) else i",
            (50,),
        )
        assert result.value == 50
        assert result.stats.activation_stats["peak_live"] <= 2

    def test_no_static_node_becomes_a_task_in_queens(self):
        registry = queens.make_registry(5)
        graph = compile_source(
            queens.queens_source(5), registry=registry
        ).graph
        bus = EventBus()
        enqueued = []
        bus.subscribe(enqueued.append, (TaskEnqueued,))
        SequentialExecutor(bus=bus).run(graph, (), registry)
        assert {"op", "call", "if"} <= {e.kind for e in enqueued}
        for e in enqueued:
            template = graph.template(e.template)
            node = template.nodes[e.node_id]
            static = node.kind in (NodeKind.CONST, NodeKind.OPREF) or (
                node.kind is NodeKind.CLOSURE
                and not graph.template(node.template).captures
            )
            assert not static or e.node_id == template.result_node, e


class TestShortcutTemplates:
    def test_constant_parameter_and_capture_results(self):
        result, allocated = _run(
            SHAPES, (6,), events=(ActivationAllocated,)
        )
        assert result.value == 7 + 6 + 6 + 6 + 9 + 12
        # Only templates with something to fire are ever instantiated:
        # konst, ident and all six arms are delivered by their callers.
        assert sorted(e.template for e in allocated) == [
            "main", "pick", "pick", "wrap",
        ]
        assert result.stats.expansions == 3
        assert result.stats.tail_expansions == 0

    def test_block_through_shortcuts_is_written_in_place(self):
        # The arm and the callee pass the block on with the one share it
        # left tp_mk with: tp_bump holds the sole reference.
        result, _ = _run(
            "main(n)\n"
            "  let a = tp_mk(n)\n"
            "      b = if n then a else NULL\n"
            "  in tp_bump(ident(b))\n\n"
            "ident(x) x\n",
            (4,), _registry(),
        )
        assert result.value.tolist() == [2.0] * 4
        assert result.stats.in_place_writes == 1
        assert result.stats.cow_copies == 0
        assert result.stats.expansions == 0

    def test_values_not_passed_on_are_released(self):
        # ``first`` holds a share of ``b`` it does not pass on; were it
        # kept, ``b`` would reach its bump (through ``second``, which
        # needs the first bump's result) shared, and be copied.
        result, _ = _run(
            "main(n)\n"
            "  let a = tp_mk(n)\n"
            "      b = tp_mk(n)\n"
            "      g = tp_bump(first(a, b))\n"
            "  in tp_bump(second(g, b))\n\n"
            "first(x, y) x\n"
            "second(x, y) y\n",
            (3,), _registry(),
        )
        assert result.value.tolist() == [2.0] * 3
        assert result.stats.in_place_writes == 2
        assert result.stats.cow_copies == 0


def _wrong_arity_program():
    """``main(c) if c then f(1, 2) else 0`` with ``f(x) x`` — past the
    compiler, which rejects the call."""
    program = GraphProgram()
    f = Template(name="f", params=["x"])
    f.nodes.append(Node(kind=NodeKind.PARAM, name="x"))
    f.result = Port(0)
    program.add(f.finalize())
    then = Template(name="main.then")
    then.nodes += [
        Node(kind=NodeKind.CLOSURE, template="f"),
        Node(kind=NodeKind.CONST, value=1),
        Node(kind=NodeKind.CONST, value=2),
        Node(
            kind=NodeKind.CALL, inputs=[Port(0), Port(1), Port(2)], tail=True
        ),
    ]
    then.result = Port(3)
    program.add(then.finalize())
    other = Template(name="main.else")
    other.nodes.append(Node(kind=NodeKind.CONST, value=0))
    other.result = Port(0)
    program.add(other.finalize())
    main = Template(name="main", params=["c"])
    main.nodes += [
        Node(kind=NodeKind.PARAM, name="c"),
        Node(
            kind=NodeKind.IF, inputs=[Port(0)], then_template="main.then",
            else_template="main.else", tail=True,
        ),
    ]
    main.result = Port(1)
    program.add(main.finalize())
    return program


class TestKnownCallees:
    def test_wrong_arity_raises_only_when_the_call_fires(self):
        program = _wrong_arity_program()
        registry = default_registry()
        assert SequentialExecutor().run(program, (0,), registry).value == 0
        with pytest.raises(RuntimeFailure) as excinfo:
            SequentialExecutor().run(program, (1,), registry)
        assert str(excinfo.value) == "'f' takes 1 argument(s), got 2"

    def test_known_call_heads_are_fired_whole_unless_batching(self):
        registry = queens.make_registry(4)
        graph = compile_source(
            queens.queens_source(4), registry=registry
        ).graph

        def call_classes(executor):
            executor.run(graph, (), registry)
            plans = engine._PLAN_CACHES[id(graph)]
            return {
                (entry.callee is not None, entry.memo[1])
                for plan in plans.templates.values()
                for entry in plan.nodes
                if entry.kind is NodeKind.CALL
            }

        fire, call = executors._FIRE, executors._CALL
        # Every queens callee is a closure its own template created.
        assert call_classes(ProcessExecutor(1, batch=False)) == {(True, fire)}
        assert call_classes(ThreadedExecutor(2)) == {(True, fire)}
        # A batching run collects the peers of an expansion too.
        assert call_classes(ProcessExecutor(1)) == {(True, call)}


class TestPlanCache:
    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the templates planned, in build order."""
        names = []
        init = activation.TemplatePlan.__init__

        def counting(self, template, program):
            names.append(template.name)
            init(self, template, program)

        monkeypatch.setattr(activation.TemplatePlan, "__init__", counting)
        return names

    def test_second_run_builds_nothing_another_registry_rebuilds(self, built):
        graph = compile_source(SHAPES, optimize_passes=()).graph
        registry = default_registry()
        first = SequentialExecutor().run(graph, (6,), registry)
        # One plan per template the run reached — shortcuts included, the
        # two arms never taken not.
        reached = sorted(
            set(graph.templates) - {"main.if$1.else", "main.if$2.then"}
        )
        assert sorted(built) == reached
        tables = {
            name: plan.nodes
            for name, plan in engine._PLAN_CACHES[id(graph)].templates.items()
        }
        del built[:]
        for executor in (
            SequentialExecutor(),
            SequentialExecutor(check_purity=True),
            ThreadedExecutor(2),
        ):
            assert executor.run(graph, (6,), registry).value == first.value
        assert built == []
        plans = engine._PLAN_CACHES[id(graph)]
        assert all(plans.templates[n].nodes is t for n, t in tables.items())
        SequentialExecutor().run(graph, (6,), default_registry())
        assert sorted(built) == reached
        assert engine._PLAN_CACHES[id(graph)] is not plans

    def test_collected_program_is_pruned(self):
        graph = compile_source("main() add(2, 3)", optimize_passes=()).graph
        SequentialExecutor().run(graph, (), default_registry())
        key = id(graph)
        assert key in engine._PLAN_CACHES
        del graph
        gc.collect()
        other = compile_source("main() 1").graph
        SequentialExecutor().run(other, (), default_registry())
        live = [p for p in engine._PLAN_CACHES.values() if p.program() is None]
        assert live == []
        entry = engine._PLAN_CACHES.get(key)
        assert entry is None or entry.program() is other

    def test_purity_check_shares_plans_a_plain_run_warmed(self):
        registry = _registry()
        graph = compile_source(
            "main(n) tp_sneaky(tp_mk(n))", registry=registry
        ).graph
        assert SequentialExecutor().run(graph, (3,), registry).value == 6.0
        plain = ExecutionState(graph, registry)
        checked = ExecutionState(graph, registry, check_purity=True)
        assert checked.plans is plain.plans
        with pytest.raises(PurityViolationError):
            SequentialExecutor(check_purity=True).run(graph, (3,), registry)
