"""Crown clipping: a call whose whole subtree would fire here, one body at
a time, runs as one generated Python function (``repro.runtime.crown``).

A clipped run must mean what the reference evaluator means and keep the
graph path's contract counters (``ops_executed`` and the write decisions
``cow_copies + in_place_writes``; never more copies) — over generated
programs, that is ``tests/test_oracle.py``'s sequential matrix — leave
every block it allocated at ``rc`` 0 but the result's, survive
recursion and loops the interpreter's stack could not hold, and fire a
call only where nothing watches or perturbs single firings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source, default_registry
from repro.apps import queens
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.errors import GraphError, OperatorError, RuntimeFailure
from repro.graph.ir import GraphProgram, Node, NodeKind, Port, Template
from repro.lang.reference import evaluate_source
from repro.obs import (
    EventBus,
    FireRetried,
    OpFinished,
    OpStarted,
    RunContext,
    observe_blocks,
)
from repro.runtime import (
    CallableSource,
    FaultPolicy,
    MemorySink,
    ProcessExecutor,
    SequentialExecutor,
    StreamRunner,
    ThreadedExecutor,
    blocks,
)
from repro.runtime import crown as crown_module
from repro.runtime.crown import _MAX_LINES
from repro.runtime import engine, executors
from repro.runtime.engine import _plans_for
from .programs import (
    LIBRARY, REGISTRY, CopyView, graph_run, on_graph_path, programs,
)


class BlockCensus:
    """Every block allocated while installed, through the allocation hook
    alone: with no count hook a crown updates counts on its inline path,
    so the census checks the path plain runs take."""

    def __init__(self) -> None:
        self.blocks: list = []

    def __call__(self, kind, block, n) -> None:
        if kind == "alloc":
            self.blocks.append(block)

    def assert_conserved(self, value) -> None:
        """Every block ends at ``rc`` 0, except the result's (one share)."""
        results = {id(v) for v in (value if isinstance(value, tuple) else (value,))}
        for block in self.blocks:
            want = 1 if id(block.payload) in results else 0
            assert block.rc == want, (block, value)


@pytest.fixture
def census(monkeypatch):
    hook = BlockCensus()
    monkeypatch.setattr(blocks, "_ALLOC_HOOK", hook)
    return hook


def _crown_sources(graph, registry):
    """The text of every crown generated for ``graph``, the entry's first."""
    plans = _plans_for(graph, registry)
    return [
        e.crown.source
        for e in [plans.entry] + [
            e for plan in plans.templates.values() for e in plan.nodes
        ]
        if e is not None and e.crown is not None and not isinstance(e.crown, tuple)
    ]


class TestOracle:
    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(0, 4))
    def test_every_block_ends_at_rc_zero_on_both_paths(self, source, n):
        graph = compile_source(source, registry=REGISTRY, optimize_passes=()).graph
        # Every body dispatched: each commit arrives through complete_fire.
        remote = ProcessExecutor(1, cost_threshold=0.0)
        try:
            for path in (SequentialExecutor().run, graph_run, remote.run):
                hook = BlockCensus()
                previous = blocks.get_block_hook()
                blocks.set_block_hook(hook)
                try:
                    result = path(graph, (n,), REGISTRY)
                finally:
                    blocks.set_block_hook(previous)
                hook.assert_conserved(result.value)
        finally:
            remote.close()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_queens_keeps_the_contract(self, n, census):
        registry = queens.make_registry(n)
        graph = compile_source(
            queens.queens_source(n), registry=registry,
            optimize_passes=FULL_PASS_ORDER,
        ).graph
        clipped_view, graph_view = CopyView(), CopyView()
        clipped = SequentialExecutor(bus=clipped_view.bus).run(
            graph, (), registry
        )
        census.assert_conserved(clipped.value)
        graph_path = graph_run(graph, (), registry, bus=graph_view.bus)
        assert clipped.value == graph_path.value
        assert clipped.stats.tasks_fired == 1  # the entry, as one call
        assert clipped.stats.expansions == 0
        for counter in ("ops_executed", "cow_copies", "in_place_writes"):
            got = getattr(clipped.stats, counter)
            assert got == getattr(graph_path.stats, counter), counter
        view = clipped_view.take()
        assert view == graph_view.take()
        assert sum(view[0].values()) == clipped.stats.cow_copies


DEEP = """
main(n) tri(n)

tri(k)
  if is_less(k, 1) then 0 else add(k, tri(sub(k, 1)))
"""

LOOP = """
main(n)
  iterate { i = 0, incr(i)  acc = 0, add(acc, i) } while is_less(i, n), result acc
"""


class TestDepth:
    def _same_as_graph(self, source, n, value):
        graph = compile_source(source).graph
        clipped = SequentialExecutor().run(graph, (n,), REGISTRY)
        graph_path = graph_run(graph, (n,), REGISTRY)
        assert clipped.value == graph_path.value == value
        assert clipped.stats.ops_executed == graph_path.stats.ops_executed
        return clipped

    def test_non_tail_recursion_past_the_stack(self):
        n = 5 * sys.getrecursionlimit()
        clipped = self._same_as_graph(DEEP, n, n * (n + 1) // 2)
        # The bound handed the rest of the recursion to the graph.
        assert clipped.stats.expansions > 0

    def test_lowered_iterate_of_20000_rounds(self):
        clipped = self._same_as_graph(LOOP, 20_000, 20_000 * 19_999 // 2)
        assert clipped.stats.expansions == 0

    @pytest.mark.parametrize("source", [
        "main(n) go(0, n)\n\ngo(i, n)\n  if is_less(i, n) then go(probe(i), n) "
        "else i\n",
        "main(n)\n  iterate { i = 0, probe(i) } while is_less(i, n), result i\n",
    ], ids=["top_level", "iterate"])
    def test_a_self_tail_loop_adds_no_frame_per_round(self, source):
        registry = default_registry()
        depths = []

        @registry.register(name="probe")
        def probe(i):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)
            return i + 1

        graph = compile_source(source, registry=registry).graph
        result = SequentialExecutor().run(graph, (300,), registry)
        assert result.value == 300 and result.stats.expansions == 0
        assert len(depths) == 300 and min(depths) == max(depths)


class Token:
    """A payload whose death a test can watch."""

    __slots__ = ("__weakref__",)


def _watching_registry():
    """``token`` makes a watched payload; ``seen`` watches it and counts
    the watched tokens still referenced (into the returned list);
    ``alive`` tells whether the last token watched still is."""
    registry = default_registry()
    watched, live = [], []

    @registry.register(name="token")
    def token(n):
        return Token()

    @registry.register(name="seen")
    def seen(t):
        watched.append(weakref.ref(t))
        live.append(sum(ref() is not None for ref in watched))
        return 1

    @registry.register(name="alive")
    def alive(k):
        return watched[-1]() is not None

    return registry, live


class TestLifetimes:
    """A clipped local stays bound until its template's activation ends
    (the graph path's slots hold a value at least that long), not just to
    its last use: values are freed an activation at a time, as on the
    graph, rather than one by one between operator calls."""

    def _both(self, source, n=3):
        registry, live = _watching_registry()
        graph = compile_source(source, registry=registry, optimize_passes=()).graph
        clipped = SequentialExecutor().run(graph, (n,), registry)
        assert clipped.stats.expansions == 0
        clipped_live = live[:]
        live.clear()
        graph_path = graph_run(graph, (n,), registry)
        assert graph_path.stats.expansions > 0
        return (clipped.value, clipped_live), (graph_path.value, live)

    def test_a_value_outlives_its_last_use_until_its_template_ends(self):
        source = "main(n) f(n)\n\nf(n)\n  let t = token(n)  k = seen(t)\n  in alive(k)\n"
        (clipped, _), (graph_path, _) = self._both(source)
        assert clipped is graph_path is True

    @pytest.mark.parametrize("body", [
        "let t = token(n)  k = seen(t)\n  in g(k)\n\ng(k) alive(incr(k))\n",
        "let t = token(n)  k = seen(t)\n  in if is_less(k, 5) then alive(incr(k)) else 0\n",
        "let k = if is_less(n, 5) then seen(token(n)) else 0\n  in alive(k)\n",
    ], ids=["tail_call", "tail_if", "arm"])
    def test_where_an_activation_ends_its_values_go(self, body):
        (clipped, _), _ = self._both("main(n) f(n)\n\nf(n)\n  " + body)
        assert clipped is False

    def test_a_loop_holds_at_most_two_rounds(self):
        source = (
            "main(n)\n  iterate { i = 0, incr(i)  k = 0, seen(token(i)) }"
            " while is_less(i, n), result k\n"
        )
        (_, clipped), (_, graph_path) = self._both(source, 50)
        assert len(clipped) == len(graph_path) == 50
        assert max(clipped) <= 2 and max(graph_path) <= 2


#: ``apply`` calls an operator value, so neither it nor the entry clips.
APPLY = """
main(n) apply(incr, twice(n))
apply(f, x) f(x)
twice(x) add(x, x)
"""


class TestWhenCallsClip:
    def _queens(self):
        registry = queens.make_registry(5)
        return compile_source(
            queens.queens_source(5), registry=registry,
            optimize_passes=FULL_PASS_ORDER,
        ).graph, registry

    @pytest.mark.parametrize("entry", [True, False], ids=["entry", "call"])
    def test_a_clipped_call_is_one_op_span(self, entry):
        if entry:
            (graph, registry), args, name = self._queens(), (), "crown:main"
        else:  # ``apply`` calls an operator value: the entry cannot clip.
            graph, registry = compile_source(APPLY, optimize_passes=()).graph, REGISTRY
            args, name = (4,), "crown:twice"
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, (OpStarted, OpFinished))
        SequentialExecutor(bus=bus).run(graph, args, registry)
        crown = [e for e in seen if e.name.startswith("crown:")]
        assert [type(e) for e in crown] == [OpStarted, OpFinished]
        assert crown[0].name == name

    @pytest.mark.parametrize("options", [
        {"trace": True}, {"seed": 3}, {"check_purity": True},
    ], ids=["trace", "seed", "purity"])
    def test_watched_or_perturbed_runs_stay_on_the_graph(self, options):
        graph, registry = self._queens()
        plain = SequentialExecutor().run(graph, (), registry)
        watched = SequentialExecutor(**options).run(graph, (), registry)
        assert watched.value == plain.value
        assert watched.stats.expansions > 0 == plain.stats.expansions

    def test_threads_and_callable_hints_stay_on_the_graph(self):
        graph, registry = self._queens()
        assert ThreadedExecutor(2).run(graph, (), registry).stats.expansions
        # is_valid and merge have callable cost hints: no static answer.
        executor = ProcessExecutor(1)
        try:
            assert executor.run(graph, (), registry).stats.expansions
        finally:
            executor.close()

    def test_process_runs_clip_when_every_body_stays_home(self):
        graph = compile_source(DEEP).graph
        executor = ProcessExecutor(1)
        try:
            result = executor.run(graph, (20,), REGISTRY)
        finally:
            executor.close()
        assert result.value == 210 and result.stats.expansions == 0

    def test_calls_of_values_and_escaping_closures_stay_on_the_graph(self):
        graph = compile_source(APPLY, optimize_passes=()).graph
        result = SequentialExecutor().run(graph, (4,), REGISTRY)
        assert result.value == 9
        # ``twice`` clips; ``apply`` calls an operator value.
        assert result.stats.expansions == 1


class TestFailures:
    SOURCE = "main(x) f(x)\nf(x) add(flaky(x), 1)\n"

    def _registry(self, fail_times):
        registry = default_registry()
        calls = [0]

        @registry.register(name="flaky", pure=True)
        def flaky(x):
            calls[0] += 1
            if calls[0] <= fail_times:
                raise ValueError(f"boom {calls[0]}")
            return x + 1

        return registry

    def _graph(self):
        return compile_source(
            self.SOURCE, registry=self._registry(0), optimize_passes=()
        ).graph

    def test_a_failing_body_raises_the_graph_paths_error(self):
        graph = self._graph()
        errors = []
        for run in (SequentialExecutor().run, graph_run):
            with pytest.raises(OperatorError) as excinfo:
                run(graph, (1,), self._registry(99))
            errors.append(excinfo.value)
        clipped, graph_path = errors
        assert (clipped.operator, clipped.node_id, str(clipped)) == (
            graph_path.operator, graph_path.node_id, str(graph_path)
        )
        assert isinstance(clipped.__cause__, ValueError)

    def test_a_fault_policy_retries_a_clipped_body(self):
        graph = self._graph()
        policy = FaultPolicy(max_retries=2, backoff=0.0)
        clipped = SequentialExecutor(fault_policy=policy).run(
            graph, (1,), self._registry(1)
        )
        graph_path = graph_run(
            graph, (1,), self._registry(1), fault_policy=policy
        )
        assert clipped.value == graph_path.value == 3
        assert clipped.stats.expansions == 0
        assert clipped.stats.fires_retried == graph_path.stats.fires_retried == 1


class TestGeneratedSource:
    def _sources(self, source, args, registry):
        graph = compile_source(
            source, registry=registry, optimize_passes=FULL_PASS_ORDER
        ).graph
        SequentialExecutor().run(graph, args, registry)
        return _crown_sources(graph, registry)

    def test_the_same_graph_gives_the_same_text(self):
        programs = [
            (queens.queens_source(5), (), queens.make_registry(5)),
            (LOOP, (7,), REGISTRY),
            ("main(n) down(n, mkblock(n))\n" + LIBRARY, (7,), REGISTRY),
        ]
        for source, args, registry in programs:
            first = self._sources(source, args, registry)
            assert first and first == self._sources(source, args, registry)

    def test_the_text_does_not_depend_on_the_hash_seed(self):
        script = (
            "from repro import compile_source, SequentialExecutor\n"
            "from repro.apps import queens\n"
            "from repro.compiler.passes.pipeline import FULL_PASS_ORDER\n"
            "from repro.runtime.engine import _plans_for\n"
            "r = queens.make_registry(5)\n"
            "g = compile_source(queens.queens_source(5), registry=r,"
            " optimize_passes=FULL_PASS_ORDER).graph\n"
            "SequentialExecutor().run(g, (), r)\n"
            "plans = _plans_for(g, r)\n"
            "print(plans.entry.crown.source)\n"
            "for p in plans.templates.values():\n"
            "    for e in p.nodes:\n"
            "        print(getattr(e.crown, 'source', ''))\n"
        )
        texts = set()
        for seed in ("1", "777"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            texts.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(texts) == 1 and "def _delirium_crown" in texts.pop()


#: ``main`` itself recurses without a tail call.
DEEP_ENTRY = """
main(k)
  if is_less(k, 1) then 0 else add(k, main(sub(k, 1)))
"""


class TestEntry:
    """A run is a call: where calls may clip and the entry closure is
    closed, the whole run is one call of the entry's crown — one fire,
    no activation — with the graph path's arity check, errors, retries
    and contract counters."""

    def test_a_run_is_one_call(self):
        graph = compile_source(DEEP).graph
        result = SequentialExecutor().run(graph, (10,), REGISTRY)
        assert result.value == 55
        assert result.stats.tasks_fired == 1
        assert result.stats.activation_stats == {"created": 0, "peak_live": 0}
        (crown,) = _crown_sources(graph, REGISTRY)
        assert crown.startswith("# crown: main\n")

    def test_non_tail_recursion_of_the_entry_past_the_stack(self):
        n = 5 * sys.getrecursionlimit()
        graph = compile_source(DEEP_ENTRY).graph
        clipped = SequentialExecutor().run(graph, (n,), REGISTRY)
        graph_path = graph_run(graph, (n,), REGISTRY)
        assert clipped.value == graph_path.value == n * (n + 1) // 2
        assert clipped.stats.ops_executed == graph_path.stats.ops_executed
        # The bound handed the rest of the recursion to the graph.
        assert 0 < clipped.stats.expansions < graph_path.stats.expansions

    @pytest.mark.parametrize("args", [(), (1, 2)], ids=["too_few", "too_many"])
    def test_a_wrong_argument_count_fails_as_on_the_graph(self, args):
        graph = compile_source(DEEP).graph
        errors = []
        for run in (SequentialExecutor().run, graph_run):
            with pytest.raises(RuntimeFailure) as excinfo:
                run(graph, args, REGISTRY)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1] == (
            f"entry 'main' takes 1 argument(s), got {len(args)}"
        )
        # A failed check leaves the crown for the next, well-formed run.
        assert SequentialExecutor().run(graph, (3,), REGISTRY).value == 6

    def test_an_entry_with_captures_is_refused(self):
        entry = Template(name="main", captures=["c"])
        entry.nodes.append(Node(kind=NodeKind.CAPTURE, name="c"))
        entry.result = Port(0, 0)
        entry.finalize()
        graph = GraphProgram()
        graph.add(entry)
        with pytest.raises(GraphError, match="has captures"):
            SequentialExecutor().run(graph, (), REGISTRY)
        assert _plans_for(graph, REGISTRY).entry.crown is None

    def test_an_entry_past_the_line_budget_runs_on_the_graph(self):
        # Unfused, each operator call is several generated lines.
        n = _MAX_LINES // 2
        chain = "\n      ".join(f"a{i + 1} = incr(a{i})" for i in range(n))
        graph = compile_source(
            f"main(a0)\n  let {chain}\n  in a{n}\n", optimize_passes=()
        ).graph
        result = SequentialExecutor().run(graph, (1,), REGISTRY)
        assert result.value == n + 1
        assert result.stats.tasks_fired == result.stats.ops_executed == n
        assert _plans_for(graph, REGISTRY).entry.crown is None

    def test_a_graph_the_generator_cannot_emit_stalls_on_the_graph(self):
        # Two nodes wait on each other: no order exists to emit them in.
        entry = Template(name="main")
        entry.nodes.append(Node(kind=NodeKind.OP, name="incr", inputs=[Port(1)]))
        entry.nodes.append(Node(kind=NodeKind.OP, name="incr", inputs=[Port(0)]))
        entry.result = Port(0, 0)
        entry.finalize()
        graph = GraphProgram()
        graph.add(entry)
        with pytest.raises(RuntimeFailure, match="stalled"):
            SequentialExecutor().run(graph, (), REGISTRY)
        assert _plans_for(graph, REGISTRY).entry.crown is None

    def _retried(self, source, fail_times, run):
        registry = TestFailures()._registry(fail_times)

        registry.register(name="mklist", pure=True)(lambda x: [x])

        @registry.register(name="grow", modifies=(0,))
        def grow(xs):
            registry.grown = getattr(registry, "grown", 0) + 1
            raise ValueError("grow boom")

        graph = compile_source(source, registry=registry).graph
        bus = EventBus()
        retried = []
        bus.subscribe(retried.append, (FireRetried,))
        policy = FaultPolicy(max_retries=2, backoff=0.0)
        try:
            result = run(graph, (1,), registry, bus=bus, fault_policy=policy)
        except OperatorError as exc:
            result = exc
        # Only the run that clipped its entry has made its crown.
        clipped = hasattr(_plans_for(graph, registry).entry.crown, "source")
        assert clipped == (run is not graph_run)
        return result, [dataclasses.astuple(e)[1:] for e in retried], registry

    @pytest.mark.parametrize("fail_times", [1, 2])
    def test_a_fault_policy_retries_as_on_the_graph(self, fail_times):
        source = "main(x) add(flaky(x), 1)"
        runs = [
            self._retried(source, fail_times, run)
            for run in (lambda *a, **k: SequentialExecutor(**k).run(*a), graph_run)
        ]
        (clipped, clipped_events, _), (graph_path, graph_events, _) = runs
        assert clipped.value == graph_path.value == 3
        assert clipped.stats.tasks_fired == 1
        assert clipped.stats.fires_retried == graph_path.stats.fires_retried
        assert clipped.stats.fires_retried == fail_times
        assert clipped_events == graph_events and len(clipped_events) == fail_times

    def test_a_modifies_operator_is_never_retried(self):
        source = "main(x) grow(mklist(x))"
        errors = []
        for run in (lambda *a, **k: SequentialExecutor(**k).run(*a), graph_run):
            error, events, registry = self._retried(source, 0, run)
            assert isinstance(error, OperatorError) and error.attempts == ()
            assert events == [] and registry.grown == 1
            errors.append(str(error))
        assert errors[0] == errors[1] and "grow boom" in errors[0]


WRITES = """
main(n)
  let b = mkblock(n)
      c = bump(b, 1)
      e = push(b, blk_sum(c))
  in add(blk_sum(c), blk_sum(e))
"""


class Spy:
    """Counts the constructions of the classes it replaces."""

    def __init__(self, monkeypatch, *where) -> None:
        self.made: list[str] = []
        for module, name in where:
            cls = getattr(module, name)
            monkeypatch.setattr(module, name, self._counting(cls))

    def _counting(self, cls):
        made = self.made

        class Counted(cls):
            def __init__(self, *args, **kwargs):
                made.append(cls.__name__)
                super().__init__(*args, **kwargs)

        return Counted


def _warm(executor, graph, args, registry):
    """Run once so the plans and the entry's crown exist, and return a
    second run of the same executor."""
    executor.run(graph, args, registry)
    return lambda: executor.run(graph, args, registry)


class TestLeanRun:
    """A run whose entry clips builds what the crown call uses — the
    stats, the argument shares, the result — and the graph path's
    apparatus only on first need: a call past the depth bound, an entry
    that does not clip, a snapshot that reads the activations."""

    def test_a_clipped_run_builds_no_queue_and_no_pool(self, monkeypatch):
        graph = compile_source(DEEP).graph
        run = _warm(SequentialExecutor(), graph, (10,), REGISTRY)
        spy = Spy(
            monkeypatch, (executors, "ReadyQueue"), (engine, "ReadyQueue"),
            (engine, "ActivationPool"),
        )
        assert run().value == 55
        assert spy.made == []

    def test_a_clipped_process_run_builds_no_supervisor(self, monkeypatch):
        graph = compile_source(DEEP).graph
        executor = ProcessExecutor(1, persistent=True)
        try:
            run = _warm(executor, graph, (10,), REGISTRY)
            spy = Spy(monkeypatch, (executors, "Supervisor"))
            result = run()
        finally:
            executor.close()
        assert result.value == 55 and result.stats.tasks_fired == 1
        assert spy.made == []

    @pytest.mark.parametrize("persistent", [False, True])
    def test_a_clipped_run_on_a_cold_process_executor_forks_nothing(
        self, persistent, monkeypatch
    ):
        graph = compile_source(DEEP).graph
        spy = Spy(monkeypatch, (executors, "WorkerPool"), (executors, "Supervisor"))
        executor = ProcessExecutor(1, persistent=persistent)
        try:
            result = executor.run(graph, (10,), REGISTRY)
        finally:
            executor.close()
        assert result.value == 55 and result.stats.tasks_fired == 1
        assert spy.made == []

    def test_a_clipped_run_needs_no_buildable_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes today")

        monkeypatch.setattr(executors, "WorkerPool", no_pool)
        result = ProcessExecutor(1).run(compile_source(DEEP).graph, (10,), REGISTRY)
        assert result.value == 55 and result.stats.tasks_fired == 1
        assert result.stats.executor_degraded == 0

    def test_a_persistent_executor_builds_one_pool_when_a_run_needs_it(
        self, monkeypatch
    ):
        registry = default_registry()

        @registry.register(name="heavy", pure=True, cost=10_000_000.0)
        def heavy(x):
            return x + 1

        clipped = compile_source(DEEP, registry=registry).graph
        dispatching = compile_source(
            "main(n) add(heavy(n), heavy(incr(n)))", registry=registry
        ).graph
        spy = Spy(monkeypatch, (executors, "WorkerPool"))
        executor = ProcessExecutor(1, persistent=True)
        try:
            assert executor.run(clipped, (10,), registry).value == 55
            assert spy.made == []
            results = [executor.run(dispatching, (3,), registry) for _ in range(2)]
            pool = executor._pool
        finally:
            executor.close()
        assert [r.value for r in results] == [9, 9]
        assert all(r.stats.dispatched_fires == 2 for r in results)
        assert spy.made == ["WorkerPool"]
        assert executor._pool is None
        assert not any(p.is_alive() for p in pool.processes)

    def test_its_stats_are_the_graph_paths_contract_field_by_field(self):
        graph = compile_source(WRITES, registry=REGISTRY).graph
        result = _warm(SequentialExecutor(), graph, (4,), REGISTRY)()
        assert result.value == evaluate_source(WRITES, (4,), REGISTRY) == 51
        expected = dataclasses.asdict(engine.EngineStats())
        expected.update(
            tasks_fired=1, ops_executed=7, cow_copies=1, in_place_writes=1,
            activation_stats={"created": 0, "peak_live": 0},
        )
        assert dataclasses.asdict(result.stats) == expected
        # Which operator forced the copy, and its size, is the copy view.
        view = CopyView()
        SequentialExecutor(bus=view.bus).run(graph, (4,), REGISTRY)
        assert view.take() == (
            {"bump": 1},
            {"bump": blocks.payload_nbytes(REGISTRY.get("mkblock").fn(4))},
        )

    def test_past_the_depth_bound_it_builds_what_the_graph_needs(
        self, monkeypatch
    ):
        n = sys.getrecursionlimit() // 4 + 50
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20 * n)  # the evaluator recurses per call
        try:
            expected = evaluate_source(DEEP_ENTRY, (n,), REGISTRY)
        finally:
            sys.setrecursionlimit(limit)
        graph = compile_source(DEEP_ENTRY).graph
        run = _warm(SequentialExecutor(), graph, (n,), REGISTRY)
        spy = Spy(
            monkeypatch, (executors, "ReadyQueue"), (engine, "ReadyQueue"),
            (engine, "ActivationPool"),
        )
        result = run()
        assert result.value == expected == n * (n + 1) // 2
        assert result.stats.expansions > 0
        assert result.stats.activation_stats["created"] > 0
        # One pool for the run; a nested loop's queue, none of Run's.
        assert spy.made.count("ActivationPool") == 1
        assert "ReadyQueue" in spy.made
        assert result.stats.tasks_fired > 1

    def test_a_run_context_brackets_it_and_dumps_before_any_pool(
        self, tmp_path, monkeypatch
    ):
        ctx = RunContext("lean", metrics=False, flightrec_dir=str(tmp_path))
        registry = default_registry()
        seen = []

        @registry.register(name="probe", pure=True)
        def probe(x):
            seen.append(list(spy.made))
            seen.append(ctx.flightrec.dump(reason="mid-run"))
            return x + 1

        graph = compile_source("main(x) add(probe(x), 1)", registry=registry).graph
        spy = Spy(monkeypatch, (engine, "ActivationPool"))
        result = SequentialExecutor(run_ctx=ctx).run(graph, (1,), registry)
        assert result.value == 3 and result.stats.tasks_fired == 1
        pools_before_dump, path = seen
        assert pools_before_dump == []
        with open(path, encoding="utf-8") as fh:
            snapshot = json.load(fh)["snapshot"]["engine"]
        assert snapshot["live_activations"] == snapshot["in_flight_ops"] == 0
        assert snapshot["finished"] is False
        assert snapshot["activation_stats"] == {"created": 0, "peak_live": 0}
        with open(ctx.flightrec.dump(reason="end"), encoding="utf-8") as fh:
            kinds = [e["type"] for e in json.load(fh)["events"]]
        assert kinds.count("RunStarted") == kinds.count("RunFinished") == 1
        assert kinds.index("RunStarted") < kinds.index("RunFinished")

    def test_the_bracket_makes_few_python_calls(self):
        """A warm one-operator run makes at most 21 Python-level calls,
        counted with ``sys.setprofile``; it made 28 when every run built
        the ready queue, the activation pool and a fresh closure set of
        its crown.  A deterministic stand-in for a wall-clock bound."""
        compiled = compile_source("main(a) add(a, 1)")
        graph, registry = compiled.graph, compiled.registry
        executor = SequentialExecutor()
        executor.run(graph, (3,), registry)
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            result = executor.run(graph, (3,), registry)
        finally:
            sys.setprofile(None)
        assert result.value == 4
        assert len(calls) <= 21, calls

    def test_stream_items_take_the_lean_path(self, monkeypatch):
        from repro.apps import loganalytics

        registry = loganalytics.make_registry()
        compiled = compile_source(loganalytics.LOG_PROGRAM, registry=registry)
        batches = [loganalytics.make_batch(7, i, 16) for i in range(6)]

        def stream():
            return StreamRunner(
                compiled, carry=True, initial=loganalytics.empty_stats(),
                emit=loganalytics.stats_row,
            ).run(CallableSource(batches.__getitem__, 6), MemorySink())

        reference = stream()
        spy = Spy(monkeypatch, (executors, "ReadyQueue"), (engine, "ActivationPool"))
        result = stream()
        assert result.value == reference.value and result.items == 6
        assert result.stats["tasks_fired"] == 6  # one call per item
        assert spy.made == []


class TestGraphPathSwitch:
    """The tests' one switch to the graph path (``on_graph_path``) runs a
    multi-operator entry on the graph: were a run to decide it clips
    without asking ``Run._clips``, the graph-path tests would pass on
    the crown and test nothing."""

    SOURCE = """
main(n) add(tri(n), tri(incr(n)))

tri(k)
  if is_less(k, 1) then 0 else add(k, tri(sub(k, 1)))
"""

    def test_the_switch_forces_the_graph(self):
        graph = compile_source(self.SOURCE, optimize_passes=()).graph
        clipped = SequentialExecutor().run(graph, (4,), REGISTRY)
        with on_graph_path():
            forced = SequentialExecutor().run(graph, (4,), REGISTRY)
        helper = graph_run(graph, (4,), REGISTRY)
        assert clipped.value == forced.value == helper.value == 10 + 15
        assert clipped.stats.tasks_fired == 1
        for result in (forced, helper):
            assert result.stats.tasks_fired > 1
            assert result.stats.expansions > 0
            assert result.stats.activation_stats["created"] > 1

    def test_the_fixture_forces_the_graph(self, graph_path):
        graph = compile_source(self.SOURCE, optimize_passes=()).graph
        result = SequentialExecutor().run(graph, (4,), REGISTRY)
        assert result.stats.tasks_fired > 1 and result.stats.expansions > 0


class TestPlansWithoutARegistry:
    """``run(graph, args)`` with no registry runs against the builtins'
    one cached registry, so the program's plans (and its entry crown)
    are built once, not on every run."""

    @pytest.mark.parametrize("make, crowns", [
        (SequentialExecutor, 1),
        (lambda: ThreadedExecutor(2), 0),  # threads never clip
        (lambda: ProcessExecutor(1), 1),
    ])
    def test_two_runs_share_one_plan_set(self, make, crowns, monkeypatch):
        generated = []
        generate = crown_module._Generator.generate

        def counted(self, template, selfcap):
            generated.append(template.name)
            return generate(self, template, selfcap)

        monkeypatch.setattr(crown_module._Generator, "generate", counted)
        graph = compile_source(DEEP).graph
        executor = make()
        try:
            assert executor.run(graph, (3,)).value == 6
            plans = engine._PLAN_CACHES[id(graph)]
            assert executor.run(graph, (4,)).value == 10
        finally:
            close = getattr(executor, "close", None)
            if close is not None:
                close()
        assert engine._PLAN_CACHES[id(graph)] is plans
        assert len(generated) == crowns


class TestInlineRules:
    """A crown changes counts, writes in place and reuses a written
    argument's block inline; each inline form hands what it does not
    cover to the engine function it stands for."""

    @pytest.mark.parametrize("watched", [False, True])
    def test_one_extra_release_raises_releases_error(self, watched, monkeypatch):
        adjust = crown_module._Generator._adjust
        extra = [1]

        def one_more(self, out, depth, expr, kind, delta):
            if delta < 0 and kind == "v" and extra:
                delta -= extra.pop()
            adjust(self, out, depth, expr, kind, delta)

        monkeypatch.setattr(crown_module._Generator, "_adjust", one_more)
        graph = compile_source(
            "main() blk_sum(mkblock(1))", registry=REGISTRY, optimize_passes=()
        ).graph
        bus = EventBus()
        with observe_blocks(bus) if watched else contextlib.nullcontext():
            with pytest.raises(RuntimeError, match="reference count went negative"):
                SequentialExecutor().run(graph, (), REGISTRY)
        assert "REL(" in _crown_sources(graph, REGISTRY)[0]

    def test_a_shared_write_copies_and_a_sole_one_does_not(self):
        graph = compile_source(
            # ``add`` reads ``z`` beside the ``push`` that writes it.
            "main(n)\n  let z = mkblock(n)\n  in blk_sum(push(add(z, push(z, 2)), 3))",
            registry=REGISTRY, optimize_passes=(),
        ).graph
        clipped_view, graph_view = CopyView(), CopyView()
        clipped = SequentialExecutor(bus=clipped_view.bus).run(
            graph, (1,), REGISTRY
        )
        graph_path = graph_run(graph, (1,), REGISTRY, bus=graph_view.bus)
        assert clipped.value == graph_path.value == 6 + 6 + 2 + 3
        for counter in ("cow_copies", "in_place_writes"):
            assert getattr(clipped.stats, counter) == getattr(
                graph_path.stats, counter
            ), counter
        view = clipped_view.take()
        assert view == graph_view.take()
        assert sum(view[0].values()) == clipped.stats.cow_copies
        assert (clipped.stats.cow_copies, clipped.stats.in_place_writes) == (1, 1)
