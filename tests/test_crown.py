"""Crown clipping: a call whose whole subtree would fire here, one body at
a time, runs as one generated Python function (``repro.runtime.crown``).

A clipped run must mean what the graph path and the reference evaluator
mean, keep the graph path's contract counters (``ops_executed`` and the
write decisions ``cow_copies + in_place_writes``; never more copies),
leave every block it allocated at ``rc`` 0 but the result's, survive
recursion and loops the interpreter's stack could not hold, and fire a
call only where nothing watches or perturbs single firings.
"""

from __future__ import annotations

import contextlib
import dataclasses
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
from repro.obs import EventBus, FireRetried, OpFinished, OpStarted, observe_blocks
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    blocks,
    executors,
)
from repro.runtime import crown as crown_module
from repro.runtime.crown import _MAX_LINES, EntryRow
from repro.runtime import engine
from repro.runtime.engine import _plans_for
from repro.runtime.executors import Run

REGISTRY = default_registry()


@REGISTRY.register(name="mk", pure=True)
def mk(n):
    return [n]


@REGISTRY.register(name="push", modifies=(0,))
def push(xs, v):
    xs.append(v)
    return xs


@REGISTRY.register(name="total", pure=True)
def total(xs):
    return sum(xs)


#: Mutual tail recursion carrying a written block, non-tail recursion,
#: non-tail recursion that reads and writes one block, and a package.
LIBRARY = """
down(k, xs)
  if is_less(k, 1) then total(xs) else side(sub(k, 1), push(xs, k))

side(k, xs)
  if is_less(k, 1) then total(xs) else down(sub(k, 1), xs)

tri(k)
  if is_less(k, 1) then 0 else add(k, tri(sub(k, 1)))

both(k, xs)
  if is_less(k, 1) then total(xs)
  else add(both(sub(k, 1), push(xs, k)), total(xs))

twin(xs)
  <total(xs), push(xs, 7)>
"""


def _stage(draw, i, src):
    k = draw(st.integers(0, 4))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return (
            f"s{i} = iterate {{ i{i} = 0, incr(i{i})  a{i} = {src}, "
            f"add(a{i}, i{i}) }} while is_less(i{i}, {k}), result a{i}"
        )
    if kind == 1:
        return f"s{i} = {draw(st.sampled_from(['down', 'side']))}({k}, mk({src}))"
    if kind == 2:
        return f"s{i} = add(tri({k}), {src})"
    if kind == 3:  # a block shared by a recursive writer and a reader
        return f"y{i} = mk({src})\n      s{i} = add(both({k}, y{i}), total(y{i}))"
    if kind == 4:
        return f"<u{i}, w{i}> = twin(mk({src}))\n      s{i} = add(u{i}, total(w{i}))"
    if kind == 5:  # foldable: a constant condition
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return (
            f"s{i} = if is_less({a}, {b}) then add({src}, 1) "
            f"else down({k}, mk({src}))"
        )
    # A modifies operator applied to a value something else still reads.
    return (
        f"z{i} = mk({src})\n      w{i} = push(z{i}, {k})\n"
        f"      s{i} = add(total(z{i}), total(w{i}))"
    )


@st.composite
def oracle_programs(draw):
    """Well-typed, terminating programs over :data:`LIBRARY`."""
    names = ["n"]
    stages = []
    for i in range(draw(st.integers(1, 5))):
        stages.append(_stage(draw, i, draw(st.sampled_from(names))))
        names.append(f"s{i}")
    result = names[-1]
    for other in names[:-1]:
        result = f"add({result}, {other})"
    body = "\n      ".join(stages)
    return f"main(n)\n  let {body}\n  in {result}\n" + LIBRARY


def _graph_run(graph, args, registry, **options):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Run, "_clips", lambda self, entry: False)
        return SequentialExecutor(**options).run(graph, args, registry)


def _calls_run(graph, args, registry, **options):
    """A run whose calls clip but whose entry starts on the graph."""

    def no_entry_crown(state):
        row = EntryRow(state.program.entry_template())
        row.crown = None
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executors, "entry_row", no_entry_crown)
        return SequentialExecutor(**options).run(graph, args, registry)


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
    @settings(max_examples=40, deadline=None)
    @given(oracle_programs(), st.integers(-3, 5), st.booleans())
    def test_clipped_is_graph_is_reference(self, source, n, passes):
        graph = compile_source(
            source, registry=REGISTRY,
            optimize_passes=FULL_PASS_ORDER if passes else (),
        ).graph
        entry = SequentialExecutor().run(graph, (n,), REGISTRY)
        calls = _calls_run(graph, (n,), REGISTRY)
        graph_path = _graph_run(graph, (n,), REGISTRY)
        assert entry.value == calls.value == graph_path.value == evaluate_source(
            source, (n,), REGISTRY
        )
        assert entry.stats.tasks_fired == 1 and entry.stats.expansions == 0
        b = graph_path.stats
        for a in (entry.stats, calls.stats):
            assert (a.ops_executed, a.fused_fires) == (b.ops_executed, b.fused_fires)
            assert (
                a.cow_copies + a.in_place_writes
                == b.cow_copies + b.in_place_writes
            )
            assert a.cow_copies <= b.cow_copies

    @settings(max_examples=15, deadline=None)
    @given(oracle_programs(), st.integers(0, 4))
    def test_every_block_ends_at_rc_zero_on_both_paths(self, source, n):
        graph = compile_source(source, registry=REGISTRY, optimize_passes=()).graph
        # Every body dispatched: each commit arrives through complete_fire.
        remote = ProcessExecutor(1, cost_threshold=0.0)
        try:
            for path in (SequentialExecutor().run, _graph_run, remote.run):
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
        clipped = SequentialExecutor().run(graph, (), registry)
        census.assert_conserved(clipped.value)
        graph_path = _graph_run(graph, (), registry)
        assert clipped.value == graph_path.value
        assert clipped.stats.tasks_fired == 1  # the entry, as one call
        assert clipped.stats.expansions == 0
        for counter in (
            "ops_executed", "cow_copies", "in_place_writes",
            "copies_by_operator", "copy_bytes_by_operator",
        ):
            got = getattr(clipped.stats, counter)
            assert got == getattr(graph_path.stats, counter), counter


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
        graph_path = _graph_run(graph, (n,), REGISTRY)
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
        graph_path = _graph_run(graph, (n,), registry)
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
        for run in (SequentialExecutor().run, _graph_run):
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
        graph_path = _graph_run(
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
            ("main(n) down(n, mk(n))\n" + LIBRARY, (7,), REGISTRY),
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
        graph_path = _graph_run(graph, (n,), REGISTRY)
        assert clipped.value == graph_path.value == n * (n + 1) // 2
        assert clipped.stats.ops_executed == graph_path.stats.ops_executed
        # The bound handed the rest of the recursion to the graph.
        assert 0 < clipped.stats.expansions < graph_path.stats.expansions

    @pytest.mark.parametrize("args", [(), (1, 2)], ids=["too_few", "too_many"])
    def test_a_wrong_argument_count_fails_as_on_the_graph(self, args):
        graph = compile_source(DEEP).graph
        errors = []
        for run in (SequentialExecutor().run, _graph_run):
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
        assert clipped == (run is not _graph_run)
        return result, [dataclasses.astuple(e)[1:] for e in retried], registry

    @pytest.mark.parametrize("fail_times", [1, 2])
    def test_a_fault_policy_retries_as_on_the_graph(self, fail_times):
        source = "main(x) add(flaky(x), 1)"
        runs = [
            self._retried(source, fail_times, run)
            for run in (lambda *a, **k: SequentialExecutor(**k).run(*a), _graph_run)
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
        for run in (lambda *a, **k: SequentialExecutor(**k).run(*a), _graph_run):
            error, events, registry = self._retried(source, 0, run)
            assert isinstance(error, OperatorError) and error.attempts == ()
            assert events == [] and registry.grown == 1
            errors.append(str(error))
        assert errors[0] == errors[1] and "grow boom" in errors[0]


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
            "main() total(mk(1))", registry=REGISTRY, optimize_passes=()
        ).graph
        bus = EventBus()
        with observe_blocks(bus) if watched else contextlib.nullcontext():
            with pytest.raises(RuntimeError, match="reference count went negative"):
                SequentialExecutor().run(graph, (), REGISTRY)
        assert "REL(" in _crown_sources(graph, REGISTRY)[0]

    def test_a_shared_write_copies_and_a_sole_one_does_not(self):
        graph = compile_source(
            # ``add`` reads ``z`` beside the ``push`` that writes it.
            "main(n)\n  let z = mk(n)\n  in total(push(add(z, push(z, 2)), 3))",
            registry=REGISTRY, optimize_passes=(),
        ).graph
        clipped = SequentialExecutor().run(graph, (1,), REGISTRY)
        graph_path = _graph_run(graph, (1,), REGISTRY)
        assert clipped.value == graph_path.value == 1 + 1 + 2 + 3
        for counter in (
            "cow_copies", "in_place_writes", "copies_by_operator",
            "copy_bytes_by_operator",
        ):
            assert getattr(clipped.stats, counter) == getattr(
                graph_path.stats, counter
            ), counter
        assert (clipped.stats.cow_copies, clipped.stats.in_place_writes) == (1, 1)
