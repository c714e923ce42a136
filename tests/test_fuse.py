"""The operator-fusion pass: the region rule, rewrite, round-trip.

Fusion collapses single-exit regions of cheap ``OP`` nodes — a node joins
a region exactly when every reader of its value is already in it — plus
an ``untuple`` and the producer only it reads, into one super-node
carrying the full recipe, so the engine pays one dispatch where the
source graph paid several.  These tests pin the region rule, the
in-place rewrite, recipe validation, serialization, cache keying,
observability, and bit-identical execution across every executor.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphError, compile_source, validate_program
from repro.compiler.passes.fuse import (
    FUSE_COST_THRESHOLD,
    LABEL_FULL_OPS,
    _find_regions,
)
from repro.compiler.passes.pipeline import (
    FULL_PASS_ORDER,
    GRAPH_PASS_ORDER,
    PASS_ORDER,
    split_passes,
)
from repro.graph.ir import NodeKind, Port
from repro.graph.serialize import dumps, loads
from repro.graph.validate import fusion_violation
from repro.machine import SimulatedExecutor, uniform
from repro.obs import EventBus, EventLog, OperatorsFused, OpStarted, attach_metrics
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)

from .test_optimizer_linear import golden_compiles, pythia_source
from .test_properties import REGISTRY as PROPERTY_REGISTRY
from .test_properties import _programs

FUSED_PASSES = PASS_ORDER + ("fuse",)

#: incr -> decr -> mul, where mul reads decr's value twice: both readers
#: are the one region, so all three fuse; mul (the template result) is
#: the exit.
CHAIN_SOURCE = """
main(x)
  let a = incr(x)
      b = decr(a)
  in mul(b, b)
"""


def _registry():
    reg = default_registry()

    @reg.register(name="expensive", cost=1e6)
    def expensive(x):
        return x * 10

    @reg.register(name="poke", modifies=(0,), cost=1.0)
    def poke(lst):
        lst[0] += 1
        return lst

    @reg.register(name="mklist", cost=1.0)
    def mklist(x):
        return [x, x]

    @reg.register(name="split2", cost=1.0)
    def split2(x):
        return (x + 1, x - 1)

    @reg.register(name="costly_split", cost=1e6)
    def costly_split(x):
        return (x + 1, x - 1)

    @reg.register(name="hinted", cost=lambda x: 1.0)
    def hinted(x):
        return x + 100

    @reg.register(name="sum_list", cost=1.0)
    def sum_list(lst):
        return sum(lst)

    return reg


REGISTRY = _registry()


def _fused_nodes(graph):
    return [
        (name, node_id, node)
        for name, t in graph.templates.items()
        for node_id, node in enumerate(t.nodes)
        if node.fused is not None
    ]


def _compile(source, passes=FUSED_PASSES):
    return compile_source(source, registry=REGISTRY, optimize_passes=passes)


def _recipes(graph):
    """The member names of every fused node, as a sorted list of lists."""
    return sorted([s[0] for s in n.fused[0]] for _, _, n in _fused_nodes(graph))


def _plain_ops(graph):
    return sorted(
        n.name
        for t in graph.templates.values()
        for n in t.nodes
        if n.kind is NodeKind.OP and n.fused is None
    )


def _run(graph, *args, registry=REGISTRY):
    return SequentialExecutor().run(graph, args=args, registry=registry)


def assert_single_exit_and_convex(template, region):
    """``region`` (found in the *unfused* ``template``) has one way out
    and no path that leaves it and comes back."""
    inside = set(region.members)
    exit_id = region.members[0]
    if region.untuple is not None:
        inside.add(region.untuple)
        exit_id = region.untuple
    assert exit_id == max(inside)
    for m in inside - {exit_id}:
        assert template.result_node != m
        readers = {d for out in template.consumers[m] for d, _ in out}
        assert readers and readers <= inside, (template.name, m)
    frontier = [d for out in template.consumers[exit_id] for d, _ in out]
    seen = set()
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        frontier.extend(d for out in template.consumers[n] for d, _ in out)
    assert not seen & inside, (template.name, sorted(seen & inside))


def unfused_regions(source, registry, **kwargs):
    """``(template, region)`` for every region the pass would fuse in the
    program compiled with the AST passes only."""
    graph = compile_source(
        source, registry=registry, optimize_passes=PASS_ORDER, **kwargs
    ).graph
    return [
        (template, region)
        for template in graph.templates.values()
        for region in _find_regions(template, registry, FUSE_COST_THRESHOLD)
    ]


class TestRegionRule:
    def test_double_reader_inside_the_region_fuses(self):
        fused = _compile(CHAIN_SOURCE)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, untuple_n = nodes[0][2].fused
        assert [s[0] for s in steps] == ["incr", "decr", "mul"]
        assert steps[2][1] == (("t", 1), ("t", 1))
        assert untuple_n == 0
        assert fused.optimization.stats["fuse.chains_fused"] == 1
        assert _run(fused.graph, 5).value == 25

    def test_three_node_chain_single_super_node(self):
        src = "main(x)\n  let a = incr(x)\n      b = decr(a)\n  in incr(b)"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, _ = nodes[0][2].fused
        assert [s[0] for s in steps] == ["incr", "decr", "incr"]

    def test_expensive_operator_breaks_chain(self):
        src = (
            "main(x)\n  let a = incr(x)\n      b = expensive(a)\n"
            "  in incr(b)"
        )
        fused = _compile(src)
        assert _fused_nodes(fused.graph) == []

    def test_modifies_operator_is_never_a_member(self):
        # sum_list -> incr fuse behind poke; poke is no member, so mklist
        # (read by poke alone) stays a node of its own too.
        src = (
            "main(x)\n  let a = mklist(x)\n      b = poke(a)\n"
            "      s = sum_list(b)\n  in incr(s)"
        )
        fused = _compile(src)
        assert _recipes(fused.graph) == [["sum_list", "incr"]]
        assert _plain_ops(fused.graph) == ["mklist", "poke"]
        assert _run(fused.graph, 3).value == 8

    def test_callable_hint_is_a_boundary(self):
        src = (
            "main(x)\n  let a = incr(x)\n      b = hinted(a)\n"
            "      c = decr(b)\n  in incr(c)"
        )
        fused = _compile(src)
        assert _recipes(fused.graph) == [["decr", "incr"]]
        assert _plain_ops(fused.graph) == ["hinted", "incr"]

    def test_fan_out_wholly_inside_a_region_fuses(self):
        # a feeds decr and incr, b and c each feed a mul twice, both muls
        # feed add: every reader of every value is in add's cone.
        src = (
            "main(x)\n  let a = incr(x)\n      b = decr(a)\n"
            "      c = incr(a)\n  in add(mul(b, b), mul(c, c))"
        )
        fused = _compile(src)
        assert _recipes(fused.graph) == [
            ["incr", "decr", "incr", "mul", "mul", "add"]
        ]
        assert _plain_ops(fused.graph) == []
        assert _run(fused.graph, 4).value == 16 + 36

    def test_fan_out_with_one_reader_outside_is_a_boundary(self):
        # a is read by decr (inside add's cone) and by expensive (outside
        # every region): it stays a node and both readers see its value.
        src = (
            "main(x)\n  let a = incr(x)\n      b = decr(a)\n"
            "      c = expensive(a)\n  in add(b, c)"
        )
        fused = _compile(src)
        assert _recipes(fused.graph) == [["decr", "add"]]
        assert _plain_ops(fused.graph) == ["expensive", "incr"]
        assert _run(fused.graph, 4).value == 4 + 50

    def test_readers_in_two_regions_are_a_boundary(self):
        # a is read from add's cone and from the cone behind expensive:
        # two regions, so a joins neither.
        src = (
            "main(x)\n  let a = incr(x)\n      b = expensive(decr(incr(a)))\n"
            "  in add(decr(a), b)"
        )
        fused = _compile(src)
        assert _recipes(fused.graph) == [["decr", "add"], ["incr", "decr"]]
        assert _plain_ops(fused.graph) == ["expensive", "incr"]
        assert _run(fused.graph, 4).value == 4 + 50

    def test_template_result_is_never_an_interior(self):
        # Without DCE b survives as a dead reader of a; a is the result
        # and must stay a live port, so it cannot join b's region.
        src = "main(x)\n  let a = incr(x)\n      b = decr(a)\n  in a"
        fused = _compile(src, passes=("fuse",))
        assert _fused_nodes(fused.graph) == []
        assert _run(fused.graph, 4).value == 5

    def test_untuple_of_op_absorbed(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        steps, untuple_n = nodes[0][2].fused
        assert [s[0] for s in steps] == ["split2"]
        assert untuple_n == 2
        assert nodes[0][2].n_outputs == 2
        assert fused.optimization.stats["fuse.untuples_absorbed"] == 1

    def test_costly_producer_keeps_its_untuple_and_nothing_else(self):
        src = "main(x)\n  let <a, b> = costly_split(incr(x))\n  in add(a, b)"
        fused = _compile(src)
        assert _recipes(fused.graph) == [["costly_split"]]
        assert _fused_nodes(fused.graph)[0][2].fused[1] == 2
        assert _plain_ops(fused.graph) == ["add", "incr"]
        assert _run(fused.graph, 4).value == 10

    def test_cheap_producer_grows_the_region_behind_its_untuple(self):
        src = "main(x)\n  let <a, b> = split2(incr(x))\n  in add(a, b)"
        fused = _compile(src)
        assert _recipes(fused.graph) == [["incr", "split2"]]
        assert _fused_nodes(fused.graph)[0][2].n_outputs == 2
        assert _run(fused.graph, 4).value == 10

    def test_two_regions_around_an_if(self):
        src = (
            "main(x)\n"
            "  let c = is_less(incr(x), 2)\n"
            "      r = if c then incr(x) else decr(x)\n"
            "  in add(incr(r), decr(r))"
        )
        fused = _compile(src)
        main = fused.graph.templates["main"]
        assert _recipes(fused.graph) == [
            ["incr", "decr", "add"],
            ["incr", "is_less"],
        ]
        assert [n.kind for n in main.nodes if n.kind is NodeKind.IF]
        validate_program(fused.graph, REGISTRY)  # acyclic, recipes sound
        plain = compile_source(src, registry=REGISTRY)
        for n in (-3, 0, 7):
            assert _run(fused.graph, n).value == _run(plain.graph, n).value

    def test_chain_into_result_node_fused(self):
        # The exit is the template result; the rewrite is in place, so
        # the result port stays valid.
        src = "main(x) incr(decr(x))"
        fused = _compile(src)
        nodes = _fused_nodes(fused.graph)
        assert len(nodes) == 1
        assert _run(fused.graph, 5).value == 5  # incr(decr(5))

    def test_long_region_labels_are_abbreviated(self):
        n = LABEL_FULL_OPS + 1
        src = "main(x) " + "incr(" * n + "x" + ")" * n
        node = _fused_nodes(_compile(src).graph)[0][2]
        assert node.label == f"incr+…+incr ({n} ops)"
        assert len(node.fused[0]) == n and node.name.count("incr") == n
        shorter = "main(x) " + "incr(" * (n - 1) + "x" + ")" * (n - 1)
        node = _fused_nodes(_compile(shorter).graph)[0][2]
        assert node.label == "+".join(["incr"] * (n - 1))


class TestPipelineOrdering:
    def test_fuse_is_graph_level(self):
        assert GRAPH_PASS_ORDER == ("fuse", "donate", "codegen", "batch")
        assert "fuse" not in PASS_ORDER
        assert "donate" not in PASS_ORDER
        assert "codegen" not in PASS_ORDER
        assert "batch" not in PASS_ORDER
        assert FULL_PASS_ORDER == PASS_ORDER + (
            "fuse",
            "donate",
            "codegen",
            "batch",
        )

    def test_split_passes_partitions(self):
        ast_passes, graph_passes = split_passes(
            ("inline", "fuse", "constprop")
        )
        assert ast_passes == ("inline", "constprop")
        assert graph_passes == ("fuse",)
        assert split_passes(()) == ((), ())
        assert split_passes(("fuse",)) == ((), ("fuse",))

    def test_report_records_fuse(self):
        fused = _compile(CHAIN_SOURCE)
        assert "fuse" in fused.optimization.enabled
        assert fused.optimization.stats["fuse.ops_fused"] == 3
        assert fused.optimization.stats["fuse.nodes_removed"] == 2

    def test_default_compile_does_not_fuse(self):
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        assert _fused_nodes(plain.graph) == []


class TestSerialization:
    def test_fused_graph_round_trips(self):
        fused = _compile(CHAIN_SOURCE)
        text = dumps(fused.graph)
        restored = loads(text)
        assert dumps(restored) == text
        nodes = _fused_nodes(restored)
        assert len(nodes) == 1
        assert nodes[0][2].fused == _fused_nodes(fused.graph)[0][2].fused

    def test_untuple_fusion_round_trips(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        restored = loads(dumps(fused.graph))
        assert _fused_nodes(restored)[0][2].fused[1] == 2

    def test_unfused_dump_is_bit_identical_to_pre_fusion_format(self):
        # --no-fuse must reproduce today's graphs bit-for-bit: an unfused
        # compile emits no "fused" keys and survives a round trip exactly.
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        text = dumps(plain.graph)
        assert '"fused"' not in text
        assert dumps(loads(text)) == text


class TestCacheKeys:
    def test_fused_and_unfused_keys_differ(self):
        from repro.tools.cache import cache_key

        plain = cache_key(CHAIN_SOURCE, passes=PASS_ORDER)
        fused = cache_key(CHAIN_SOURCE, passes=FUSED_PASSES)
        assert plain != fused


class TestDescribe:
    def test_describe_shows_recipe(self):
        fused = _compile(CHAIN_SOURCE)
        text = fused.graph.templates["main"].describe()
        assert "fused=[incr>decr>mul]" in text

    def test_describe_shows_untuple(self):
        src = "main(x)\n  let <a, b> = split2(x)\n  in add(a, b)"
        fused = _compile(src)
        text = fused.graph.templates["main"].describe()
        assert "fused=[split2>untuple2]" in text


class TestExecution:
    SRC = (
        "main(x)\n"
        "  let a = incr(x)\n"
        "      b = decr(a)\n"
        "      <p, q> = split2(b)\n"
        "      c = mul(p, q)\n"
        "  in add(c, b)"
    )

    def _both(self):
        plain = compile_source(self.SRC, registry=REGISTRY)
        fused = _compile(self.SRC)
        assert _fused_nodes(fused.graph)
        return plain, fused

    def test_sequential_matches(self):
        plain, fused = self._both()
        for n in (-3, 0, 7):
            ref = SequentialExecutor().run(
                plain.graph, args=(n,), registry=REGISTRY
            )
            got = SequentialExecutor().run(
                fused.graph, args=(n,), registry=REGISTRY
            )
            assert got.value == ref.value
            assert got.stats.tasks_fired < ref.stats.tasks_fired
            assert got.stats.fused_fires > 0
            assert got.stats.fused_ops_saved > 0

    def test_threaded_matches(self):
        plain, fused = self._both()
        ref = SequentialExecutor().run(
            plain.graph, args=(4,), registry=REGISTRY
        ).value
        for workers in (1, 2, 4):
            got = ThreadedExecutor(workers).run(
                fused.graph, args=(4,), registry=REGISTRY
            ).value
            assert got == ref

    def test_process_matches_with_forced_dispatch(self):
        # cost_threshold=0 ships every fire — including fused super-nodes,
        # whose recipes workers recompose from the program's fused chains.
        plain, fused = self._both()
        ref = SequentialExecutor().run(
            plain.graph, args=(4,), registry=REGISTRY
        ).value
        got = ProcessExecutor(2, cost_threshold=0.0).run(
            fused.graph, args=(4,), registry=REGISTRY
        ).value
        assert got == ref

    def test_simulator_matches(self):
        plain, fused = self._both()
        ref = SimulatedExecutor(uniform(4)).run(
            plain.graph, args=(4,), registry=REGISTRY
        )
        got = SimulatedExecutor(uniform(4)).run(
            fused.graph, args=(4,), registry=REGISTRY
        )
        assert got.value == ref.value


class TestObservability:
    def test_operators_fused_event_and_fused_ops(self):
        fused = _compile(CHAIN_SOURCE)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        SequentialExecutor(bus=bus).run(
            fused.graph, args=(3,), registry=REGISTRY
        )
        fused_events = [e for e in log.events if isinstance(e, OperatorsFused)]
        assert len(fused_events) == 1
        assert fused_events[0].fused_nodes == 1
        assert fused_events[0].ops_absorbed == 3
        started = [e for e in log.events if isinstance(e, OpStarted)]
        assert [e.fused_ops for e in started if "fused" in e.name] == [3]
        assert all(e.fused_ops == 1 for e in started if "fused" not in e.name)

    def test_metrics_counters(self):
        fused = _compile(CHAIN_SOURCE)
        bus = EventBus()
        metrics = attach_metrics(bus)
        SequentialExecutor(bus=bus).run(
            fused.graph, args=(3,), registry=REGISTRY
        )
        snap = metrics.snapshot()
        assert snap["counters"]["fused_fires"]["value"] == 1
        assert snap["counters"]["fused_ops_saved"]["value"] == 2
        assert snap["gauges"]["fused_nodes"]["value"] == 1
        assert snap["gauges"]["fused_ops_absorbed"]["value"] == 3

    def test_unfused_run_emits_no_fusion_event(self):
        plain = compile_source(CHAIN_SOURCE, registry=REGISTRY)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        SequentialExecutor(bus=bus).run(
            plain.graph, args=(3,), registry=REGISTRY
        )
        assert not [e for e in log.events if isinstance(e, OperatorsFused)]


class TestErrors:
    def test_fused_untuple_arity_mismatch_raises(self):
        reg = _registry()

        @reg.register(name="bad3", cost=1.0)
        def bad3(x):
            return (x, x, x)

        src = "main(x)\n  let <a, b> = bad3(x)\n  in add(a, b)"
        fused = compile_source(src, registry=reg, optimize_passes=FUSED_PASSES)
        assert _fused_nodes(fused.graph)
        from repro.errors import RuntimeFailure

        with pytest.raises(RuntimeFailure, match="decomposed into"):
            SequentialExecutor().run(fused.graph, args=(1,), registry=reg)


# ---------------------------------------------------------------------------
# Recipes are checked before they run
# ---------------------------------------------------------------------------


def _fan_in_graph():
    """One region of six steps over one input, in ``main``."""
    src = (
        "main(x)\n  let a = incr(x)\n      b = decr(a)\n"
        "      c = incr(a)\n  in add(mul(b, b), mul(c, c))"
    )
    graph = _compile(src).graph
    (_, node_id, node), = _fused_nodes(graph)
    return graph, node_id, node


def _with_step(node, j, refs):
    steps, untuple_n = node.fused
    steps = list(steps)
    steps[j] = (steps[j][0], tuple(refs))
    node.fused = (tuple(steps), untuple_n)


def _rename_step(node, j, name):
    steps, untuple_n = node.fused
    steps = list(steps)
    steps[j] = (name, steps[j][1])
    node.fused = (tuple(steps), untuple_n)


CORRUPTIONS = {
    "forward ref": (
        lambda n: _with_step(n, 1, [("t", 3)]),
        "step 1 reads step 3, which is not an earlier step",
    ),
    "self ref": (
        lambda n: _with_step(n, 2, [("t", 2)]),
        "step 2 reads step 2",
    ),
    "negative ref": (
        lambda n: _with_step(n, 1, [("t", -1)]),
        "step 1 reads step -1",
    ),
    "input out of range": (
        lambda n: _with_step(n, 0, [("i", 1)]),
        "step 0 reads input 1; the node has 1 input",
    ),
    "unknown ref kind": (
        lambda n: _with_step(n, 0, [("x", 0)]),
        "unknown kind 'x'",
    ),
    "unread input slot": (
        lambda n: n.inputs.append(Port(0)),
        "input(s) [1] are read by no step",
    ),
    "untuple count": (
        lambda n: setattr(n, "fused", (n.fused[0], 2)),
        "untuple count 2 disagrees with the node's 1 output",
    ),
    "no steps": (
        lambda n: setattr(n, "fused", ((), 0)),
        "at least one step",
    ),
}

#: Refused only when the caller knows the operators the program runs with.
REGISTRY_CORRUPTIONS = {
    "modifies member": (
        lambda n: _rename_step(n, 1, "poke"),
        "member 'poke' declares modifies",
    ),
    "unknown member": (
        lambda n: _rename_step(n, 1, "no_such_op"),
        "member 'no_such_op' is not a registered operator",
    ),
}


class TestRecipeValidation:
    def test_compiled_recipe_is_sound(self):
        graph, node_id, _ = _fan_in_graph()
        main = graph.templates["main"]
        assert fusion_violation(main, node_id, REGISTRY) is None
        validate_program(graph, REGISTRY)

    @pytest.mark.parametrize("what", sorted(CORRUPTIONS))
    def test_corrupted_recipe_is_refused_before_anything_fires(self, what):
        corrupt, reason = CORRUPTIONS[what]
        graph, node_id, node = _fan_in_graph()
        text = dumps(graph)
        corrupt(node)
        graph.templates["main"].finalize()
        with pytest.raises(GraphError) as exc:
            validate_program(graph)
        message = str(exc.value)
        assert "template 'main'" in message and f"node {node_id}" in message
        assert reason in message
        # The same recipe arriving in a .dlc never becomes a program.
        assert dumps(graph) != text
        with pytest.raises(GraphError, match="template 'main'"):
            loads(dumps(graph))

    @pytest.mark.parametrize("what", sorted(REGISTRY_CORRUPTIONS))
    def test_members_are_checked_against_the_registry(self, what):
        corrupt, reason = REGISTRY_CORRUPTIONS[what]
        graph, node_id, node = _fan_in_graph()
        corrupt(node)
        validate_program(graph)  # structurally a recipe like any other
        with pytest.raises(GraphError) as exc:
            validate_program(graph, REGISTRY)
        assert reason in str(exc.value)
        assert f"template 'main': node {node_id}" in str(exc.value)

    def test_compile_cache_does_not_serve_a_corrupted_entry(
        self, tmp_path, monkeypatch
    ):
        from repro.tools import cache

        monkeypatch.setenv("DELIRIUM_CACHE_DIR", str(tmp_path))
        graph, _, node = _fan_in_graph()
        key = cache.cache_key(CHAIN_SOURCE, passes=FUSED_PASSES)
        cache.store_cached(key, graph)
        assert cache.load_cached(key) is not None
        _with_step(node, 1, [("t", 3)])
        cache.store_cached(key, graph)
        assert cache.load_cached(key) is None

    def test_cli_validate_reports_a_recipe_refused_at_load(self, tmp_path, capsys):
        from repro.graph.serialize import save
        from repro.tools import cli

        graph, node_id, node = _fan_in_graph()
        good, bad = str(tmp_path / "good.dlc"), str(tmp_path / "bad.dlc")
        save(graph, good)
        _with_step(node, 1, [("t", 3)])
        save(graph, bad)
        assert cli.main(["validate", good]) == 0
        assert cli.main(["validate", bad]) == 1
        err = capsys.readouterr().err
        assert f"INVALID: template 'main': node {node_id}" in err
        with pytest.raises(GraphError, match="step 1 reads step 3"):
            cli.main(["run", bad, "--arg", "4"])

    def test_damaged_dlc_is_refused_or_still_a_valid_program(self):
        """Truncations and single-bit flips over the bench's pythia
        ``.dlc``: the loader raises ``GraphError`` and nothing else, and
        what it does return has passed ``validate_program``."""
        graph = compile_source(
            pythia_source(10, 1990, 1990), optimize_passes=FULL_PASS_ORDER
        ).graph
        text = dumps(graph)
        assert dumps(loads(text)) == text
        rng = random.Random(21)
        refused = 0
        for _ in range(150):
            at = rng.randrange(len(text))
            flipped = chr(ord(text[at]) ^ (1 << rng.randrange(7)))
            for damaged in (text[:at], text[:at] + flipped + text[at + 1:]):
                try:
                    program = loads(damaged)
                except GraphError:
                    refused += 1
                else:
                    for template in program.templates.values():
                        for node_id, node in enumerate(template.nodes):
                            if node.fused is not None:
                                assert fusion_violation(template, node_id) is None
        assert refused >= 150  # every truncation, at the least


# ---------------------------------------------------------------------------
# The property: regions are single-exit and convex; fusing moves no result
# and no operator call
# ---------------------------------------------------------------------------


def work(stats):
    """Fires plus the member calls fusion folded into other fires: what
    the unfused graph would have fired."""
    return stats.tasks_fired + stats.fused_ops_saved


class TestRegionProperty:
    @settings(max_examples=25, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(1, 4))
    def test_regions_are_sound_and_fusing_conserves_fires(
        self, source, n, workers
    ):
        registry = PROPERTY_REGISTRY
        for template, region in unfused_regions(source, registry):
            assert_single_exit_and_convex(template, region)
            for m in region.members:
                assert not registry.get(template.nodes[m].name).modifies
        plain = compile_source(source, registry=registry)
        fused = compile_source(
            source, registry=registry, optimize_passes=FUSED_PASSES
        )
        validate_program(fused.graph, registry)
        want = _run(plain.graph, n, registry=registry)
        got = _run(fused.graph, n, registry=registry)
        assert got.value == want.value
        assert work(got.stats) == work(want.stats)
        assert ThreadedExecutor(workers).run(
            fused.graph, args=(n,), registry=registry
        ).value == want.value

    @settings(max_examples=6, deadline=None)
    @given(_programs(), st.integers(-5, 5))
    def test_one_worker_process_recomposes_region_recipes(self, source, n):
        # cost_threshold=0 ships every fire, so the worker composes each
        # region's DAG recipe against its own registry.
        registry = PROPERTY_REGISTRY
        plain = compile_source(source, registry=registry)
        fused = compile_source(
            source, registry=registry, optimize_passes=FUSED_PASSES
        )
        want = _run(plain.graph, n, registry=registry)
        got = ProcessExecutor(1, cost_threshold=0.0).run(
            fused.graph, args=(n,), registry=registry
        )
        assert got.value == want.value
        assert work(got.stats) == work(want.stats)


class TestCaseStudies:
    def test_every_region_of_every_case_study_is_single_exit_and_convex(self):
        sizes = {}
        for name, kwargs in golden_compiles().items():
            kwargs = dict(kwargs)
            source, registry = kwargs.pop("source"), kwargs.pop("registry")
            found = unfused_regions(source, registry, **kwargs)
            for template, region in found:
                assert_single_exit_and_convex(template, region)
            sizes[name] = sorted(len(r.members) for _, r in found)
            full = compile_source(
                source, registry=registry, optimize_passes=FULL_PASS_ORDER,
                **kwargs,
            )
            validate_program(full.graph, registry)
        # pythia is the one graph regions change: 20 chains became these.
        assert sizes["pythia"] == [2, 9, 11, 55]
        assert max(max(v, default=0) for k, v in sizes.items() if k != "pythia") <= 2

    def test_pythia_fires_fewer_nodes_for_the_same_operator_calls(self):
        source = pythia_source(10, 1990, 1990)
        plain = compile_source(source, optimize_passes=PASS_ORDER)
        fused = compile_source(source, optimize_passes=FULL_PASS_ORDER)
        rng = random.Random(1990)
        for _ in range(3):
            args = tuple(rng.randint(-9, 9) for _ in range(3))
            want = SequentialExecutor().run(plain.graph, args=args)
            got = SequentialExecutor().run(fused.graph, args=args)
            assert got.value == want.value
            assert work(got.stats) == work(want.stats)
            assert got.stats.tasks_fired * 2 < want.stats.tasks_fired
