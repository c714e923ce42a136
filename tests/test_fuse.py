"""The operator-fusion pass: the region rule, rewrite, round-trip.

Fusion collapses single-exit regions of cheap ``OP`` nodes — a node joins
a region exactly when every reader of its value is already in it — plus
an ``untuple`` and the producer only it reads, into one super-node
carrying the full recipe, so the engine pays one dispatch where the
source graph paid several.  An ``IF`` whose arms hold only cheap
operators is such a member too: its arms become guarded steps before a
select, and the untaken arm still never runs.  These tests pin the region
rule, if-conversion, the in-place rewrite, recipe validation,
serialization, cache keying, observability, and bit-identical execution
across every executor.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphError, compile_source, validate_program
from repro.apps.montecarlo.coordination import compile_pi
from repro.apps.retina import RetinaConfig, compile_retina
from repro.compiler.passes.fuse import (
    LABEL_FULL_OPS,
    _find_regions,
    _folds,
)
from repro.compiler.passes.pipeline import (
    FULL_PASS_ORDER,
    GRAPH_PASS_ORDER,
    PASS_ORDER,
    PASSES,
)
from repro.errors import OperatorError
from repro.graph.ir import NodeKind, Port
from repro.graph.serialize import dumps, loads
from repro.graph.validate import fusion_violation
from repro.machine import SimulatedExecutor, uniform
from repro.obs import (
    EventBus,
    EventLog,
    Expansion,
    OperatorsFused,
    OpStarted,
    WorkerRespawned,
    attach_metrics,
)
from repro.runtime import (
    NULL,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)
from repro.runtime import engine, operators
from repro.runtime.operators import SELECT, fused_name, fused_spec, generate_source
from repro.runtime.values import is_truthy

from .test_optimizer_linear import golden_compiles, pythia_source
from .programs import REGISTRY as PROGRAM_REGISTRY
from .programs import Fold, programs

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

    @reg.register(name="boom", cost=1.0)
    def boom(x):
        raise ValueError(f"boom({x})")

    @reg.register(name="tick", cost=1.0)
    def tick(x):
        TICKS.append(x)
        return x * 3

    @reg.register(name="cond_of", cost=1.0)
    def cond_of(k):
        return CONDITIONS[k]

    return reg


#: Arguments ``tick`` was called with, in this process.
TICKS: list = []

#: What ``cond_of(k)`` hands an ``IF``: the edge cases of its test.
CONDITIONS = [
    NULL, 0, "", np.bool_(True), np.bool_(False), np.array([1, 2]), 1, "x",
]

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


def _sources(graph):
    """The text every fused recipe of ``graph`` generates."""
    return {generate_source(*node.fused) for _, _, node in _fused_nodes(graph)}


@pytest.fixture
def generated(monkeypatch, tmp_path):
    """Empty the process-wide code and plan caches and record every text
    generated or compiled from a recipe, in this process and in the
    workers forked from it; returns a reader of ``(pid, "generate" |
    "compile", text)`` rows.  (Runs without a registry share the builtins'
    one registry, so a program's plans, and the fused bodies bound in
    them, outlive a test unless the plan cache is emptied too.)"""
    log = tmp_path / "generated.jsonl"

    def record(what, text):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), what, text]) + "\n")
        return text

    monkeypatch.setattr(operators, "_CODE_CACHE", {})
    monkeypatch.setattr(engine, "_PLAN_CACHES", {})
    monkeypatch.setattr(
        operators, "generate_source",
        lambda steps, untuple_n: record("generate", generate_source(steps, untuple_n)),
    )
    monkeypatch.setattr(
        operators, "compile",
        lambda text, *args: compile(record("compile", text), *args),
        raising=False,
    )

    def rows():
        if not log.exists():
            return []
        return [tuple(json.loads(line)) for line in log.read_text().splitlines()]

    return rows


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
    folds = _folds(graph, registry)
    arms = {arm for pair in folds for arm in pair}
    return [
        (template, region)
        for name, template in graph.templates.items()
        if name not in arms
        for region in _find_regions(template, registry, folds)
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
        # An arm holding an operator that is not cheap stays an expansion,
        # so the IF bounds the regions on either side of it.
        src = (
            "main(x)\n"
            "  let c = is_less(incr(x), 2)\n"
            "      r = if c then expensive(x) else decr(x)\n"
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


# ---------------------------------------------------------------------------
# If-conversion: an IF whose arms are cheap operators is a region member
# ---------------------------------------------------------------------------

#: pythia's shape: a cheap condition, a then-arm holding one operator over
#: a capture and a constant, a trivial else-arm, a value read twice.
IF_SOURCE = """
main(x, y)
  let c = is_less(x, y)
      r = if c then sub(6, x) else y
  in add(r, incr(r))
"""

#: The steps ``IF_SOURCE`` fuses to; inputs are x, y and the hoisted 6.
IF_STEPS = (
    ("is_less", (("i", 0), ("i", 1))),
    ("sub", (("i", 2), ("i", 0)), (("t", 0), True)),
    (SELECT, (("t", 0), ("t", 1), ("i", 1))),
    ("incr", (("t", 2),)),
    ("add", (("t", 2), ("t", 3))),
)

#: The then-arm raises, the else-arm counts its calls.
BOOM_SOURCE = "main(x)\n  incr(if is_less(x, 0) then boom(x) else tick(x))"

EXECUTORS = {
    "sequential": SequentialExecutor,
    "threaded": lambda: ThreadedExecutor(2),
    # cost_threshold=0 ships every fire: the worker composes the recipe.
    "process": lambda: ProcessExecutor(1, cost_threshold=0.0),
    "simulated": lambda: SimulatedExecutor(uniform(2)),
}


def _ifs(graph):
    return [
        n for t in graph.templates.values() for n in t.nodes
        if n.kind is NodeKind.IF
    ]


def _outcome(run, *args):
    """A run's value, or the error its body raised: the ``OperatorError``
    of a fused body wraps what the ``IF`` node raised unfolded."""
    try:
        return ("value", run(*args).value)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        root = exc.__cause__ if isinstance(exc, OperatorError) else exc
        return ("error", type(root), str(root))


class TestIfConversion:
    def test_cheap_arms_fold_into_the_region_as_guarded_steps(self):
        fused = _compile(IF_SOURCE)
        (_, _, node), = _fused_nodes(fused.graph)
        assert node.fused == (IF_STEPS, 0)
        assert node.name == fused_name(IF_STEPS, 0) == (
            "fused:is_less(i0,i1);sub(i2,i0)?t0;?(t0,t1,i1);incr(t2);add(t2,t3)"
        )
        main = fused.graph.templates["main"]
        assert main.nodes[node.inputs[2].node].value == 6  # hoisted
        assert list(fused.graph.templates) == ["main"]  # both arms dropped
        assert not _ifs(fused.graph)
        plain = compile_source(IF_SOURCE, registry=REGISTRY)
        for x, y in [(1, 2), (2, 1), (0, 0)]:
            got = _run(fused.graph, x, y)
            assert got.value == _run(plain.graph, x, y).value
            assert (got.stats.tasks_fired, got.stats.expansions) == (1, 0)

    def test_generated_source_is_an_if_else_around_the_guarded_steps(self):
        fused = _compile(IF_SOURCE)
        (_, _, node), = _fused_nodes(fused.graph)
        body = generate_source(*node.fused).split("    def _fused(a0, a1, a2):\n")[1]
        assert body.startswith(
            "        t0 = _f0(a0, a1)\n"
            "        if _f2(t0):\n"
            "            t1 = _f1(a2, a0)\n"
            "            t2 = t1\n"
            "        else:\n"
            "            t2 = a1\n"
            "        t3 = _f3(t2)\n"
        )
        assert _run(fused.graph, 1, 2).value == 5 + 6 and _run(fused.graph, 3, 2).value == 2 + 3

    def test_trivial_arms_select_in_an_if_else_of_their_own(self):
        src = "main(x, y)\n  incr(if is_less(x, y) then x else 7)"
        fused = _compile(src)
        (_, _, node), = _fused_nodes(fused.graph)
        assert (
            "        if _f1(t0):\n"
            "            t1 = a0\n"
            "        else:\n"
            "            t1 = a2\n"
        ) in generate_source(*node.fused)
        assert [_run(fused.graph, x, 2).value for x in (1, 3)] == [2, 8]

    def test_arm_constants_are_hoisted_once_per_type_and_value(self):
        src = (
            "main(x)\n"
            "  incr(if is_less(x, 0) then add(x, 6) else mul(6, sub(x, 6.0)))"
        )
        fused = _compile(src)
        main = fused.graph.templates["main"]
        consts = [n.value for n in main.nodes if n.kind is NodeKind.CONST]
        assert sorted(map(repr, consts)) == ["0", "6", "6.0"]
        plain = compile_source(src, registry=REGISTRY)
        for x in (-1, 2):
            got, want = _run(fused.graph, x).value, _run(plain.graph, x).value
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize(
        "what,src",
        [
            ("a costly operator", "if is_less(x, 0) then expensive(x) else x"),
            ("a modifies operator", "if is_less(x, 0) then sum_list(poke(mklist(x))) else x"),
            ("a nested if", "if is_less(x, 0) then if is_less(x, -5) then incr(x) else x else x"),
            ("a package", "let <a, b> = if is_less(x, 0) then <x, incr(x)> else <x, x> in add(a, b)"),
            ("a call", "let f(k) if is_less(k, 1) then 1 else mul(k, f(decr(k))) in f(x)"),
        ],
    )
    def test_an_arm_that_is_not_cheap_operators_stays_an_expansion(self, what, src):
        src = f"main(x)\n  incr({src})"
        fused = _compile(src)
        plain = compile_source(src, registry=REGISTRY)
        assert _ifs(fused.graph), what
        validate_program(fused.graph, REGISTRY)
        for x in (-7, -1, 4):
            assert _run(fused.graph, x).value == _run(plain.graph, x).value

    def test_a_lone_if_whose_arms_hold_no_operator_is_left_alone(self):
        fused = _compile("main(x, y) if x then x else y")
        assert _fused_nodes(fused.graph) == [] and len(_ifs(fused.graph)) == 1
        # With a cheap condition to fold it saves that fire, so it folds.
        fused = _compile("main(x, y) if is_less(x, y) then x else y")
        assert _recipes(fused.graph) == [["is_less", SELECT]]
        assert not _ifs(fused.graph)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_the_untaken_arm_never_runs(self, executor):
        plain = compile_source(BOOM_SOURCE, registry=REGISTRY)
        fused = _compile(BOOM_SOURCE)
        assert not _ifs(fused.graph)
        ticks = {}
        for name, graph in (("plain", plain.graph), ("fused", fused.graph)):
            del TICKS[:]
            run = EXECUTORS[executor]().run
            assert run(graph, args=(3,), registry=REGISTRY).value == 10
            ticks[name] = list(TICKS)
            with pytest.raises(OperatorError) as exc:
                run(graph, args=(-3,), registry=REGISTRY)
            assert type(exc.value.__cause__) is ValueError
            assert str(exc.value.__cause__) == "boom(-3)"
        if executor != "process":  # the worker counted, not this process
            assert ticks["fused"] == ticks["plain"] == [3]

    @pytest.mark.parametrize("k", range(len(CONDITIONS)), ids=[repr(c) for c in CONDITIONS])
    def test_condition_edge_cases_match_the_if_node(self, k):
        src = "main(k, x)\n  incr(if cond_of(k) then incr(x) else decr(x))"
        plain = compile_source(src, registry=REGISTRY)
        fused = _compile(src)
        assert not _ifs(fused.graph)
        for executor in (SequentialExecutor(), ThreadedExecutor(2)):
            def run(graph):
                return executor.run(graph, args=(k, 10), registry=REGISTRY)
            assert _outcome(run, fused.graph) == _outcome(run, plain.graph)

    def test_a_package_selected_by_a_folded_if_keeps_its_blocks(self):
        # The fused untuple hands out the package's own blocks, so the
        # write into x copies b instead of changing it behind its back.
        src = (
            "main(n)\n"
            "  let b = mkblock(n)\n"
            "      p = <b, n>\n"
            "      q = <b, incr(n)>\n"
            "      <x, y> = if is_less(n, 2) then p else q\n"
            "      z = bump(x, 1)\n"
            "  in add(add(blk_sum(z), blk_sum(b)), y)"
        )
        registry = PROGRAM_REGISTRY
        plain = compile_source(src, registry=registry)
        fused = compile_source(src, registry=registry, optimize_passes=FUSED_PASSES)
        assert ["is_less", SELECT] in _recipes(fused.graph)
        for n in (0, 5):
            want = _run(plain.graph, n, registry=registry).value
            assert _run(fused.graph, n, registry=registry).value == want
            assert ThreadedExecutor(2).run(
                fused.graph, args=(n,), registry=registry
            ).value == want

    @pytest.mark.usefixtures("graph_path")
    def test_a_select_counts_as_the_if_it_absorbed(self):
        fused = _compile(IF_SOURCE)
        plain = compile_source(IF_SOURCE, registry=REGISTRY)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        metrics = attach_metrics(bus)
        # (1, 2) takes the then-arm: its sub fires unfolded, is a guarded
        # step folded, and counts nowhere.
        got = SequentialExecutor(bus=bus).run(
            fused.graph, args=(1, 2), registry=REGISTRY
        )
        assert (got.stats.tasks_fired, got.stats.fused_ops_saved) == (1, 3)
        (event,) = log.of_type(OperatorsFused)
        assert event.ops_absorbed == 4
        assert [e.fused_ops for e in log.of_type(OpStarted)] == [4]
        assert metrics.snapshot()["counters"]["fused_ops_saved"]["value"] == 3
        for args, arm_fires in (((1, 2), 1), ((2, 1), 0)):
            want, conserved = unfused_work(plain.graph, fused.graph, args, REGISTRY)
            assert want.stats.tasks_fired == 4 + arm_fires
            got = _run(fused.graph, *args)
            assert work(got.stats) == conserved == 4

    def test_a_failed_fused_body_names_its_label(self):
        n = LABEL_FULL_OPS + 8
        src = "main(x) " + "incr(" * n + "boom(x)" + ")" * n
        graph = _compile(src).graph
        (_, _, node), = _fused_nodes(graph)
        with pytest.raises(OperatorError) as exc:
            _run(graph, 2)
        assert exc.value.operator == node.name
        assert str(exc.value).startswith(
            f"operator 'boom+…+incr ({n + 1} ops)' failed: ValueError('boom(2)')"
        )
        assert node.name not in str(exc.value)


class TestPipelineOrdering:
    def test_fuse_is_graph_level(self):
        assert GRAPH_PASS_ORDER == ("fuse",)
        assert "fuse" not in PASS_ORDER
        assert FULL_PASS_ORDER == PASS_ORDER + ("fuse",)

    def test_a_deleted_pass_name_is_unknown(self):
        with pytest.raises(KeyError, match="unknown optimization pass 'donate'"):
            _compile("main(x) incr(x)", FULL_PASS_ORDER + ("donate",))

    @pytest.mark.parametrize("flag", ["--donate", "--no-donate"])
    def test_the_cli_has_no_switch_for_it(self, flag, tmp_path, capsys):
        from repro.tools import cli

        path = tmp_path / "p.dlm"
        path.write_text("main(n) incr(n)\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exited:
            cli.main(["compile", str(path), "--no-cache", flag])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [False, True])
    def test_the_retina_builders_take_no_argument_for_it(self, stream):
        from repro.apps.retina.stream import compile_retina_stream

        build = compile_retina_stream if stream else compile_retina
        with pytest.raises(TypeError, match="'donate'"):
            build(config=TINY_RETINA, fuse=True, donate=True)

    def test_the_pass_table_gives_every_order(self):
        names = [name for name, _, _ in PASSES]
        assert len(set(names)) == len(names)
        assert PASS_ORDER == ("inline", "constprop", "cse", "dce")
        assert GRAPH_PASS_ORDER == ("fuse",)
        assert FULL_PASS_ORDER == PASS_ORDER + GRAPH_PASS_ORDER == tuple(names)

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

    def test_guarded_recipe_round_trips_as_format_2(self):
        fused = _compile(IF_SOURCE)
        text = dumps(fused.graph)
        assert json.loads(text)["format"] == 2
        restored = loads(text)
        assert dumps(restored) == text
        assert _fused_nodes(restored)[0][2].fused == (IF_STEPS, 0)
        for args in [(1, 2), (2, 1)]:
            assert _run(restored, *args).value == _run(fused.graph, *args).value
        # Without a guard the same build still writes format 1.
        assert json.loads(dumps(_compile(CHAIN_SOURCE).graph))["format"] == 1

    def test_a_format_1_file_carrying_a_guard_is_refused(self):
        data = json.loads(dumps(_compile(IF_SOURCE).graph))
        data["format"] = 1
        with pytest.raises(GraphError, match="format 1 cannot carry a guarded"):
            loads(json.dumps(data))


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

    @pytest.mark.usefixtures("graph_path")
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
    """Another member in step ``j``, the node's name respelled to match."""
    _set_step(node, j, (name,) + node.fused[0][j][1:])
    node.name = fused_name(*node.fused)


def _set_step(node, j, step):
    steps, untuple_n = node.fused
    node.fused = (steps[:j] + (step,) + steps[j + 1:], untuple_n)


def _if_graph():
    """``IF_SOURCE`` fused: one region of :data:`IF_STEPS` in ``main``."""
    graph = _compile(IF_SOURCE).graph
    (_, node_id, node), = _fused_nodes(graph)
    return graph, node_id, node


_SUB = IF_STEPS[1][:2]

#: Guard and select shapes no recipe of ``IF_SOURCE``'s may take.
GUARD_CORRUPTIONS = {
    "guard names a later step": (
        lambda n: _set_step(n, 1, _SUB + ((("t", 3), True),)),
        "step 1 reads step 3, which is not an earlier step",
    ),
    "guard arm is not a bool": (
        lambda n: _set_step(n, 1, _SUB + ((("t", 0), 1),)),
        "step 1 has a guard whose arm is not true or false",
    ),
    "guard under another condition": (
        lambda n: _set_step(n, 1, _SUB + ((("i", 0), True),)),
        "step 2 breaks off the guarded steps before it",
    ),
    "guarded step with no select after it": (
        lambda n: _set_step(n, 3, IF_STEPS[3] + ((("t", 0), True),)),
        "step 4 breaks off the guarded steps before it",
    ),
    "guarded last step": (
        lambda n: _set_step(n, 4, IF_STEPS[4] + ((("t", 0), False),)),
        "its last guarded steps have no select",
    ),
    "guarded select": (
        lambda n: (
            _set_step(n, 1, _SUB),
            _set_step(n, 2, IF_STEPS[2] + ((("t", 0), True),)),
        ),
        "select step 2 is guarded or does not have 3 refs",
    ),
    "select of two refs": (
        lambda n: _set_step(n, 2, (SELECT, (("t", 0), ("t", 1)))),
        "select step 2 is guarded or does not have 3 refs",
    ),
    "select takes the wrong arm's step": (
        lambda n: _set_step(n, 2, (SELECT, (("t", 0), ("i", 1), ("t", 1)))),
        "step 2 reads guarded step 1 outside its arm",
    ),
    "guarded value read after its select": (
        lambda n: _set_step(n, 3, ("incr", (("t", 1),))),
        "step 3 reads guarded step 1 outside its arm",
    ),
}


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

    def test_guarded_recipe_is_sound(self):
        graph, node_id, _ = _if_graph()
        assert fusion_violation(graph.templates["main"], node_id, REGISTRY) is None

    @pytest.mark.parametrize("what", sorted(GUARD_CORRUPTIONS))
    def test_malformed_guard_is_refused(self, what):
        corrupt, reason = GUARD_CORRUPTIONS[what]
        graph, node_id, node = _if_graph()
        corrupt(node)
        with pytest.raises(GraphError) as exc:
            validate_program(graph)
        assert f"template 'main': node {node_id} carries a fused recipe, but {reason}" in str(exc.value)
        with pytest.raises(GraphError):
            loads(dumps(graph))

    def test_no_operator_may_take_the_select_name(self):
        graph, node_id, _ = _if_graph()
        registry = _registry()
        registry.register(name=SELECT, cost=1.0)(lambda x: x)
        with pytest.raises(GraphError, match="defines an operator named '\\?'"):
            validate_program(graph, registry)

    def test_a_renamed_recipe_is_refused(self):
        # Two recipes under one name would share one spec-cache slot.
        graph, node_id, node = _fan_in_graph()
        node.name = node.name.replace("mul", "add")
        with pytest.raises(GraphError, match="its name does not spell its recipe"):
            validate_program(graph)
        with pytest.raises(GraphError, match=f"node {node_id}"):
            loads(dumps(graph))

    def test_stored_generated_text_is_ignored(self, generated):
        """A pythia ``.dlc`` whose fused nodes still carry generated text
        (as older builds wrote it), tampered: it loads, the text is never
        read, and the run computes the reference value.  Every string
        compiled on the way is what a recipe of the graph generates."""
        source = pythia_source(10, 1990, 1990)
        graph = compile_source(source, optimize_passes=FULL_PASS_ORDER).graph
        data = json.loads(dumps(graph))
        stored = [nd for t in data["templates"].values() for nd in t["nodes"] if "fused" in nd]
        for nd in stored:
            nd["codegen"] = "raise SystemExit('the stored text ran')\n"
        assert len(stored) == 3
        restored = loads(json.dumps(data))
        assert dumps(restored) == dumps(graph)
        plain = compile_source(source, optimize_passes=PASS_ORDER).graph
        for args in [(1, 2, 3), (-4, 0, 9)]:
            want = SequentialExecutor().run(plain, args=args).value
            assert SequentialExecutor().run(restored, args=args).value == want
        compiled = [text for _, what, text in generated() if what == "compile"]
        assert compiled and set(compiled) <= _sources(graph)

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


def unfused_work(plain, fused, args, registry):
    """Run ``plain`` (compiled without ``fuse``); return its result and what
    a run of ``fused`` must conserve: the plain run's :func:`work` minus
    the operator fires of the arm templates ``fused`` folded — folded,
    those are guarded steps, which count nowhere because they may not run."""
    arm_ops = {
        name: sum(node.kind is NodeKind.OP for node in template.nodes)
        for name, template in plain.templates.items()
        if name not in fused.templates
    }
    taken = []
    bus = EventBus()
    bus.subscribe(
        lambda e: taken.append(arm_ops.get(e.template, 0)), events=(Expansion,)
    )
    result = SequentialExecutor(bus=bus).run(plain, args=args, registry=registry)
    return result, work(result.stats) - sum(taken)


@pytest.mark.usefixtures("graph_path")
class TestRegionProperty:
    @settings(max_examples=40, deadline=None)
    @given(programs(), st.integers(-5, 5), st.integers(1, 4))
    def test_regions_are_sound_and_fusing_conserves_fires(
        self, source, n, workers
    ):
        registry = PROGRAM_REGISTRY
        for template, region in unfused_regions(source, registry):
            assert_single_exit_and_convex(template, region)
            for m in region.members:
                node = template.nodes[m]
                assert node.kind is NodeKind.IF or not registry.get(node.name).modifies
        plain = compile_source(source, registry=registry)
        fused = compile_source(
            source, registry=registry, optimize_passes=FUSED_PASSES
        )
        full = compile_source(
            source, registry=registry, optimize_passes=FULL_PASS_ORDER
        )
        validate_program(fused.graph, registry)
        validate_program(full.graph, registry)
        want, conserved = unfused_work(plain.graph, fused.graph, (n,), registry)
        got = _run(fused.graph, n, registry=registry)
        assert got.value == want.value
        assert work(got.stats) == conserved
        assert _run(full.graph, n, registry=registry).value == want.value
        for executor in (ThreadedExecutor(workers), SimulatedExecutor(uniform(workers))):
            assert executor.run(
                fused.graph, args=(n,), registry=registry
            ).value == want.value

    @settings(max_examples=6, deadline=None)
    @given(programs(), st.integers(-5, 5))
    def test_one_worker_process_recomposes_region_recipes(self, source, n):
        # cost_threshold=0 ships every fire, so the worker composes each
        # region's DAG recipe against its own registry.
        registry = PROGRAM_REGISTRY
        plain = compile_source(source, registry=registry)
        fused = compile_source(
            source, registry=registry, optimize_passes=FUSED_PASSES
        )
        want, conserved = unfused_work(plain.graph, fused.graph, (n,), registry)
        got = ProcessExecutor(1, cost_threshold=0.0).run(
            fused.graph, args=(n,), registry=registry
        )
        assert got.value == want.value
        assert work(got.stats) == conserved


class TestCaseStudies:
    def test_every_region_of_every_case_study_is_single_exit_and_convex(self):
        sizes, folded = {}, {}
        for name, kwargs in golden_compiles().items():
            kwargs = dict(kwargs)
            source, registry = kwargs.pop("source"), kwargs.pop("registry")
            found = unfused_regions(source, registry, **kwargs)
            for template, region in found:
                assert_single_exit_and_convex(template, region)
            sizes[name] = sorted(len(r.members) for _, r in found)
            folded[name] = sum(r.arm_ops for _, r in found)
            full = compile_source(
                source, registry=registry, optimize_passes=FULL_PASS_ORDER,
                **kwargs,
            )
            validate_program(full.graph, registry)
        # pythia is the one graph regions change: 20 chains became 4 regions
        # of 2 / 9 / 11 / 55, and folding its 8 IFs (8 arm operators) makes
        # each of its three function templates one region.
        assert sizes["pythia"] == [16, 24, 66]
        assert folded == {**dict.fromkeys(sizes, 0), "pythia": 8}
        assert max(max(v, default=0) for k, v in sizes.items() if k != "pythia") <= 2

    @pytest.mark.usefixtures("graph_path")
    def test_pythia_fires_fewer_nodes_for_the_same_operator_calls(self):
        source = pythia_source(10, 1990, 1990)
        plain = compile_source(source, optimize_passes=PASS_ORDER)
        fused = compile_source(source, optimize_passes=FULL_PASS_ORDER)
        assert len(fused.graph.templates) == 3 and fused.graph.total_nodes() <= 30
        rng = random.Random(1990)
        for _ in range(3):
            args = tuple(rng.randint(-9, 9) for _ in range(3))
            want, conserved = unfused_work(plain.graph, fused.graph, args, None)
            got = SequentialExecutor().run(fused.graph, args=args)
            assert got.value == want.value
            assert work(got.stats) == conserved
            assert got.stats.tasks_fired <= 6 and got.stats.expansions <= 2

    @pytest.mark.usefixtures("graph_path")
    @pytest.mark.parametrize("version", [1, 2])
    def test_retina_fires_fewer_nodes_for_the_same_operator_calls(self, version):
        plain = compile_retina(version, TINY_RETINA)
        fused = compile_retina(version, TINY_RETINA, fuse=True)
        assert fused.graph.total_nodes() < plain.graph.total_nodes()
        want, conserved = unfused_work(plain.graph, fused.graph, (), plain.registry)
        got = SequentialExecutor().run(fused.graph, registry=fused.registry)
        assert got.value.signature() == want.value.signature()
        assert work(got.stats) == conserved
        assert got.stats.tasks_fired < want.stats.tasks_fired
        assert got.stats.fused_fires > 0


# ---------------------------------------------------------------------------
# Generated bodies: one per recipe per process
# ---------------------------------------------------------------------------


class TestGenerateSource:
    def test_multi_step_source_shape(self):
        steps = (
            ("incr", (("i", 0),)),
            ("decr", (("t", 0),)),
            ("add", (("t", 1), ("i", 1))),
        )
        source = generate_source(steps, 0)
        assert "def _delirium_bind(_f0, _f1, _f2):" in source
        assert "def _fused(a0, a1):" in source
        assert "t0 = _f0(a0)" in source
        assert "t1 = _f1(t0)" in source
        assert "t2 = _f2(t1, a1)" in source
        assert "return t2" in source
        # The text is a pure function of the recipe.
        assert source == generate_source(steps, 0)

    def test_single_step_binds_member_directly(self):
        steps = (("split", (("i", 0),)),)
        source = generate_source(steps, 2)
        assert "return _f0" in source
        assert "def _fused(" not in source  # no wrapper frame
        steps = (("incr", (("i", 0),)),)
        spec = fused_spec(fused_name(steps, 0), (steps, 0), REGISTRY)
        assert spec.fn is REGISTRY.get("incr").fn

    def test_untuple_marker_in_header(self):
        steps = (("incr", (("i", 0),)), ("split3", (("t", 0),)))
        assert ">untuple3" in generate_source(steps, 3).splitlines()[0]

    def test_spec_computes_with_the_calling_registry(self):
        reg = default_registry()
        reg.register(name="shadow", pure=True)(lambda x: x * 100)
        steps = (("shadow", (("i", 0),)), ("add", (("t", 0), ("i", 1))))
        spec = fused_spec(fused_name(steps, 0), (steps, 0), reg)
        assert spec.fn(2, 1) == 201
        assert spec.fn(3, 0) == 300
        assert spec.fn.__code__.co_filename == f"<delirium-fused {spec.name}>"


def _evaluate(steps, args, registry):
    """A recipe run step by step, the way its generated body must run it:
    a guarded step only when its condition is what it names, a select
    picking one of two values."""
    t = []

    def val(ref):
        return args[ref[1]] if ref[0] == "i" else t[ref[1]]

    for step in steps:
        if len(step) > 2 and is_truthy(val(step[2][0])) != step[2][1]:
            t.append(None)  # untaken: no select reads it
        elif step[0] == SELECT:
            cond, then, orelse = step[1]
            t.append(val(then) if is_truthy(val(cond)) else val(orelse))
        else:
            t.append(registry.get(step[0]).fn(*map(val, step[1])))
    return t[-1]


def _i(k):
    return ("i", k)


def _t(k):
    return ("t", k)


#: Recipe shapes the fuse pass writes: ``(steps, untuple_n, argument rows)``.
RECIPES = {
    "one step": ((("incr", (_i(0),)),), 0, [(4,), (-1,)]),
    "one step and its untuple": ((("split2", (_i(0),)),), 2, [(4,), (0,)]),
    "chain read twice": (
        (("incr", (_i(0),)), ("decr", (_t(0),)), ("mul", (_t(1), _t(1)))), 0, [(5,), (-3,)],
    ),
    "fan-in": (
        (("incr", (_i(0),)), ("decr", (_t(0),)), ("incr", (_t(0),)), ("mul", (_t(1), _t(1))),
         ("mul", (_t(2), _t(2))), ("add", (_t(3), _t(4)))),
        0, [(4,), (-2,)],
    ),
    "chain into its untuple": ((("incr", (_i(0),)), ("split2", (_t(0),))), 2, [(4,), (-9,)]),
    "two inputs": (
        (("incr", (_i(0),)), ("mul", (_t(0), _i(1))), ("sub", (_t(1), _i(0)))),
        0, [(0, 0), (3, 4), (-7, 2)],
    ),
    "guarded then-arm": (IF_STEPS, 0, [(1, 2, 6), (2, 1, 6), (0, 0, 6)]),
    "trivial arms": (
        (("is_less", (_i(0), _i(1))), (SELECT, (_t(0), _i(0), _i(2))), ("incr", (_t(1),))),
        0, [(1, 2, 7), (3, 2, 7)],
    ),
    "guards on both arms": (
        (("is_less", (_i(0), _i(1))), ("add", (_i(0), _i(1)), (_t(0), True)),
         ("mul", (_i(1), _i(1)), (_t(0), False)), (SELECT, (_t(0), _t(1), _t(2))),
         ("incr", (_t(3),))),
        0, [(1, 2), (2, 1), (5, 5)],
    ),
    "untaken arm that raises": (
        (("is_less", (_i(0), _i(1))), ("boom", (_i(0),), (_t(0), True)),
         (SELECT, (_t(0), _t(1), _i(1)))),
        0, [(3, 2), (7, -1)],
    ),
    "two folded ifs in a row": (
        (("is_less", (_i(0), _i(1))), ("incr", (_i(0),), (_t(0), True)),
         (SELECT, (_t(0), _t(1), _i(1))), ("is_less", (_t(2), _i(2))),
         ("decr", (_t(2),), (_t(3), False)), (SELECT, (_t(3), _t(2), _t(4))),
         ("add", (_t(2), _t(5)))),
        0, [(1, 2, 0), (5, 2, 9), (0, 0, 0)],
    ),
}


def _outcome_of(call):
    """What ``call()`` returned, or the error it raised."""
    try:
        return ("value", call())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


class TestGeneratedMatchesItsRecipe:
    @pytest.mark.parametrize("shape", list(RECIPES))
    def test_the_body_computes_the_recipe(self, shape):
        steps, untuple_n, rows = RECIPES[shape]
        spec = fused_spec(fused_name(steps, untuple_n), (steps, untuple_n), REGISTRY)
        want = [_evaluate(steps, row, REGISTRY) for row in rows]
        assert [spec.fn(*row) for row in rows] == want
        assert spec.arity == len(rows[0])

    @pytest.mark.parametrize("k", range(len(CONDITIONS)), ids=[repr(c) for c in CONDITIONS])
    def test_a_fire_tests_its_condition_like_the_recipe(self, k):
        src = "main(k, x)\n  incr(if cond_of(k) then incr(x) else decr(x))"
        (_, _, node), = _fused_nodes(_compile(src).graph)
        spec = fused_spec(node.name, node.fused, REGISTRY)
        rows = [(k, 10), (k, -4)]
        singles = [_outcome_of(lambda row=row: spec.fn(*row)) for row in rows]
        reference = [_outcome_of(lambda row=row: _evaluate(node.fused[0], row, REGISTRY)) for row in rows]
        assert singles == reference


#: ``leaf``'s IF folds; ``par_reduce`` fires its fused body from many
#: activations at once, which a process executor expands together.
LEAF_SOURCE = """
leaf(k) incr(if is_less(k, 0) then boom(k) else tick(k))
main(lo, hi) par_reduce(add, leaf, lo, hi)
"""

PEER_EXECUTORS = {
    "sequential": lambda bus: SequentialExecutor(bus=bus),
    "threaded": lambda bus: ThreadedExecutor(2, bus=bus),
    "process": lambda bus: ProcessExecutor(1, cost_threshold=0.0, bus=bus),
}


class TestGeneratedBodies:
    @pytest.mark.parametrize("executor", sorted(PEER_EXECUTORS))
    def test_the_untaken_arm_never_runs_in_a_fan_out(self, executor):
        make = PEER_EXECUTORS[executor]
        plain = compile_source(LEAF_SOURCE, registry=REGISTRY, prelude=True)
        fused = compile_source(
            LEAF_SOURCE, registry=REGISTRY, prelude=True, optimize_passes=FUSED_PASSES
        )
        leaf = fused_name(
            (
                ("is_less", (_i(0), _i(1))),
                ("boom", (_i(0),), (_t(0), True)),
                ("tick", (_i(0),), (_t(0), False)),
                (SELECT, (_t(0), _t(1), _t(2))),
                ("incr", (_t(3),)),
            ),
            0,
        )
        assert leaf in {node.name for _, _, node in _fused_nodes(fused.graph)}
        ticks = {}
        for name, graph in (("plain", plain.graph), ("fused", fused.graph)):
            del TICKS[:]
            got = make(None).run(graph, args=(0, 16), registry=REGISTRY)
            assert got.value == sum(3 * k + 1 for k in range(16))
            ticks[name] = sorted(TICKS)
            if name == "fused":
                assert got.stats.fused_fires >= 16
            with pytest.raises(OperatorError) as exc:
                make(None).run(graph, args=(-3, 13), registry=REGISTRY)
            assert type(exc.value.__cause__) is ValueError
            assert str(exc.value.__cause__).startswith("boom(-")
        if executor != "process":  # the worker counted, not this process
            assert ticks["fused"] == ticks["plain"] == list(range(16))

    def test_fuse_alone_fires_generated_bodies(self):
        """``("fuse",)`` with no other pass: each fused body is generated
        code, every real executor fires it, and the results are
        ``--no-fuse``'s."""
        fused = compile_pi(seed=11, batch_size=64, optimize_passes=("fuse",))
        plain = compile_pi(seed=11, batch_size=64, optimize_passes=())
        nodes = [node for _, _, node in _fused_nodes(fused.graph)]
        assert nodes
        for node in nodes:
            spec = fused_spec(node.name, node.fused, fused.registry)
            assert spec.fn.__code__.co_filename == f"<delirium-fused {node.name}>"
        want = SequentialExecutor().run(plain.graph, args=(8,), registry=plain.registry)
        for make in (
            lambda bus: SequentialExecutor(bus=bus),
            lambda bus: ThreadedExecutor(2, bus=bus),
            lambda bus: ProcessExecutor(1, cost_threshold=0.0, bus=bus),
        ):
            got = make(None).run(fused.graph, args=(8,), registry=fused.registry)
            assert got.value == want.value
            assert got.stats.fused_fires > 0

    def test_generated_frames_attribute_to_operator_body(self):
        from repro.obs import RunContext
        from repro.obs.critpath import RECONCILIATION_TOLERANCE

        reg = default_registry()

        # Cost hints stay under FUSE_COST_THRESHOLD so the chain fuses;
        # churn's ~1 ms of real array math must land in operator_body.
        @reg.register(name="churn", pure=True, cost=50.0)
        def churn(n):
            return float(np.sqrt(np.arange(120_000, dtype=np.float64)).sum())

        reg.register(name="scale2", pure=True, cost=10.0)(lambda x: x * 2.0)
        graph = compile_source(
            "main(n) scale2(churn(n))", registry=reg, optimize_passes=FUSED_PASSES
        ).graph
        assert _fused_nodes(graph), "churn>scale2 must fuse"
        ctx = RunContext(record_events=True, flight_recorder=False)
        executor = SequentialExecutor()
        executor.run_ctx = ctx
        result = executor.run(graph, args=(3,), registry=reg)
        report = ctx.critical_path(result.wall_seconds)
        assert report.reconciliation_error <= RECONCILIATION_TOLERANCE
        attribution = report.attribution
        assert attribution["operator_body"] > 5 * attribution["engine_overhead"] > 0.0

    def test_bound_specs_serve_a_second_run(self):
        # The same program on a fresh executor: op plans come from the
        # module-level cache, and the value is the same.
        graph = _compile(CHAIN_SOURCE).graph
        first = SequentialExecutor().run(graph, args=(5,), registry=REGISTRY).value
        second = SequentialExecutor().run(graph, args=(5,), registry=REGISTRY).value
        assert first == second == 25

    def test_profile_ops_measures_generated_bodies(self):
        compiled = compile_retina(2, TINY_RETINA, fuse=True)
        assert _fused_nodes(compiled.graph)
        result = SequentialExecutor(profile_ops=True).run(
            compiled.graph, registry=compiled.registry
        )
        assert 0.0 < result.stats.op_body_seconds <= result.wall_seconds


TINY_RETINA = RetinaConfig(height=24, width=24, num_iter=2)

#: ``(--no-fuse, fully fused)`` builds and the arguments they run with.
APPS = {
    "retina": lambda: (
        (compile_retina(2, TINY_RETINA), compile_retina(2, TINY_RETINA, fuse=True)),
        (),
    ),
    "montecarlo": lambda: (
        tuple(compile_pi(batch_size=2000, optimize_passes=p) for p in (PASS_ORDER, FULL_PASS_ORDER)),
        (4,),
    ),
}

#: cost_threshold=0 ships every fire, so workers run the bodies they
#: generate from the recipes, not the master's bindings.
APP_EXECUTORS = {
    "sequential": SequentialExecutor,
    "threaded": lambda: ThreadedExecutor(3),
    "process": lambda: ProcessExecutor(2, cost_threshold=0.0),
}


@pytest.fixture(scope="module")
def app_builds():
    return {name: build() for name, build in APPS.items()}


class TestApplicationsBitIdentical:
    @pytest.mark.parametrize("executor", sorted(APP_EXECUTORS))
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_fused_matches_no_fuse(self, app_builds, app, executor):
        (plain, fused), args = app_builds[app]
        want = SequentialExecutor().run(plain.graph, args=args, registry=plain.registry)
        got = APP_EXECUTORS[executor]().run(fused.graph, args=args, registry=fused.registry)
        value = getattr(got.value, "signature", lambda: got.value)()
        assert value == getattr(want.value, "signature", lambda: want.value)()
        assert got.stats.fused_fires > 0


class TestCaseStudyDumps:
    @pytest.mark.parametrize("name", sorted(golden_compiles()))
    def test_a_full_compile_stores_recipes_and_no_generated_text(self, name):
        kwargs = dict(golden_compiles()[name])
        source, registry = kwargs.pop("source"), kwargs.pop("registry")
        graph = compile_source(
            source, registry=registry, optimize_passes=FULL_PASS_ORDER, **kwargs
        ).graph
        text = dumps(graph)
        assert '"codegen"' not in text
        restored = loads(text)
        assert dumps(restored) == text
        assert _sources(restored) == _sources(graph)
        for _, _, node in _fused_nodes(restored):
            spec = fused_spec(node.name, node.fused, registry)
            assert len(node.fused[0]) == 1 or (
                spec.fn.__code__.co_filename == f"<delirium-fused {node.name}>"
            )


def _once_each(rows, graph, pids):
    """Each recipe of ``graph`` was generated and compiled exactly once
    across ``pids``, and nothing else was."""
    want = sorted(_sources(graph))
    for what in ("generate", "compile"):
        assert sorted(t for p, w, t in rows if w == what and p in pids) == want


class TestGeneratedOncePerProcess:
    @pytest.fixture(scope="class")
    def pythia(self):
        return compile_source(
            pythia_source(10, 1990, 1990), optimize_passes=FULL_PASS_ORDER
        ).graph

    ARGS = (3, -2, 7)

    def test_two_warm_runs(self, pythia, generated):
        executor = SequentialExecutor()
        values = {executor.run(pythia, args=self.ARGS).value for _ in range(2)}
        assert len(values) == 1 and len(_sources(pythia)) == 3
        _once_each(generated(), pythia, {os.getpid()})

    def test_the_simulator_over_two_runs(self, pythia, generated):
        for _ in range(2):
            SimulatedExecutor(uniform(2)).run(pythia, args=self.ARGS)
        _once_each(generated(), pythia, {os.getpid()})

    def test_a_worker_and_its_respawn(self, pythia, generated):
        """The pool forks where the run first needs it, after the master
        compiled its plans, so the worker inherits every recipe and
        generates none.  A worker forked from a master whose code cache
        was emptied generates what it is sent itself, once; a respawn
        forks later and inherits what the master compiled by then."""
        from repro.faults import FaultSpec

        plain = compile_source(pythia_source(10, 1990, 1990)).graph
        want = SequentialExecutor().run(plain, args=self.ARGS).value
        got = ProcessExecutor(1, cost_threshold=0.0).run(pythia, args=self.ARGS)
        assert got.value == want and got.stats.dispatched_fires > 0
        rows = generated()
        assert {p for p, _, _ in rows} == {os.getpid()}
        _once_each(rows, pythia, {os.getpid()})

        operators._CODE_CACHE.clear()
        respawns = Fold(None, WorkerRespawned)
        executor = ProcessExecutor(
            1,
            cost_threshold=0.0,
            fault_spec=FaultSpec.parse("kill:nth=1"),
            bus=respawns.bus,
        )
        got = executor.run(pythia, args=self.ARGS)
        assert got.value == want and respawns["worker_respawns"] == 1
        rows = generated()[len(rows):]
        for pid in {p for p, _, _ in rows}:
            for what in ("generate", "compile"):
                texts = [t for p, w, t in rows if p == pid and w == what]
                assert len(texts) == len(set(texts))
                assert set(texts) <= _sources(pythia)
