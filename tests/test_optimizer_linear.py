"""The optimizer is linear in the program and reaches a true fixpoint.

Four kinds of evidence, none of them in seconds:

* **oracles** — the recursive ``children``/``walk`` live on verbatim in
  ``conftest.py``; over the benchmark's generated workloads and the
  programs of ``tests/programs.py`` the new traversal yields the same
  nodes in the same order;
* **a fixpoint postcondition** — after :func:`optimize`, one more sweep of
  every enabled pass over every surviving function changes nothing, and
  no surviving function is unreachable from the entry (what the programs
  *mean* is checked against the reference evaluator in
  ``test_oracle.py``);
* **goldens** — ``.dlc`` digests of the case-study programs;
* **structural guards** — counts of reflective calls, ``deepcopy``
  calls, ``count_uses`` calls (only ever over a local function's body),
  node visits, whole-program analyses and ``all_names`` walks (one of each
  per compile), and sweeps of dropped functions, so the quadratic,
  copy-everything and rebuild-everything shapes cannot come back
  unnoticed.

Beside them: the inliner's structural clone is checked against
``copy.deepcopy`` (equal trees, equal positions, no shared node or list),
and the one shared analysis against a fresh one of the optimized program,
which still refuses an unbound name.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphError, compile_source, default_registry, validate_program
from repro.apps import circuit, loganalytics, montecarlo, queens, raytracer, retina
from repro.apps.compiler_app import generate_workload
from repro.compiler import PASS_NAMES
from repro.compiler import analysis, symtab
from repro.compiler.analysis import FreshNames, all_names
from repro.compiler.lowering import lower_program
from repro.compiler.passes import cse, dce, pipeline
from repro.compiler.passes.common import PassContext, count_reads
from repro.compiler.passes.pipeline import (
    FULL_PASS_ORDER,
    PASS_ORDER,
    optimize,
)
from repro.compiler.symtab import analyze
from repro.errors import CompileError, UnboundNameError
from repro.graph.serialize import dumps
from repro.lang import ast, parse_program
from repro.lang.ast import unparse

from .conftest import oracle_bound_names_in, recursive_children, recursive_walk
from .programs import programs

REGISTRY = default_registry()


def pythia_source(n_functions: int, structure_seed: int, order_seed: int) -> str:
    """``generate_workload`` plus a ``main`` calling every function, built
    the way the benchmark's pythia workload builds it (same text)."""
    functions = generate_workload(n_functions, structure_seed).strip().split("\n\n")
    structure = random.Random(structure_seed)
    calls = []
    for text in functions:
        name, params = re.match(r"(\w+)\(([^)]*)\)", text).groups()
        picks = [structure.choice("abc") for _ in params.split(",")]
        calls.append(f"{name}({', '.join(picks)})")
    random.Random(order_seed).shuffle(functions)
    acc = calls[0]
    for call in calls[1:]:
        acc = f"add({acc}, {call})"
    return "main(a, b, c)\n  " + acc + "\n\n" + "\n\n".join(functions) + "\n"


generated_sources = st.builds(
    pythia_source, st.integers(3, 12), st.integers(0, 10_000), st.integers(0, 10_000)
)
sources = st.one_of(generated_sources, programs())


def lowered(source: str) -> ast.Program:
    return lower_program(parse_program(source))


def local_functions(node: ast.Node):
    """Function bindings under ``node``, not looking inside them."""
    for child in node.children():
        if isinstance(child, ast.FunBinding):
            yield child
        else:
            yield from local_functions(child)


def identities(nodes) -> list[int]:
    return [id(n) for n in nodes]


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


class TestTraversalOracle:
    @settings(max_examples=40, deadline=None)
    @given(sources)
    def test_walk_yields_the_recursive_order(self, source):
        for program in (parse_program(source), lowered(source)):
            assert identities(program.walk()) == identities(recursive_walk(program))
            for node in program.walk():
                assert identities(node.children()) == identities(
                    recursive_children(node)
                )
            assert program.size() == sum(1 for _ in recursive_walk(program))

    @settings(max_examples=15, deadline=None)
    @given(sources)
    def test_walk_order_survives_optimization(self, source):
        program = lowered(source)
        optimize(program, REGISTRY)
        assert identities(program.walk()) == identities(recursive_walk(program))

    def test_deep_nesting_does_not_recurse(self):
        e: ast.Expr = ast.Var(name="x")
        for _ in range(5000):
            e = ast.Apply(callee=ast.Var(name="f"), args=[e])
        assert e.size() == 1 + 2 * 5000
        last = None
        for last in e.walk():
            pass
        assert isinstance(last, ast.Var) and last.name == "x"

    @settings(max_examples=25, deadline=None)
    @given(sources)
    def test_all_names_is_binders_plus_reads(self, source):
        program = lowered(source)
        used: set[str] = set()
        for f in program.functions:
            used.add(f.name)
            used.update(f.params)
            used.update(oracle_bound_names_in(f.body))
            used.update(
                n.name for n in recursive_walk(f.body) if isinstance(n, ast.Var)
            )
        assert all_names(program) == used

    @settings(max_examples=25, deadline=None)
    @given(sources)
    def test_body_size_counted_in_the_analyzer_is_the_walked_size(self, source):
        program = lowered(source)
        env = analyze(program, known_operators=REGISTRY.names(), strict=False)
        pending = [(f.name, f) for f in program.functions]
        checked = 0
        while pending:
            qualname, f = pending.pop()
            assert env.functions[qualname].body_size == f.body.size()
            checked += 1
            pending.extend(
                (f"{qualname}.{b.func.name}", b.func)
                for b in local_functions(f.body)
            )
        assert checked == len(env.functions)


# ---------------------------------------------------------------------------
# The fixpoint postcondition
# ---------------------------------------------------------------------------

#: The AST halves of the pass table, by name.
AST_HALVES = {name: run for name, run, _ in pipeline.PASSES if run}


def assert_fixpoint(source: str, enabled=PASS_ORDER) -> ast.Program:
    """Optimize ``source`` from ``main``; then one more sweep of every
    enabled pass over every surviving function must change nothing, and
    every surviving function must be reachable from ``main``."""
    program = lowered(source)
    optimize(program, REGISTRY, enabled=enabled, entry="main")
    before = [unparse(f) for f in program.functions]
    ctx = PassContext.build(program, REGISTRY, {})
    assert dce.dead_functions(ctx.env, "main") == set()
    for f in program.functions:
        for name in PASS_ORDER:
            if name in enabled:
                assert not AST_HALVES[name](f, ctx), (name, f.name)
    assert ctx.stats == {}
    assert [unparse(f) for f in program.functions] == before
    return program


class TestFixpoint:
    @settings(max_examples=30, deadline=None)
    @given(generated_sources)
    def test_generated_workloads(self, source):
        assert_fixpoint(source)

    @settings(max_examples=40, deadline=None)
    @given(programs())
    def test_fuzzed_programs(self, source):
        assert_fixpoint(source)

    @pytest.mark.parametrize(
        "enabled",
        [("dce",), ("constprop", "dce"), ("inline", "dce"), ("cse", "dce")],
        ids="+".join,
    )
    @settings(max_examples=10, deadline=None)
    @given(sources)
    def test_pass_subsets(self, enabled, source):
        assert_fixpoint(source, enabled)

    def test_dead_chain_inside_a_local_function_and_a_tuple(self):
        # Tuple bindings, an unused local function, a let nested in a
        # kept binding, and a dead chain longer than one sweep removes.
        program = assert_fixpoint(
            """
main(n)
  let
    <p, q> = <incr(n), incr(n)>
    <r, s> = <incr(p), decr(p)>
    unused(x) add(x, q)
    d0 = incr(n)
    d1 = incr(d0)
    d2 = incr(d1)
    d3 = incr(d2)
    kept = let t = incr(s) u = incr(t) in add(s, 1)
  in add(kept, r)
"""
        )
        assert unparse(program.function("main").body) == unparse(
            parse_program(
                "main(n) let <p, q> = <incr(n), incr(n)> "
                "<r, s> = <incr(p), decr(p)> kept = add(s, 1) in add(kept, r)"
            ).function("main").body
        )

    def test_without_an_entry_every_function_stays_in_place(self):
        program = lowered(pythia_source(6, 1990, 1990))
        names = program.function_names()
        report = optimize(program, REGISTRY)
        assert program.function_names() == names
        assert "dce.functions_dropped" not in report.stats

    def test_a_missing_entry_drops_nothing(self):
        program = lowered("main(n) helper(n)\nhelper(x) incr(x)")
        optimize(program, REGISTRY, entry="nowhere")
        assert program.function_names() == ["main", "helper"]

    def test_a_function_read_as_a_value_stays(self):
        program = lowered(
            "main(n) <twice, helper(n)>\n"
            "helper(x) incr(x)\n"
            "twice(x) add(x, x)\n"
            "orphan(x) decr(x)"
        )
        report = optimize(program, REGISTRY, entry="main")
        assert program.function_names() == ["main", "twice"]
        assert report.stats["dce.functions_dropped"] == 2


class TestDCE:
    @settings(max_examples=25, deadline=None)
    @given(sources)
    def test_reads_table_equals_the_live_tree_after_a_run(self, source):
        program = lowered(source)
        ctx = PassContext.build(program, REGISTRY, {})
        for f in program.functions:
            sweep = dce._DCE(ctx, f)
            sweep.run()
            live = {k: v for k, v in sweep.reads.items() if v}
            assert live == count_reads(f.body)


# ---------------------------------------------------------------------------
# Goldens recorded from the commit before the rewrite
# ---------------------------------------------------------------------------


def golden_compiles() -> dict[str, dict]:
    """``compile_source`` arguments of every golden program."""
    cfg = retina.RetinaConfig()
    retina_defines = {
        "NUM_ITER": cfg.num_iter,
        "START_SLAB": cfg.start_slab,
        "FINAL_SLAB": cfg.final_slab,
    }
    net = circuit.random_circuit()
    mc = montecarlo.make_registry(seed=2026, batch_size=4096)
    out = {
        "retina_v1": dict(
            source=retina.RETINA_V1,
            registry=retina.make_registry(cfg),
            defines=retina_defines,
        ),
        "retina_v2": dict(
            source=retina.RETINA_V2,
            registry=retina.make_registry(cfg),
            defines=retina_defines,
        ),
        "pi": dict(source=montecarlo.PI_PROGRAM, registry=mc, prelude=True),
        "option": dict(source=montecarlo.OPTION_PROGRAM, registry=mc, prelude=True),
        "log": dict(
            source=loganalytics.LOG_PROGRAM, registry=loganalytics.make_registry()
        ),
        "circuit": dict(
            source=circuit.CIRCUIT_SIM,
            registry=circuit.make_registry(net),
            defines={"N_LEVELS": net.n_levels},
        ),
        "raytracer": dict(
            source=raytracer.RAYTRACER,
            registry=raytracer.make_registry(),
            defines={"NUM_FRAMES": 2},
        ),
        "pythia": dict(source=pythia_source(10, 1990, 1990), registry=REGISTRY),
    }
    for n in (4, 5, 6):
        out[f"queens_{n}"] = dict(
            source=queens.queens_source(n), registry=queens.make_registry(n)
        )
    return out


def dlc_digest(source: str, optimize_passes=FULL_PASS_ORDER, **kwargs) -> str:
    compiled = compile_source(source, optimize_passes=optimize_passes, **kwargs)
    return hashlib.sha256(dumps(compiled.graph).encode("utf-8")).hexdigest()


#: sha256 of the full-pass ``.dlc`` text: the parent commit's dump with
#: its per-edge ``donated`` lists removed.  Every graph with a fused node
#: moved when a fused node stopped storing its generated source (the recipe
#: alone is serialized); queens has none.
GOLDEN_DLC_SHA256: dict[str, str] = {
    "circuit": "21e2d07e55ee32fcf6f4efa885f4ed1c3c1f616f599d9ec7c53bbbb54b50f76c",
    "log": "241c4ec727b3359d7f009197d67cd25910f9ac6adef3fb7aa39b275457fab40d",
    "option": "961790df3dfb1e59e161fcc3f26b29afea985478a796fd8dee4b7f0b9bd7c54c",
    "pi": "0e4b35ae52b9433d96606c6f664a54c36895a2cfd629214a45b1d637273ab4ba",
    # Moved when `fuse` went from chains to single-exit regions (20 chains ->
    # 4 regions; b833dfd4…), then when it folded IFs with cheap arms into
    # them (3 regions, 3 templates).
    "pythia": "40ba8bdd819fd959a598b897fa89e5ba88688c78231d071e943b86fb5d60a028",
    # Moved when ``try`` was spliced into ``do_it``; the parent's bytes
    # are :data:`QUEENS_AS_WRITTEN_SHA256`.
    "queens_4": "1f4aa065cf46daa79f252103c7013d7df6b70c73fabd29cc93e1d60199f913c2",
    "queens_5": "a6a5d6c2be8332649dab3b791abd78969a8febeb35eb98bab43c2c2e91e20011",
    "queens_6": "9c427b822ea3ff2ed4e6039923c17e8390f7f5abed7dd55c60f537fb0316cbbc",
    "raytracer": "fe27d1270ebb3941cc2c0769dc3e9685d437d4e94e8460c16572c56ce60bddb8",
    "retina_v1": "216006580c5154d3c8d10c9f44dbbd3e162e4535724b29ae51bf21e741fba88f",
    "retina_v2": "c747cfa9d185384a5e7795f11063e3692096813b37f1d30dba371df17e5813ef",
}


#: The queens goldens of the commit before calls around a cycle were
#: spliced: what every pass but ``inline`` (both its halves) still emits,
#: without the ``donated`` lists.
QUEENS_AS_WRITTEN_SHA256: dict[str, str] = {
    "queens_4": "a553e05a3cd0f290aaf3f6b2ea0a481489325956f41850f1198e7c8cd95c193b",
    "queens_5": "90bbe3a652443abfb26c4013559402495f7923ab2766ec054523e1c21527c577",
    "queens_6": "ef1e1aaf995437330cc4328fa8b1cea5f433497578b4fef34154bec2bd2c3207",
}


class TestGoldenDigests:
    def test_every_case_study_serializes_to_the_parents_bytes(self):
        compiles = golden_compiles()
        assert set(compiles) == set(GOLDEN_DLC_SHA256)
        digests = {name: dlc_digest(**kwargs) for name, kwargs in compiles.items()}
        assert digests == GOLDEN_DLC_SHA256

    def test_queens_without_inline_is_the_program_as_written(self):
        compiles = golden_compiles()
        passes = tuple(p for p in FULL_PASS_ORDER if p != "inline")
        for name, want in QUEENS_AS_WRITTEN_SHA256.items():
            assert dlc_digest(**compiles[name], optimize_passes=passes) == want


# ---------------------------------------------------------------------------
# Checked passes: the contracts hold after every pass of the table
# ---------------------------------------------------------------------------


class TestCheckedPasses:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DLC_SHA256))
    def test_every_prefix_of_the_pass_table_keeps_the_contracts(self, name):
        """After each prefix of :data:`FULL_PASS_ORDER` the lowered program
        holds no ``iterate`` and the graph validates; a failure names the
        pass added last."""
        kwargs = golden_compiles()[name]
        for n in range(len(FULL_PASS_ORDER) + 1):
            passes = FULL_PASS_ORDER[:n]
            last = repr(passes[-1]) if passes else "lowering"
            try:
                compiled = compile_source(optimize_passes=passes, **kwargs)
                validate_program(compiled.graph, compiled.registry)
            except (CompileError, GraphError, TypeError) as err:
                # TypeError: a stage met a node it need not handle, such as
                # an iterate after lowering.
                pytest.fail(f"{name}: the program is invalid after {last}: {err}")
            assert not any(
                isinstance(node, ast.Iterate) for node in compiled.source_ast.walk()
            ), f"{name}: an iterate is left after {last}"


# ---------------------------------------------------------------------------
# Structural guards: counts, not seconds
# ---------------------------------------------------------------------------


def chained_lets(n: int) -> str:
    """One function of ``n`` let bindings: a live chain ``x0 .. x(n/2-1)``
    interleaved with ``n/2`` dead readers of it."""
    lines = ["x0 = incr(n)", "d0 = incr(x0)"]
    for i in range(1, n // 2):
        lines.append(f"x{i} = incr(x{i - 1})")
        lines.append(f"d{i} = incr(x{i})")
    return "main(n)\n  let\n    " + "\n    ".join(lines) + f"\n  in x{n // 2 - 1}\n"


class TestStructuralGuards:
    def test_warm_compile_never_reflects_on_dataclass_fields(self, monkeypatch):
        source = pythia_source(6, 1990, 1990)
        compile_source(source, optimize_passes=FULL_PASS_ORDER)  # fills the table
        calls = []

        def counting_fields(obj):
            calls.append(obj)
            return real_fields(obj)

        real_fields = dataclasses.fields
        monkeypatch.setattr(dataclasses, "fields", counting_fields)
        monkeypatch.setattr(ast, "fields", counting_fields)
        compile_source(source, optimize_passes=FULL_PASS_ORDER)
        assert calls == []

    @settings(max_examples=15, deadline=None)
    @given(sources)
    def test_dce_never_counts_uses_over_a_whole_function(self, source):
        program = lowered(source)
        whole_body_calls = []

        def spying_count_uses(e, name):
            if any(e is f.body for f in program.functions):
                whole_body_calls.append(name)
            return real_count_uses(e, name)

        real_count_uses = dce.count_uses
        dce.count_uses = spying_count_uses
        try:
            optimize(program, REGISTRY)
        finally:
            dce.count_uses = real_count_uses
        assert whole_body_calls == []

    def test_dce_node_visits_grow_linearly(self, monkeypatch):
        visits = [0]
        real_children = ast.Node.children

        def counting_children(self):
            visits[0] += 1
            return real_children(self)

        monkeypatch.setattr(ast.Node, "children", counting_children)

        def visits_of_one_run(n: int) -> int:
            program = parse_program(chained_lets(n))
            ctx = PassContext.build(program, REGISTRY, {})
            visits[0] = 0
            assert dce.run(program.functions[0], ctx)
            assert ctx.stats["dce.removed"] == n // 2
            return visits[0]

        # Four times the bindings: a linear sweep visits ~4x the nodes,
        # the whole-function re-walk per binding visited ~16x.
        assert visits_of_one_run(400) <= 5 * visits_of_one_run(100)


    def test_one_whole_program_analysis_per_optimize(self, monkeypatch):
        runs = []
        real_run = symtab.EnvAnalyzer.run

        def counting_run(self):
            runs.append(self)
            return real_run(self)

        monkeypatch.setattr(symtab.EnvAnalyzer, "run", counting_run)
        optimize(lowered(pythia_source(10, 1990, 1990)), REGISTRY, entry="main")
        assert len(runs) == 1

    def test_optimize_never_deep_copies(self, monkeypatch):
        calls = []
        real_deepcopy = copy.deepcopy

        def spying_deepcopy(x, *args, **kwargs):
            calls.append(type(x).__name__)
            return real_deepcopy(x, *args, **kwargs)

        monkeypatch.setattr(copy, "deepcopy", spying_deepcopy)
        report = optimize(
            lowered(pythia_source(10, 1990, 1990)), REGISTRY, entry="main"
        )
        assert report.stats["inline.expanded"] == 8
        assert calls == []

    def test_one_analysis_and_one_name_walk_per_compile(self, monkeypatch):
        runs, walks = [], []
        real_run = symtab.EnvAnalyzer.run

        def counting_run(self):
            runs.append(self)
            return real_run(self)

        real_all_names = analysis.all_names

        def counting_all_names(program):
            walks.append(program)
            return real_all_names(program)

        monkeypatch.setattr(symtab.EnvAnalyzer, "run", counting_run)
        # Every module that imported the walk by name, wherever it sits.
        for module in list(sys.modules.values()):
            if getattr(module, "all_names", None) is real_all_names:
                monkeypatch.setattr(module, "all_names", counting_all_names)
        compiled = compile_source(
            pythia_source(10, 1990, 1990), optimize_passes=FULL_PASS_ORDER
        )
        assert compiled.optimization.stats["inline.expanded"] == 8
        assert len(runs) == 1
        assert len(walks) == 1

    @settings(max_examples=15, deadline=None)
    @given(sources)
    def test_dce_counts_uses_only_over_a_local_functions_body(self, source):
        self._assert_count_uses_only_over_function_bodies(lowered(source))

    def test_dce_counts_a_recursive_local_functions_own_reads(self):
        program = parse_program(
            "main(n)\n"
            "  let x = incr(n)\n"
            "      d = incr(x)\n"
            "      <a, b> = <x, n>\n"
            "      <c, e> = <d, n>\n"
            "      down(k) if is_less(k, 1) then a else down(decr(k))\n"
            "      dead(k) if is_less(k, 1) then k else dead(decr(k))\n"
            "  in down(b)\n"
        )
        judged = self._assert_count_uses_only_over_function_bodies(program)
        # ``down`` is read from outside itself, in both sweeps; ``dead``
        # only from inside, so it goes.  ``<c, e>`` and then ``d`` (whose
        # last reader that was) go without a count.
        assert judged == ["down", "dead", "down"]
        assert unparse(program.functions[0]).count("=") == 2

    @staticmethod
    def _assert_count_uses_only_over_function_bodies(program) -> list[str]:
        judged = []
        real_count_uses = dce.count_uses

        def spying_count_uses(e, name):
            bodies = {
                id(node.func.body): node.func.name
                for node in program.walk()
                if isinstance(node, ast.FunBinding)
            }
            assert bodies.get(id(e)) == name, (unparse(e), name)
            judged.append(name)
            return real_count_uses(e, name)

        dce.count_uses = spying_count_uses
        try:
            optimize(program, REGISTRY)
        finally:
            dce.count_uses = real_count_uses
        return judged

    def test_no_function_is_swept_once_dropped(self, monkeypatch):
        events: list[tuple[str, str]] = []

        def spying(real):
            def spying_run(f, ctx):
                events.append(("sweep", f.name))
                return real(f, ctx)

            return spying_run

        monkeypatch.setattr(
            pipeline,
            "PASSES",
            tuple(
                (name, ast_half and spying(ast_half), graph_half)
                for name, ast_half, graph_half in pipeline.PASSES
            ),
        )
        real_drop = PassContext.drop

        def spying_drop(self, names):
            events.extend(("drop", n) for n in sorted(names))
            return real_drop(self, names)

        monkeypatch.setattr(PassContext, "drop", spying_drop)
        # Inlining leaves the generated helpers dead; ``orphan`` is dead
        # from the start.
        source = pythia_source(10, 1990, 1990) + "\norphan(x) incr(x)\n"
        program = lowered(source)
        report = optimize(program, REGISTRY, entry="main")
        dropped = {n for kind, n in events if kind == "drop"}
        assert "orphan" in dropped
        assert report.stats["dce.functions_dropped"] == len(dropped) == 9
        assert ("sweep", "main") in events
        assert ("sweep", "orphan") not in events
        for i, (kind, name) in enumerate(events):
            if kind == "drop":
                assert ("sweep", name) not in events[i:]
        assert {f.name for f in program.functions}.isdisjoint(dropped)


# ---------------------------------------------------------------------------
# The inliner's copy and the shared analysis
# ---------------------------------------------------------------------------


def nodes_and_lists(node: ast.Node) -> tuple[list[ast.Node], list[list]]:
    nodes = list(node.walk())
    lists = [v for n in nodes for v in vars(n).values() if isinstance(v, list)]
    return nodes, lists


class TestClone:
    @settings(max_examples=40, deadline=None)
    @given(sources)
    def test_clone_is_deepcopy_without_sharing(self, source):
        for program in (parse_program(source), lowered(source)):
            for f in program.functions:
                copied, cloned = copy.deepcopy(f), f.clone()
                assert cloned == copied == f
                # ``==`` skips positions (``compare=False``): check each.
                pairs = zip(cloned.walk(), f.walk(), strict=True)
                for got, want in pairs:
                    assert type(got) is type(want)
                    assert (got.line, got.column) == (want.line, want.column)
                nodes, lists = nodes_and_lists(f)
                clone_nodes, clone_lists = nodes_and_lists(cloned)
                assert {id(n) for n in nodes}.isdisjoint(map(id, clone_nodes))
                assert {id(v) for v in lists}.isdisjoint(map(id, clone_lists))

    def test_an_inlined_body_is_a_renamed_clone(self):
        program = parse_program(
            "main(n) double(incr(n))\n\n"
            "double(x)\n  let y = add(x, x)\n  in <y, y>\n"
        )
        callee = program.function("double")
        before = unparse(callee)
        optimize(program, REGISTRY, enabled=("inline",))
        assert unparse(callee) == before
        body = program.function("main").body
        assert unparse(body).split() == [
            "let", "x$1", "=", "incr(n)",
            "in", "let", "y$1", "=", "add(x$1,", "x$1)", "in", "<y$1,", "y$1>",
        ]
        assert {id(n) for n in callee.walk()}.isdisjoint(map(id, body.walk()))


def leave_unbound(function_name: str):
    """A ``cse`` that also wraps ``function_name``'s body in a read of a
    name bound nowhere, once, and says it changed the function."""
    real = dict((name, run) for name, run, _ in pipeline.PASSES)["cse"]
    done = []

    def run(f, ctx):
        changed = real(f, ctx)
        if f.name != function_name or done:
            return changed
        done.append(f.name)
        f.body = ast.Apply(
            callee=ast.Var(name="add"), args=[f.body, ast.Var(name="nowhere")]
        )
        return True

    return run


class TestSharedAnalysis:
    @settings(max_examples=20, deadline=None)
    @given(sources)
    def test_the_seeded_analysis_describes_the_optimized_program(self, source):
        program = lowered(source)
        analyzer = symtab.EnvAnalyzer(program, REGISTRY.names(), strict=False)
        analyzer.run()
        optimize(
            program,
            REGISTRY,
            entry="main",
            analyzer=analyzer,
            fresh=FreshNames(all_names(program)),
        )
        fresh = analyze(program, known_operators=REGISTRY.names(), strict=False)
        assert analyzer.result == fresh
        assert list(analyzer.result.functions) == list(fresh.functions)

    @pytest.mark.parametrize(
        "source, function_name",
        [
            # Functions that use no function are re-derived only at the end
            # of ``optimize``: this ``main``, and ``fn2`` (too big to inline).
            ("main(n) incr(n)\n", "main"),
            (pythia_source(10, 1990, 1990), "fn2"),
            # ``main`` calls every function and is re-derived before its
            # next inline sweep; ``fn4`` is inlined into it, read and all.
            (pythia_source(10, 1990, 1990), "main"),
            (pythia_source(10, 1990, 1990), "fn4"),
        ],
    )
    def test_an_unbound_name_left_by_a_pass_is_refused(
        self, monkeypatch, source, function_name
    ):
        monkeypatch.setattr(
            pipeline,
            "PASSES",
            tuple(
                (name, leave_unbound(function_name) if name == "cse" else ast_half, g)
                for name, ast_half, g in pipeline.PASSES
            ),
        )
        with pytest.raises(UnboundNameError, match="nowhere") as caught:
            compile_source(source, optimize_passes=FULL_PASS_ORDER)
        assert isinstance(caught.value, CompileError)


# ---------------------------------------------------------------------------
# Per-pass seconds
# ---------------------------------------------------------------------------


class TestPassSeconds:
    def test_report_times_the_context_and_every_pass(self):
        program = lowered(pythia_source(10, 1990, 1990))
        report = optimize(program, REGISTRY)
        assert set(report.pass_seconds) == {"context", *PASS_ORDER}
        assert all(v > 0 for v in report.pass_seconds.values())
        assert sum(report.pass_seconds.values()) == pytest.approx(
            report.seconds, rel=0.05
        )

    def test_disabled_passes_read_zero(self):
        report = optimize(lowered("main(n) incr(n)"), REGISTRY, enabled=("dce",))
        assert set(report.pass_seconds) == {"context", *PASS_ORDER}
        assert report.pass_seconds["inline"] == 0.0
        assert report.pass_seconds["dce"] > 0.0

    def test_compiled_program_keeps_its_six_table1_keys(self):
        compiled = compile_source("main(n) incr(n)", optimize_passes=FULL_PASS_ORDER)
        assert tuple(sorted(compiled.pass_seconds)) == tuple(sorted(PASS_NAMES))
        assert set(compiled.optimization.pass_seconds) == {"context", *PASS_ORDER}

    def test_cli_prints_them_under_the_optimization_row(self, tmp_path, capsys):
        from repro.tools import cli

        path = tmp_path / "p.dlm"
        path.write_text("main(n) add(incr(n), 1)\n", encoding="utf-8")
        assert cli.main(["compile", str(path), "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(i for i, s in enumerate(lines) if s.startswith("  Optimization"))
        under = [s.split()[0] for s in lines[row + 1 : row + 6]]
        assert under == ["context", *PASS_ORDER]
        assert all(s.startswith("    ") for s in lines[row + 1 : row + 6])
        assert lines[row + 6].startswith("  Graph Conversion")
