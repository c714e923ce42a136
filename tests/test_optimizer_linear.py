"""The optimizer is linear in the program and reaches a true fixpoint.

Four kinds of evidence, none of them in seconds:

* **oracles** — the recursive ``children``/``walk`` live on verbatim in
  ``conftest.py``; over generated and fuzzed programs the new traversal
  yields the same nodes in the same order;
* **a fixpoint postcondition** — after :func:`optimize`, one more sweep of
  every enabled pass over every surviving function changes nothing, and
  no surviving function is unreachable from the entry (what the programs
  *mean* is checked against the reference evaluator in
  ``test_reference.py``);
* **goldens** — ``.dlc`` digests of the case-study programs;
* **structural guards** — counts of reflective calls, whole-body
  ``count_uses`` calls, node visits, whole-program analyses and sweeps of
  dropped functions, so the quadratic and rebuild-everything shapes
  cannot come back unnoticed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source, default_registry
from repro.apps import circuit, loganalytics, montecarlo, queens, raytracer, retina
from repro.apps.compiler_app import generate_workload
from repro.compiler import PASS_NAMES
from repro.compiler.analysis import all_names
from repro.compiler import symtab
from repro.compiler.lowering import lower_program
from repro.compiler.passes import constprop, cse, dce, inline
from repro.compiler.passes.common import PassContext, count_reads
from repro.compiler.passes.pipeline import (
    FULL_PASS_ORDER,
    PASS_ORDER,
    optimize,
)
from repro.compiler.symtab import analyze
from repro.graph.serialize import dumps
from repro.lang import ast, parse_program
from repro.lang.ast import unparse

from .conftest import oracle_bound_names_in, recursive_children, recursive_walk
from .test_fuzz_compiler import _loop_programs

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
sources = st.one_of(generated_sources, _loop_programs())


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
        for program in (parse_program(source), lowered(source)):
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

PASSES = {"inline": inline, "constprop": constprop, "cse": cse, "dce": dce}


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
                assert not PASSES[name].run(f, ctx), (name, f.name)
    assert ctx.stats == {}
    assert [unparse(f) for f in program.functions] == before
    return program


class TestFixpoint:
    @settings(max_examples=30, deadline=None)
    @given(generated_sources)
    def test_generated_workloads(self, source):
        assert_fixpoint(source)

    @settings(max_examples=40, deadline=None)
    @given(_loop_programs())
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

    def test_no_function_is_swept_once_dropped(self, monkeypatch):
        events: list[tuple[str, str]] = []
        for name, module in PASSES.items():
            real = module.run

            def spying_run(f, ctx, *args, _real=real, **kwargs):
                events.append(("sweep", f.name))
                return _real(f, ctx, *args, **kwargs)

            monkeypatch.setattr(module, "run", spying_run)
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
        assert ("sweep", "orphan") not in events
        for i, (kind, name) in enumerate(events):
            if kind == "drop":
                assert ("sweep", name) not in events[i:]
        assert {f.name for f in program.functions}.isdisjoint(dropped)


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
