"""Unit tests for the four optimization passes, each in isolation."""

import pytest

from repro.compiler import compile_source, optimize
from repro.compiler.passes import inline
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.lang import ast, parse_expression, parse_program
from repro.lang.ast import unparse
from repro.runtime import default_registry


def optimized(source: str, passes, registry=None):
    program = parse_program(source)
    registry = registry or default_registry()
    report = optimize(program, registry, enabled=tuple(passes))
    return program, report


class TestConstProp:
    def test_literal_binding_propagates(self):
        p, report = optimized(
            "main() let x = 3 in add(x, x)", ["constprop"]
        )
        body = p.function("main").body
        # uses replaced, then the all-literal application folds to 6;
        # the dead binding survives until DCE
        assert body.body == ast.Literal(value=6)
        assert report.stats["constprop.propagated"] == 2
        assert report.stats["constprop.folded"] == 1

    def test_copy_propagation(self):
        p, _ = optimized(
            "main(n) let x = n in incr(x)", ["constprop"]
        )
        assert "incr(n)" in unparse(p)

    def test_folding_pure_operator(self):
        p, report = optimized("main() add(2, 3)", ["constprop"])
        assert p.function("main").body == ast.Literal(value=5)
        assert report.stats["constprop.folded"] == 1

    def test_folding_cascades(self):
        p, _ = optimized("main() mul(add(1, 2), incr(3))", ["constprop"])
        assert p.function("main").body == ast.Literal(value=12)

    def test_branch_folding_true(self):
        p, _ = optimized("main(x) if 1 then incr(x) else decr(x)", ["constprop"])
        assert unparse(p.function("main").body).strip() == "incr(x)"

    def test_branch_folding_null_is_false(self):
        p, _ = optimized("main(x) if NULL then incr(x) else decr(x)", ["constprop"])
        assert unparse(p.function("main").body).strip() == "decr(x)"

    def test_division_by_zero_not_folded(self):
        p, _ = optimized("main() div(1, 0)", ["constprop"])
        assert isinstance(p.function("main").body, ast.Apply)

    def test_impure_operator_not_folded(self):
        reg = default_registry()

        @reg.register(name="roll_dice", pure=False)
        def roll_dice(n):
            return 4

        p, _ = optimized("main() roll_dice(6)", ["constprop"], registry=reg)
        assert isinstance(p.function("main").body, ast.Apply)

    def test_shadowed_operator_name_not_folded(self):
        # `add` bound as a local value must not be treated as the builtin.
        p, _ = optimized(
            "main(add) add(2, 3)", ["constprop"]
        )
        assert isinstance(p.function("main").body, ast.Apply)


class TestCSE:
    def test_duplicate_pure_binding_eliminated(self):
        p, report = optimized(
            "main(n) let a = incr(n) b = incr(n) in add(a, b)", ["cse"]
        )
        b = p.function("main").body.bindings[1]
        assert b.expr == ast.Var(name="a")
        assert report.stats["cse.eliminated"] == 1

    def test_impure_not_eliminated(self):
        reg = default_registry()

        @reg.register(name="gen")
        def gen(n):
            return n

        p, report = optimized(
            "main(n) let a = gen(n) b = gen(n) in add(a, b)",
            ["cse"],
            registry=reg,
        )
        assert "cse.eliminated" not in report.stats

    def test_availability_does_not_cross_if_arms(self):
        p, report = optimized(
            """
            main(n, c)
              if c
              then let a = incr(n) in a
              else let b = incr(n) in b
            """,
            ["cse"],
        )
        assert "cse.eliminated" not in report.stats

    def test_outer_binding_available_in_arm(self):
        p, report = optimized(
            """
            main(n, c)
              let a = incr(n)
              in if c then let b = incr(n) in b else a
            """,
            ["cse"],
        )
        assert report.stats["cse.eliminated"] == 1

    def test_nested_discovery_does_not_escape(self):
        p, report = optimized(
            """
            main(n)
              let h(x) let inner = incr(n) in add(inner, x)
                  outer = incr(n)
              in add(h(1), outer)
            """,
            ["cse"],
        )
        # `inner` was discovered inside h; `outer` must not reuse it.
        outer_binding = p.function("main").body.bindings[1]
        assert isinstance(outer_binding.expr, ast.Apply)

    def test_a_folded_literal_is_not_a_variable_of_the_same_text(self):
        # ``mul`` folds to the float ``inf``, whose text is the name
        # ``inf``: keyed on unparse text, ``b`` became ``a``.
        source = """
            main(n)
              let inf = incr(n)
                  a = add(mul(1e308, 10.0), n)
                  b = add(inf, n)
              in <a, b>
            """
        p, report = optimized(source, PASS_ORDER)
        assert "cse.eliminated" not in report.stats
        assert compile_source(source).run(args=(1,)).value == (float("inf"), 3)


class TestDCE:
    def test_unused_pure_binding_removed(self):
        p, report = optimized(
            "main(n) let unused = incr(n) in n", ["dce"]
        )
        assert unparse(p.function("main").body).strip() == "n"
        assert report.stats["dce.removed"] == 1

    def test_used_binding_kept(self):
        p, report = optimized("main(n) let x = incr(n) in x", ["dce"])
        assert "dce.removed" not in report.stats

    def test_impure_binding_kept(self):
        reg = default_registry()

        @reg.register(name="log_it")
        def log_it(n):
            return n

        p, report = optimized(
            "main(n) let unused = log_it(n) in n", ["dce"], registry=reg
        )
        assert "dce.removed" not in report.stats

    def test_cascading_removal(self):
        p, _ = optimized(
            "main(n) let a = incr(n) b = incr(a) c = incr(b) in n",
            ["dce"],
        )
        assert unparse(p.function("main").body).strip() == "n"

    def test_unused_tuple_binding_removed(self):
        p, _ = optimized(
            "main(n) let <a, b> = <incr(n), decr(n)> in n", ["dce"]
        )
        assert unparse(p.function("main").body).strip() == "n"

    def test_partially_used_tuple_binding_kept(self):
        p, _ = optimized(
            "main(n) let <a, b> = <incr(n), decr(n)> in a", ["dce"]
        )
        assert isinstance(p.function("main").body, ast.Let)

    def test_unused_local_function_removed(self):
        p, _ = optimized(
            "main(n) let h(x) incr(x) in n", ["dce"]
        )
        assert unparse(p.function("main").body).strip() == "n"

    def test_self_recursive_unused_function_removed(self):
        p, _ = optimized(
            "main(n) let h(x) h(incr(x)) in n", ["dce"]
        )
        assert unparse(p.function("main").body).strip() == "n"


class TestInline:
    def test_small_function_inlined(self):
        p, report = optimized(
            "main(n) double(n)\ndouble(x) add(x, x)", ["inline"]
        )
        body = p.function("main").body
        assert isinstance(body, ast.Let)  # parameter binding + body
        assert report.stats["inline.expanded"] == 1

    def test_inline_plus_cleanup_folds_everything(self):
        p, _ = optimized(
            "main() double(3)\ndouble(x) add(x, x)", PASS_ORDER
        )
        assert p.function("main").body == ast.Literal(value=6)

    def test_recursive_function_not_inlined(self):
        p, report = optimized(
            "main(n) f(n)\nf(x) if x then f(decr(x)) else 0", ["inline"]
        )
        assert "inline.expanded" not in report.stats

    def test_large_function_not_inlined(self):
        big_body = "x"
        for _ in range(14):
            big_body = f"add(x, {big_body})"
        assert parse_expression(big_body).size() > inline.DEFAULT_THRESHOLD
        p, report = optimized(f"main(n) f(n)\nf(x) {big_body}", ["inline"])
        assert "inline.expanded" not in report.stats

    def test_local_function_inlined(self):
        p, report = optimized(
            "main(n) let sq(x) mul(x, x) in sq(n)", PASS_ORDER
        )
        assert report.stats.get("inline.expanded", 0) == 1
        assert "mul(n, n)" in unparse(p)

    def test_alpha_renaming_prevents_capture(self):
        # f's internal `t` must not collide with main's `t`.
        p, _ = optimized(
            """
            main(n) let t = incr(n) in add(t, f(n))
            f(x) let t = decr(x) in mul(t, t)
            """,
            ["inline"],
        )
        compiled_names = [
            node.name
            for node in p.function("main").walk()
            if isinstance(node, ast.SimpleBinding)
        ]
        assert len(compiled_names) == len(set(compiled_names))

    def test_shadowed_global_blocks_inlining(self):
        # main binds `incr`; f's body needs the *operator* incr.
        p, report = optimized(
            """
            main(n) let incr = 5 in add(incr, f(n))
            f(x) incr(x)
            """,
            ["inline"],
        )
        assert "inline.expanded" not in report.stats


class TestSemanticsPreservation:
    @pytest.mark.parametrize(
        "source,args,expected",
        [
            ("main() add(2, 3)", (), 5),
            ("main(n) let a = incr(n) b = incr(n) in mul(a, b)", (4,), 25),
            ("main(n) double(incr(n))\ndouble(x) add(x, x)", (2,), 6),
            (
                "main(n) iterate { i = 0, incr(i)  s = 0, add(s, i) }"
                " while is_less(i, n), result s",
                (5,),
                10,
            ),
            ("main(c) if c then add(1, 2) else mul(2, 3)", (0,), 6),
        ],
    )
    def test_optimized_equals_unoptimized(self, source, args, expected):
        for passes in (None, ()):
            pass  # clarity: the two compilations below
        full = compile_source(source)
        bare = compile_source(source, optimize_passes=())
        assert full.run(args=args).value == expected
        assert bare.run(args=args).value == expected

    def test_optimization_reduces_graph_size(self):
        source = """
        main(n)
          let a = add(2, 3)
              b = add(2, 3)
              unused = mul(a, b)
              r = double(n)
          in add(r, a)
        double(x) add(x, x)
        """
        full = compile_source(source)
        bare = compile_source(source, optimize_passes=())
        assert full.graph.total_nodes() < bare.graph.total_nodes()
        assert full.run(args=(10,)).value == bare.run(args=(10,)).value == 25

    def test_report_rounds_bounded(self):
        program = parse_program("main() add(1, 2)")
        report = optimize(program, default_registry())
        assert report.rounds <= 8

    def test_unknown_pass_name_rejected(self):
        program = parse_program("main() 1")
        with pytest.raises(KeyError):
            optimize(program, default_registry(), enabled=("magic",))
