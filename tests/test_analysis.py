"""Program analyses: SCC recursion detection, purity, free variables."""

from repro.compiler import analyze, analyze_program, free_variables, lower_program
from repro.compiler.analysis import FreshNames, strongly_connected_components
from repro.lang import parse_expression, parse_program


def analysis_for(source: str, pure_ops: set[str] | None = None):
    program = lower_program(parse_program(source))
    env = analyze(program)
    return analyze_program(env, pure_operators=pure_ops)


class TestSCC:
    def test_simple_cycle(self):
        comps = strongly_connected_components(
            {"a": {"b"}, "b": {"a"}, "c": {"a"}}
        )
        comp_sets = [set(c) for c in comps]
        assert {"a", "b"} in comp_sets
        assert {"c"} in comp_sets

    def test_self_loop(self):
        comps = strongly_connected_components({"a": {"a"}})
        assert [set(c) for c in comps] == [{"a"}]

    def test_dag_has_singleton_components(self):
        comps = strongly_connected_components(
            {"a": {"b", "c"}, "b": {"c"}, "c": set()}
        )
        assert all(len(c) == 1 for c in comps)

    def test_long_chain_iterative(self):
        # A 5000-deep chain would blow a recursive Tarjan.
        graph = {f"n{i}": {f"n{i + 1}"} for i in range(5000)}
        graph["n5000"] = set()
        comps = strongly_connected_components(graph)
        assert len(comps) == 5001

    def test_external_successors_ignored(self):
        comps = strongly_connected_components({"a": {"not_a_vertex"}})
        assert [set(c) for c in comps] == [{"a"}]


class TestRecursionDetection:
    def test_self_recursion(self):
        pa = analysis_for("main() f(1)\nf(n) if n then f(n) else n")
        assert pa.is_recursive_function("f")
        assert pa.is_recursive_call("f", "f")
        assert not pa.is_recursive_function("main")
        assert not pa.is_recursive_call("main", "f")

    def test_mutual_recursion(self):
        pa = analysis_for(
            """
            main() even(10)
            even(n) if is_equal(n, 0) then 1 else odd(sub(n, 1))
            odd(n) if is_equal(n, 0) then 0 else even(sub(n, 1))
            """
        )
        assert pa.is_recursive_call("even", "odd")
        assert pa.is_recursive_call("odd", "even")
        assert not pa.is_recursive_call("main", "even")

    def test_lowered_iterate_is_self_recursive(self):
        pa = analysis_for(
            "main(n) iterate { i = 0, incr(i) } while is_less(i, n), result i"
        )
        loops = [q for q in pa.env.functions if "loop$" in q]
        assert len(loops) == 1
        assert pa.is_recursive_function(loops[0])

    def test_queens_try_doit_cycle(self):
        pa = analysis_for(
            """
            main() do_it(empty_board(), 1)
            do_it(b, q) merge(try(b, q, 1), try(b, q, 2))
            try(b, q, l)
              if valid(b) then b else do_it(b, incr(q))
            """
        )
        assert pa.is_recursive_call("do_it", "try")
        assert pa.is_recursive_call("try", "do_it")


class TestPurity:
    def test_pure_chain(self):
        pa = analysis_for(
            "main() f(1)\nf(n) incr(n)", pure_ops={"incr"}
        )
        assert pa.is_pure_function("f")
        assert pa.is_pure_function("main")

    def test_impure_operator_poisons_callers(self):
        pa = analysis_for(
            "main() f(1)\nf(n) launch_missiles(n)", pure_ops={"incr"}
        )
        assert not pa.is_pure_function("f")
        assert not pa.is_pure_function("main")

    def test_dynamic_call_is_impure(self):
        pa = analysis_for("main(fn) fn(1)", pure_ops=set())
        assert not pa.is_pure_function("main")

    def test_none_means_all_operators_pure(self):
        pa = analysis_for("main() anything(1)", pure_ops=None)
        assert pa.is_pure_function("main")


class TestFreeVariables:
    def test_var_is_free(self):
        assert free_variables(parse_expression("x"), set()) == ["x"]

    def test_bound_not_free(self):
        assert free_variables(parse_expression("x"), {"x"}) == []

    def test_first_use_order(self):
        e = parse_expression("add(b, add(a, b))")
        assert free_variables(e, set()) == ["add", "b", "a"]

    def test_let_binds(self):
        e = parse_expression("let x = f(y) in add(x, z)")
        assert free_variables(e, {"f", "add"}) == ["y", "z"]

    def test_local_function_params_bound(self):
        e = parse_expression("let h(p) add(p, q) in h(1)")
        assert free_variables(e, {"add"}) == ["q"]

    def test_iterate_scoping(self):
        # On the lowered tree: the loop variable is the loop function's
        # parameter, and its body (read first) precedes the first call.
        (main,) = lower_program(
            parse_program(
                "main() iterate { i = start, step(i, k) } while c(i), result i"
            )
        ).functions
        assert free_variables(main.body, {"step", "c"}) == ["k", "start"]


class TestFreshNames:
    def test_avoids_used_names(self):
        fresh = FreshNames({"loop$1"})
        assert fresh.fresh("loop") == "loop$2"

    def test_monotonic(self):
        fresh = FreshNames(set())
        a = fresh.fresh("x")
        b = fresh.fresh("x")
        assert a != b

    def test_generated_names_lex_as_identifiers(self):
        from repro.lang import tokenize, TokenKind

        fresh = FreshNames(set())
        name = fresh.fresh("loop")
        toks = tokenize(name)
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].text == name
