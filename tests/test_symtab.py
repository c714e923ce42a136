"""Environment analysis: scoping, single assignment, arity, free vars."""

import pytest

from repro.compiler import analyze, lower_program
from repro.errors import ArityError, SingleAssignmentError, UnboundNameError
from repro.lang import parse_program

OPS = {"f", "g", "incr", "add"}


def run(source: str, strict: bool = True, ops=OPS):
    return analyze(parse_program(source), known_operators=ops, strict=strict)


def run_lowered(source: str, ops=OPS):
    return analyze(lower_program(parse_program(source)), known_operators=ops)


class TestSingleAssignment:
    def test_rebinding_in_same_let_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main() let x = f() x = g() in x")

    def test_rebinding_in_nested_let_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main() let x = f() in let x = g() in x")

    def test_param_shadowing_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main(x) let x = f() in x")

    def test_tuple_binding_duplicate_name_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main() let <a, a> = f() in a")

    def test_duplicate_function_definition_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main() 1\nmain() 2")

    def test_local_function_shadowing_binding_is_error(self):
        with pytest.raises(SingleAssignmentError):
            run("main() let h = f() h(x) g(x) in h")

    def test_distinct_scopes_may_reuse_names(self):
        # Sibling functions can both use `x`; no scope sees both.
        info = run("main() add(p(1), q(2))\np(x) incr(x)\nq(x) incr(x)")
        assert set(info.functions) == {"main", "p", "q"}


class TestUnboundNames:
    def test_unbound_variable_strict(self):
        with pytest.raises(UnboundNameError):
            run("main() let x = f() in y")

    def test_unknown_operator_strict(self):
        with pytest.raises(UnboundNameError):
            run("main() mystery_op(1)")

    def test_unknown_name_lenient_is_assumed_operator(self):
        info = run("main() mystery_op(1)", strict=False)
        assert "mystery_op" in info.functions["main"].op_calls

    def test_no_registry_means_lenient(self):
        info = analyze(parse_program("main() whatever(1)"))
        assert "whatever" in info.functions["main"].op_calls


class TestArity:
    def test_function_arity_checked(self):
        with pytest.raises(ArityError):
            run("main() helper(1, 2)\nhelper(x) incr(x)")

    def test_local_function_arity_checked(self):
        with pytest.raises(ArityError):
            run("main() let h(x) incr(x) in h(1, 2)")

    def test_correct_arity_passes(self):
        run("main() helper(1)\nhelper(x) incr(x)")


class TestFreeVariablesAndCalls:
    def test_local_function_captures(self):
        info = run(
            "main(n) let h(x) add(x, n) in h(1)"
        )
        assert info.functions["main.h"].free == ["n"]

    def test_captures_propagate_through_nesting(self):
        info = run(
            """
            main(n)
              let outer(a)
                    let inner(b) add(add(a, b), n)
                    in inner(a)
              in outer(1)
            """
        )
        assert info.functions["main.outer.inner"].free == ["a", "n"]
        # n is free in outer too (via inner).
        assert "n" in info.functions["main.outer"].free

    def test_call_graph_records_function_calls(self):
        info = run("main() helper(1)\nhelper(x) incr(x)")
        assert info.functions["main"].calls == {"helper"}
        assert info.functions["helper"].op_calls == {"incr"}

    def test_dynamic_calls_flagged(self):
        info = run("main(fn) fn(1)")
        assert info.functions["main"].has_dynamic_calls

    def test_operator_passed_as_value_is_resolved(self):
        info = run("main() apply_it(incr)\napply_it(fn) fn(1)")
        assert not info.functions["main"].has_dynamic_calls

    def test_body_size_recorded(self):
        info = run("main() add(1, 2)")
        # Apply + Var(add) + two literals
        assert info.functions["main"].body_size == 4

    def test_top_level_is_in_source_order(self):
        info = run("zeta() 1\nmain() add(zeta(), alpha())\nalpha() 2")
        assert info.top_level == ["zeta", "main", "alpha"]


class TestIterateScoping:
    """Analysis runs on lowered programs: a loop is a local function whose
    parameters are the loop variables, and errors land where the lowered
    tree puts them (what ``compile_source`` reports)."""

    def test_loop_vars_visible_in_cond_update_result(self):
        env = run_lowered(
            """
            main(n)
              iterate { i = 0, incr(i)  acc = 0, add(acc, i) }
              while add(i, n), result acc
            """,
            ops={"incr", "add"},
        )
        loop = env.functions["main.loop$1"]
        assert loop.params == ["i", "acc"]
        assert "n" in loop.free
        assert not {"i", "acc"} & set(loop.free)

    def test_loop_var_not_visible_in_init(self):
        with pytest.raises(UnboundNameError):
            run_lowered(
                "main() iterate { i = incr(i), incr(i) } while i, result i",
                ops={"incr"},
            )

    def test_loop_var_conflicts_with_outer_binding(self):
        with pytest.raises(SingleAssignmentError) as info:
            run_lowered(
                "main(i) iterate { i = 0, incr(i) } while i, result i",
                ops={"incr"},
            )
        # The lowered loop function binds it, at the iterate's position.
        assert (info.value.line, info.value.column) == (1, 9)