"""Engine semantics: firing rules, COW, closures, tail calls, errors."""

import numpy as np
import pytest

from repro import compile_source
from repro.errors import (
    OperatorError,
    RuntimeFailure,
    UnknownOperatorError,
)
from repro.graph.ir import NodeKind
from repro.runtime import (
    NULL,
    ExecutionState,
    PendingOp,
    SequentialExecutor,
    default_registry,
)
from repro.runtime.engine import PurityViolationError
from repro.runtime.values import OperatorValue

from tests.conftest import FIB_SRC, HIGHER_ORDER_SRC


def run(source, args=(), registry=None, **executor_kw):
    registry = registry or default_registry()
    compiled = compile_source(source, registry=registry)
    return SequentialExecutor(**executor_kw).run(
        compiled.graph, args=args, registry=registry
    )


class TestBasics:
    def test_literal_result(self):
        assert run("main() 42").value == 42

    def test_null_result(self):
        assert run("main() NULL").value is NULL

    def test_entry_args(self):
        assert run("main(a, b) add(a, b)", args=(2, 3)).value == 5

    def test_wrong_entry_arity(self):
        with pytest.raises(RuntimeFailure):
            run("main(a) a", args=(1, 2))

    def test_multivalue_result_unwrapped_to_tuple(self):
        assert run("main() <1, 2, 3>").value == (1, 2, 3)

    def test_tuple_decomposition(self):
        assert run(
            "main() let <a, b> = <1, 2> in add(a, b)"
        ).value == 3

    def test_operator_returning_tuple_decomposes(self):
        reg = default_registry()
        reg.register(name="pair")(lambda: (10, 20))
        assert run(
            "main() let <a, b> = pair() in sub(a, b)", registry=reg
        ).value == -10


class TestConditionals:
    def test_only_taken_arm_executes(self):
        calls = []
        reg = default_registry()

        @reg.register(name="boom")
        def boom():
            calls.append(1)
            return 1

        result = run("main(c) if c then 5 else boom()", args=(1,), registry=reg)
        assert result.value == 5
        assert calls == []

    def test_null_condition_is_false(self):
        assert run("main() if NULL then 1 else 2").value == 2

    def test_nonzero_is_true(self):
        assert run("main() if 7 then 1 else 2").value == 1


class TestFirstClassFunctions:
    def test_function_passed_as_argument(self):
        compiled = compile_source(HIGHER_ORDER_SRC)
        assert compiled.run(args=(5,)).value == 7

    def test_top_level_function_as_value(self):
        src = """
        main(n) apply_fn(step, n)
        apply_fn(f, x) f(x)
        step(x) add(x, 10)
        """
        assert run(src, args=(1,)).value == 11

    def test_operator_as_value(self):
        src = """
        main(n) apply_fn(incr, n)
        apply_fn(f, x) f(x)
        """
        assert run(src, args=(4,)).value == 5

    def test_closure_captures_environment(self):
        src = """
        main(n)
          let k = mul(n, 10)
              addk(x) add(x, k)
          in addk(addk(1))
        """
        assert run(src, args=(2,)).value == 41

    def test_function_returned_as_value(self):
        src = """
        main(n)
          let make_adder(k)
                let adder(x) add(x, k)
                in adder
          in (make_adder(n))(100)
        """
        assert run(src, args=(5,)).value == 105

    def test_calling_non_function_fails(self):
        with pytest.raises(RuntimeFailure):
            run("main(n) let f = 5 in f(n)", args=(1,))


class TestRecursionAndTailCalls:
    def test_fib(self):
        assert run(FIB_SRC, args=(10,)).value == 55

    def test_mutual_recursion(self):
        src = """
        main(n) even(n)
        even(n) if is_equal(n, 0) then 1 else odd(sub(n, 1))
        odd(n) if is_equal(n, 0) then 0 else even(sub(n, 1))
        """
        assert run(src, args=(10,)).value == 1
        assert run(src, args=(7,)).value == 0

    def test_deep_tail_recursion_constant_space(self):
        src = """
        main(n) count(0, n)
        count(i, n) if is_less(i, n) then count(incr(i), n) else i
        """
        result = run(src, args=(2000,))
        assert result.value == 2000
        assert result.stats.activation_stats["peak_live"] <= 3

    @pytest.mark.usefixtures("graph_path")
    def test_tail_expansions_counted(self):
        src = """
        main(n) count(0, n)
        count(i, n) if is_less(i, n) then count(incr(i), n) else i
        """
        result = run(src, args=(50,))
        assert result.stats.tail_expansions > 0


class TestCopyOnWrite:
    @staticmethod
    def _registry():
        reg = default_registry()

        @reg.register(name="make_list")
        def make_list():
            return [0, 0, 0]

        @reg.register(name="set_at", modifies=(0,))
        def set_at(lst, i, v):
            lst[i] = v
            return lst

        @reg.register(name="get_at", pure=True)
        def get_at(lst, i):
            return lst[i]

        return reg

    def test_sole_reference_writes_in_place(self):
        result = run(
            "main() get_at(set_at(make_list(), 0, 9), 0)",
            registry=self._registry(),
        )
        assert result.value == 9
        assert result.stats.in_place_writes == 1
        assert result.stats.cow_copies == 0

    def test_shared_block_is_copied(self):
        src = """
        main()
          let base = make_list()
              x = set_at(base, 0, 1)
              y = set_at(base, 0, 2)
          in <get_at(x, 0), get_at(y, 0), get_at(base, 0)>
        """
        result = run(src, registry=self._registry())
        # No writer's effect is visible anywhere else: `base` stays zero.
        assert result.value == (1, 2, 0)
        # Two writes happened; each was either a COW copy or (if the
        # scheduler had already drained every other reader) an in-place
        # write on a sole reference.  At least one must have copied.
        assert result.stats.cow_copies >= 1
        assert result.stats.cow_copies + result.stats.in_place_writes == 2

    def test_numpy_cow(self):
        reg = default_registry()

        @reg.register(name="zeros")
        def zeros():
            return np.zeros(4)

        @reg.register(name="fill", modifies=(0,))
        def fill(a, v):
            a[:] = v
            return a

        @reg.register(name="total", pure=True)
        def total(a):
            return float(a.sum())

        src = """
        main()
          let base = zeros()
              a = fill(base, 1)
              b = fill(base, 2)
          in <total(a), total(b), total(base)>
        """
        assert run(src, registry=reg).value == (4.0, 8.0, 0.0)

    def test_view_result_is_copied_defensively(self):
        reg = default_registry()

        @reg.register(name="zeros")
        def zeros():
            return np.zeros(6)

        @reg.register(name="top_half", pure=True)
        def top_half(a):
            return a[:3]  # a view!

        @reg.register(name="fill", modifies=(0,))
        def fill(a, v):
            a[:] = v
            return a

        @reg.register(name="total", pure=True)
        def total(a):
            return float(a.sum())

        src = """
        main()
          let base = zeros()
              v = top_half(base)
              w = fill(v, 7)
          in <total(w), total(base)>
        """
        # Writing through the view must not reach base.
        assert run(src, registry=reg).value == (21.0, 0.0)

    def test_view_of_a_dying_input_is_copied_too(self):
        # ``zeros()``'s block has one reader and dies at that fire, and
        # its view is still copied: a result owns its memory whatever
        # the count of the input it came from.
        reg = default_registry()
        reg.register(name="zeros")(lambda: np.zeros(6))
        reg.register(name="top_half", pure=True)(lambda a: a[:3])
        reg.register(name="owns", pure=True)(lambda a: a.base is None)
        assert run("main() owns(top_half(zeros()))", registry=reg).value is True

    def test_purity_checker_catches_undeclared_write(self):
        reg = default_registry()

        @reg.register(name="make_list")
        def make_list():
            return [0]

        @reg.register(name="sneaky", pure=True)
        def sneaky(lst):
            lst[0] = 666  # undeclared write!
            return 1

        @reg.register(name="get0", pure=True)
        def get0(lst):
            return lst[0]

        src = "main() let b = make_list() in add(sneaky(b), get0(b))"
        with pytest.raises(PurityViolationError):
            run(src, registry=reg, check_purity=True)

    def test_modifies_on_package_rejected(self):
        reg = default_registry()
        reg.register(name="bad", modifies=(0,))(lambda p: p)
        reg.register(name="mk")(lambda: ([1], [2]))
        with pytest.raises(RuntimeFailure):
            run("main() bad(mk())", registry=reg)


class TestErrors:
    def test_operator_exception_wrapped(self):
        reg = default_registry()

        @reg.register(name="kaboom")
        def kaboom():
            raise ValueError("inner")

        with pytest.raises(OperatorError) as excinfo:
            run("main() kaboom()", registry=reg)
        assert excinfo.value.operator == "kaboom"
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unknown_operator_at_compile_time(self):
        from repro.errors import UnboundNameError

        with pytest.raises(UnboundNameError):
            compile_source("main() ghost()")

    def test_unknown_operator_at_runtime_when_lenient(self):
        compiled = compile_source("main() ghost()", strict=False)
        with pytest.raises(UnknownOperatorError):
            SequentialExecutor().run(compiled.graph)

    def test_runtime_operator_arity_error(self):
        compiled = compile_source(
            "main(f) f(1, 2)", strict=False
        )
        with pytest.raises(RuntimeFailure):
            # incr takes 1 argument; called with 2 through a variable
            from repro.runtime.values import OperatorValue

            SequentialExecutor().run(
                compiled.graph, args=(OperatorValue("incr"),)
            )

    def test_decompose_non_package(self):
        with pytest.raises(RuntimeFailure):
            run("main() let <a, b> = 5 in a")

    def test_decompose_wrong_width(self):
        with pytest.raises(RuntimeFailure):
            run("main() let <a, b, c> = <1, 2> in a")


class TestStatistics:
    def test_ops_counted(self):
        # args come from a parameter so the folder cannot precompute them
        result = run("main(n) add(incr(n), 2)", args=(1,))
        assert result.stats.ops_executed == 2

    @pytest.mark.usefixtures("graph_path")
    def test_activation_reuse_in_loops(self):
        compiled = compile_source(
            "main(n) iterate { i = 0, incr(i) } while is_less(i, n), result i"
        )
        result = compiled.run(args=(100,))
        assert result.value == 100
        # §7's re-use: 101 loop rounds, never more than two activations
        # live at once.
        assert result.stats.activation_stats["peak_live"] <= 2


def _keep(spec, payloads):
    return False


def _send(spec, payloads):
    return True


class TestFireContract:
    """``fire`` returns the ready tasks wherever the single pass or a
    non-operator node completes the firing, and the ``PendingOp`` of the
    body in each case where it must leave the single pass: such a firing
    has made nothing ready before its body runs."""

    @pytest.mark.parametrize(
        "source, args, kind, state_kw, fire_kw, returns",
        [
            ("main(n) incr(n)", (1,), NodeKind.OP, {}, {}, list),
            ("main(n) incr(n)", (1,), NodeKind.OP, {}, {"classify": _keep}, list),
            (
                "main(n) if is_less(n, 2) then incr(n) else n", (1,),
                NodeKind.IF, {}, {"suspend": True}, list,
            ),
            ("main(n) incr(n)", (1,), NodeKind.OP, {}, {"classify": _send}, PendingOp),
            ("main(n) incr(n)", (1,), NodeKind.OP, {}, {"suspend": True}, PendingOp),
            (
                "main(n) incr(n)", (1,), NodeKind.OP, {"check_purity": True},
                {}, PendingOp,
            ),
            (
                "main(f, n) f(n)", (OperatorValue("incr"), 1), NodeKind.CALL,
                {}, {}, PendingOp,
            ),
        ],
        ids=[
            "single-pass", "kept-here", "non-operator", "sent-away",
            "suspend", "check-purity", "operator-value",
        ],
    )
    def test_fire_returns_ready_tasks_or_a_pending_op(
        self, source, args, kind, state_kw, fire_kw, returns
    ):
        graph = compile_source(source, optimize_passes=()).graph
        state = ExecutionState(graph, default_registry(), **state_kw)
        queue = list(state.start(args))
        seen = []
        while queue:
            task = queue.pop(0)
            target = task.activation.template.nodes[task.node_id].kind is kind
            made = state._task_seq
            fired = state.fire(task, **(fire_kw if target else {}))
            if target:
                seen.append(type(fired))
            if isinstance(fired, PendingOp):
                assert state._task_seq == made
                assert fired.remote is (fire_kw.get("classify") is _send)
                fired = state.complete_fire(fired, fired.spec.fn(*fired.args))
            queue.extend(fired)
        assert seen == [returns]
        assert state.result() == 2
