"""Engine edge cases and failure injection.

The corners the main engine tests do not reach: dead call results,
operator failures mid-graph on every executor, closure pinning semantics,
zero-consumer values, activation lifetimes under adversarial shapes, and
reference-count hygiene after a run.
"""

import gc
import weakref

import pytest

from repro import compile_source
from repro.errors import OperatorError
from repro.machine import SimulatedExecutor, uniform
from repro.runtime import (
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)


class TestDeadCallsAndUnusedValues:
    def test_unused_call_result_does_not_corrupt_parent(self):
        # Without DCE, an unused function call still expands; its child
        # activation must not deliver into a released parent.
        compiled = compile_source(
            """
            main(n)
              let dead = slow_helper(n)
              in incr(n)
            slow_helper(x) mul(helper2(x), 2)
            helper2(x) add(x, 1)
            """,
            optimize_passes=(),
        )
        for _ in range(3):
            result = SequentialExecutor().run(compiled.graph, args=(5,))
            assert result.value == 6

    def test_unused_op_output_with_zero_consumers(self):
        reg = default_registry()
        sink = []
        reg.register(name="observe")(lambda x: sink.append(x) or x)
        compiled = compile_source(
            "main(n) let ignored = observe(n) in n",
            registry=reg,
            optimize_passes=(),  # impure: DCE keeps it anyway, but be sure
        )
        result = SequentialExecutor().run(compiled.graph, args=(3,), registry=reg)
        assert result.value == 3
        assert sink == [3]  # the effect happened exactly once

    def test_deeply_nested_dead_lets(self):
        src = "main(n) " + "let a$X = incr(n) in ".replace("$X", "0") + "n"
        nested = "main(n) "
        for i in range(30):
            nested += f"let d{i} = incr(n) in "
        nested += "n"
        compiled = compile_source(nested, optimize_passes=())
        assert SequentialExecutor().run(compiled.graph, args=(1,)).value == 1


class TestOperatorFailures:
    @staticmethod
    def _failing_registry():
        reg = default_registry()

        @reg.register(name="maybe_die")
        def maybe_die(x):
            if x == 3:
                raise RuntimeError("injected failure")
            return x

        return reg

    SRC = """
    main()
      let a = maybe_die(1)
          b = maybe_die(2)
          c = maybe_die(3)
          d = maybe_die(4)
      in add(add(a, b), add(c, d))
    """

    def test_sequential_raises(self):
        reg = self._failing_registry()
        compiled = compile_source(self.SRC, registry=reg)
        with pytest.raises(OperatorError) as excinfo:
            SequentialExecutor().run(compiled.graph, registry=reg)
        assert excinfo.value.operator == "maybe_die"

    def test_threaded_raises(self):
        reg = self._failing_registry()
        compiled = compile_source(self.SRC, registry=reg)
        with pytest.raises(OperatorError):
            ThreadedExecutor(4).run(compiled.graph, registry=reg)

    def test_simulated_raises(self):
        reg = self._failing_registry()
        compiled = compile_source(self.SRC, registry=reg)
        with pytest.raises(OperatorError):
            SimulatedExecutor(uniform(2)).run(compiled.graph, registry=reg)

    def test_failure_inside_recursion(self):
        reg = default_registry()

        @reg.register(name="guard")
        def guard(x):
            if x == 3:  # trips partway through the descent
                raise ValueError("too deep")
            return x

        compiled = compile_source(
            """
            main() down(0)
            down(i) if is_less(guard(i), 5) then down(incr(i)) else i
            """,
            registry=reg,
        )
        with pytest.raises(OperatorError):
            SequentialExecutor().run(compiled.graph, registry=reg)


class TestClosureSemantics:
    def test_captured_block_is_pinned_not_corrupted(self):
        # A closure captures a list; a destructive operator later writes
        # the same list through another path.  The pin forces a copy, so
        # the closure keeps seeing the original.
        reg = default_registry()
        reg.register(name="mk")(lambda: [100])
        reg.register(name="bump", modifies=(0,))(
            lambda l: (l.__setitem__(0, l[0] + 1), l)[1]
        )
        reg.register(name="head", pure=True)(lambda l: l[0])
        compiled = compile_source(
            """
            main()
              let data = mk()
                  reader() head(data)
                  bumped = bump(data)
              in <reader(), head(bumped)>
            """,
            registry=reg,
        )
        result = SequentialExecutor().run(compiled.graph, registry=reg)
        assert result.value == (100, 101)

    def test_closure_called_many_times(self):
        compiled = compile_source(
            """
            main(n)
              let addn(x) add(x, n)
              in add(addn(1), add(addn(2), addn(3)))
            """
        )
        assert compiled.run(args=(10,)).value == 36

    def test_closure_stored_and_retrieved_from_package(self):
        compiled = compile_source(
            """
            main(n)
              let f(x) mul(x, 2)
                  g(x) mul(x, 3)
                  <a, b> = <f, g>
              in add(a(n), b(n))
            """
        )
        assert compiled.run(args=(5,)).value == 25

    def test_self_recursive_closure_via_capture(self):
        compiled = compile_source(
            """
            main(n)
              let fact(k) if is_less_equal(k, 1)
                          then 1
                          else mul(k, fact(sub(k, 1)))
              in fact(n)
            """
        )
        assert compiled.run(args=(6,)).value == 720


class TestActivationRecycling:
    def test_recycled_activations_reset_cleanly(self):
        # A loop must never leak values across iterations: each
        # iteration computes from fresh inputs.
        compiled = compile_source(
            """
            main(n)
              iterate {
                i = 0, incr(i)
                parity = 0, if is_equal(mod(i, 2), 0) then 1 else 0
              }
              while is_less(i, n),
              result parity
            """
        )
        # parity of (n-1) after n rounds: deterministic chain
        assert compiled.run(args=(5,)).value in (0, 1)
        a = compiled.run(args=(6,)).value
        b = compiled.run(args=(6,)).value
        assert a == b

    def test_interleaved_loops_do_not_share_state(self):
        compiled = compile_source(
            """
            main(n) <count(0, n), count(100, add(100, n))>
            count(i, stop) if is_less(i, stop) then count(incr(i), stop) else i
            """
        )
        assert compiled.run(args=(7,)).value == (7, 107)

    @pytest.mark.usefixtures("graph_path")
    def test_live_count_stays_flat_as_iterations_grow(self):
        compiled = compile_source(
            "main(n) iterate { i = 0, incr(i) } while is_less(i, n), result i"
        )
        small = compiled.run(args=(10,))
        large = compiled.run(args=(100,))
        assert (small.value, large.value) == (10, 100)
        assert small.stats.activation_stats["peak_live"] <= 2
        assert large.stats.activation_stats["peak_live"] <= 2

    def test_pool_keeps_no_reference_to_a_released_activation(
        self, monkeypatch
    ):
        from repro.runtime import activation as activation_mod

        # A subclass without slots can be weakly referenced.
        class Traced(activation_mod.Activation):
            pass

        monkeypatch.setattr(activation_mod, "Activation", Traced)
        graph = compile_source("main(n) incr(n)").graph
        pool = activation_mod.ActivationPool()
        act = pool.acquire(
            activation_mod.TemplatePlan(graph.template("main"), graph)
        )
        ref = weakref.ref(act)
        pool.release(act)
        del act
        gc.collect()
        assert ref() is None
        assert (pool.created, pool.live, pool.peak_live) == (1, 0, 1)


class TestReferenceCountHygiene:
    def test_final_block_refcounts_are_consistent(self):
        # After a run, the final result holds exactly the result share.
        from repro.runtime.blocks import DataBlock
        from repro.runtime.engine import ExecutionState
        from repro.runtime.scheduler import ReadyQueue

        reg = default_registry()
        reg.register(name="mk")(lambda: [1, 2, 3])
        compiled = compile_source("main() mk()", registry=reg)
        state = ExecutionState(compiled.graph, reg)
        queue = ReadyQueue()
        queue.push_all(state.start(()))
        while queue:
            queue.push_all(state.fire(queue.pop()))
        final = state._final
        assert isinstance(final, DataBlock)
        assert final.rc == 1  # the result share and nothing else

    def test_null_heavy_program(self):
        compiled = compile_source(
            """
            main()
              let a = if 0 then 1 else NULL
                  b = if 1 then NULL else 2
              in merge(a, b, 7)
            """,
            optimize_passes=(),
        )
        assert compiled.run().value == [7]
