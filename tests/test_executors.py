"""Executors: sequential/threaded parity, tracing, stall detection."""

import pytest

from repro import compile_source
from repro.errors import OperatorError
from repro.runtime import (
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)

from tests.conftest import (
    FACTORIAL_SRC,
    FIB_SRC,
    FORK_JOIN_SRC,
    fork_join_registry,
)


class TestSequential:
    def test_trace_records_operator_calls(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        result = SequentialExecutor(trace=True).run(
            compiled.graph, registry=reg
        )
        assert result.tracer is not None
        labels = [r.label for r in result.tracer.op_records()]
        assert labels.count("convolve") == 4
        assert "init_fn" in labels and "term_fn" in labels

    def test_wall_seconds_positive(self):
        compiled = compile_source("main() incr(0)")
        assert compiled.run().wall_seconds > 0


class TestThreadedParity:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_fib_same_result(self, workers):
        compiled = compile_source(FIB_SRC)
        seq = SequentialExecutor().run(compiled.graph, args=(12,))
        par = ThreadedExecutor(workers).run(compiled.graph, args=(12,))
        assert par.value == seq.value == 144

    def test_factorial_same_result(self):
        compiled = compile_source(FACTORIAL_SRC)
        assert ThreadedExecutor(4).run(compiled.graph, args=(10,)).value == 3628800

    def test_fork_join_same_result(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        seq = SequentialExecutor().run(compiled.graph, registry=reg)
        par = ThreadedExecutor(4).run(compiled.graph, registry=reg)
        assert seq.value == par.value == 100

    def test_mutation_heavy_program_is_race_free(self):
        # Shared mutable blocks + threads: COW must keep results exact.
        reg = default_registry()

        @reg.register(name="make_list")
        def make_list():
            return list(range(32))

        @reg.register(name="bump_all", modifies=(0,))
        def bump_all(lst, k):
            for i in range(len(lst)):
                lst[i] += k
            return lst

        @reg.register(name="total", pure=True)
        def total(lst):
            return sum(lst)

        src = """
        main()
          let base = make_list()
              a = bump_all(base, 1)
              b = bump_all(base, 100)
              c = bump_all(base, 10000)
          in <total(a), total(b), total(c), total(base)>
        """
        compiled = compile_source(src, registry=reg)
        expected = SequentialExecutor().run(compiled.graph, registry=reg).value
        for _ in range(5):
            got = ThreadedExecutor(4).run(compiled.graph, registry=reg).value
            assert got == expected

    def test_operator_error_propagates_from_worker(self):
        reg = default_registry()

        @reg.register(name="die")
        def die():
            raise RuntimeError("worker boom")

        compiled = compile_source("main() die()", registry=reg)
        with pytest.raises(OperatorError):
            ThreadedExecutor(4).run(compiled.graph, registry=reg)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)


class TestStatsParity:
    @pytest.mark.usefixtures("graph_path")
    def test_ops_executed_identical_across_executors(self):
        compiled = compile_source(FIB_SRC)
        seq = SequentialExecutor().run(compiled.graph, args=(10,))
        par = ThreadedExecutor(3).run(compiled.graph, args=(10,))
        assert seq.stats.ops_executed == par.stats.ops_executed
        assert seq.stats.expansions == par.stats.expansions
