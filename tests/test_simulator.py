"""The simulated multiprocessor: time algebra, machine models, traffic."""

import pytest

from repro import compile_source
from repro.errors import MachineError
from repro.machine import (
    MachineModel,
    SimulatedExecutor,
    butterfly,
    cray_2,
    cray_ymp,
    sequent,
    speedup_curve,
    uniform,
)
from repro.runtime import SequentialExecutor, default_registry

from tests.conftest import FORK_JOIN_SRC, fork_join_registry


@pytest.fixture
def fork_join():
    reg = fork_join_registry()
    return compile_source(FORK_JOIN_SRC, registry=reg), reg


class TestMachineModels:
    def test_presets_exist(self):
        assert cray_ymp().processors == 4
        assert cray_2().processors == 4
        assert sequent().processors == 3
        assert butterfly().numa

    def test_with_processors(self):
        assert cray_ymp().with_processors(2).processors == 2

    def test_invalid_processor_count(self):
        with pytest.raises(MachineError):
            uniform(0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(MachineError):
            MachineModel(name="bad", processors=1, dispatch_ticks=-1)


class TestTimeAlgebra:
    def test_single_processor_time_is_total_work(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(uniform(1)).run(compiled.graph, registry=reg)
        # init(10) + 4 x convolve(1000) + term(10); uniform machine has
        # zero dispatch/node/activation overhead.
        assert r.ticks == pytest.approx(10 + 4 * 1000 + 10)

    def test_infinite_processors_time_is_critical_path(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(uniform(64)).run(compiled.graph, registry=reg)
        assert r.ticks == pytest.approx(10 + 1000 + 10)

    def test_two_processors_pack_two_each(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(uniform(2)).run(compiled.graph, registry=reg)
        assert r.ticks == pytest.approx(10 + 2000 + 10)

    def test_three_processor_plateau(self, fork_join):
        # The paper's figure-1 phenomenon: with four equal tasks, three
        # processors are no better than two.
        compiled, reg = fork_join
        two = SimulatedExecutor(uniform(2)).run(compiled.graph, registry=reg)
        three = SimulatedExecutor(uniform(3)).run(compiled.graph, registry=reg)
        assert three.ticks == pytest.approx(two.ticks)

    def test_graham_bound(self, fork_join):
        compiled, reg = fork_join
        work = SimulatedExecutor(uniform(1)).run(compiled.graph, registry=reg).ticks
        cp = SimulatedExecutor(uniform(64)).run(compiled.graph, registry=reg).ticks
        for p in (2, 3, 4, 5):
            t = SimulatedExecutor(uniform(p)).run(compiled.graph, registry=reg).ticks
            assert t >= max(cp, work / p) - 1e-9
            assert t <= work / p + cp + 1e-9

    def test_speedup_curve_shape(self, fork_join):
        compiled, reg = fork_join
        curve = speedup_curve(
            compiled.graph, uniform(1), [1, 2, 3, 4], registry=reg
        )
        assert curve[1] == 1.0
        assert curve[2] == pytest.approx(2.0, rel=0.02)
        assert curve[3] == pytest.approx(curve[2], rel=0.02)
        assert curve[4] > 3.5

    def test_results_match_real_executor(self, fork_join):
        compiled, reg = fork_join
        sim = SimulatedExecutor(cray_ymp()).run(compiled.graph, registry=reg)
        real = SequentialExecutor().run(compiled.graph, registry=reg)
        assert sim.value == real.value


class TestOverheadAccounting:
    def test_dispatch_overhead_counted(self, fork_join):
        compiled, reg = fork_join
        machine = uniform(1)
        machine = MachineModel(
            name="u", processors=1, dispatch_ticks=10.0, node_overhead_ticks=0.0,
            activation_ticks=0.0, default_op_ticks=1000.0,
        )
        r = SimulatedExecutor(machine).run(compiled.graph, registry=reg)
        assert r.dispatch_ticks_total == 10.0 * r.stats.tasks_fired
        assert 0 < r.overhead_fraction() < 1

    def test_coarse_grain_overhead_is_small(self, fork_join):
        # Section 7: < 1% overhead when operator grains dwarf dispatch.
        compiled, reg = fork_join
        big = SimulatedExecutor(
            uniform(4),
            op_cost_overrides={"convolve": 1_000_000.0},
        ).run(compiled.graph, registry=reg)
        assert big.overhead_fraction() < 0.01

    def test_op_cost_overrides(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(
            uniform(1), op_cost_overrides={"convolve": lambda x, k: 500.0}
        ).run(compiled.graph, registry=reg)
        assert r.ticks == pytest.approx(10 + 4 * 500 + 10)


class TestNUMAAndTraffic:
    @staticmethod
    def _block_program():
        reg = default_registry()
        import numpy as np

        @reg.register(name="big_block", cost=100.0)
        def big_block():
            return np.zeros(1000)  # 8000 bytes

        @reg.register(name="crunch", pure=True, cost=100.0)
        def crunch(a, k):
            return float(a.sum()) + k

        @reg.register(name="gather", pure=True, cost=10.0)
        def gather(a, b):
            return a + b

        src = """
        main()
          let blk = big_block()
              x = crunch(blk, 1)
              y = crunch(blk, 2)
          in gather(x, y)
        """
        return compile_source(src, registry=reg), reg

    def test_remote_reads_charged_on_numa(self):
        compiled, reg = self._block_program()
        machine = butterfly(2)
        r = SimulatedExecutor(machine).run(compiled.graph, registry=reg)
        # blk was produced on one processor; with two processors one
        # crunch runs remotely.
        assert r.traffic.remote_bytes >= 8000

    def test_no_remote_traffic_on_one_processor(self):
        compiled, reg = self._block_program()
        r = SimulatedExecutor(butterfly(1)).run(compiled.graph, registry=reg)
        assert r.traffic.remote_bytes == 0

    def test_uma_machines_have_no_remote_traffic(self):
        compiled, reg = self._block_program()
        r = SimulatedExecutor(cray_ymp()).run(compiled.graph, registry=reg)
        assert r.traffic.remote_bytes == 0

    def test_template_replication_ablation(self):
        # Template fetches happen on expansions, so use a call-heavy
        # program (fib) rather than the flat fork-join template.
        import dataclasses

        from tests.conftest import FIB_SRC

        compiled = compile_source(FIB_SRC)
        replicated = SimulatedExecutor(sequent()).run(compiled.graph, args=(10,))
        shared = SimulatedExecutor(
            dataclasses.replace(sequent(), replicate_templates=False)
        ).run(compiled.graph, args=(10,))
        assert replicated.traffic.template_fetch_bytes == 0
        assert shared.traffic.template_fetch_bytes > 0
        assert shared.ticks > replicated.ticks

    def test_memory_inventory_counts_templates(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(cray_ymp()).run(compiled.graph, registry=reg)
        assert r.memory.template_total > 0
        assert r.memory.peak_activation_total > 0
        assert 0 < r.memory.template_fraction <= 1


class TestDeterminismInSimulation:
    def test_same_machine_same_ticks(self, fork_join):
        compiled, reg = fork_join
        a = SimulatedExecutor(cray_ymp()).run(compiled.graph, registry=reg)
        b = SimulatedExecutor(cray_ymp()).run(compiled.graph, registry=reg)
        assert a.ticks == b.ticks
        assert a.value == b.value

    def test_seeded_schedules_change_ticks_not_values(self, fork_join):
        compiled, reg = fork_join
        values = set()
        for seed in (1, 2, 3):
            r = SimulatedExecutor(uniform(2), seed=seed).run(
                compiled.graph, registry=reg
            )
            values.add(r.value)
        assert len(values) == 1

    def test_tracer_records_processors(self, fork_join):
        compiled, reg = fork_join
        r = SimulatedExecutor(uniform(4), trace=True).run(
            compiled.graph, registry=reg
        )
        assert r.tracer is not None
        procs = {rec.processor for rec in r.tracer.op_records()}
        assert len(procs) > 1  # the fork really spread out


class TestSuspendedBodies:
    """The simulator runs and commits the bodies the engine suspends: a
    call of an operator value and a purity-checked operator."""

    def test_a_call_of_an_operator_value_runs_and_commits(self):
        from repro.runtime.values import OperatorValue

        graph = compile_source("main(f, n) f(n)", strict=False).graph
        r = SimulatedExecutor(uniform(2)).run(graph, (OperatorValue("incr"), 4))
        assert r.value == 5
        assert r.stats.ops_executed == 1

    def test_its_failure_is_an_operator_error_naming_it(self):
        from repro.errors import OperatorError
        from repro.runtime.values import OperatorValue

        reg = default_registry()

        @reg.register(name="boom")
        def boom(x):
            raise ValueError("no")

        graph = compile_source("main(f, n) f(n)", registry=reg, strict=False).graph
        with pytest.raises(OperatorError, match="boom"):
            SimulatedExecutor(uniform(2)).run(
                graph, (OperatorValue("boom"), 4), registry=reg
            )

    def test_a_purity_checked_body_runs_and_commits(self):
        graph = compile_source("main(n) incr(n)").graph
        r = SimulatedExecutor(uniform(2), check_purity=True).run(graph, (4,))
        assert r.value == 5
