"""Property tests on the simulator's schedule algebra and accounting."""

from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.machine import SimulatedExecutor, butterfly, cray_ymp, sequent, uniform

from .programs import REGISTRY, programs


def _run(source, n, machine, **kw):
    compiled = compile_source(source, registry=REGISTRY)
    return SimulatedExecutor(machine, trace=True, **kw).run(
        compiled.graph, args=(n,), registry=REGISTRY
    )


def _ticks(source, n, processor_counts):
    """Makespans of one compile on ``uniform(p)`` for each count."""
    graph = compile_source(source, registry=REGISTRY).graph
    return [
        SimulatedExecutor(uniform(p)).run(graph, (n,), REGISTRY).ticks
        for p in processor_counts
    ]


class TestScheduleAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(programs(), st.integers(-5, 5), st.integers(2, 8))
    def test_graham_bound(self, source, n, p):
        # On an overhead-free machine list scheduling keeps
        # max(work/P, critical path) <= makespan <= work/P + critical path.
        work, cp, t = _ticks(source, n, (1, 128, p))
        assert t >= max(cp, work / p) - 1e-6
        assert t <= work / p + cp + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(-5, 5))
    def test_more_processors_never_slower(self, source, n):
        times = _ticks(source, n, (1, 2, 4))
        for previous, t in zip(times, times[1:]):
            # Greedy list scheduling is not strictly monotone in P
            # (Graham's anomalies), but the slowdown is bounded; allow
            # the classical (2 - 1/p) slack over the previous time.
            assert t <= previous * 2 + 1e-6


class TestAccountingInvariants:
    @settings(max_examples=25, deadline=None)
    @given(programs(), st.integers(-3, 3), st.integers(1, 6))
    def test_busy_bounded_by_makespan(self, source, n, p):
        result = _run(source, n, uniform(p))
        for busy in result.busy_ticks:
            assert busy <= result.ticks + 1e-6
        assert result.utilization() <= 1.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(programs(), st.integers(-3, 3), st.integers(1, 6))
    def test_makespan_at_least_work_over_p(self, source, n, p):
        result = _run(source, n, uniform(p))
        assert result.ticks >= result.compute_ticks_total / p - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(programs(), st.integers(-3, 3))
    def test_dispatch_accounting(self, source, n):
        machine = cray_ymp(3)
        result = _run(source, n, machine)
        expected = machine.dispatch_ticks * result.stats.tasks_fired
        assert result.dispatch_ticks_total == expected

    @settings(max_examples=20, deadline=None)
    @given(programs(), st.integers(-3, 3))
    def test_no_remote_traffic_on_one_numa_processor(self, source, n):
        result = _run(source, n, butterfly(1))
        assert result.traffic.remote_bytes == 0

    @settings(max_examples=20, deadline=None)
    @given(programs(), st.integers(-3, 3), st.integers(2, 5))
    def test_trace_spans_never_overlap_per_processor(self, source, n, p):
        result = _run(source, n, sequent(p))
        assert result.tracer is not None
        by_processor: dict[int, list] = {}
        for record in result.tracer.records:
            by_processor.setdefault(record.processor, []).append(record)
        for records in by_processor.values():
            records.sort(key=lambda r: r.start)
            for a, b in zip(records, records[1:]):
                assert b.start >= a.start + a.ticks - 1e-6

    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(-3, 3))
    def test_trace_totals_match_busy_ticks(self, source, n):
        result = _run(source, n, uniform(3))
        assert result.tracer is not None
        by_processor = [0.0, 0.0, 0.0]
        for record in result.tracer.records:
            by_processor[record.processor] += record.ticks
        for traced, busy in zip(by_processor, result.busy_ticks):
            assert traced == busy

    @settings(max_examples=15, deadline=None)
    @given(programs(), st.integers(-3, 3))
    def test_stats_identical_across_machines(self, source, n):
        # Engine-side statistics (ops, expansions) are schedule facts,
        # not machine facts.
        compiled = compile_source(source, registry=REGISTRY)
        a = SimulatedExecutor(uniform(1)).run(
            compiled.graph, args=(n,), registry=REGISTRY
        )
        b = SimulatedExecutor(butterfly(4), affinity="data").run(
            compiled.graph, args=(n,), registry=REGISTRY
        )
        assert a.stats.ops_executed == b.stats.ops_executed
        assert a.stats.expansions == b.stats.expansions
