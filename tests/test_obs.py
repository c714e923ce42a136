"""Observability invariants: event causality, metrics/stats parity, and
zero-subscriber transparency (ISSUE 1 satellite coverage)."""

import json

import pytest

from repro import compile_source, default_registry
from repro.machine import SimulatedExecutor, cray_ymp
from repro.obs import (
    ActivationAllocated,
    ActivationRecycled,
    BlockReleased,
    BlockRetained,
    Counter,
    CowCopy,
    EventBus,
    EventLog,
    Expansion,
    Gauge,
    Histogram,
    MetricsRegistry,
    OpFinished,
    OpStarted,
    QueueDepthSample,
    Series,
    TailExpansion,
    TaskEnqueued,
    TaskFired,
    attach_metrics,
    observe_blocks,
)
from repro.runtime import SequentialExecutor, ThreadedExecutor, Tracer

from tests.conftest import FIB_SRC, FORK_JOIN_SRC, fork_join_registry


def cow_program():
    """A program that forces copy-on-write: one list, two writers."""
    reg = default_registry()

    @reg.register()
    def make_list(n):
        return [n, n, n]

    @reg.register(modifies=(0,))
    def bump(xs):
        xs[0] += 1
        return xs

    @reg.register(pure=True)
    def peek(xs):
        return xs[0]

    src = """
    main(n)
      let xs = make_list(n)
          a = bump(xs)
          b = bump(xs)
      in add(peek(a), peek(b))
    """
    return compile_source(src, registry=reg), reg


class TestCausalConsistency:
    def _run_logged(self, src, args=(), registry=None):
        compiled = compile_source(src, registry=registry)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        result = SequentialExecutor(bus=bus).run(
            compiled.graph, args=args, registry=registry
        )
        return result, log

    def test_every_fired_task_was_enqueued_first(self):
        result, log = self._run_logged(FIB_SRC, args=(10,))
        enqueued_at = {}
        for i, e in enumerate(log.events):
            if isinstance(e, TaskEnqueued):
                enqueued_at[e.seq] = i
        fired = [
            (i, e) for i, e in enumerate(log.events) if isinstance(e, TaskFired)
        ]
        assert fired, "no TaskFired events"
        assert len(fired) == result.stats.tasks_fired
        for i, e in fired:
            assert e.seq in enqueued_at, f"task seq {e.seq} never enqueued"
            assert enqueued_at[e.seq] < i, "fired before enqueued"

    def test_enqueue_and_fire_agree_on_identity(self):
        _, log = self._run_logged(FIB_SRC, args=(6,))
        by_seq = {
            e.seq: e for e in log.events if isinstance(e, TaskEnqueued)
        }
        for e in log.events:
            if isinstance(e, TaskFired):
                q = by_seq[e.seq]
                assert (q.aid, q.node_id, q.label, q.kind, q.priority) == (
                    e.aid, e.node_id, e.label, e.kind, e.priority
                )

    def test_op_started_finished_pair_up(self):
        result, log = self._run_logged(FIB_SRC, args=(8,))
        depth = 0
        pending_name = None
        starts = finishes = 0
        for e in log.events:
            if isinstance(e, OpStarted):
                assert depth == 0, "sequential ops must not nest"
                depth += 1
                pending_name = e.name
                starts += 1
            elif isinstance(e, OpFinished):
                assert depth == 1, "OpFinished without OpStarted"
                assert e.name == pending_name
                assert e.duration >= 0
                depth -= 1
                finishes += 1
        assert starts == finishes == result.stats.ops_executed

    def test_activation_allocated_before_recycled(self):
        _, log = self._run_logged(FIB_SRC, args=(8,))
        allocated_at = {}
        for i, e in enumerate(log.events):
            if isinstance(e, ActivationAllocated):
                assert e.aid not in allocated_at, "aid allocated twice"
                allocated_at[e.aid] = i
            elif isinstance(e, ActivationRecycled):
                assert e.aid in allocated_at
                assert allocated_at[e.aid] < i
        assert allocated_at, "no activations observed"

    def test_queue_samples_and_task_spans_have_monotonic_time(self):
        _, log = self._run_logged(FIB_SRC, args=(8,))
        for cls in (QueueDepthSample, TaskFired):
            stamps = [e.ts for e in log.events if isinstance(e, cls)]
            assert stamps, f"no {cls.__name__} events"
            assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    def test_expansions_are_also_seen_by_expansion_subscribers(self):
        compiled = compile_source(FIB_SRC)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, events=(Expansion,))
        result = SequentialExecutor(bus=bus).run(compiled.graph, args=(8,))
        assert len(seen) == result.stats.expansions
        tails = [e for e in seen if isinstance(e, TailExpansion)]
        assert len(tails) == result.stats.tail_expansions


class TestMetricsMatchEngineStats:
    @pytest.mark.parametrize("mode", ["sequential", "simulated"])
    def test_counters_equal_stats(self, mode):
        compiled, reg = cow_program()
        bus = EventBus()
        metrics = attach_metrics(bus)
        if mode == "sequential":
            result = SequentialExecutor(bus=bus).run(
                compiled.graph, args=(5,), registry=reg
            )
        else:
            result = SimulatedExecutor(cray_ymp(4), bus=bus).run(
                compiled.graph, args=(5,), registry=reg
            )
        stats = result.stats
        assert metrics.counter("ops_executed").value == stats.ops_executed
        assert metrics.counter("cow_copies").value == stats.cow_copies
        assert metrics.counter("expansions").value == stats.expansions
        assert (
            metrics.counter("tail_expansions").value == stats.tail_expansions
        )
        assert metrics.counter("tasks_fired").value == stats.tasks_fired
        assert stats.cow_copies > 0, "program must exercise COW"
        assert (
            metrics.counter("cow_bytes").by_label
            == stats.copy_bytes_by_operator
        )

    def test_activation_metrics_match_pool(self):
        compiled = compile_source(FIB_SRC)
        bus = EventBus()
        metrics = attach_metrics(bus)
        result = SequentialExecutor(bus=bus).run(compiled.graph, args=(10,))
        assert (
            metrics.counter("activations_allocated").value
            == result.stats.activation_stats["created"]
        )
        assert (
            metrics.gauge("activations_live").high
            == result.stats.activation_stats["peak_live"]
        )

    def test_op_latency_histograms_by_label(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        bus = EventBus()
        metrics = attach_metrics(bus)
        SimulatedExecutor(cray_ymp(4), bus=bus).run(
            compiled.graph, registry=reg
        )
        hist = metrics.histogram("op_ticks/convolve")
        assert hist.count == 4
        assert hist.max >= 1000.0  # the registered cost hint

    def test_snapshot_is_json_serializable(self):
        compiled, reg = cow_program()
        bus = EventBus()
        metrics = attach_metrics(bus)
        SequentialExecutor(bus=bus).run(compiled.graph, args=(3,), registry=reg)
        snap = json.loads(json.dumps(metrics.snapshot()))
        assert snap["counters"]["ops_executed"]["value"] > 0
        assert "queue_depth/p0" in snap["series"]

    def test_summary_table_renders(self):
        compiled, reg = cow_program()
        bus = EventBus()
        metrics = attach_metrics(bus)
        SequentialExecutor(bus=bus).run(compiled.graph, args=(3,), registry=reg)
        text = metrics.summary_table(unit="seconds")
        assert "ops_executed" in text
        assert "cow_copies" in text


class TestZeroSubscriberTransparency:
    @pytest.mark.parametrize("mode", ["sequential", "simulated"])
    def test_idle_bus_run_is_identical(self, mode):
        compiled, reg = cow_program()

        def run(bus):
            if mode == "sequential":
                return SequentialExecutor(bus=bus).run(
                    compiled.graph, args=(7,), registry=reg
                )
            return SimulatedExecutor(cray_ymp(4), bus=bus).run(
                compiled.graph, args=(7,), registry=reg
            )

        plain = run(None)
        idle = run(EventBus())  # attached but zero subscribers
        assert idle.value == plain.value
        assert idle.stats == plain.stats
        if mode == "simulated":
            assert idle.ticks == plain.ticks

    @pytest.mark.usefixtures("graph_path")
    def test_subscribed_bus_does_not_perturb_results(self):
        compiled, reg = cow_program()
        plain = SequentialExecutor().run(compiled.graph, args=(7,), registry=reg)
        bus = EventBus()
        attach_metrics(bus)
        observed = SequentialExecutor(bus=bus).run(
            compiled.graph, args=(7,), registry=reg
        )
        assert observed.value == plain.value
        assert observed.stats == plain.stats

    def test_engine_drops_inactive_bus(self):
        from repro.runtime import ExecutionState

        compiled = compile_source("main() incr(0)")
        state = ExecutionState(
            compiled.graph, default_registry(), bus=EventBus()
        )
        assert state.bus is None  # zero-subscriber fast path


class TestEventLogBound:
    def test_default_maxlen(self):
        from repro.obs import EVENT_LOG_MAXLEN

        log = EventLog()
        assert log.maxlen == EVENT_LOG_MAXLEN == 1_048_576

    def test_ring_drops_oldest(self):
        from repro.obs import OpStarted

        log = EventLog(maxlen=4)
        bus = EventBus()
        log.attach(bus)
        for i in range(10):
            bus.emit(OpStarted(float(i), f"op{i}"))
        assert len(log.events) == 4
        assert [e.name for e in log.events] == ["op6", "op7", "op8", "op9"]

    def test_unbounded_opt_out(self):
        log = EventLog(maxlen=None)
        assert log.maxlen is None


class TestBlockEvents:
    def test_observe_blocks_emits_and_restores(self):
        from repro.runtime import get_block_hook

        compiled, reg = cow_program()
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        assert get_block_hook() is None
        with observe_blocks(bus):
            assert get_block_hook() is not None
            SequentialExecutor(bus=bus).run(
                compiled.graph, args=(3,), registry=reg
            )
        assert get_block_hook() is None
        retains = log.of_type(BlockRetained)
        releases = log.of_type(BlockReleased)
        assert retains and releases
        assert all(e.rc >= 0 for e in retains + releases)
        # Reference traffic balances: every retained share is released.
        assert sum(e.n for e in retains) == sum(e.n for e in releases)

    def test_cow_event_attribution(self):
        compiled, reg = cow_program()
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        result = SequentialExecutor(bus=bus).run(
            compiled.graph, args=(3,), registry=reg
        )
        copies = log.of_type(CowCopy)
        assert len(copies) == result.stats.cow_copies
        assert all(e.operator == "bump" for e in copies)
        assert all(e.nbytes > 0 for e in copies)


class TestTracerAsSubscriber:
    def test_sequential_trace_equals_bus_tracer(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        bus = EventBus()
        external = Tracer()
        external.attach(bus)
        result = SequentialExecutor(trace=True, bus=bus).run(
            compiled.graph, registry=reg
        )
        assert result.tracer is not None
        assert result.tracer.records == external.records
        labels = [r.label for r in result.tracer.op_records()]
        assert labels.count("convolve") == 4

    def test_threaded_trace_still_records_ops(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        result = ThreadedExecutor(2, trace=True).run(
            compiled.graph, registry=reg
        )
        labels = [r.label for r in result.tracer.op_records()]
        assert labels.count("convolve") == 4

    def test_aggregation_wrappers_share_one_helper(self):
        t = Tracer()
        t.record("a", "op", 3.0)
        t.record("a", "op", 5.0)
        t.record("b", "call", 2.0)
        assert t.totals_by_label() == {"a": 8.0, "b": 2.0}
        assert t.count_by_label() == {"a": 2, "b": 1}
        assert t.max_by_label() == {"a": 5.0, "b": 2.0}
        assert t.aggregate_by_label(min, float("inf")) == {"a": 3.0, "b": 2.0}


class TestMetricPrimitives:
    def test_counter_labels(self):
        c = Counter("x")
        c.inc()
        c.inc(2.0, label="a")
        assert c.value == 3.0
        assert c.by_label == {"a": 2.0}

    def test_gauge_high_water(self):
        g = Gauge("x")
        g.set(5)
        g.add(-3)
        assert g.value == 2
        assert g.high == 5

    def test_histogram_buckets(self):
        h = Histogram("x", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.max == 50.0
        assert h.mean() == pytest.approx(55.5 / 3)

    def test_series_decimates_but_keeps_endpoints_spread(self):
        s = Series("x", max_samples=8)
        for i in range(1000):
            s.append(float(i), float(i))
        assert len(s.samples) < 8
        ts = [t for t, _ in s.samples]
        assert ts == sorted(ts)
        assert ts[-1] > 750  # recent data survives decimation

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.time_series("d") is reg.time_series("d")
