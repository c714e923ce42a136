"""Batched execution: coalescing, vectorized calls, one-message IPC.

The batched path may only change *how much* work rides each scheduling
and IPC step, never *what* the program computes: single-assignment
semantics make results independent of pop order, so coalescing same-node
ready fires and committing their results in master-assigned sequence must
be bit-identical to firing one at a time.  These tests pin that down for
every executor, plus the moving parts underneath: ``pop_batch``
formation, the ``batch_call`` operator protocol, the plural engine forms,
the grouped wire format's crash salvage, and the observability story
(events, stats, critical-path reconciliation).
"""

import os
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.errors import DeliriumError, RuntimeFailure
from repro.machine.calibrate import suggest_batch_threshold
from repro.obs import EventBus, EventLog, FireBatchFormed, attach_metrics
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    ReadyQueue,
    SequentialExecutor,
    Task,
    ThreadedExecutor,
    default_registry,
)
from repro.runtime.operators import OperatorRegistry, OperatorSpec, batch_call
from repro.runtime.supervise import DEFAULT_BATCH_THRESHOLD

from repro.apps.montecarlo.coordination import compile_pi

GRAPH_PASSES = ("fuse",)


def _compiled_pi(passes=PASS_ORDER + GRAPH_PASSES, batch_size=1500, seed=11):
    return compile_pi(seed=seed, batch_size=batch_size, optimize_passes=passes)


def _pi_reference(compiled, n=16):
    return SequentialExecutor().run(
        compiled.graph, args=(n,), registry=compiled.registry
    )


# ---------------------------------------------------------------------------
# Queue-level batch formation
# ---------------------------------------------------------------------------
class _Act:
    """Stand-in activation: batch_key only needs identity-ish keys."""

    def __init__(self, tag):
        self.template = tag


def _task(tag, node_id, priority=0, seq=0):
    return Task(_Act(tag), node_id, priority, seq)


def _key(task):
    if task.node_id < 0:  # negative node ids model unbatchable nodes
        return None
    return (id(task.activation.template), task.node_id)


class TestPopBatch:
    def test_coalesces_same_key_head_first(self):
        q = ReadyQueue()
        tag = object()
        tasks = [_task(tag, 1, seq=i) for i in range(4)]
        q.push_all(tasks)
        got = q.pop_batch(8, _key)
        assert got == tasks
        assert len(q) == 0

    def test_respects_limit(self):
        q = ReadyQueue()
        tag = object()
        q.push_all([_task(tag, 1, seq=i) for i in range(6)])
        got = q.pop_batch(4, _key)
        assert len(got) == 4
        assert len(q) == 2

    def test_non_matching_tasks_keep_relative_order(self):
        q = ReadyQueue()
        a, b = object(), object()
        mine = [_task(a, 1, seq=i) for i in range(2)]
        other = [_task(b, 2, seq=10 + i) for i in range(3)]
        q.push_all([mine[0], other[0], other[1], mine[1], other[2]])
        got = q.pop_batch(8, _key)
        assert got == mine
        assert [q.pop() for _ in range(3)] == other
        assert len(q) == 0

    def test_none_key_returns_singleton(self):
        q = ReadyQueue()
        tag = object()
        q.push_all([_task(tag, -1), _task(tag, -1)])
        assert len(q.pop_batch(8, _key)) == 1
        assert len(q) == 1

    def test_does_not_cross_priority_classes(self):
        q = ReadyQueue()
        tag = object()
        hi = _task(tag, 1, priority=0)
        lo = _task(tag, 1, priority=2)
        q.push_all([hi, lo])
        got = q.pop_batch(8, _key)
        assert got == [hi]
        assert q.pop() is lo

    def test_limit_one_is_plain_pop(self):
        q = ReadyQueue()
        tag = object()
        q.push_all([_task(tag, 1, seq=i) for i in range(3)])
        assert len(q.pop_batch(1, _key)) == 1
        assert len(q) == 2


# ---------------------------------------------------------------------------
# The operator protocol
# ---------------------------------------------------------------------------
class TestBatchCall:
    def _spec(self, batch_fn=None):
        return OperatorSpec(name="sq", fn=lambda x: x * x, batch_fn=batch_fn)

    def test_fallback_loops_plain_fn(self):
        spec = self._spec()
        assert batch_call(spec, [(2,), (3,), (4,)]) == [4, 9, 16]

    def test_vectorized_form_used_when_present(self):
        calls = []

        def many(args_lists):
            calls.append(len(args_lists))
            return [x * x for (x,) in args_lists]

        spec = self._spec(batch_fn=many)
        assert batch_call(spec, [(2,), (3,)]) == [4, 9]
        assert calls == [2]

    def test_wrong_result_count_raises(self):
        spec = self._spec(batch_fn=lambda args_lists: [1])
        with pytest.raises(RuntimeFailure, match="1 result"):
            batch_call(spec, [(2,), (3,)])

    def test_register_batch_on_mutator_rejected(self):
        reg = OperatorRegistry()
        with pytest.raises(DeliriumError, match="batch form"):

            @reg.register(name="bump", modifies=(0,), batch=lambda c: c)
            def bump(a):
                return a

    def test_register_batch_form_lands_on_spec(self):
        reg = OperatorRegistry()

        @reg.register(name="sq", pure=True, batch=lambda c: [x * x for (x,) in c])
        def sq(x):
            return x * x

        assert reg.get("sq").batch_fn is not None
        assert batch_call(reg.get("sq"), [(5,)]) == [25]


class TestSuggestBatchThreshold:
    def test_no_measurements_gives_default(self):
        assert suggest_batch_threshold(None) == DEFAULT_BATCH_THRESHOLD
        assert suggest_batch_threshold({}) == DEFAULT_BATCH_THRESHOLD

    def test_nothing_dispatched_gives_default(self):
        assert (
            suggest_batch_threshold({"cheap": 1e-6})
            == DEFAULT_BATCH_THRESHOLD
        )

    def test_cheap_operators_batch_wide(self):
        wide = suggest_batch_threshold({"op": 0.002})
        narrow = suggest_batch_threshold({"op": 0.050})
        assert wide > narrow
        assert narrow >= 4  # the floor

    def test_clamped_to_bounds(self):
        assert suggest_batch_threshold({"op": 1.0}) == 4
        assert suggest_batch_threshold({"op": 0.002}, ceiling=8) == 8


# ---------------------------------------------------------------------------
# Executor parity (the tentpole's correctness claim)
# ---------------------------------------------------------------------------
class TestBatchedParity:
    def test_sequential(self):
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = SequentialExecutor(batch=True).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == ref.value
        assert got.stats.fire_batches > 0
        assert got.stats.batched_fires > 1

    def test_threaded(self):
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ThreadedExecutor(3, batch=True).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == ref.value

    def test_process(self):
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ProcessExecutor(
            2, batch=True, measured_costs={"pi_batch": 0.004}
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert got.value == ref.value
        assert got.stats.fire_batches > 0

    def test_process_batch_off_also_matches(self):
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ProcessExecutor(
            2, batch=False, measured_costs={"pi_batch": 0.004}
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert got.value == ref.value
        assert got.stats.fire_batches == 0

    def test_loop_fallback_operator_matches(self):
        # option_batch registers no batch form: coalesced groups run the
        # fallback loop, still one scheduling step per group.
        from repro.apps.montecarlo.coordination import compile_option

        compiled = compile_option(
            seed=5,
            batch_size=800,
            optimize_passes=PASS_ORDER + GRAPH_PASSES,
        )
        ref = SequentialExecutor().run(
            compiled.graph, args=(12,), registry=compiled.registry
        )
        got = SequentialExecutor(batch=True).run(
            compiled.graph, args=(12,), registry=compiled.registry
        )
        assert got.value == ref.value
        assert got.stats.fire_batches > 0

    def test_batch_threshold_one_degenerates_to_unbatched(self):
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = SequentialExecutor(batch=True, batch_threshold=1).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == ref.value
        assert got.stats.fire_batches == 0


class TestBatchingObservability:
    def test_fire_batch_formed_events_and_metrics(self):
        compiled = _compiled_pi()
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        metrics = attach_metrics(bus)
        got = SequentialExecutor(batch=True, bus=bus).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        formed = log.of_type(FireBatchFormed)
        assert formed
        assert sum(e.size for e in formed) == got.stats.batched_fires
        assert all(e.size > 1 for e in formed)
        assert all(not e.remote for e in formed)
        assert (
            metrics.counter("fire_batches").value == got.stats.fire_batches
        )
        assert (
            metrics.counter("batched_fires").value == got.stats.batched_fires
        )

    def test_remote_batches_marked_remote(self):
        compiled = _compiled_pi()
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        ProcessExecutor(
            1, batch=True, bus=bus, measured_costs={"pi_batch": 0.004}
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        formed = log.of_type(FireBatchFormed)
        assert formed
        assert any(e.remote for e in formed)

    def test_ipc_message_drop(self):
        compiled = _compiled_pi()
        costs = {"pi_batch": 0.004, "mc_combine": 1e-7, "mc_pi": 1e-7}
        batched = ProcessExecutor(
            1, batch=True, measured_costs=costs
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        plain = ProcessExecutor(
            1, batch=False, measured_costs=costs
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert batched.value == plain.value
        assert batched.stats.dispatched_fires == plain.stats.dispatched_fires
        sent_b = batched.stats.ipc_messages_sent
        sent_p = plain.stats.ipc_messages_sent
        assert sent_b < sent_p
        per_fire_b = (
            sent_b + batched.stats.ipc_messages_received
        ) / batched.stats.dispatched_fires
        per_fire_p = (
            sent_p + plain.stats.ipc_messages_received
        ) / plain.stats.dispatched_fires
        assert per_fire_p / per_fire_b >= 4.0

    def test_critical_path_reconciles_with_batching(self):
        from repro.obs import RunContext

        compiled = _compiled_pi()
        for make in (
            lambda ctx: SequentialExecutor(batch=True, run_ctx=ctx),
            lambda ctx: ProcessExecutor(
                2,
                batch=True,
                run_ctx=ctx,
                measured_costs={"pi_batch": 0.004},
            ),
        ):
            ctx = RunContext(
                "batch-critpath",
                metrics=True,
                flight_recorder=False,
                record_events=True,
            )
            result = make(ctx).run(
                compiled.graph, args=(16,), registry=compiled.registry
            )
            report = ctx.critical_path(result.wall_seconds)
            assert report.reconciliation_error <= 0.05


# ---------------------------------------------------------------------------
# Crash salvage: a grouped message dies mid-batch
# ---------------------------------------------------------------------------
SALVAGE_SRC = "main(n) par_reduce(combine, work, 0, n)"


def _salvage_registry():
    reg = default_registry()
    local = OperatorRegistry()

    def _die(args_lists):  # pragma: no cover - killed before returning
        os.kill(os.getpid(), signal.SIGKILL)

    @local.register(name="work", pure=True, cost=3e6, batch=_die)
    def work(i):
        return (i * i, 1)

    @local.register(name="combine", pure=True, cost=5.0)
    def combine(a, b):
        return (a[0] + b[0], a[1] + b[1])

    return reg.merged_with(local)


class TestMidBatchCrashSalvage:
    def test_group_lost_to_sigkill_salvaged_as_singletons(self):
        reg = _salvage_registry()
        compiled = compile_source(
            SALVAGE_SRC,
            registry=reg,
            prelude=True,
            optimize_passes=PASS_ORDER + GRAPH_PASSES,
        )
        ref = SequentialExecutor().run(
            compiled.graph, args=(8,), registry=reg
        )
        # The batch form SIGKILLs the worker, losing the whole grouped
        # message; every member must come back as a plain singleton retry
        # (which runs the scalar fn) and the result must be unchanged.
        got = ProcessExecutor(
            2,
            batch=True,
            measured_costs={"work": 0.01, "combine": 1e-7},
            fault_policy=FaultPolicy(
                max_retries=3, backoff=0.0, max_respawns=8
            ),
        ).run(compiled.graph, args=(8,), registry=reg)
        assert got.value == ref.value
        assert got.stats.worker_crashes >= 1
        assert got.stats.fires_retried >= 2


# ---------------------------------------------------------------------------
# The hit counter
# ---------------------------------------------------------------------------
class TestHitCounter:
    def test_pi_batch_counts_its_samples(self):
        from repro.apps.montecarlo import model

        hits, samples = model.pi_batch(3, 0, 10_000)
        assert samples == 10_000
        assert 0 < hits < 10_000


# ---------------------------------------------------------------------------
# The property: batched == unbatched, everywhere
# ---------------------------------------------------------------------------
class TestBatchProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        executor=st.sampled_from(["sequential", "threaded"]),
        workers=st.integers(1, 3),
        fuse=st.booleans(),
        threshold=st.integers(2, 40),
        n=st.integers(2, 12),
        seed=st.integers(0, 99),
    )
    def test_batched_equals_unbatched(
        self, executor, workers, fuse, threshold, n, seed
    ):
        passes = PASS_ORDER + (GRAPH_PASSES if fuse else ())
        compiled = compile_pi(
            seed=seed, batch_size=64, optimize_passes=passes
        )
        if executor == "sequential":
            make = lambda batch: SequentialExecutor(
                batch=batch, batch_threshold=threshold
            )
        else:
            make = lambda batch: ThreadedExecutor(
                workers, batch=batch, batch_threshold=threshold
            )
        plain = make(False).run(
            compiled.graph, args=(n,), registry=compiled.registry
        )
        batched = make(True).run(
            compiled.graph, args=(n,), registry=compiled.registry
        )
        assert batched.value == plain.value

    @settings(max_examples=4, deadline=None)
    @given(
        n=st.integers(4, 12),
        seed=st.integers(0, 9),
    )
    def test_process_batched_equals_unbatched(self, n, seed):
        compiled = compile_pi(
            seed=seed, batch_size=64, optimize_passes=PASS_ORDER + GRAPH_PASSES
        )
        costs = {"pi_batch": 0.004}
        plain = ProcessExecutor(2, batch=False, measured_costs=costs).run(
            compiled.graph, args=(n,), registry=compiled.registry
        )
        batched = ProcessExecutor(2, batch=True, measured_costs=costs).run(
            compiled.graph, args=(n,), registry=compiled.registry
        )
        assert batched.value == plain.value
