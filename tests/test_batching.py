"""Peer expansion: a call expands together with its ready peers.

A run expands peers together exactly when it has a dispatch policy and
no fault injector (a process run), and that may only change *when* calls
expand, never *what* the program computes: single-assignment semantics
make results independent of pop order, so expanding same-node ready
calls together must be bit-identical to expanding them one at a time
(a peer-group cap of one, ``executors._GROUP_MAX = 1``; every cap from
1 to 32 is a cell of ``tests/test_oracle.py``'s process matrix).  These
tests pin the queue's ``pop_batch`` formation, the cap on a group, the
one-call-per-message wire shape, the salvage of queued calls whose
worker dies, and critical-path reconciliation.
"""

import os
import signal
import time

import pytest

from repro import compile_source
from repro.apps import queens
from repro.compiler.passes.pipeline import FULL_PASS_ORDER, PASS_ORDER
from repro.obs import (
    EventBus, TaskFired, WorkerCrashed, WorkerRespawned, attach_metrics,
)
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    ReadyQueue,
    SequentialExecutor,
    Task,
    ThreadedExecutor,
    default_registry,
    executors,
)
from repro.runtime.operators import OperatorRegistry
from repro.runtime.supervise import Supervisor
from repro.runtime.workers import WorkerPool

from repro.apps.montecarlo.coordination import compile_pi

from .programs import Fold

GRAPH_PASSES = ("fuse",)

#: Measured costs that send the pi leaves to the workers and keep the
#: glue here.
PI_COSTS = {"pi_batch": 0.004, "mc_combine": 1e-7, "mc_pi": 1e-7}


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
# Executor parity (the tentpole's correctness claim)
# ---------------------------------------------------------------------------
class TestBatchedParity:
    def test_sequential(self, monkeypatch):
        # No dispatch policy: calls expand one at a time.
        groups = _record_groups(monkeypatch)
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = SequentialExecutor(trace=True).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == ref.value
        assert groups == []

    def test_threaded(self, monkeypatch):
        groups = _record_groups(monkeypatch)
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ThreadedExecutor(3).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == ref.value
        assert groups == []

    def test_process(self, monkeypatch):
        groups = _record_groups(monkeypatch)
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ProcessExecutor(
            2, measured_costs={"pi_batch": 0.004}
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert got.value == ref.value
        assert max(taken for _, taken in groups) > 0

    def test_process_batch_off_also_matches(self, monkeypatch):
        monkeypatch.setattr(executors, "_GROUP_MAX", 1)
        compiled = _compiled_pi()
        ref = _pi_reference(compiled)
        got = ProcessExecutor(
            2, measured_costs={"pi_batch": 0.004}
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert got.value == ref.value

    def test_an_injector_switches_peer_expansion_off(self, monkeypatch):
        from repro.faults import FaultSpec

        groups = _record_groups(monkeypatch)
        compiled = _compiled_pi()
        got = ProcessExecutor(
            1,
            measured_costs=PI_COSTS,
            fault_spec=FaultSpec.parse("raise:op=no_such_operator,nth=1"),
        ).run(compiled.graph, args=(16,), registry=compiled.registry)
        assert got.value == _pi_reference(compiled).value
        assert groups == []

    def test_option_pricer_matches(self):
        from repro.apps.montecarlo.coordination import compile_option

        compiled = compile_option(
            seed=5,
            batch_size=800,
            optimize_passes=PASS_ORDER + GRAPH_PASSES,
        )
        ref = SequentialExecutor().run(
            compiled.graph, args=(12,), registry=compiled.registry
        )
        got = ProcessExecutor(1).run(
            compiled.graph, args=(12,), registry=compiled.registry
        )
        assert got.value == ref.value


class TestBatchingObservability:
    def test_critical_path_reconciles_with_batching(self):
        from repro.obs import RunContext

        compiled = _compiled_pi()
        for make in (
            lambda ctx: SequentialExecutor(run_ctx=ctx),
            lambda ctx: ProcessExecutor(
                2,
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda bus: SequentialExecutor(bus=bus),
            lambda bus: ThreadedExecutor(2, bus=bus),
            lambda bus: ProcessExecutor(1, bus=bus, measured_costs=PI_COSTS),
        ],
        ids=["sequential", "threaded", "process"],
    )
    def test_metrics_agree_with_stats(self, make):
        compiled = _compiled_pi()
        bus = EventBus()
        metrics = attach_metrics(bus)
        got = make(bus).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == _pi_reference(compiled).value
        stats = got.stats
        assert metrics.counter("tasks_fired").value == stats.tasks_fired
        assert metrics.counter("expansions").value == stats.expansions > 0
        assert (
            metrics.counter("ops_dispatched").value == stats.dispatched_fires
        )

    def test_dispatched_calls_span_on_worker_tracks(self):
        compiled = _compiled_pi()
        bus = EventBus()
        spans = []
        bus.subscribe(spans.append, [TaskFired])
        got = ProcessExecutor(1, bus=bus, measured_costs=PI_COSTS).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        remote = [s for s in spans if s.processor > 0]
        assert got.stats.dispatched_fires > 0
        assert len(remote) == got.stats.dispatched_fires
        assert {s.processor for s in remote} == {1}
        assert all(s.kind == "op" for s in remote)


# ---------------------------------------------------------------------------
# The cap on a group
# ---------------------------------------------------------------------------
def _queens_program(n=6):
    registry = queens.make_registry(n)
    compiled = compile_source(
        queens.queens_source(n),
        registry=registry,
        optimize_passes=FULL_PASS_ORDER,
    )
    return compiled.graph, registry


def _record_groups(monkeypatch):
    """Record ``(limit, peers taken)`` for every peer collection."""
    groups = []
    take_peers = ReadyQueue.take_peers

    def recording(self, head, k, limit, key):
        peers = take_peers(self, head, k, limit, key)
        groups.append((limit, len(peers)))
        return peers

    monkeypatch.setattr(ReadyQueue, "take_peers", recording)
    return groups


def _schedule_free(stats):
    return (
        stats.tasks_fired, stats.ops_executed, stats.expansions,
        stats.fused_fires,
    )


@pytest.mark.usefixtures("graph_path")
class TestPeerGroups:
    def test_a_group_never_exceeds_the_cap(self, monkeypatch):
        graph, registry = _queens_program()
        plain = SequentialExecutor().run(graph, (), registry)
        monkeypatch.setattr(executors, "_GROUP_MAX", 4)
        groups = _record_groups(monkeypatch)
        got = ProcessExecutor(1).run(graph, (), registry)
        assert got.value == plain.value
        assert _schedule_free(got.stats) == _schedule_free(plain.stats)
        assert groups
        assert {limit for limit, _ in groups} == {3}
        assert max(taken for _, taken in groups) == 3

    def test_a_cap_of_one_degenerates_to_unbatched(self, monkeypatch):
        graph, registry = _queens_program()
        plain = SequentialExecutor().run(graph, (), registry)
        monkeypatch.setattr(executors, "_GROUP_MAX", 1)
        groups = _record_groups(monkeypatch)
        got = ProcessExecutor(1).run(graph, (), registry)
        assert got.value == plain.value
        assert _schedule_free(got.stats) == _schedule_free(plain.stats)
        assert all(taken == 0 for _, taken in groups)


# ---------------------------------------------------------------------------
# The wire: every message carries one call, every reply one result
# ---------------------------------------------------------------------------
class TestOneCallPerMessage:
    def test_each_dispatched_call_is_one_message_each_way(self):
        compiled = _compiled_pi()
        got = ProcessExecutor(1, measured_costs=PI_COSTS).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == _pi_reference(compiled).value
        stats = got.stats
        assert stats.dispatched_fires == 16
        assert stats.ipc_messages_sent == stats.dispatched_fires
        assert stats.ipc_messages_received == stats.dispatched_fires

    def test_peer_expansion_dispatches_the_same_calls(self, monkeypatch):
        compiled = _compiled_pi()
        runs = []
        for group_max in (1, executors._GROUP_MAX):
            monkeypatch.setattr(executors, "_GROUP_MAX", group_max)
            runs.append(
                ProcessExecutor(1, measured_costs=PI_COSTS).run(
                    compiled.graph, args=(16,), registry=compiled.registry
                )
            )
        plain, batched = runs
        assert batched.value == plain.value
        assert batched.stats.dispatched_fires == plain.stats.dispatched_fires
        for run in runs:
            assert run.stats.ipc_messages_received == run.stats.dispatched_fires

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_message_carries_one_call(self, workers, monkeypatch):
        sent, replies = [], []
        submit_to = WorkerPool.submit_to
        absorb = Supervisor._absorb

        def recording_submit(self, i, message):
            [call] = message[1]
            sent.append(call)
            submit_to(self, i, message)

        def recording_absorb(self, message):
            replies.append(message)
            absorb(self, message)

        monkeypatch.setattr(WorkerPool, "submit_to", recording_submit)
        monkeypatch.setattr(Supervisor, "_absorb", recording_absorb)
        compiled = _compiled_pi()
        got = ProcessExecutor(workers, measured_costs=PI_COSTS).run(
            compiled.graph, args=(16,), registry=compiled.registry
        )
        assert got.value == _pi_reference(compiled).value
        # ``(call_id, op_name, enc_args, rbid)`` out, one result back.
        assert {len(call) for call in sent} == {4}
        assert {call[1] for call in sent} == {"pi_batch"}
        assert len(sent) == got.stats.ipc_messages_sent == 16
        assert {len(reply) for reply in replies} == {7}
        assert sorted(r[1] for r in replies) == sorted(c[0] for c in sent)


# ---------------------------------------------------------------------------
# Crash salvage: a worker dies with calls queued behind the one it runs
# ---------------------------------------------------------------------------
SALVAGE_SRC = "main(n) par_reduce(combine, work, 0, n)"
SALVAGE_N = 8
KILLER = SALVAGE_N - 1


def _salvage_registry(ledger):
    """``work(KILLER)`` SIGKILLs its worker the first time it runs; every
    run of ``work`` first appends its argument to ``ledger``.

    ``combine`` is slow on the master, so the worker's replies pile up
    in the pipe while the master is busy and are still unread when it
    sees the worker die: the crash path has to salvage them.
    """
    reg = default_registry()
    local = OperatorRegistry()
    marker = f"{ledger}.killed"
    master = os.getpid()

    @local.register(name="work", pure=True, cost=3e6)
    def work(i):
        with open(ledger, "a") as fh:
            fh.write(f"{i}\n")
        if i == KILLER and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return (i * i, 1)

    @local.register(name="combine", pure=True, cost=5.0)
    def combine(a, b):
        if os.getpid() == master:
            time.sleep(0.05)
        return (a[0] + b[0], a[1] + b[1])

    return reg.merged_with(local)


def _salvage_run(tmp_path, bus=None):
    ledger = str(tmp_path / "ledger")
    reg = _salvage_registry(ledger)
    compiled = compile_source(
        SALVAGE_SRC,
        registry=reg,
        prelude=True,
        optimize_passes=PASS_ORDER + GRAPH_PASSES,
    )
    got = ProcessExecutor(
        1,
        measured_costs={"work": 0.01, "combine": 1e-7},
        fault_policy=FaultPolicy(max_retries=3, backoff=0.0, max_respawns=8),
        bus=bus,
    ).run(compiled.graph, args=(SALVAGE_N,), registry=reg)
    with open(ledger) as fh:
        ran = [int(line) for line in fh]
    return got, ran


class TestQueuedCallsCrashSalvage:
    def test_call_lost_to_sigkill_is_refired(self, tmp_path):
        faults = Fold(None, WorkerCrashed, WorkerRespawned)
        got, _ = _salvage_run(tmp_path, faults.bus)
        squares = sum(i * i for i in range(SALVAGE_N))
        assert got.value == (squares, SALVAGE_N)
        assert faults["worker_crashes"] == faults["worker_respawns"] == 1
        assert got.stats.fires_retried >= 1

    def test_calls_that_replied_before_the_crash_are_not_rerun(
        self, tmp_path
    ):
        _, ran = _salvage_run(tmp_path)
        # Each call streams its own reply, and the crash path drains the
        # dead worker's pipe before it re-fires what is still owed: the
        # killed call runs again, and the calls after it run once.
        assert sorted(set(ran)) == list(range(SALVAGE_N))
        assert ran.count(KILLER) == 2
        assert all(ran.count(i) == 1 for i in range(SALVAGE_N) if i != KILLER)


# ---------------------------------------------------------------------------
# One body per operator
# ---------------------------------------------------------------------------
def test_register_takes_no_batch_form():
    reg = OperatorRegistry()
    with pytest.raises(TypeError):
        reg.register(name="sq", pure=True, batch=lambda calls: calls)


# ---------------------------------------------------------------------------
# The hit counter
# ---------------------------------------------------------------------------
class TestHitCounter:
    def test_pi_batch_counts_its_samples(self):
        from repro.apps.montecarlo import model

        hits, samples = model.pi_batch(3, 0, 10_000)
        assert samples == 10_000
        assert 0 < hits < 10_000
