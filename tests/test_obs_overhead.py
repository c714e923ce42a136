"""Guard: the event bus must cost (almost) nothing when nobody listens.

The observability layer's contract is that a run constructed with no bus —
or with a bus that has zero subscribers — executes the same hot path as an
uninstrumented build.  Structurally, every instrumented component drops an
inactive bus to ``None`` at construction/run time, so the per-task cost is
a single ``is not None`` check.  This file asserts both the structural
property (for a bare bus and for a run context's) and the measured
wall-time consequence on the overhead benchmark's workload (``bench_overhead.py``: the retina model on a
simulated 4-processor Cray Y-MP).
"""

import dataclasses
import gc
import time
from contextlib import nullcontext

import pytest

from repro import compile_source
from repro.apps import queens
from repro.apps.loganalytics import sequential_stats, stream_logs
from repro.apps.retina import RetinaConfig, compile_retina
from repro.machine import SimulatedExecutor, cray_ymp
from repro.obs import BlockAllocated, CowCopy, EventBus, RunContext, observe_blocks
from repro.runtime import ExecutionState, SequentialExecutor, blocks
from repro.runtime.engine import EngineStats
from repro.runtime.executors import resolve_bus

from tests.conftest import recursive_payload_nbytes

# Paired-ratio comparison, as ``bench/`` measures: every idle-bus batch is
# flanked by two bare batches and judged against their mean, and the
# verdict is the median of those per-pair ratios.  The host's speed
# drifts by 10-20% on a scale of tenths of a second; a ratio of minima
# over two unpaired series caught that drift one run in eight.  The
# workload runs in ~15 ms, so (2 x BATCHES + 1) x RUNS ~= 3 s total.
RUNS_PER_BATCH = 6
BATCHES = 7
# ISSUE bound is 5%.
MAX_OVERHEAD = 1.05


def _batch_seconds(run, n=RUNS_PER_BATCH):
    t0 = time.perf_counter()
    for _ in range(n):
        run()
    return time.perf_counter() - t0


def test_inactive_bus_is_dropped_at_construction():
    compiled = compile_retina(1, RetinaConfig())
    es = ExecutionState(
        compiled.graph, compiled.registry, bus=EventBus()
    )
    assert es.bus is None  # no subscribers -> no bus on the hot path


def test_zero_subscriber_run_context_is_dropped_too():
    """A run context with every subscriber off hands the run a bus nobody
    listens to, and ``resolve_bus`` drops it: the context plumbing reopens
    no per-fire cost, and the run takes the bare run's path."""
    ctx = RunContext(metrics=False, flight_recorder=False)
    assert resolve_bus(None, False, ctx) == (None, None)
    compiled = compile_retina(2, RetinaConfig())
    bare = SequentialExecutor().run(compiled.graph, registry=compiled.registry)
    monitored = SequentialExecutor(run_ctx=ctx).run(
        compiled.graph, registry=compiled.registry
    )
    assert monitored.value.signature() == bare.value.signature()
    for counter in ("tasks_fired", "expansions", "ops_executed", "cow_copies"):
        assert getattr(monitored.stats, counter) == getattr(bare.stats, counter)


def test_zero_subscriber_results_identical():
    compiled = compile_retina(1, RetinaConfig())
    bare = SimulatedExecutor(cray_ymp(4)).run(
        compiled.graph, registry=compiled.registry
    )
    idle = SimulatedExecutor(cray_ymp(4), bus=EventBus()).run(
        compiled.graph, registry=compiled.registry
    )
    assert bare.ticks == idle.ticks
    assert bare.stats.ops_executed == idle.stats.ops_executed
    assert bare.stats.cow_copies == idle.stats.cow_copies


def test_zero_subscriber_overhead_under_five_percent():
    compiled = compile_retina(2, RetinaConfig())

    def run_bare():
        SimulatedExecutor(cray_ymp(4)).run(
            compiled.graph, registry=compiled.registry
        )

    def run_idle_bus():
        SimulatedExecutor(cray_ymp(4), bus=EventBus()).run(
            compiled.graph, registry=compiled.registry
        )

    # Warm-up: imports, code objects, allocator pools.
    run_bare()
    run_idle_bus()

    bare_batches = []
    idle_batches = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        bare_batches.append(_batch_seconds(run_bare))
        for _ in range(BATCHES):
            idle_batches.append(_batch_seconds(run_idle_bus))
            bare_batches.append(_batch_seconds(run_bare))
    finally:
        if gc_was_enabled:
            gc.enable()

    ratios = sorted(
        idle / ((before + after) / 2)
        for idle, before, after in zip(
            idle_batches, bare_batches, bare_batches[1:]
        )
    )
    ratio = ratios[len(ratios) // 2]
    assert ratio < MAX_OVERHEAD, (
        f"zero-subscriber event bus cost {(ratio - 1):.1%} wall time "
        f"(median of {BATCHES} idle-bus batches of {RUNS_PER_BATCH} runs, "
        f"each against the two bare batches around it; all ratios: "
        f"{', '.join(f'{r:.3f}' for r in ratios)}); budget is "
        f"{MAX_OVERHEAD - 1:.0%}"
    )


# ---------------------------------------------------------------------------
# Block sizes are measured on demand, never on the unobserved firing path.
# ---------------------------------------------------------------------------
LOG_SEED = 2026
N_LOG_BATCHES = 5


@pytest.mark.parametrize("hooked", [False, True])
def test_unobserved_stream_never_sizes_a_block(monkeypatch, hooked):
    calls = []
    real = blocks.payload_nbytes
    monkeypatch.setattr(
        blocks, "payload_nbytes", lambda p: calls.append(1) or real(p)
    )
    # hooked: the block hook is installed, but nobody wants a block event.
    bus = EventBus()
    bus.subscribe(lambda e: None, events=(CowCopy,))
    with observe_blocks(bus) if hooked else nullcontext():
        result = stream_logs(N_LOG_BATCHES, seed=LOG_SEED)
    assert result.items == N_LOG_BATCHES
    assert result.value == sequential_stats(LOG_SEED, N_LOG_BATCHES)
    assert calls == []
    # The probe is live: one read of one block's size is one call.
    assert blocks.DataBlock([1]).nbytes > 0 and len(calls) == 1


def test_unobserved_copies_never_size_a_block(monkeypatch):
    """Which operator forced which copies, and how many bytes, is the
    ``CowCopy`` fold: a run nobody observes counts its copies and makes
    them, and sizes none of the blocks it copies."""
    calls = []
    real = blocks.payload_nbytes
    monkeypatch.setattr(
        blocks, "payload_nbytes", lambda p: calls.append(1) or real(p)
    )
    registry = queens.make_registry(5)
    graph = compile_source(queens.queens_source(5), registry=registry).graph
    result = SequentialExecutor().run(graph, (), registry)
    assert result.stats.cow_copies > 0
    assert calls == []
    # The probe is live: a ``CowCopy`` subscriber sizes each copied block
    # (once: the size is memoised, and one board may be copied twice).
    bus = EventBus()
    sizes = []
    bus.subscribe(lambda e: sizes.append(e.nbytes), events=(CowCopy,))
    observed = SequentialExecutor(bus=bus).run(graph, (), registry)
    assert observed.value == result.value
    assert len(sizes) == observed.stats.cow_copies == result.stats.cow_copies
    assert 0 < len(calls) <= len(sizes)


def test_engine_stats_keeps_no_per_operator_map():
    """Counters only: ``activation_stats`` is the one map a run's stats
    build, so an ``EngineStats()`` costs no per-operator dicts."""
    maps = [
        f.name for f in dataclasses.fields(EngineStats)
        if f.default_factory is not dataclasses.MISSING
    ]
    assert maps == ["activation_stats"]


def test_block_allocated_reports_the_construction_time_size():
    expected = []
    reported = []
    bus = EventBus()
    bus.subscribe(
        lambda e: reported.append(e.nbytes), events=(BlockAllocated,)
    )
    with observe_blocks(bus):
        emit = blocks.get_block_hook()

        def spy(kind, block, n):
            if kind == "alloc":
                expected.append(recursive_payload_nbytes(block.payload))
            emit(kind, block, n)

        blocks.set_block_hook(spy)
        stream_logs(N_LOG_BATCHES, seed=LOG_SEED)
    # 12 blocks per batch at the parent commit: the batch, four shards,
    # four shard results, the combined partial, the new aggregate, and
    # the carried aggregate re-wrapped as the next item's argument.
    assert len(reported) == 12 * N_LOG_BATCHES
    assert reported == expected
