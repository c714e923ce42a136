"""Fast batching smoke: coalesced fires vs singletons, CI-sized.

A seconds-scale check, for CI, that the batched path still (a) produces
bit-identical results on every executor, (b) strictly reduces the IPC
message count on the process executor (the win that exists even on one
CPU), and (c) does not cost wall-clock versus the unbatched path beyond
noise.  It runs montecarlo π at a small batch size.
"""

from __future__ import annotations

import time

from repro.apps.montecarlo.coordination import compile_pi
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
)

N_BATCHES = 16
BATCH_SIZE = 20_000
COSTS = {"pi_batch": 0.004, "mc_combine": 1e-7, "mc_pi": 1e-7}

#: Wall-clock guard headroom: at this size a run is ~5 ms, so the guard
#: is deliberately loose — it catches a batched path that *costs* (a
#: regression back toward per-fire dispatch), not single-ms noise.
HEADROOM = 1.5
REPEATS = 5


def _best_of(make):
    best, result = None, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = make()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_batching_smoke(report):
    compiled = compile_pi(
        seed=12,
        batch_size=BATCH_SIZE,
        optimize_passes=PASS_ORDER + ("fuse",),
    )
    graph, registry = compiled.graph, compiled.registry
    args = (N_BATCHES,)

    ref = SequentialExecutor().run(graph, args=args, registry=registry)

    seq_batched = SequentialExecutor(batch=True).run(
        graph, args=args, registry=registry
    )
    assert seq_batched.value == ref.value, "sequential batched diverged"
    assert seq_batched.stats.fire_batches > 0, (
        "sequential batched run formed no batches"
    )

    thr = ThreadedExecutor(2, batch=True).run(
        graph, args=args, registry=registry
    )
    assert thr.value == ref.value, "threaded batched diverged"

    wall_b, proc_b = _best_of(
        lambda: ProcessExecutor(1, batch=True, measured_costs=COSTS).run(
            graph, args=args, registry=registry
        )
    )
    wall_p, proc_p = _best_of(
        lambda: ProcessExecutor(1, batch=False, measured_costs=COSTS).run(
            graph, args=args, registry=registry
        )
    )
    assert proc_b.value == ref.value, "process batched diverged"
    assert proc_p.value == ref.value, "process unbatched diverged"

    msgs_b = (
        proc_b.stats.ipc_messages_sent + proc_b.stats.ipc_messages_received
    )
    msgs_p = (
        proc_p.stats.ipc_messages_sent + proc_p.stats.ipc_messages_received
    )
    assert proc_b.stats.dispatched_fires == proc_p.stats.dispatched_fires, (
        "batching must not change which fires are dispatched"
    )
    assert msgs_b < msgs_p, (
        f"batching must strictly reduce IPC messages: {msgs_b} vs {msgs_p}"
    )
    assert proc_b.stats.fire_batches > 0, (
        "process batched run formed no remote batches"
    )

    assert wall_b <= wall_p * HEADROOM, (
        f"batched process run must be >= parity with unbatched "
        f"(x{HEADROOM} headroom): {wall_b:.4f}s vs {wall_p:.4f}s"
    )

    report(
        "Batching smoke — montecarlo pi, small",
        f"bit-identical on sequential/threaded/process; IPC messages "
        f"{msgs_p} -> {msgs_b} "
        f"({msgs_p / max(msgs_b, 1):.1f}x fewer), wall "
        f"{wall_p * 1e3:.1f}ms unbatched -> {wall_b * 1e3:.1f}ms batched "
        f"({proc_b.stats.fire_batches} batch(es), "
        f"{proc_b.stats.batched_fires} coalesced fire(s))",
    )
