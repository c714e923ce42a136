"""Per-layer probes of the traced pass (layer = module name).

Every probe measures its layer from outside: it times calls into the
layer's public functions on the workload's own program and payloads, or
reads the public counters a run leaves behind (``EngineStats``,
``CompiledProgram.pass_seconds``, ``StreamResult``).  Each returns a
``{metric name: number}`` dict; a metric that does not apply to the
workload at hand (``stream.*`` on a batch program) reads 0.

``PROBES`` at the bottom is the list the traced child walks.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

from . import ROOT, WORK, add_src_to_path
from .clock import median_run, per_call, ratio, timed
from .spans import SpanRecorder
from .workloads import N_WORKERS, LogStream, SetUp

add_src_to_path()

from repro.compiler.passes.pipeline import (  # noqa: E402
    FULL_PASS_ORDER,
    PASS_ORDER,
)
from repro.graph.serialize import dumps, loads  # noqa: E402
from repro.graph.validate import validate_program  # noqa: E402
from repro.lang.lexer import tokenize  # noqa: E402
from repro.lang.parser import Parser  # noqa: E402
from repro.lang.prelude import PRELUDE_SOURCE  # noqa: E402
from repro.lang.preprocessor import preprocess  # noqa: E402
from repro.machine import SimulatedExecutor, cray_ymp  # noqa: E402
from repro.obs import EventBus  # noqa: E402
from repro.obs.events import ShmBlockCreated  # noqa: E402
from repro.obs.runctx import RunContext  # noqa: E402
from repro.runtime import (  # noqa: E402
    OperatorRegistry,
    ReadyQueue,
    Task,
    WorkerPool,
    read_checkpoint,
    wrap_payload,
)
from repro.runtime.blocks import copy_payload, payload_nbytes  # noqa: E402
from repro.runtime.workers import decode_value, encode_value  # noqa: E402
from repro.tools.cache import cache_key, load_cached, store_cached  # noqa: E402


class Context(SetUp):
    """The set-up workload plus what the traced child measures before
    the probes run: untraced medians, counters and the recorded spans."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        super().__init__(name, seed, smoke)
        #: Untraced medians of the same child (seconds).
        self.probe_s = self.compile_s = self.ref_s = 0.0
        self.seq_s = self.proc1_s = self.none1_s = 0.0
        self.proc2_s = self.thr2_s = 0.0
        self.mem_s = 0.0  #: streams only: MemorySink, no checkpoint
        #: Counters of the last untraced sequential run and of the last
        #: 1-worker process run (the configuration ``proc1_x`` gates).
        self.seq_stats: Any = None
        self.proc_stats: Any = None
        self.recorder = SpanRecorder()
        self.traced_wall_s = self.untraced_wall_s = 0.0
        self.iterations = 0
        #: Measured encode+decode seconds per wire byte (workers probe).
        self.transport_s_per_byte = 0.0

    @property
    def is_stream(self) -> bool:
        return isinstance(self.wl, LogStream)


def stat(stats: Any, name: str) -> Any:
    """One engine counter from ``EngineStats`` or a stream's summed dict."""
    if isinstance(stats, dict):
        return stats.get(name, 0)
    return getattr(stats, name, 0)


# ---------------------------------------------------------------------------
# Compile side: lang, compiler, graph, cache, cli
# ---------------------------------------------------------------------------


def lang(ctx: Context) -> dict[str, float]:
    wl = ctx.wl
    text = PRELUDE_SOURCE + "\n" + wl.source if wl.prelude else wl.source
    pre_s, expanded = median_run(lambda: preprocess(text, wl.defines))
    lex_s, tokens = median_run(lambda: tokenize(expanded))
    parse_s, _ = median_run(lambda: Parser(tokens).parse_program())
    return {
        "lang.preprocess_s": pre_s,
        "lang.lex_s": lex_s,
        "lang.parse_s": parse_s,
        "lang.tokens": len(tokens),
    }


def compiler(ctx: Context) -> dict[str, float]:
    wl = ctx.wl
    full = wl.compile()
    nopass_s, plain = timed(lambda: wl.compile(None))
    ast_only = wl.compile(PASS_ORDER)
    seconds = full.pass_seconds
    report = full.optimization.stats if full.optimization else {}
    # The full-pass graph against the unoptimized one, on the same input.
    runner = wl.runner("sequential", plain)
    try:
        plain_s, (output, _) = median_run(runner)
    finally:
        runner.close()
    ctx.check("compiler.run_opt_x", output)
    return {
        "compiler.nopass_s": nopass_s,
        "compiler.env_s": seconds["Env Analysis"],
        "compiler.opt_s": seconds["Optimization"],
        "compiler.graphgen_s": ast_only.pass_seconds["Graph Conversion"],
        "compiler.graph_passes_s": max(
            seconds["Graph Conversion"]
            - ast_only.pass_seconds["Graph Conversion"],
            0.0,
        ),
        "compiler.nodes_out": full.graph.total_nodes(),
        "compiler.templates_out": len(full.graph.templates),
        "compiler.fused_nodes": report.get("fuse.nodes_removed", 0),
        "compiler.donated_edges": report.get("donate.edges_donated", 0),
        "compiler.run_opt_x": ratio(ctx.seq_s, plain_s),
    }


def graph(ctx: Context) -> dict[str, float]:
    program = ctx.prog.graph
    validate_s, _ = median_run(lambda: validate_program(program))
    dump_s, text = median_run(lambda: dumps(program))
    load_s, _ = median_run(lambda: loads(text))
    return {
        "graph.validate_s": validate_s,
        "graph.dump_s": dump_s,
        "graph.load_s": load_s,
        "graph.dlc_bytes": len(text.encode("utf-8")),
    }


TINY_PROGRAM = "main(n)\n  let a = incr(n)\n  in add(a, n)\n"


def cache_and_cli(ctx: Context) -> dict[str, float]:
    """Compile-cache store/hit, and a cold ``delirium run`` subprocess of
    a three-line program (interpreter start + import + compile + run)."""
    wl = ctx.wl
    key = cache_key(wl.source, wl.defines, FULL_PASS_ORDER)
    store_s, _ = median_run(lambda: store_cached(key, ctx.prog.graph))
    hit_s, hit = median_run(lambda: load_cached(key))
    ctx.count("cache.hit_s", hit is not None)
    path = os.path.join(WORK, f"tiny-{os.getpid()}.dlm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TINY_PROGRAM)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = [
        sys.executable, "-m", "repro.tools.cli", "run", path,
        "--arg", "20", "--no-cache",
    ]
    try:
        cold_s, done = timed(
            lambda: subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=60
            )
        )
    finally:
        os.unlink(path)
    ctx.count("cli.cold_s", done.returncode == 0 and "41" in done.stdout)
    return {
        "cache.store_s": store_s,
        "cache.hit_s": hit_s,
        "cli.cold_s": cold_s,
    }


# ---------------------------------------------------------------------------
# Run side: scheduler, engine, activation, blocks
# ---------------------------------------------------------------------------


def scheduler(ctx: Context) -> dict[str, float]:
    """``ReadyQueue`` alone: push then pop tasks of three priorities."""
    n = 10_000 if ctx.smoke else 100_000
    tasks = [Task(None, i, i % 3, i) for i in range(n)]

    def push_pop() -> None:
        queue = ReadyQueue()
        for task in tasks:
            queue.push(task)
        while queue:
            queue.pop()

    def pop_batch() -> None:
        queue = ReadyQueue()
        queue.push_all(tasks)
        while queue:
            queue.pop_batch(8, lambda task: task.priority)

    return {
        "scheduler.push_pop_us": median_run(push_pop)[0] / n * 1e6,
        "scheduler.pop_batch_us": median_run(pop_batch)[0] / n * 1e6,
    }


def engine(ctx: Context) -> dict[str, float]:
    """A ``profile_ops=True`` run splits the wall into operator bodies
    and everything the engine does around them."""
    runner = ctx.wl.runner("sequential", ctx.prog, profile_ops=True)
    try:
        wall_s, (output, stats) = median_run(runner)
    finally:
        runner.close()
    ctx.check("engine.profile_ops", output)
    fires = stat(stats, "tasks_fired")
    body_s = stat(stats, "op_body_seconds")
    overhead_s = max(wall_s - body_s, 0.0)
    last = ctx.seq_stats
    return {
        "engine.fires": stat(last, "tasks_fired"),
        "engine.ops": stat(last, "ops_executed"),
        "engine.expansions": stat(last, "expansions"),
        "engine.body_s": body_s,
        "engine.overhead_s": overhead_s,
        "engine.overhead_frac": ratio(overhead_s, wall_s),
        "engine.us_per_fire": ratio(overhead_s, fires) * 1e6,
        "engine.cow_copies": stat(last, "cow_copies"),
        "engine.in_place_writes": stat(last, "in_place_writes"),
        "engine.copies_avoided": stat(last, "copies_avoided"),
    }


def activation(ctx: Context) -> dict[str, float]:
    pool = stat(ctx.seq_stats, "activation_stats") or {}
    return {
        "activation.created": pool.get("created", 0),
        "activation.reused": pool.get("reused", 0),
        "activation.peak_live": pool.get("peak_live", 0),
    }


def blocks(ctx: Context) -> dict[str, float]:
    """Wrap, size and copy one real payload of the workload."""
    payload = ctx.wl.payload()
    return {
        "blocks.wrap_us": per_call(lambda: wrap_payload(payload)) * 1e6,
        "blocks.nbytes_us": per_call(lambda: payload_nbytes(payload)) * 1e6,
        "blocks.cow_copy_ms": per_call(lambda: copy_payload(payload)) * 1e3,
        "blocks.pool_recycled": stat(ctx.seq_stats, "buffers_recycled"),
    }


def executors(ctx: Context) -> dict[str, float]:
    return {
        "executors.ref_s": ctx.ref_s,
        "executors.seq_s": ctx.seq_s,
        "executors.thr2_s": ctx.thr2_s,
        "executors.proc1_s": ctx.proc1_s,
        "executors.proc2_s": ctx.proc2_s,
        "executors.proc1_x": ratio(ctx.proc1_s, ctx.ref_s),
        "executors.thr2_x": ratio(ctx.thr2_s, ctx.ref_s),
        "executors.proc2_x": ratio(ctx.proc2_s, ctx.ref_s),
    }


# ---------------------------------------------------------------------------
# Process side: workers, supervise, affinity
# ---------------------------------------------------------------------------


def workers(ctx: Context) -> dict[str, float]:
    """A bare ``WorkerPool``: start-up, a no-op round trip, and the
    encode/decode transport on one real payload; then one 1-worker
    process run with a bus that counts the shared-memory segments it
    creates."""
    noop = OperatorRegistry()
    noop.register(name="bench_noop", pure=True)(lambda: 0)
    registry = ctx.wl.registry.merged_with(noop)

    def round_trip(pool: WorkerPool, call_id: int) -> None:
        pool.submit_to(0, ([], [(call_id, "bench_noop", [], None)]))
        for ready in pool.wait(10.0):
            if pool.worker_for_conn(ready) is not None:
                ready.recv()

    t0 = time.perf_counter()
    pool = WorkerPool(N_WORKERS, registry=registry)
    try:
        round_trip(pool, 0)
        pool_start_s = time.perf_counter() - t0
        calls = iter(range(1, 1 << 30))
        roundtrip_s = per_call(lambda: round_trip(pool, next(calls)))
    finally:
        pool.close()

    # Encode and decode one real payload; every encoding is decoded, which
    # is also what releases its shared-memory segment.
    payload = ctx.wl.payload()
    warm = encode_value(payload)
    wire_bytes = warm.nbytes  # pickle stream + out-of-band buffers
    decode_value(warm)
    encode_s = decode_s = 0.0
    reps = 5 if wire_bytes > 1 << 20 else 50
    for _ in range(reps):
        seconds, encoded = timed(lambda: encode_value(payload))
        encode_s += seconds / reps
        decode_s += timed(lambda: decode_value(encoded))[0] / reps
    ctx.transport_s_per_byte = (encode_s + decode_s) / wire_bytes

    segments: list[ShmBlockCreated] = []
    bus = EventBus()
    bus.subscribe(segments.append, (ShmBlockCreated,))
    runner = ctx.wl.runner("process", ctx.prog, workers=1, bus=bus)
    try:
        output, _ = runner()
    finally:
        runner.close()
    ctx.check("workers.shm_segments", output)
    return {
        "workers.pool_start_s": pool_start_s,
        "workers.roundtrip_us": roundtrip_s * 1e6,
        "workers.encode_ms": encode_s * 1e3,
        "workers.decode_ms": decode_s * 1e3,
        "workers.encode_MBps": ratio(wire_bytes / 1e6, encode_s),
        "workers.shm_segments": len(segments),
    }


def supervise(ctx: Context) -> dict[str, float]:
    """Dispatch counters of the 1-worker process run ``proc1_x`` gates."""
    stats = ctx.proc_stats
    fires = stat(stats, "dispatched_fires")
    sent = stat(stats, "ipc_messages_sent")
    received = stat(stats, "ipc_messages_received")
    return {
        "supervise.dispatched_fires": fires,
        "supervise.ipc_sent": sent,
        "supervise.ipc_recv": received,
        "supervise.fire_batches": stat(stats, "fire_batches"),
        "supervise.msgs_per_fire": ratio(sent + received, fires),
        "supervise.retries": stat(stats, "fires_retried"),
        "supervise.degraded": stat(stats, "executor_degraded"),
    }


def affinity(ctx: Context) -> dict[str, float]:
    """Residency counters of the gated 1-worker process run (default
    ``affinity="data"``), and the same run with ``affinity="none"``
    against the reference — compare with ``executors.proc1_x``."""
    stats = ctx.proc_stats
    encoded = stat(stats, "encode_bytes")
    avoided = stat(stats, "encode_bytes_avoided")
    return {
        "affinity.blocks_cached": stat(stats, "blocks_cached"),
        "affinity.ref_shipped": stat(stats, "blocks_ref_shipped"),
        "affinity.misses": stat(stats, "affinity_misses"),
        "affinity.encode_bytes": encoded,
        "affinity.bytes_avoided": avoided,
        "affinity.hit_ratio": ratio(avoided, avoided + encoded),
        "affinity.none_x": ratio(ctx.none1_s, ctx.ref_s),
    }


# ---------------------------------------------------------------------------
# Stream side: stream, checkpoint
# ---------------------------------------------------------------------------

STREAM_ZERO = {
    "stream.items_per_s": 0, "stream.item_p50_ms": 0,
    "stream.item_p99_ms": 0, "stream.source_s": 0, "stream.sink_s": 0,
    "stream.fires": 0, "stream.mem_x": 0,
    "checkpoint.written": 0, "checkpoint.write_ms": 0,
    "checkpoint.read_ms": 0, "checkpoint.bytes": 0, "checkpoint.on_x": 0,
}


def stream_and_checkpoint(ctx: Context) -> dict[str, float]:
    """The durable stream against its in-memory twin, per-item latency
    from the traced spans, and the snapshot the durable run left."""
    if not ctx.is_stream:
        return dict(STREAM_ZERO)
    wl = ctx.wl
    # One item = from its source.next to the end of its sink.append.
    latencies, started = [], None
    for record in ctx.recorder.spans:
        if record["name"] == "source.next":
            started = record["start"]
        elif record["name"] == "sink.append" and started is not None:
            latencies.append(record["end"] - started)
            started = None
    cuts = statistics.quantiles(latencies, n=100)
    own = ctx.recorder.self_times()
    snapshots = [
        r for r in ctx.recorder.spans if r["name"] == "write_checkpoint"
    ]
    path = ctx.seq.checkpoint_path
    read_s, _ = median_run(lambda: read_checkpoint(path))
    return {
        "stream.items_per_s": ratio(wl.n_items, ctx.seq_s),
        "stream.item_p50_ms": cuts[49] * 1e3,
        "stream.item_p99_ms": cuts[98] * 1e3,
        "stream.source_s": own.get("source.next", 0.0) / ctx.iterations,
        "stream.sink_s": (
            own.get("sink.append", 0.0) + own.get("sink.flush", 0.0)
        ) / ctx.iterations,
        "stream.fires": ctx.seq.last.fires,
        "stream.mem_x": ratio(ctx.mem_s, ctx.ref_s),
        "checkpoint.written": ctx.seq.last.checkpoints_written,
        "checkpoint.write_ms": statistics.mean(
            r["end"] - r["start"] for r in snapshots
        ) * 1e3,
        "checkpoint.read_ms": read_s * 1e3,
        "checkpoint.bytes": os.path.getsize(path),
        "checkpoint.on_x": ratio(ctx.seq_s, ctx.mem_s),
    }


# ---------------------------------------------------------------------------
# Observers: obs, machine
# ---------------------------------------------------------------------------


def obs(ctx: Context) -> dict[str, float]:
    """A fully recorded run against the plain one, and the critical-path
    profiler over what it recorded (it needs a log holding one run)."""
    run_ctx = RunContext(
        "bench", record_events=True, flight_recorder=False, metrics=False
    )
    runner = ctx.wl.runner("sequential", ctx.prog, run_ctx=run_ctx)
    try:
        recorded_s, (output, _) = timed(runner)
    finally:
        runner.close()
    ctx.check("obs.record_x", output)
    out = {
        "obs.record_x": ratio(recorded_s, ctx.seq_s),
        "obs.events": len(run_ctx.log.events),
        "obs.critpath_s": 0.0,
        "obs.critpath_err": 0.0,
    }
    if not ctx.is_stream and len(ctx.wl.arg_tuples) == 1:
        critpath_s, report = timed(lambda: run_ctx.critical_path(recorded_s))
        out["obs.critpath_s"] = critpath_s
        out["obs.critpath_err"] = report.reconciliation_error
    return out


def machine(ctx: Context) -> dict[str, float]:
    """The discrete-event simulator executing the same graph."""
    if ctx.is_stream:
        return {"machine.sim_x": 0}
    wl = ctx.wl
    simulator = SimulatedExecutor(cray_ymp(4))
    sim_s, outputs = timed(
        lambda: [
            wl.output(simulator.run(ctx.prog.graph, args, wl.registry).value)
            for args in wl.arg_tuples
        ]
    )
    ctx.check("machine.sim_x", outputs)
    return {"machine.sim_x": ratio(sim_s, ctx.seq_s)}


# ---------------------------------------------------------------------------
# Ledger and host
# ---------------------------------------------------------------------------


def ledger(ctx: Context) -> dict[str, float]:
    """Self seconds per layer boundary, per traced iteration.

    ``master_s`` is the remainder — the self time of the run span
    (engine, scheduler, activation and block bookkeeping, plus the
    recorder itself) and of the iteration span — so the six rows sum to
    the traced wall by construction.  ``ipc_est_s`` is *estimated*
    (bytes the 1-worker process run encoded x the measured encode+decode
    rate)
    and is not part of the sum: the traced iteration is sequential.
    """
    n = ctx.iterations
    own = {k: v / n for k, v in ctx.recorder.self_times().items()}
    wall = ctx.traced_wall_s
    rows = {
        "ledger.compile_s": own.get("compile_source", 0.0),
        "ledger.source_s": own.get("source.next", 0.0),
        "ledger.body_s": own.get("op", 0.0),
        "ledger.sink_s": own.get("sink.append", 0.0)
        + own.get("sink.flush", 0.0),
        "ledger.checkpoint_s": own.get("write_checkpoint", 0.0),
    }
    rows["ledger.master_s"] = wall - sum(rows.values())
    rows["ledger.ipc_est_s"] = (
        stat(ctx.proc_stats, "encode_bytes") * ctx.transport_s_per_byte
    )
    rows["ledger.master_frac"] = ratio(rows["ledger.master_s"], wall)
    rows["ledger.wall_s"] = wall
    return rows


def trace_and_host(ctx: Context) -> dict[str, float]:
    return {
        "trace.overhead_x": ratio(ctx.traced_wall_s, ctx.untraced_wall_s),
        "trace.spans": len(ctx.recorder.spans) / ctx.iterations,
        "host.probe_s": ctx.probe_s,
        "host.cpu_count": os.cpu_count() or 1,
        "host.load1": os.getloadavg()[0],
    }


PROBES: list[Callable[[Context], dict[str, float]]] = [
    lang, compiler, graph, cache_and_cli, scheduler, engine, activation,
    blocks, executors, workers, supervise, affinity, stream_and_checkpoint,
    obs, machine, ledger, trace_and_host,
]
