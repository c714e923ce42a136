"""The six workloads: programs, seeded inputs, sizes and runners.

Each workload makes one layer of the runtime do most of the work and
leaves another idle (the per-class docstrings say which), so a change to
one layer has a workload that shows it and one that predicts no change.
Inputs come from ``seed`` alone; the program under test only ever sees
the generated inputs.

Sizes are deliberately small — each timed operation takes 50-250 ms on
the 2-vCPU sizing host.  That host's speed wanders by 10-20% on a scale
of tenths of a second, so a ratio is only as good as the closeness in
time of its numerator and denominator: short operations flanked by
their reference cancel the drift, and a 12-second run fits 20-40 paired
rounds.  (Sizing runs with operations 3-4x longer had 2-3x the
run-to-run spread.)  ``smoke=True`` shrinks them further for the
self-test.
"""

from __future__ import annotations

import math
import os
import random
import re
import threading
from typing import Any, Callable

from . import WORK, add_src_to_path, refs
from .clock import time_repeated

add_src_to_path()

import numpy as np  # noqa: E402
from repro import compile_source  # noqa: E402
from repro.compiler.passes.pipeline import FULL_PASS_ORDER  # noqa: E402
from repro.graph.serialize import dumps  # noqa: E402
from repro.runtime import (  # noqa: E402
    CallableSource,
    JsonlSink,
    MemorySink,
    ProcessExecutor,
    SequentialExecutor,
    StreamRunner,
    ThreadedExecutor,
    default_registry,
)

#: Worker count of the threaded and 2-worker process configurations
#: (``nproc`` of the sizing host).
N_WORKERS = 2


def make_executor(kind: str, workers: int = N_WORKERS, **options: Any) -> Any:
    """The executor configurations the benchmark compares."""
    if kind == "sequential":
        return SequentialExecutor(**options)
    if kind == "threaded":
        return ThreadedExecutor(workers, **options)
    return ProcessExecutor(workers, persistent=True, **options)


def identity(x: Any) -> Any:
    return x


class Workload:
    """One program plus its seeded inputs.

    ``runner(kind, ...)`` returns a callable that performs one complete
    operation on the given executor configuration and returns
    ``(output, stats)``: a comparable output for :meth:`check` and the
    run's engine counters.  Runners own warm state (worker pools, plan
    caches) and must be ``close()``d.
    """

    name = ""
    prelude = False
    defines: dict[str, object] | None = None
    source = ""
    #: One operation runs the program once per tuple (one for every
    #: workload but pythia).
    arg_tuples: list[tuple[Any, ...]] = [()]
    registry: Any = None
    #: Size facts recorded in the result so ``compare`` can refuse to
    #: compare runs of different sizes.
    size: dict[str, Any] = {}

    def compile(self, passes: tuple[str, ...] | None = FULL_PASS_ORDER) -> Any:
        """Cold ``compile_source`` (no compile cache), CLI-default passes."""
        return compile_source(
            self.source,
            registry=self.registry,
            defines=self.defines,
            optimize_passes=passes,
            prelude=self.prelude,
        )

    def reference(self) -> Any:
        """Run the plain-Python reference; returns its comparable outputs
        (batch programs: one per argument tuple)."""
        raise NotImplementedError

    def output(self, value: Any) -> Any:
        return value

    def runner(self, kind: str, prog: Any, **options: Any) -> "GraphRun":
        return GraphRun(self, make_executor(kind, **options), prog)

    def payload(self) -> Any:
        """One real payload of the workload, for the blocks/workers probes."""
        raise NotImplementedError

    def compile_checks(self, prog: Any) -> bool:
        """Extra checks on the compiled program, made once at set-up."""
        return True

    def close(self) -> None:
        """Remove what the workload itself wrote."""


class GraphRun:
    """One ``executor.run`` of a compiled graph per call."""

    def __init__(self, workload: Workload, executor: Any, prog: Any) -> None:
        self.workload = workload
        self.executor = executor
        self.prog = prog

    def __call__(self) -> tuple[Any, Any]:
        wl = self.workload
        outputs = []
        for args in wl.arg_tuples:
            result = self.executor.run(self.prog.graph, args, wl.registry)
            outputs.append(wl.output(result.value))
        return outputs, result.stats

    def close(self) -> None:
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# retina — coarse grain
# ---------------------------------------------------------------------------


class Retina(Workload):
    """Section 5.2 ``RETINA_V2``: 344 fires whose bodies are NumPy/SciPy
    convolutions over frame bands.  Bodies, copy-on-write/donation, the
    buffer pool and the workers' encode/shm path do the work; engine and
    scheduler are nearly idle.  Every block is written once, so worker
    residency bookkeeping is pure cost here."""

    name = "retina"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.apps import retina

        self.app = retina
        side = 96 if smoke else 320
        self.cfg = retina.RetinaConfig(
            height=side, width=side, kernel_size=13, num_iter=4, seed=seed
        )
        self.size = {"side": side, "kernel": 13, "num_iter": 4}
        self.source = retina.RETINA_V2
        self.registry = retina.make_registry(self.cfg)
        self.defines = {
            "NUM_ITER": self.cfg.num_iter,
            "START_SLAB": self.cfg.start_slab,
            "FINAL_SLAB": self.cfg.final_slab,
        }

    def reference(self) -> Any:
        return [refs.retina_output(refs.retina(self.registry, self.cfg))]

    output = staticmethod(refs.retina_output)

    def payload(self) -> Any:
        model = self.app.model
        return model.split_bands(model.initial_state(self.cfg), self.cfg)[1]


# ---------------------------------------------------------------------------
# queens — fine grain
# ---------------------------------------------------------------------------


class Queens(Workload):
    """Section 3 N-queens: tens of thousands of fires around microsecond
    operator bodies, thousands of activations, nothing dispatched.
    Engine, scheduler and activation pool do nearly all the work; blocks,
    workers and affinity none.  The board size is the input; the seed
    has nothing to vary."""

    name = "queens"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.apps import queens

        self.n = 5 if smoke else 6
        self.size = {"n": self.n}
        self.source = queens.queens_source(self.n)
        self.registry = queens.make_registry(self.n)

    def reference(self) -> Any:
        return [refs.queens_output(refs.queens(self.registry, self.n), self.n)]

    def output(self, value: Any) -> Any:
        return refs.queens_output(value, self.n)

    def payload(self) -> Any:
        return list(range(1, self.n + 1))


# ---------------------------------------------------------------------------
# montecarlo — dispatch and batching, no payload
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """Dartboard pi through ``par_reduce``: a handful of dispatched,
    batched fires carrying an integer in and a pair out.  Supervisor
    dispatch/batching and worker parallelism matter; payload transport
    and residency do not (a few hundred encoded bytes)."""

    name = "montecarlo"
    prelude = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.apps import montecarlo

        self.n_batches = 8 if smoke else 16
        self.batch_size = 20_000 if smoke else 150_000
        self.size = {"batches": self.n_batches, "batch_size": self.batch_size}
        self.source = montecarlo.PI_PROGRAM
        self.registry = montecarlo.make_registry(
            seed=seed, batch_size=self.batch_size
        )
        self.arg_tuples = [(self.n_batches,)]

    def reference(self) -> Any:
        return [refs.montecarlo(self.registry, self.n_batches)]

    def payload(self) -> Any:
        return (12_345, self.batch_size)


# ---------------------------------------------------------------------------
# fanout — read-shared big blocks
# ---------------------------------------------------------------------------


class Fanout(Workload):
    """Bench-defined: independent multi-megabyte float64 blocks, each
    read by several dispatched pure consumers.  The only workload where
    shipping a block by reference pays (``affinity="data"`` encodes each
    block once; ``"none"`` once per reader)."""

    name = "fanout"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.n_blocks = 2 if smoke else 4
        self.fan = 3 if smoke else 8
        elems = 20_000 if smoke else 250_000
        self.elems = elems
        self.size = {
            "blocks": self.n_blocks, "fan": self.fan, "block_bytes": elems * 8
        }
        self.seed = seed
        self.arg_tuples = [(seed,)]
        self.registry = reg = default_registry()

        # ``seed`` arrives as a program argument so constant propagation
        # cannot fold the pure producers away at compile time.
        @reg.register(name="fo_produce", pure=True, cost=50_000.0)
        def fo_produce(seed: int, index: int) -> np.ndarray:
            return np.random.default_rng([seed, index]).standard_normal(elems)

        # The reads work in a scratch buffer instead of making
        # multi-megabyte temporaries: malloc's mmap/trim heuristics are
        # history-dependent and were worth 60% on an earlier version of
        # this kernel.  The buffer is per thread (and so per forked
        # worker): ``ThreadedExecutor`` runs pure bodies concurrently and
        # NumPy drops the GIL inside them.
        local = threading.local()

        # The cost hint clears the dispatch threshold: readers go remote.
        @reg.register(name="fo_read", pure=True, cost=10_000_000.0)
        def fo_read(block: np.ndarray, k: int) -> float:
            scratch = getattr(local, "scratch", None)
            if scratch is None:
                scratch = local.scratch = np.empty(elems)
            np.abs(block, out=scratch)
            np.add(scratch, k, out=scratch)
            np.sqrt(scratch, out=scratch)
            return float(scratch.sum())

        lines = ["main(seed)", "  let"]
        terms = []
        for b in range(self.n_blocks):
            lines.append(f"    b{b} = fo_produce(seed, {b})")
            for k in range(1, self.fan + 1):
                lines.append(f"    r{b}_{k} = fo_read(b{b}, {k})")
                terms.append(f"r{b}_{k}")
        lines.append("  in " + chain_add(terms))
        self.source = "\n".join(lines) + "\n"

    def reference(self) -> Any:
        return [
            refs.fanout(self.registry, self.seed, self.n_blocks, self.fan)
        ]

    def payload(self) -> Any:
        return self.registry.get("fo_produce").fn(self.seed, 0)


def chain_add(terms: list[str]) -> str:
    acc = terms[0]
    for term in terms[1:]:
        acc = f"add({acc}, {term})"
    return acc


# ---------------------------------------------------------------------------
# logstream — Python payloads and the write path
# ---------------------------------------------------------------------------


class LogStream(Workload):
    """``LOG_PROGRAM`` in carry mode over pre-generated record batches:
    list/dict payloads (wrap/size estimation dominates) plus the durable
    write path — ``JsonlSink`` flushes and checkpoint fsyncs — beside the
    compute path.  One operation is the whole stream."""

    name = "logstream"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.apps import loganalytics

        self.app = loganalytics
        self.n_items = 30 if smoke else 80
        self.checkpoint_every = 60 if smoke else 160  # fires: ~every 27 items
        self.size = {"items": self.n_items, "records": 64}
        self.source = loganalytics.LOG_PROGRAM
        self.registry = loganalytics.make_registry()
        # Generation is set-up, not stream time: the source serves a list.
        self.batches = [
            loganalytics.make_batch(seed, i, 64) for i in range(self.n_items)
        ]
        os.makedirs(WORK, exist_ok=True)
        self.ref_path = os.path.join(WORK, f"logstream-ref-{os.getpid()}.jsonl")

    def reference(self) -> Any:
        agg = refs.logstream(self.registry, self.batches, self.ref_path)
        return agg, refs.file_digest(self.ref_path)

    def runner(
        self,
        kind: str,
        prog: Any,
        durable: bool = True,
        wrap_source: Callable[[Any], Any] = identity,
        wrap_sink: Callable[[Any], Any] = identity,
        bus: Any = None,
        run_ctx: Any = None,
        workers: int = N_WORKERS,
        **options: Any,
    ) -> "StreamRun":
        return StreamRun(
            self, kind, prog, durable, wrap_source, wrap_sink,
            bus, run_ctx, workers, options,
        )

    def payload(self) -> Any:
        return self.batches[0]

    def close(self) -> None:
        if os.path.exists(self.ref_path):
            os.unlink(self.ref_path)


class StreamRun:
    """One whole ``StreamRunner.run`` per call (fresh source and sink,
    warm runner).  The durable variant writes a ``JsonlSink`` and
    checkpoints; the other drains into a ``MemorySink``."""

    def __init__(
        self, workload: LogStream, kind: str, prog: Any, durable: bool,
        wrap_source: Any, wrap_sink: Any, bus: Any, run_ctx: Any,
        workers: int, options: dict[str, Any],
    ) -> None:
        self.workload = workload
        self.durable = durable
        self.wrap_source = wrap_source
        self.wrap_sink = wrap_sink
        tag = f"{kind}-{os.getpid()}-{id(self):x}"
        self.sink_path = os.path.join(WORK, f"logstream-{tag}.jsonl")
        self.checkpoint_path = os.path.join(WORK, f"logstream-{tag}.ckpt")
        self.runner = StreamRunner(
            prog,
            executor=kind,
            n_workers=workers,
            carry=True,
            initial=workload.app.empty_stats(),
            emit=workload.app.stats_row,
            checkpoint_path=self.checkpoint_path if durable else None,
            checkpoint_every=workload.checkpoint_every if durable else None,
            bus=bus,
            run_ctx=run_ctx,
            executor_options=options,
        )
        self.last: Any = None

    def __call__(self) -> tuple[Any, Any]:
        wl = self.workload
        source = self.wrap_source(
            CallableSource(wl.batches.__getitem__, wl.n_items)
        )
        sink = JsonlSink(self.sink_path) if self.durable else MemorySink()
        try:
            self.last = self.runner.run(source, self.wrap_sink(sink))
        finally:
            sink.close()
        if self.durable:
            digest = refs.file_digest(self.sink_path)
        else:
            digest = refs.rows_digest(sink.items)
        return (self.last.value, digest), self.last.stats

    def close(self) -> None:
        self.runner.close()
        for path in (self.sink_path, self.checkpoint_path):
            if os.path.exists(path):
                os.unlink(path)


# ---------------------------------------------------------------------------
# pythia — the compiler itself
# ---------------------------------------------------------------------------

#: The generated program's *structure* is fixed: the optimizer's cost is
#: wildly structure-dependent (a sizing sweep over eight generator seeds
#: moved the cold compile by 2.2x), so a seed-dependent structure would
#: put seed-to-seed spread, not the compiler, into ``compile_x``.  The
#: run's ``--seed`` permutes the order of the function definitions in the
#: source text and picks the argument tuples the program is run on.
PYTHIA_STRUCTURE_SEED = 1990


class Pythia(Workload):
    """A generated multi-function program plus a ``main`` that calls
    every function so none is pruned; cold full-pass compile dominates
    (the optimizer is most of it), the runtime is nearly idle."""

    name = "pythia"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.apps.compiler_app import generate_workload

        n_functions = 6 if smoke else 10
        self.size = {"functions": n_functions}
        self.registry = default_registry()
        generated = generate_workload(n_functions, PYTHIA_STRUCTURE_SEED)
        functions = generated.strip().split("\n\n")
        structure = random.Random(PYTHIA_STRUCTURE_SEED)
        calls = []
        for text in functions:
            name, params = re.match(r"(\w+)\(([^)]*)\)", text).groups()
            picks = [structure.choice("abc") for _ in params.split(",")]
            calls.append(f"{name}({', '.join(picks)})")
        rng = random.Random(seed)
        rng.shuffle(functions)
        self.source = (
            "main(a, b, c)\n  " + chain_add(calls) + "\n\n"
            + "\n\n".join(functions) + "\n"
        )
        #: Which branches a tuple takes changes the work by several
        #: percent, so one operation runs eight of them: the seed picks
        #: the inputs without picking the metric.
        self.arg_tuples = [
            tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(8)
        ]
        self._main = refs.pythia(self.source, self.registry)

    def reference(self) -> Any:
        return [self._main(*args) for args in self.arg_tuples]

    def payload(self) -> Any:
        return self.arg_tuples[0][0]

    def compile_checks(self, prog: Any) -> bool:
        """The full-pass graph, the unoptimized graph and the reference
        agree on three argument tuples."""
        plain = self.compile(None)
        for args in self.arg_tuples[:3]:
            a = prog.run(args=args).value
            if a != plain.run(args=args).value or a != self._main(*args):
                return False
        return True


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Retina, Queens, MonteCarlo, Fanout, LogStream, Pythia)
}


class SetUp:
    """One workload made ready: inputs generated, program compiled cold,
    both gated executor configurations warm and checked.

    The gated process configuration has **one** worker: the master waits
    while the worker computes, so the ratio prices the process boundary
    (dispatch, encode, IPC, decode, residency) without depending on
    whether the host lets two processes run at once — the sizing host
    flips between the two regimes for an hour at a time, which moved the
    2-worker ratio on montecarlo from 0.64 to 1.12 on one commit.  The
    2-worker numbers are per-layer diagnostics (``executors.proc2_x``).

    Also the run's tally: every output compared with the reference's
    goes through :meth:`check`.
    """

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.smoke = smoke
        self.wl = wl = WORKLOADS[name](seed, smoke)
        self.prog = wl.compile()
        self.dlc = dumps(self.prog.graph)
        self.seq = wl.runner("sequential", self.prog)
        self.proc = wl.runner("process", self.prog, workers=1)
        self.expected = wl.reference()
        self.timed_check("warm-up sequential", self.seq, self.same_output)
        self.timed_check("warm-up process", self.proc, self.same_output)
        self.count("compile checks", wl.compile_checks(self.prog))

    def count(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def check(self, what: str, output: Any) -> None:
        self.count(what, output == self.expected)

    def same_output(self, result: tuple[Any, Any]) -> bool:
        """A runner's ``(output, stats)`` against the reference's value."""
        return result[0] == self.expected

    def same_value(self, value: Any) -> bool:
        """The reference itself must repeat its own value."""
        return value == self.expected

    def same_dlc(self, prog: Any) -> bool:
        """Every cold compile must serialize to the same bytes as the
        one made at set-up."""
        return dumps(prog.graph) == self.dlc

    def timed_check(
        self,
        what: str,
        fn: Callable[[], Any],
        ok: Callable[[Any], bool],
        reps: int = 1,
    ) -> tuple[float, Any]:
        """Seconds per call of ``fn`` and its last value, held to ``ok``
        outside the clock.  A raised error is one failed operation and
        reads ``(nan, None)``: the run goes on and reports it."""
        try:
            elapsed, value = time_repeated(fn, reps)
        except Exception as exc:
            self.count(f"{what}: {exc!r}", False)
            return math.nan, None
        self.count(what, ok(value))
        return elapsed, value

    def close(self) -> None:
        self.seq.close()
        self.proc.close()
        self.wl.close()
