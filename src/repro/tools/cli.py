"""``delirium`` command line interface.

Subcommands mirror the workflow of the paper's programming environment:

* ``compile FILE`` — compile a ``.dlm`` source, print template dumps and
  per-pass times;
* ``run FILE [--arg N ...]`` — compile and execute (sequentially or on a
  simulated machine), printing the result;
* ``viz FILE`` — emit the coordination framework (ASCII layers or DOT);
* ``profile FILE`` — run with node timings on a simulated machine and
  print the paper-style ``call of X took N`` report plus the load-balance
  summary (``--json`` for the metrics-registry snapshot instead);
* ``trace FILE`` — run with full observability (event bus + metrics +
  trace collection), write a Chrome/Perfetto trace file, and print the
  metrics summary.

Programs compiled here have access to the builtin operators only; the case
studies ship their own drivers (``python -m repro.apps.retina`` etc.)
because their operators are Python code.
"""

from __future__ import annotations

import argparse
import ast as python_ast
import sys

from ..compiler import compile_file
from ..compiler.passes.pipeline import GRAPH_PASS_ORDER, PASS_ORDER
from ..graph.validate import validate_program
from ..graph.viz import ascii_framework, to_dot
from ..machine import PRESETS, SimulatedExecutor
from ..obs import (
    TICK_SCALE,
    WALL_SCALE,
    ChromeTraceCollector,
    EventBus,
    attach_metrics,
    observe_blocks,
)
from ..runtime import ProcessExecutor, SequentialExecutor, ThreadedExecutor
from ..runtime.operators import default_registry
from .timeline import gantt
from .timing_report import (
    critical_path_section,
    load_balance_summary,
    node_timing_report,
)


def _parse_value(text: str) -> object:
    """Parse a CLI argument: int/float/string literal."""
    try:
        return python_ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="Delirium source file")
    parser.add_argument(
        "--define",
        "-D",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="symbolic constant for the preprocessor",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable the optimization passes",
    )
    parser.add_argument(
        "--fuse",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fuse cheap single-consumer operator chains into super-nodes "
        "(--no-fuse reproduces the unfused graphs bit-for-bit)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compile cache (~/.cache/delirium or "
        "$DELIRIUM_CACHE_DIR)",
    )


def _add_executor(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        choices=("sequential", "threaded", "process"),
        default="sequential",
        help="how to execute: in-process sequentially (default), on OS "
        "threads, or with operator bodies on worker processes",
    )
    parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=4,
        metavar="N",
        help="worker count for --executor threaded/process (default 4)",
    )
    parser.add_argument(
        "--recalibrate",
        action="store_true",
        help="measure per-operator wall costs fresh (one traced "
        "sequential run) and persist them for this program/registry/"
        "machine; --executor process then dispatches from measured "
        "costs instead of heuristics.  Without the flag a previously "
        "persisted table is loaded when one exists",
    )
    parser.add_argument(
        "--affinity",
        choices=("none", "operator", "data"),
        default="data",
        help="locality policy for --executor process dispatch: 'data' "
        "(default) places fires on the idle worker holding the most "
        "input bytes and ships already-resident blocks by reference; "
        "'operator' prefers the worker an operator last ran on; 'none' "
        "is legacy least-loaded dispatch with full encodings.  Results "
        "are bit-identical across all three",
    )
    parser.add_argument(
        "--fault-policy",
        metavar="SPEC",
        default=None,
        help="fault-tolerance knobs as comma-separated KEY=VALUE pairs: "
        "retries=N, timeout=SECONDS|none, backoff=SECONDS, "
        "degrade=ladder|off, respawns=N (e.g. "
        "'retries=3,timeout=30,degrade=off')",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection for chaos testing: "
        "semicolon-separated clauses KIND[:KEY=VALUE,...] with kinds "
        "raise|delay|kill|arena|cachemiss and params op=, p=, nth=, "
        "times=, seconds=, seed= (e.g. "
        "'raise:op=scale,p=0.1;kill:p=0.02')",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run-id",
        metavar="ID",
        default=None,
        help="name for this run's observability scope (flight-recorder "
        "dump file, /healthz document); generated when omitted",
    )
    parser.add_argument(
        "--flight-recorder",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep a bounded ring of coarse runtime events and dump it "
        "to <run-id>.flightrec.json on worker crashes, fire timeouts, "
        "executor degradation, or failure (default on)",
    )
    parser.add_argument(
        "--flightrec-dir",
        metavar="DIR",
        default=None,
        help="directory for flight-recorder dumps (default: cwd)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        default=None,
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "(and /healthz) for the duration of the run; 0 picks a free port",
    )


def _make_run_ctx(
    ns: argparse.Namespace, record_events: bool = False
):
    """Build the run-scoped observability context the flags ask for."""
    from ..obs import RunContext

    return RunContext(
        ns.run_id,
        # The metrics subscriber watches per-fire events; without a
        # scrape surface the default `run` path should not pay for it.
        metrics=ns.metrics_port is not None or record_events,
        flight_recorder=ns.flight_recorder,
        flightrec_dir=ns.flightrec_dir,
        record_events=record_events,
    )


def _serve_metrics(ctx, ns: argparse.Namespace):
    """Start the scrape endpoint when --metrics-port was given."""
    if ns.metrics_port is None:
        return None
    server = ctx.serve_metrics(port=ns.metrics_port)
    print(
        f"serving metrics at http://127.0.0.1:{server.port}/metrics "
        f"(run id {ctx.run_id})",
        file=sys.stderr,
    )
    return server


def _fault_options(ns: argparse.Namespace) -> dict:
    """Parse --fault-policy / --inject-faults into executor kwargs."""
    out: dict = {}
    if getattr(ns, "fault_policy", None):
        from ..runtime.supervise import FaultPolicy

        out["fault_policy"] = FaultPolicy.parse(ns.fault_policy)
    if getattr(ns, "inject_faults", None):
        from ..faults import parse_fault_spec

        out["fault_spec"] = parse_fault_spec(ns.inject_faults)
    return out


def _dispatch_costs(
    ns: argparse.Namespace, compiled, run_args: tuple
) -> dict | None:
    """Measured per-operator costs for the process executor, if any.

    ``--recalibrate`` measures fresh (and persists the table);
    otherwise a previously persisted table for this program/registry/
    machine is loaded when present.  Sequential and threaded executors
    never pay for this — dispatch costs only steer IPC decisions.
    """
    if getattr(ns, "executor", None) != "process":
        return None
    from ..machine.calibrate import calibrate_dispatch_cached

    if not ns.recalibrate:
        from ..machine.calibrate import load_dispatch_calibration

        loaded = load_dispatch_calibration(compiled.graph, compiled.registry)
        return loaded.seconds_by_operator if loaded is not None else None
    calibration = calibrate_dispatch_cached(
        compiled.graph,
        compiled.registry,
        args=run_args,
        force=True,
    )
    print(
        f"calibrated {len(calibration.seconds_by_operator)} operator(s): "
        f"{len(calibration.dispatch)} dispatched, "
        f"{len(calibration.keep_local)} kept local",
        file=sys.stderr,
    )
    return calibration.seconds_by_operator


def _make_executor(
    ns: argparse.Namespace,
    trace: bool = False,
    bus=None,
    run_ctx=None,
    measured_costs: dict | None = None,
):
    """Build the real (non-simulated) executor the flags ask for."""
    faults = _fault_options(ns)
    if run_ctx is not None:
        faults["run_ctx"] = run_ctx
    if ns.executor == "threaded":
        return ThreadedExecutor(ns.workers, trace=trace, bus=bus, **faults)
    if ns.executor == "process":
        if measured_costs:
            faults["measured_costs"] = measured_costs
        return ProcessExecutor(
            ns.workers,
            trace=trace,
            bus=bus,
            affinity=getattr(ns, "affinity", "data"),
            **faults,
        )
    return SequentialExecutor(trace=trace, bus=bus, **faults)


def _pass_tuple(args: argparse.Namespace) -> tuple[str, ...]:
    """The optimization pass tuple the flags select.

    Shared by compilation, the compile-cache key, and the checkpoint
    flag-set identity — a resume under different passes must fail the
    ``flags`` compatibility gate, not silently diverge.
    """
    passes = () if args.no_optimize else PASS_ORDER
    if args.fuse:
        # Graph-pass flags are part of the pass tuple, so the compile
        # cache key (which hashes the pass set) can never serve a --fuse
        # graph to an invocation that disabled it, or vice versa.
        passes = passes + GRAPH_PASS_ORDER
    return passes


def _defines(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --define {pair!r}; expected NAME=VALUE")
        name, value = pair.split("=", 1)
        out[name] = _parse_value(value)
    return out


def _parse_stream_spec(spec: str):
    """``count:N`` / ``count:`` / ``lines:FILE`` → a pull-based source."""
    from ..runtime.stream import LineSource, count_source

    if spec.startswith("count:"):
        rest = spec[len("count:") :]
        if rest in ("", "inf"):
            return count_source(None)
        try:
            return count_source(int(rest))
        except ValueError:
            raise SystemExit(
                f"bad --stream {spec!r}: count wants an integer"
            )
    if spec.startswith("lines:"):
        return LineSource(spec[len("lines:") :])
    raise SystemExit(
        f"bad --stream {spec!r}; expected count:N or lines:FILE"
    )


def _run_stream(ns: argparse.Namespace, compiled) -> int:
    """The ``delirium run --stream`` path: one run per item, with
    optional durable sink, checkpoints, and resume."""
    import json as json_mod

    from ..runtime.checkpoint import CheckpointMismatchError
    from ..runtime.stream import JsonlSink, MemorySink, StreamRunner
    from ..runtime.workers import install_arena_signal_cleanup

    install_arena_signal_cleanup()
    ctx = _make_run_ctx(ns)
    server = _serve_metrics(ctx, ns)
    faults = _fault_options(ns)
    # The checkpoint's flag-set identity: the compile pass tuple (the
    # compile-cache key ingredient) plus everything that changes what
    # the stream writes.  Executor choice is deliberately absent —
    # bit-identity across executors is the standing guarantee.
    flags = {
        "passes": list(_pass_tuple(ns)),
        "defines": {k: v for k, v in sorted(_defines(ns.define).items())},
        "carry": bool(ns.carry),
    }
    source = _parse_stream_spec(ns.stream)
    sink = (
        JsonlSink(ns.sink, resume=ns.resume is not None)
        if ns.sink
        else MemorySink()
    )
    runner = StreamRunner(
        compiled,
        executor=ns.executor,
        n_workers=ns.workers,
        carry=ns.carry,
        initial=(
            _parse_value(ns.initial) if ns.initial is not None else None
        ),
        checkpoint_path=ns.checkpoint,
        checkpoint_every=ns.checkpoint_every,
        fault_policy=faults.get("fault_policy"),
        fault_spec=faults.get("fault_spec"),
        flags=flags,
        run_ctx=ctx,
    )
    try:
        result = runner.run(source, sink, resume=ns.resume)
    except CheckpointMismatchError as exc:
        print(f"RESUME REFUSED: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
        sink.close()
        if server is not None:
            server.stop()
    summary = {
        "items": result.items,
        "fires": result.fires,
        "wall_seconds": round(result.wall_seconds, 6),
        "checkpoints": result.checkpoints_written,
        "resumed_from": result.resumed_from,
        "sink_digest": result.sink_digest,
    }
    print(f"# {json_mod.dumps(summary, sort_keys=True)}", file=sys.stderr)
    if isinstance(sink, MemorySink) and sink.items:
        print(sink.items[-1])
    elif ns.carry:
        print(result.value)
    return 0


class _LoadedGraph:
    """Adapter giving a loaded ``.dlc`` graph the CompiledProgram shape."""

    def __init__(self, graph, cached: bool = False) -> None:
        self.graph = graph
        self.registry = None  # builtins; supplied by the executor default
        self.pass_seconds: dict[str, float] = {}
        self.cached = cached


def _compile(args: argparse.Namespace):
    if args.file.endswith(".dlc"):
        from ..graph.serialize import load

        return _LoadedGraph(load(args.file))
    passes = _pass_tuple(args)
    defines = _defines(args.define)
    key = None
    if not args.no_cache:
        from .cache import cache_key, load_cached

        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {args.file}: {exc}") from exc
        key = cache_key(source, defines, passes)
        graph = load_cached(key)
        if graph is not None:
            return _LoadedGraph(graph, cached=True)
    compiled = compile_file(
        args.file, defines=defines, optimize_passes=passes
    )
    if key is not None:
        from .cache import store_cached

        store_cached(key, compiled.graph)
    return compiled


def _registry_of(compiled):
    """What its fused members must resolve in: a loaded .dlc's are builtins."""
    return compiled.registry or default_registry()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="delirium",
        description="The Delirium coordination-language environment "
        "(reproduction of Lucco & Sharp, SC 1990).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and dump templates")
    _add_common(p_compile)
    p_compile.add_argument(
        "--emit",
        metavar="FILE.dlc",
        help="write the compiled coordination graphs as JSON",
    )

    p_validate = sub.add_parser(
        "validate", help="structurally validate a program or .dlc file"
    )
    _add_common(p_validate)

    p_run = sub.add_parser("run", help="compile and execute")
    _add_common(p_run)
    _add_executor(p_run)
    _add_obs(p_run)
    p_run.add_argument(
        "--arg", action="append", default=[], help="argument to main()"
    )
    p_run.add_argument(
        "--machine",
        choices=sorted(PRESETS),
        help="execute on a simulated machine instead of directly",
    )
    p_run.add_argument("--processors", "-p", type=int, default=None)
    p_run.add_argument(
        "--stream",
        metavar="SPEC",
        default=None,
        help="run the program once per stream item instead of once: "
        "'count:N' feeds item indices 0..N-1 ('count:' streams "
        "forever), 'lines:FILE' feeds JSON lines from FILE.  Items "
        "arrive as main()'s argument; memory stays flat regardless of "
        "stream length",
    )
    p_run.add_argument(
        "--carry",
        action="store_true",
        help="thread each run's result into the next as main()'s first "
        "argument (main(carry, item)); --initial seeds the first carry",
    )
    p_run.add_argument(
        "--initial",
        metavar="VALUE",
        default=None,
        help="initial carry value for --carry (int/float/string literal)",
    )
    p_run.add_argument(
        "--sink",
        metavar="FILE.jsonl",
        default=None,
        help="append one JSON line per committed stream item (durable, "
        "digest-chained); default: keep results in memory and print "
        "the last",
    )
    p_run.add_argument(
        "--checkpoint",
        metavar="FILE.ckpt",
        default=None,
        help="atomically snapshot the stream frontier to FILE so a "
        "killed run can --resume; written on the --checkpoint-every "
        "cadence, on the fault-policy checkpoint= wall-clock cadence, "
        "and at end of stream",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="CALLS",
        default=None,
        help="checkpoint after every N operator calls (cost amortizes "
        "over work done; keeps overhead under the <5%% budget)",
    )
    p_run.add_argument(
        "--resume",
        metavar="FILE.ckpt",
        default=None,
        help="resume a killed streaming run from its checkpoint: seeks "
        "the source, truncates the sink to its durable prefix, and "
        "continues — output is bit-identical to an uninterrupted run. "
        "Refuses (naming the key) if the program, registry, or flag "
        "set differs from the checkpointed run",
    )

    p_viz = sub.add_parser("viz", help="render the coordination framework")
    _add_common(p_viz)
    p_viz.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    sub.add_parser("repl", help="interactive read-eval-print loop")

    p_profile = sub.add_parser("profile", help="node timings on a machine")
    _add_common(p_profile)
    _add_executor(p_profile)
    _add_obs(p_profile)
    p_profile.add_argument(
        "--critical-path",
        action="store_true",
        help="profile causally instead of additively: record the full "
        "event stream on a real executor, reconstruct the firing DAG, "
        "and print the critical path, per-node slack, and the "
        "master-overhead decomposition of the wall clock",
    )
    p_profile.add_argument(
        "--machine",
        choices=sorted(PRESETS),
        default=None,
        help="profile on a simulated machine (default cray-2 unless "
        "--executor is given)",
    )
    p_profile.add_argument("--processors", "-p", type=int, default=None)
    p_profile.add_argument(
        "--arg", action="append", default=[], help="argument to main()"
    )
    p_profile.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics-registry snapshot as JSON instead of the "
        "human-readable reports",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run with full observability; write a Perfetto/Chrome trace",
    )
    _add_common(p_trace)
    _add_executor(p_trace)
    _add_obs(p_trace)
    p_trace.add_argument(
        "--arg", action="append", default=[], help="argument to main()"
    )
    p_trace.add_argument(
        "--machine",
        choices=sorted(PRESETS),
        help="trace a simulated machine (ticks) instead of the real "
        "sequential executor (wall time)",
    )
    p_trace.add_argument("--processors", "-p", type=int, default=None)
    p_trace.add_argument(
        "--output",
        "-o",
        metavar="FILE.trace.json",
        help="trace file path (default: <source>.trace.json)",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics-registry snapshot as JSON instead of the "
        "summary table",
    )

    ns = parser.parse_args(argv)

    if ns.command == "repl":
        from .repl import Repl

        return Repl().run()

    if ns.command == "validate":
        from ..errors import GraphError

        try:  # a .dlc is validated as it is loaded
            compiled = _compile(ns)
            report = validate_program(compiled.graph, _registry_of(compiled))
        except GraphError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(
            f"OK: {report.templates_checked} template(s), "
            f"{len(report.dead_nodes)} dead node(s)"
        )
        return 0

    compiled = _compile(ns)

    if ns.command == "compile":
        report = validate_program(compiled.graph, _registry_of(compiled))
        for template in compiled.graph.templates.values():
            print(template.describe())
            print()
        print(f"{report.templates_checked} template(s); "
              f"{compiled.graph.total_nodes()} node(s)")
        if getattr(compiled, "cached", False):
            print("  (compile cache hit; --no-cache to recompile)")
        optimization = getattr(compiled, "optimization", None)
        for name, seconds in compiled.pass_seconds.items():
            print(f"  {name:<18} {seconds * 1000:8.2f} ms")
            if name == "Optimization" and optimization is not None:
                for part, spent in optimization.pass_seconds.items():
                    print(f"    {part:<16} {spent * 1000:8.2f} ms")
        if optimization is not None:
            print(optimization.describe())
        if ns.emit:
            from ..graph.serialize import save

            save(compiled.graph, ns.emit)
            print(f"wrote {ns.emit}")
        return 0

    if ns.command == "viz":
        print(to_dot(compiled.graph) if ns.dot else ascii_framework(compiled.graph))
        return 0

    run_args = tuple(_parse_value(a) for a in ns.arg)
    if ns.command == "run":
        if ns.stream is not None:
            if ns.machine:
                raise SystemExit(
                    "--stream drives real executors; drop --machine"
                )
            return _run_stream(ns, compiled)
        if ns.resume or ns.checkpoint or ns.sink:
            raise SystemExit(
                "--checkpoint/--resume/--sink need --stream (checkpoints "
                "snapshot a stream frontier; a one-shot run has none)"
            )
        if ns.machine:
            machine = PRESETS[ns.machine]()
            if ns.processors:
                machine = machine.with_processors(ns.processors)
            result = SimulatedExecutor(machine).run(
                compiled.graph, args=run_args, registry=compiled.registry
            )
            print(result.value)
            print(f"# {result.describe()}", file=sys.stderr)
        else:
            ctx = _make_run_ctx(ns)
            server = _serve_metrics(ctx, ns)
            costs = _dispatch_costs(ns, compiled, run_args)
            try:
                result = _make_executor(
                    ns, run_ctx=ctx, measured_costs=costs
                ).run(
                    compiled.graph, args=run_args, registry=compiled.registry
                )
            finally:
                if server is not None:
                    server.stop()
            print(result.value)
        return 0

    if ns.command == "profile":
        import json as json_mod

        if ns.critical_path:
            if ns.machine is not None:
                raise SystemExit(
                    "--critical-path profiles real executors (wall "
                    "seconds); drop --machine"
                )
            ctx = _make_run_ctx(ns, record_events=True)
            server = _serve_metrics(ctx, ns)
            try:
                result = _make_executor(ns, run_ctx=ctx).run(
                    compiled.graph, args=run_args, registry=compiled.registry
                )
            finally:
                if server is not None:
                    server.stop()
            report = ctx.critical_path(result.wall_seconds)
            if ns.json:
                print(json_mod.dumps(report.to_dict(), indent=2))
            else:
                print(critical_path_section(report, unit="seconds"))
            print(f"result: {result.value}", file=sys.stderr)
            return 0

        bus = EventBus() if ns.json else None
        metrics = attach_metrics(bus) if bus is not None else None
        simulated = ns.machine is not None or ns.executor == "sequential"
        if simulated:
            machine = PRESETS[ns.machine or "cray-2"]()
            if ns.processors:
                machine = machine.with_processors(ns.processors)
            executor = SimulatedExecutor(machine, trace=True, bus=bus)
            tracks = machine.processors
            unit = "ticks"
        else:
            executor = _make_executor(ns, trace=True, bus=bus)
            tracks = 0
            unit = "seconds"
        result = executor.run(
            compiled.graph, args=run_args, registry=compiled.registry
        )
        if metrics is not None:
            print(json_mod.dumps(metrics.snapshot(), indent=2))
            if simulated:
                print(f"# {result.describe()}", file=sys.stderr)
            return 0
        assert result.tracer is not None
        print(node_timing_report(result.tracer, unit=unit))
        print()
        print(load_balance_summary(result.tracer).describe())
        if simulated:
            print()
            print(gantt(result.tracer, tracks))
            print(f"# {result.describe()}", file=sys.stderr)
        return 0

    if ns.command == "trace":
        import json as json_mod
        import os

        bus = EventBus()
        metrics = attach_metrics(bus)
        server = None
        if ns.metrics_port is not None:
            from ..obs import MetricsServer

            server = MetricsServer(metrics, port=ns.metrics_port).start()
            print(
                f"serving metrics at http://127.0.0.1:{server.port}/metrics",
                file=sys.stderr,
            )
        simulated = ns.machine is not None
        track_names = None
        if not simulated and ns.executor == "process":
            track_names = {0: "master"}
            track_names.update(
                {i + 1: f"worker {i}" for i in range(ns.workers)}
            )
        collector = ChromeTraceCollector(
            time_scale=TICK_SCALE if simulated else WALL_SCALE,
            process_name=f"delirium:{os.path.basename(ns.file)}",
            track_names=track_names,
        )
        collector.attach(bus)
        if simulated:
            machine = PRESETS[ns.machine]()
            if ns.processors:
                machine = machine.with_processors(ns.processors)
            executor = SimulatedExecutor(machine, trace=True, bus=bus)
        else:
            executor = _make_executor(ns, trace=True, bus=bus)
        try:
            with observe_blocks(bus):
                result = executor.run(
                    compiled.graph, args=run_args, registry=compiled.registry
                )
        finally:
            if server is not None:
                server.stop()
        out = ns.output
        if not out:
            base, _ = os.path.splitext(ns.file)
            out = base + ".trace.json"
        collector.write(out)
        unit = "ticks" if simulated else "seconds"
        if ns.json:
            print(json_mod.dumps(metrics.snapshot(), indent=2))
        else:
            assert result.tracer is not None
            print(node_timing_report(result.tracer, unit=unit))
            print()
            print(load_balance_summary(result.tracer).describe())
            print()
            print(metrics.summary_table(unit=unit))
        print(f"result: {result.value}", file=sys.stderr)
        if simulated:
            print(f"# {result.describe()}", file=sys.stderr)
        print(
            f"wrote {out} — open at https://ui.perfetto.dev or "
            "chrome://tracing",
            file=sys.stderr,
        )
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
