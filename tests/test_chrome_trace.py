"""Chrome/Perfetto trace export: schema validity for real and simulated
runs, track structure, and the ``delirium trace`` CLI."""

import json
import subprocess
import sys

import pytest

from repro import compile_source
from repro.machine import SimulatedExecutor, cray_2, cray_ymp
from repro.obs import (
    ChromeTraceCollector,
    EventBus,
    TICK_SCALE,
    WALL_SCALE,
    attach_metrics,
    validate_trace,
)
from repro.runtime import SequentialExecutor, Tracer

from tests.conftest import FIB_SRC, FORK_JOIN_SRC, fork_join_registry

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


def collect(executor_factory, compiled, registry=None, args=(),
            time_scale=WALL_SCALE):
    bus = EventBus()
    collector = ChromeTraceCollector(time_scale=time_scale)
    collector.attach(bus)
    result = executor_factory(bus).run(
        compiled.graph, args=args, registry=registry
    )
    return collector, result


class TestRealExecutorTrace:
    def test_schema_valid(self):
        compiled = compile_source(FIB_SRC)
        collector, _ = collect(
            lambda bus: SequentialExecutor(bus=bus), compiled, args=(8,)
        )
        trace = collector.to_dict()
        assert validate_trace(trace) == []
        events = trace["traceEvents"]
        assert events, "empty trace"
        for ev in events:
            for key in REQUIRED_KEYS:
                assert key in ev

    def test_be_nesting_is_monotonic_per_track(self):
        compiled = compile_source(FIB_SRC)
        collector, _ = collect(
            lambda bus: SequentialExecutor(bus=bus), compiled, args=(8,)
        )
        events = collector.trace_events()
        depth = 0
        last_ts = float("-inf")
        for ev in events:
            if ev["ph"] not in ("B", "E"):
                continue
            assert ev["ts"] >= last_ts
            last_ts = ev["ts"]
            depth += 1 if ev["ph"] == "B" else -1
            assert depth in (0, 1)
        assert depth == 0

    def test_span_count_matches_tasks_fired(self):
        compiled = compile_source(FIB_SRC)
        collector, result = collect(
            lambda bus: SequentialExecutor(bus=bus), compiled, args=(8,)
        )
        begins = [e for e in collector.trace_events() if e["ph"] == "B"]
        assert len(begins) == result.stats.tasks_fired

    def test_json_round_trip(self):
        compiled = compile_source(FIB_SRC)
        collector, _ = collect(
            lambda bus: SequentialExecutor(bus=bus), compiled, args=(6,)
        )
        loaded = json.loads(collector.to_json())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["time_scale"] == WALL_SCALE


class TestSimulatedTrace:
    def _collect(self, processors=4):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        return collect(
            lambda bus: SimulatedExecutor(cray_2(processors), bus=bus),
            compiled,
            registry=reg,
            time_scale=TICK_SCALE,
        )

    def test_schema_valid(self):
        collector, _ = self._collect()
        assert validate_trace(collector.to_dict()) == []

    def test_one_track_per_simulated_processor(self):
        collector, _ = self._collect(processors=4)
        events = collector.trace_events()
        span_tids = {e["tid"] for e in events if e["ph"] == "B"}
        assert span_tids <= set(range(4))
        # The fork-join's four convolutions spread over several processors.
        assert len(span_tids) > 1
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert span_tids <= set(thread_names)

    def test_counter_events_present(self):
        collector, _ = self._collect()
        counters = [
            e for e in collector.trace_events() if e["ph"] == "C"
        ]
        assert counters
        assert all("p0" in e["args"] for e in counters)

    def test_tick_timestamps_match_makespan(self):
        collector, result = self._collect()
        ends = [
            e["ts"] for e in collector.trace_events() if e["ph"] == "E"
        ]
        assert max(ends) == pytest.approx(result.ticks)


class TestFromTracer:
    def test_export_from_hand_built_tracer(self):
        t = Tracer()
        t.record("convol_bite", "op", 100.0, start=0.0, processor=0)
        t.record("post_up", "op", 400.0, start=100.0, processor=1)
        collector = ChromeTraceCollector.from_tracer(t)
        trace = collector.to_dict()
        assert validate_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "B"}
        assert names == {"convol_bite", "post_up"}


class TestOptimizedProcessTrace:
    """Traces stay schema-valid when fusion reshapes the graph and the
    process executor spreads firings over workers."""

    SMALL = None  # built lazily: retina imports are heavier than most

    @classmethod
    def _compiled(cls):
        from repro.apps.retina import RetinaConfig, compile_retina

        if cls.SMALL is None:
            cls.SMALL = RetinaConfig(height=32, width=32, num_iter=2)
        return compile_retina(2, cls.SMALL, fuse=True)

    def test_fused_process_run_trace_validates(self):
        from repro.runtime import ProcessExecutor

        compiled = self._compiled()
        collector, result = collect(
            lambda bus: ProcessExecutor(2, bus=bus),
            compiled,
            registry=compiled.registry,
        )
        assert result.stats.fused_fires > 0, "fusion must actually engage"
        trace = collector.to_dict()
        assert validate_trace(trace) == []
        begins = [e for e in trace["traceEvents"] if e["ph"] == "B"]
        assert len(begins) == result.stats.tasks_fired

    def test_worker_spans_land_on_worker_tracks(self):
        from repro.runtime import ProcessExecutor

        compiled = self._compiled()
        collector, _ = collect(
            lambda bus: ProcessExecutor(2, bus=bus, cost_threshold=0.0),
            compiled,
            registry=compiled.registry,
        )
        tids = {
            e["tid"]
            for e in collector.trace_events()
            if e["ph"] == "B"
        }
        # Dispatched bodies draw on worker tracks (>= 1), and the
        # engine's own firings keep track 0.
        assert any(tid >= 1 for tid in tids)


class TestValidateTrace:
    def test_flags_missing_keys(self):
        problems = validate_trace({"traceEvents": [{"ph": "B", "ts": 0}]})
        assert any("missing key" in p for p in problems)

    def test_flags_unbalanced_nesting(self):
        events = [
            {"ph": "B", "ts": 0, "pid": 0, "tid": 0, "name": "x"},
        ]
        problems = validate_trace({"traceEvents": events})
        assert any("unclosed" in p for p in problems)

    def test_flags_backwards_time(self):
        events = [
            {"ph": "B", "ts": 5, "pid": 0, "tid": 0, "name": "x"},
            {"ph": "E", "ts": 1, "pid": 0, "tid": 0, "name": "x"},
        ]
        problems = validate_trace({"traceEvents": events})
        assert any("backwards" in p for p in problems)


class TestTraceCLI:
    SOURCE = (
        "main(n) add(fib(n), 1)\n"
        "fib(n)\n"
        "  if is_less(n, 2)\n"
        "  then n\n"
        "  else add(fib(sub(n, 1)), fib(sub(n, 2)))\n"
    )

    def _source(self, tmp_path):
        path = tmp_path / "prog.dlm"
        path.write_text(self.SOURCE)
        return str(path)

    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_trace_sequential_writes_valid_trace(self, tmp_path):
        src = self._source(tmp_path)
        out = str(tmp_path / "out.trace.json")
        proc = self._cli("trace", src, "--arg", "8", "-o", out)
        assert proc.returncode == 0, proc.stderr
        assert "call of" in proc.stdout  # the §5.2 bottleneck view
        assert "ops_executed" in proc.stdout  # metrics summary table
        with open(out) as fh:
            trace = json.load(fh)
        assert validate_trace(trace) == []

    def test_trace_simulated_machine(self, tmp_path):
        src = self._source(tmp_path)
        out = str(tmp_path / "sim.trace.json")
        proc = self._cli(
            "trace", src, "--arg", "8", "--machine", "cray-ymp",
            "-p", "4", "-o", out,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            trace = json.load(fh)
        assert validate_trace(trace) == []
        tids = {
            e["tid"] for e in trace["traceEvents"] if e.get("ph") == "B"
        }
        assert tids <= set(range(4)) and len(tids) > 1

    def test_trace_default_output_path(self, tmp_path):
        src = self._source(tmp_path)
        proc = self._cli("trace", src, "--arg", "6")
        assert proc.returncode == 0, proc.stderr
        expected = str(tmp_path / "prog.trace.json")
        with open(expected) as fh:
            assert validate_trace(json.load(fh)) == []

    def test_trace_json_flag(self, tmp_path):
        src = self._source(tmp_path)
        out = str(tmp_path / "out.trace.json")
        proc = self._cli("trace", src, "--arg", "6", "-o", out, "--json")
        assert proc.returncode == 0, proc.stderr
        snap = json.loads(proc.stdout)
        assert snap["counters"]["ops_executed"]["value"] > 0

    def test_profile_json_flag(self, tmp_path):
        src = self._source(tmp_path)
        proc = self._cli("profile", src, "--arg", "6", "-p", "2", "--json")
        assert proc.returncode == 0, proc.stderr
        snap = json.loads(proc.stdout)
        assert snap["counters"]["tasks_fired"]["value"] > 0
        assert "histograms" in snap


class TestBottleneckView:
    def test_simulated_trace_reproduces_sec52_report(self):
        """The acceptance scenario: metrics + trace from one run expose
        the dominant operator, paper-style."""
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        bus = EventBus()
        metrics = attach_metrics(bus)
        collector = ChromeTraceCollector(time_scale=TICK_SCALE)
        collector.attach(bus)
        result = SimulatedExecutor(cray_ymp(4), trace=True, bus=bus).run(
            compiled.graph, registry=reg
        )
        # Tracer (tools) and metrics (registry) agree on the bottleneck.
        from repro.tools import node_timing_report

        report = node_timing_report(result.tracer)
        assert "call of convolve took" in report
        hist = metrics.histogram("op_ticks/convolve")
        assert hist.count == 4
        totals = {
            name: h.sum
            for name, h in metrics.histograms.items()
            if name.startswith("op_ticks/")
        }
        assert max(totals, key=totals.get) == "op_ticks/convolve"
        assert validate_trace(collector.to_dict()) == []
