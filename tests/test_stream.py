"""Streaming sources, sinks, and the stream runner (PR 10 tentpole)."""

from __future__ import annotations

import json
import os
import resource

import pytest

from repro import compile_source
from repro.runtime.stream import (
    END,
    CallableSource,
    JsonlSink,
    LineSource,
    MemorySink,
    StreamError,
    StreamRunner,
    count_source,
)

#: main(x) -> x*x + 1, builtins only.
MAP_SRC = """
main(x)
  add(mul(x, x), 1)
"""

#: Carry-mode running sum of squares: main(acc, x) -> acc + x*x.
SUM_SRC = """
main(acc, x)
  add(acc, mul(x, x))
"""


@pytest.fixture(scope="module")
def map_program():
    return compile_source(MAP_SRC)


@pytest.fixture(scope="module")
def sum_program():
    return compile_source(SUM_SRC)


class TestSources:
    def test_callable_source_pulls_and_ends(self):
        src = count_source(3)
        assert [src.next() for _ in range(3)] == [0, 1, 2]
        assert src.next() is END
        assert src.next() is END

    def test_callable_source_seek(self):
        src = count_source(5)
        src.next()
        src.seek(3)
        assert src.offset == 3
        assert src.next() == 3

    def test_unbounded_source_never_ends(self):
        src = count_source(None)
        for want in range(50):
            assert src.next() == want

    def test_negative_n_items_rejected(self):
        with pytest.raises(StreamError):
            CallableSource(lambda i: i, n_items=-1)

    def test_line_source_items_and_seek(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"a":1}\n{"a":2}\n{"a":3}\n')
        src = LineSource(str(path))
        assert src.next() == {"a": 1}
        assert src.next() == {"a": 2}
        src.seek(0)
        assert src.next() == {"a": 1}
        src.seek(2)
        assert src.next() == {"a": 3}
        assert src.next() is END
        src.close()


class TestSinks:
    def test_memory_sink_flush_contract(self):
        sink = MemorySink()
        sink.append(1)
        assert sink.items == []  # not durable until flush
        sink.flush()
        assert sink.items == [1]

    def test_memory_sink_restore_truncates_and_verifies(self):
        sink = MemorySink()
        for i in range(4):
            sink.append(i)
        sink.flush()
        state_at_2 = None
        probe = MemorySink()
        probe.append(0)
        probe.append(1)
        probe.flush()
        state_at_2 = probe.state_dict()
        sink.restore(state_at_2)
        assert sink.items == [0, 1]
        assert sink.digest == probe.digest

    def test_memory_sink_restore_refuses_divergent_content(self):
        good = MemorySink()
        good.append("a")
        good.flush()
        bad = MemorySink()
        bad.append("b")
        bad.flush()
        with pytest.raises(StreamError, match="digest"):
            bad.restore(good.state_dict())

    def test_jsonl_sink_durable_offsets(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        sink.append({"n": 1})
        assert sink.flushed == 0
        sink.flush()
        assert sink.flushed == 1
        assert sink.nbytes == len(b'{"n":1}\n')
        sink.close()
        assert open(path).read() == '{"n":1}\n'

    def test_jsonl_sink_restore_truncates_tail(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        sink.append(1)
        sink.flush()
        state = sink.state_dict()
        sink.append(2)
        sink.append(3)
        sink.flush()
        sink.close()
        resumed = JsonlSink(path, resume=True)
        resumed.restore(state)
        assert resumed.flushed == 1
        resumed.append(99)
        resumed.flush()
        resumed.close()
        assert open(path).read() == "1\n99\n"

    def test_jsonl_sink_restore_refuses_divergent_file(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        sink.append(1)
        sink.flush()
        state = sink.state_dict()
        sink.close()
        with open(path, "wb") as fh:
            fh.write(b"9\n")  # same length, different bytes
        resumed = JsonlSink(path, resume=True)
        with pytest.raises(StreamError, match="digest"):
            resumed.restore(state)
        resumed.close()

    def test_non_json_item_is_a_stream_error(self):
        sink = MemorySink()
        sink.append(object())
        with pytest.raises(StreamError, match="emit"):
            sink.flush()


class TestStreamRunner:
    def test_map_stream(self, map_program):
        runner = StreamRunner(map_program)
        sink = MemorySink()
        result = runner.run(count_source(5), sink)
        assert sink.items == [1, 2, 5, 10, 17]
        assert result.items == 5
        assert result.fires > 0
        assert result.value == 17

    def test_carry_stream(self, sum_program):
        runner = StreamRunner(sum_program, carry=True, initial=0)
        result = runner.run(count_source(5), MemorySink())
        assert result.value == sum(i * i for i in range(5))

    def test_emit_reduces_results(self, sum_program):
        runner = StreamRunner(
            sum_program, carry=True, initial=0, emit=lambda v: {"sum": v}
        )
        sink = MemorySink()
        runner.run(count_source(3), sink)
        assert sink.items == [{"sum": 0}, {"sum": 1}, {"sum": 5}]

    def test_limit_bounds_one_call(self, sum_program):
        runner = StreamRunner(sum_program, carry=True, initial=0)
        source = count_source(10)
        result = runner.run(source, MemorySink(), limit=4)
        assert result.items == 4
        assert source.offset == 4

    def test_unknown_executor_rejected(self, map_program):
        with pytest.raises(StreamError, match="unknown executor"):
            StreamRunner(map_program, executor="simulated")

    @pytest.mark.parametrize("executor", ["threaded", "process"])
    def test_executor_parity(self, sum_program, executor):
        reference = StreamRunner(
            sum_program, carry=True, initial=0
        ).run(count_source(6), MemorySink())
        runner = StreamRunner(
            sum_program,
            carry=True,
            initial=0,
            executor=executor,
            n_workers=2,
        )
        try:
            result = runner.run(count_source(6), MemorySink())
        finally:
            runner.close()
        assert result.value == reference.value
        assert result.sink_digest == reference.sink_digest

    def test_durable_stream_ends_with_one_sink_flush(
        self, sum_program, tmp_path, monkeypatch
    ):
        synced = []
        fsync = os.fsync

        def counting(fd):
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        runner = StreamRunner(
            sum_program,
            carry=True,
            initial=0,
            checkpoint_path=str(tmp_path / "stream.ckpt"),
        )
        sink = JsonlSink(str(tmp_path / "out.jsonl"))
        result = runner.run(count_source(3), sink)
        sink.close()
        assert result.checkpoints_written == 1
        assert sink.flushed == 3
        # The sink file, the checkpoint file, the checkpoint's directory.
        assert len(synced) == 3

    def test_flat_rss_over_long_stream(self, sum_program):
        """Backpressure tentpole: memory must not grow with stream length.

        Warm up on 200 items, then stream 2000 more and require RSS
        growth under 16 MiB — generous for allocator noise, far under
        what retaining even 1 KiB per item would show.
        """
        runner = StreamRunner(sum_program, carry=True, initial=0)
        runner.run(count_source(200), MemorySink())
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sink = MemorySink()
        # JSON-encode-and-discard sink behavior: keep only the digest.
        sink.flush = lambda: sink._pending.clear()  # type: ignore[assignment]
        runner.run(count_source(2000), sink)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert after - before < 16 * 1024  # KiB on Linux


class TestRetinaStream:
    def test_stream_equals_batch_v2(self):
        from repro.apps.retina import compile_retina
        from repro.apps.retina.model import RetinaConfig
        from repro.apps.retina.stream import stream_retina
        from repro.runtime import SequentialExecutor

        n = 2
        result = stream_retina(n)
        cfg = RetinaConfig(num_iter=n)
        compiled = compile_retina(2, cfg)
        batch = SequentialExecutor().run(
            compiled.graph, registry=compiled.registry
        )
        assert result.value.signature() == batch.value.signature()
        assert result.items == n

    def test_emits_one_signature_row_per_frame(self):
        from repro.apps.retina.stream import stream_retina

        sink = MemorySink()
        stream_retina(2, sink=sink)
        assert len(sink.items) == 2
        assert all(len(row) == 5 for row in sink.items)


class TestLogAnalyticsStream:
    def test_stream_equals_sequential_reference(self):
        from repro.apps.loganalytics import sequential_stats, stream_logs

        result = stream_logs(15, seed=11, batch_size=32)
        assert result.value == sequential_stats(11, 15, 32)

    def test_rows_are_running_aggregates(self):
        from repro.apps.loganalytics import stream_logs

        sink = MemorySink()
        stream_logs(5, sink=sink)
        batches = [row["batches"] for row in sink.items]
        assert batches == [1, 2, 3, 4, 5]
        records = [row["records"] for row in sink.items]
        assert records == sorted(records)

    def test_cli_module_runs(self, tmp_path, capsys):
        from repro.apps.loganalytics.__main__ import main

        out = tmp_path / "rows.jsonl"
        rc = main(["--items", "6", "--sink", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["items"] == 6
        assert len(out.read_text().splitlines()) == 6
