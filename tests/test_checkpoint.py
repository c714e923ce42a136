"""Checkpoint/resume: the PR 10 durability tentpole.

The headline property (``TestCheckpointProperty``): a streaming run
that is checkpointed, killed at an arbitrary item boundary, and resumed
produces *bit-identical* sink output — and the identical final value —
to the same run left uninterrupted, across executors, worker counts,
optimization pass sets, and input offsets.  Single-assignment (§8) is
the argument: committed items are final, uncommitted work left no
observable effect, so frontier + carry + offsets is a consistent cut.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.faults import parse_fault_spec
from repro.faults.spec import MASTER_SCOPE, FaultSpecError
from repro.graph.serialize import dumps
from repro.runtime.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointCadence,
    CheckpointError,
    CheckpointMismatchError,
    canonical_flags,
    program_fingerprint,
    read_checkpoint,
    registry_fingerprint,
    verify_compatible,
    write_checkpoint,
)
from repro.runtime.engine import EngineStats
from repro.runtime.operators import default_registry
from repro.runtime.stream import (
    JsonlSink,
    MemorySink,
    StreamRunner,
    count_source,
)
from repro.runtime.supervise import FaultPolicy

from .programs import on_graph_path

SUM_SRC = """
main(acc, x)
  add(acc, mul(x, x))
"""

OTHER_SRC = """
main(acc, x)
  add(acc, mul(x, add(x, 1)))
"""


def _manifest(**over):
    base = {
        "seq": 1,
        "items": 3,
        "fires": 30,
        "source_offset": 3,
        "sink": {"items": 3, "digest": "d" * 64},
        "program": "p" * 40,
        "registry": "r" * 40,
        "flags": {"carry": True},
    }
    base.update(over)
    return base


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        payload = {"carry": [1, 2, 3], "stats": {"tasks_fired": 30.0}}
        nbytes = write_checkpoint(path, _manifest(), payload)
        assert nbytes == os.path.getsize(path)
        ckpt = read_checkpoint(path)
        assert ckpt.payload == payload
        assert ckpt.items == 3
        assert ckpt.fires == 30
        assert ckpt.seq == 1
        assert ckpt.source_offset == 3
        assert ckpt.sink_state == {"items": 3, "digest": "d" * 64}

    def test_write_leaves_no_tmp_file(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, _manifest(), {"carry": None})
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, _manifest(seq=1), {"carry": 1})
        write_checkpoint(path, _manifest(seq=2), {"carry": 2})
        ckpt = read_checkpoint(path)
        assert ckpt.seq == 2
        assert ckpt.payload["carry"] == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMAGI" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, _manifest(), {"carry": list(range(100))})
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_corrupt_payload_byte(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(path, _manifest(), {"carry": list(range(100))})
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            read_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        import struct

        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", 4) + b"}{!(" + b"rest"
        )
        with pytest.raises(CheckpointError, match="JSON"):
            read_checkpoint(str(path))

    def test_future_version_refused_with_key(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        write_checkpoint(
            path, _manifest(), {"carry": None}
        )
        data = bytearray(open(path, "rb").read())
        blob = bytes(data).replace(
            b'"format_version": 1', b'"format_version": 9'
        )
        assert blob != bytes(data), "version field must be present"
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointMismatchError) as err:
            read_checkpoint(path)
        assert err.value.key == "version"


class TestPayloadFormat:
    """The payload a stream's snapshot carries is what resume reads back:
    the carry, the run's injector cursors and the stream's counters."""

    def test_payload_holds_the_carry_cursors_and_every_counter(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        spec = parse_fault_spec("raise:op=mul,nth=2")
        runner = StreamRunner(
            compile_source(SUM_SRC), carry=True, initial=0,
            checkpoint_path=path, checkpoint_every=2, fault_spec=spec,
            fault_policy=FaultPolicy(max_retries=1, backoff=0.0),
        )
        result = runner.run(count_source(5), MemorySink())
        payload = read_checkpoint(path).payload
        assert set(payload) == {"carry", "injector", "stats"}
        assert payload["carry"] == result.value == 30
        numeric = {
            name
            for name, value in dataclasses.asdict(EngineStats()).items()
            if isinstance(value, (int, float))
        }
        assert set(payload["stats"]) == numeric
        assert payload["stats"] == result.stats
        assert payload["stats"]["fires_retried"] == 1
        injector = spec.build()
        injector.load_state(payload["injector"])
        assert injector.state_dict() == payload["injector"]
        assert injector.injected == 1


class TestCompatibilityGates:
    def _ckpt(self) -> Checkpoint:
        return Checkpoint(
            path="x.ckpt", manifest=_manifest(), payload={}
        )

    def test_matching_identity_passes(self):
        verify_compatible(
            self._ckpt(),
            program_fp="p" * 40,
            registry_fp="r" * 40,
            flags={"carry": True},
        )

    def test_program_mismatch_names_key(self):
        with pytest.raises(CheckpointMismatchError) as err:
            verify_compatible(
                self._ckpt(),
                program_fp="q" * 40,
                registry_fp="r" * 40,
                flags={"carry": True},
            )
        assert err.value.key == "program"
        assert err.value.expected == "p" * 40
        assert err.value.found == "q" * 40

    def test_registry_mismatch_names_key(self):
        with pytest.raises(CheckpointMismatchError) as err:
            verify_compatible(
                self._ckpt(),
                program_fp="p" * 40,
                registry_fp="s" * 40,
                flags={"carry": True},
            )
        assert err.value.key == "registry"

    def test_flags_mismatch_names_key(self):
        with pytest.raises(CheckpointMismatchError) as err:
            verify_compatible(
                self._ckpt(),
                program_fp="p" * 40,
                registry_fp="r" * 40,
                flags={"carry": True, "passes": ["fuse"]},
            )
        assert err.value.key == "flags"

    def test_flag_order_does_not_matter(self):
        assert canonical_flags({"a": 1, "b": 2}) == canonical_flags(
            {"b": 2, "a": 1}
        )


class TestFingerprints:
    def test_program_fingerprint_sees_graph_changes(self):
        a = program_fingerprint(compile_source(SUM_SRC).graph)
        b = program_fingerprint(compile_source(OTHER_SRC).graph)
        assert a != b
        assert a == program_fingerprint(compile_source(SUM_SRC).graph)

    def test_pass_set_changes_program_fingerprint(self):
        plain = program_fingerprint(compile_source(SUM_SRC).graph)
        fused = program_fingerprint(
            compile_source(
                SUM_SRC, optimize_passes=PASS_ORDER + ("fuse",)
            ).graph
        )
        assert plain != fused

    def test_registry_fingerprint_sees_interface_changes(self):
        base = registry_fingerprint(default_registry())
        extended = default_registry()

        @extended.register(name="extra_op", pure=True)
        def extra_op(x):
            return x

        assert registry_fingerprint(extended) != base
        assert registry_fingerprint(default_registry()) == base


class TestResumeRefusal:
    """The StreamRunner refuses a foreign checkpoint, naming the key."""

    def _checkpointed_run(self, tmp_path) -> str:
        path = str(tmp_path / "run.ckpt")
        runner = StreamRunner(
            compile_source(SUM_SRC),
            carry=True,
            initial=0,
            checkpoint_path=path,
        )
        runner.run(count_source(4), MemorySink())
        return path

    def test_different_program_refused(self, tmp_path):
        ckpt = self._checkpointed_run(tmp_path)
        runner = StreamRunner(
            compile_source(OTHER_SRC), carry=True, initial=0
        )
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(count_source(4), MemorySink(), resume=ckpt)
        assert err.value.key == "program"

    def test_different_registry_refused(self, tmp_path):
        ckpt = self._checkpointed_run(tmp_path)
        registry = default_registry()

        @registry.register(name="novel_op", pure=True)
        def novel_op(x):
            return x

        runner = StreamRunner(
            compile_source(SUM_SRC).graph,
            registry,
            carry=True,
            initial=0,
        )
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(count_source(4), MemorySink(), resume=ckpt)
        assert err.value.key == "registry"

    def test_different_flags_refused(self, tmp_path):
        ckpt = self._checkpointed_run(tmp_path)
        runner = StreamRunner(
            compile_source(SUM_SRC),
            carry=True,
            initial=0,
            flags={"passes": ["fuse"]},
        )
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(count_source(4), MemorySink(), resume=ckpt)
        assert err.value.key == "flags"

    def test_checkpoint_under_a_deleted_pass_refused(self, tmp_path):
        # Older command lines added "donate" to the pass set they recorded;
        # that set names a pass this build no longer has.
        path = str(tmp_path / "run.ckpt")
        program = compile_source(SUM_SRC)
        older = list(PASS_ORDER + ("fuse", "donate"))
        StreamRunner(
            program, carry=True, initial=0, checkpoint_path=path,
            flags={"passes": older},
        ).run(count_source(4), MemorySink())
        runner = StreamRunner(
            program, carry=True, initial=0,
            flags={"passes": list(PASS_ORDER + ("fuse",))},
        )
        with pytest.raises(CheckpointMismatchError, match="donate") as err:
            runner.run(count_source(4), MemorySink(), resume=path)
        assert err.value.key == "flags"
        assert err.value.expected["passes"] == older

    def test_checkpoint_of_a_graph_with_generated_text_refused(self, tmp_path):
        # Builds before compiler revision 5 stored each fused node's
        # generated source in the graph, so the program they fingerprinted
        # is not the one this build runs: their checkpoints are refused.
        passes = PASS_ORDER + ("fuse",)
        program = compile_source(SUM_SRC, optimize_passes=passes)
        path = str(tmp_path / "run.ckpt")
        StreamRunner(program, carry=True, initial=0, checkpoint_path=path).run(
            count_source(4), MemorySink()
        )
        data = json.loads(dumps(program.graph))
        fused = [n for t in data["templates"].values() for n in t["nodes"] if "fused" in n]
        assert fused
        for node in fused:
            node["codegen"] = "def _delirium_bind(_f0, _f1): ...\n"
        older = hashlib.sha256(json.dumps(data).encode("utf-8")).hexdigest()[:40]
        ckpt = read_checkpoint(path)
        write_checkpoint(path, {**ckpt.manifest, "program": older}, ckpt.payload)
        runner = StreamRunner(program, carry=True, initial=0)
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(count_source(4), MemorySink(), resume=path)
        assert err.value.key == "program"
        assert err.value.expected == older
        assert err.value.found == program_fingerprint(program.graph)

    def test_checkpoint_that_fingerprinted_batch_forms_refused(self, tmp_path):
        # Builds whose operators could carry a vectorized batch form added
        # "has one" to each operator's fingerprint entry: their registry
        # fingerprint is not this build's, so their checkpoints are refused.
        program = compile_source(SUM_SRC)
        path = str(tmp_path / "run.ckpt")
        StreamRunner(program, carry=True, initial=0, checkpoint_path=path).run(
            count_source(4), MemorySink()
        )
        entries = [
            [s.name, s.arity, sorted(s.modifies), bool(s.pure), False]
            for s in sorted(program.registry, key=lambda s: s.name)
        ]
        blob = json.dumps(entries, separators=(",", ":")).encode("utf-8")
        older = hashlib.sha256(blob).hexdigest()[:40]
        ckpt = read_checkpoint(path)
        write_checkpoint(path, {**ckpt.manifest, "registry": older}, ckpt.payload)
        runner = StreamRunner(program, carry=True, initial=0)
        with pytest.raises(CheckpointMismatchError) as err:
            runner.run(count_source(4), MemorySink(), resume=path)
        assert err.value.key == "registry"
        assert err.value.expected == older
        assert err.value.found == registry_fingerprint(program.registry)

    def test_refusal_leaves_sink_untouched(self, tmp_path):
        ckpt = self._checkpointed_run(tmp_path)
        sink_path = str(tmp_path / "precious.jsonl")
        with open(sink_path, "w") as fh:
            fh.write("42\n")
        sink = JsonlSink(sink_path, resume=True)
        runner = StreamRunner(
            compile_source(OTHER_SRC), carry=True, initial=0
        )
        with pytest.raises(CheckpointMismatchError):
            runner.run(count_source(4), sink, resume=ckpt)
        sink.close()
        assert open(sink_path).read() == "42\n"


class TestCadence:
    def test_disabled_by_default(self):
        cadence = CheckpointCadence()
        assert not cadence.enabled
        assert not cadence.due(10**9)

    def test_fires_cadence(self):
        cadence = CheckpointCadence(every_fires=10)
        cadence.mark(0)
        assert not cadence.due(9)
        assert cadence.due(10)
        cadence.mark(10)
        assert not cadence.due(19)
        assert cadence.due(25)

    def test_seconds_cadence(self, monkeypatch):
        import repro.runtime.checkpoint as ckpt_mod

        now = [100.0]
        monkeypatch.setattr(ckpt_mod.time, "monotonic", lambda: now[0])
        cadence = CheckpointCadence(every_seconds=5.0)
        cadence.mark(0)
        now[0] = 104.9
        assert not cadence.due(0)
        now[0] = 105.1
        assert cadence.due(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointCadence(every_fires=0)
        with pytest.raises(ValueError):
            CheckpointCadence(every_seconds=0.0)


class TestFaultPolicyCheckpointKnob:
    def test_parse_checkpoint_seconds(self):
        policy = FaultPolicy.parse("retries=2,checkpoint=1.5")
        assert policy.checkpoint == 1.5
        assert policy.max_retries == 2

    def test_parse_checkpoint_off(self):
        assert FaultPolicy.parse("checkpoint=none").checkpoint is None
        assert FaultPolicy.parse("checkpoint=off").checkpoint is None

    def test_negative_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            FaultPolicy(checkpoint=-1.0)

    def test_wall_clock_cadence_reaches_runner(self, monkeypatch, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = StreamRunner(
            compile_source(SUM_SRC),
            carry=True,
            initial=0,
            checkpoint_path=path,
            fault_policy=FaultPolicy(checkpoint=0.000001),
        )
        result = runner.run(count_source(3), MemorySink())
        # Every item boundary exceeds the 1µs cadence, plus the final one.
        assert result.checkpoints_written == 4


class TestMasterKill:
    def test_parse(self):
        spec = parse_fault_spec("masterkill:nth=3")
        assert spec.clauses[0].kind == "masterkill"
        assert spec.clauses[0].nth == 3

    def test_needs_trigger(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("masterkill")

    def test_fires_sigkill_on_nth_boundary(self, monkeypatch):
        import repro.faults.spec as spec_mod

        kills = []
        monkeypatch.setattr(
            spec_mod.os, "kill", lambda pid, sig: kills.append((pid, sig))
        )
        injector = parse_fault_spec("masterkill:nth=2").build()
        injector.on_master_boundary()
        assert kills == []
        injector.on_master_boundary()
        assert len(kills) == 1
        import signal

        assert kills[0] == (os.getpid(), signal.SIGKILL)
        # times cap defaults to 1 for nth clauses: no third kill.
        injector.on_master_boundary()
        assert len(kills) == 1

    def test_inert_in_worker_process(self, monkeypatch):
        import repro.faults.spec as spec_mod

        kills = []
        monkeypatch.setattr(
            spec_mod.os, "kill", lambda pid, sig: kills.append(pid)
        )
        monkeypatch.setattr(
            spec_mod, "_in_worker_process", lambda: True
        )
        injector = parse_fault_spec("masterkill:nth=1").build()
        injector.on_master_boundary()
        assert kills == []

    def test_masterkill_ignored_by_operator_calls(self):
        injector = parse_fault_spec("masterkill:nth=1").build()
        injector.on_call("add")  # must not raise, delay, or count
        assert injector.injected == 0

    def test_counts_under_master_scope(self, monkeypatch):
        import repro.faults.spec as spec_mod

        monkeypatch.setattr(spec_mod.os, "kill", lambda *a: None)
        injector = parse_fault_spec("masterkill:nth=1").build()
        injector.on_master_boundary()
        assert any(op == MASTER_SCOPE for (_, op) in injector._counts)


class TestInjectorState:
    def test_state_round_trip_preserves_decisions(self):
        spec = parse_fault_spec("raise:op=add,p=0.4,seed=9,times=100")
        a = spec.build()
        outcomes_a = []
        for _ in range(10):
            try:
                a.on_call("add")
                outcomes_a.append(False)
            except Exception:
                outcomes_a.append(True)
        state = a.state_dict()
        assert state == pickle.loads(pickle.dumps(state))

        b = spec.build()
        b.load_state(state)
        outcomes_b = []
        for _ in range(10):
            try:
                b.on_call("add")
                outcomes_b.append(False)
            except Exception:
                outcomes_b.append(True)
        c = spec.build()
        for _ in range(10):
            try:
                c.on_call("add")
            except Exception:
                pass
        outcomes_c = []
        for _ in range(10):
            try:
                c.on_call("add")
                outcomes_c.append(False)
            except Exception:
                outcomes_c.append(True)
        assert outcomes_b == outcomes_c
        assert any(outcomes_a + outcomes_b), "p=0.4 must fire in 20 calls"


class _Exec:
    """One executor configuration for the property."""

    def __init__(self, name: str, workers: int) -> None:
        self.name = name
        self.workers = workers

    def __repr__(self) -> str:
        return f"{self.name}x{self.workers}"


_EXECUTORS = st.sampled_from(
    [_Exec("sequential", 1), _Exec("threaded", 2), _Exec("threaded", 4)]
)


class TestCheckpointProperty:
    """checkpointed + killed + resumed ≡ uninterrupted (the tentpole)."""

    @settings(max_examples=25, deadline=None)
    @given(
        ex=_EXECUTORS,
        n_items=st.integers(2, 14),
        stop_after=st.integers(1, 14),
        every_fires=st.integers(1, 40),
        fuse=st.booleans(),
        base=st.integers(-3, 3),
    )
    def test_resume_is_bit_identical(
        self, tmp_path_factory, ex, n_items, stop_after, every_fires, fuse, base
    ):
        td = tmp_path_factory.mktemp("ckpt")
        passes = PASS_ORDER + (("fuse",) if fuse else ())
        compiled = compile_source(SUM_SRC, optimize_passes=passes)
        make_args = lambda item, carry: (carry, item + base)  # noqa: E731
        flags = {"base": base, "passes": list(passes)}

        def runner(**kw):
            return StreamRunner(
                compiled,
                executor=ex.name,
                n_workers=ex.workers,
                carry=True,
                initial=0,
                make_args=make_args,
                flags=flags,
                **kw,
            )

        ref_path = str(td / "ref.jsonl")
        ref_sink = JsonlSink(ref_path)
        reference = runner().run(count_source(n_items), ref_sink)
        ref_sink.close()

        ckpt = str(td / "run.ckpt")
        out_path = str(td / "out.jsonl")
        crash_sink = JsonlSink(out_path)
        crashed = runner(
            checkpoint_path=ckpt, checkpoint_every=every_fires
        )
        crashed.run(
            count_source(n_items),
            crash_sink,
            stop_after_items=min(stop_after, n_items),
        )
        crash_sink.close()

        # Resume from the last durable checkpoint; if the crash landed
        # before the first snapshot, recovery is a fresh start.
        have_ckpt = os.path.exists(ckpt)
        resumed_sink = JsonlSink(out_path, resume=have_ckpt)
        result = runner(
            checkpoint_path=ckpt, checkpoint_every=every_fires
        ).run(
            count_source(n_items),
            resumed_sink,
            resume=ckpt if have_ckpt else None,
        )
        resumed_sink.close()

        with open(ref_path, "rb") as fh:
            want = fh.read()
        with open(out_path, "rb") as fh:
            got = fh.read()
        assert got == want, "sink bytes must be bit-identical"
        assert result.value == reference.value
        assert result.sink_digest == reference.sink_digest

    def test_process_executor_resume(self, tmp_path):
        """The warm-pool executor path, once (spawn cost keeps it out of
        the hypothesis loop)."""
        compiled = compile_source(SUM_SRC)

        def runner(**kw):
            return StreamRunner(
                compiled,
                executor="process",
                n_workers=2,
                carry=True,
                initial=0,
                **kw,
            )

        ref_sink = JsonlSink(str(tmp_path / "ref.jsonl"))
        r = runner()
        try:
            reference = r.run(count_source(6), ref_sink)
        finally:
            r.close()
        ref_sink.close()

        ckpt = str(tmp_path / "run.ckpt")
        out = str(tmp_path / "out.jsonl")
        crash_sink = JsonlSink(out)
        r = runner(checkpoint_path=ckpt, checkpoint_every=1)
        try:
            r.run(count_source(6), crash_sink, stop_after_items=3)
        finally:
            r.close()
        crash_sink.close()

        resumed_sink = JsonlSink(out, resume=True)
        r = runner(checkpoint_path=ckpt, checkpoint_every=1)
        try:
            result = r.run(count_source(6), resumed_sink, resume=ckpt)
        finally:
            r.close()
        resumed_sink.close()

        assert open(out).read() == open(str(tmp_path / "ref.jsonl")).read()
        assert result.value == reference.value

    def test_resume_after_clean_finish_is_a_noop_replay(self, tmp_path):
        """Resuming from the final checkpoint re-fires nothing."""
        compiled = compile_source(SUM_SRC)
        ckpt = str(tmp_path / "run.ckpt")
        out = str(tmp_path / "out.jsonl")
        sink = JsonlSink(out)
        runner = StreamRunner(
            compiled, carry=True, initial=0, checkpoint_path=ckpt
        )
        first = runner.run(count_source(5), sink)
        sink.close()
        bytes_before = open(out, "rb").read()

        resumed_sink = JsonlSink(out, resume=True)
        again = StreamRunner(
            compiled, carry=True, initial=0, checkpoint_path=ckpt
        ).run(count_source(5), resumed_sink, resume=ckpt)
        resumed_sink.close()
        assert again.items == first.items
        assert again.fires == first.fires  # nothing replayed
        assert open(out, "rb").read() == bytes_before


#: A carry stream whose items make calls: a run fires once when its entry
#: clips and several times on the graph, for the same operator calls.
TRI_SRC = """
main(acc, x)
  add(acc, tri(x))

tri(k)
  if is_less(k, 1) then 0 else add(k, tri(sub(k, 1)))
"""


class TestCadenceCountsOperatorCalls:
    """The ``checkpoint_every`` cadence counts ``ops_executed``, which is
    the same on every path a run takes, so clipping cannot move it."""

    def _checkpoints(self, tmp_path, tag):
        from repro.obs import CheckpointWritten, EventBus

        bus = EventBus()
        written = []
        bus.subscribe(written.append, (CheckpointWritten,))
        runner = StreamRunner(
            compile_source(TRI_SRC), carry=True, initial=0, bus=bus,
            checkpoint_path=str(tmp_path / f"{tag}.ckpt"), checkpoint_every=25,
        )
        result = runner.run(count_source(12), MemorySink())
        return result, [(e.items, e.fires) for e in written]

    def test_checkpoints_fall_on_the_same_items_on_every_path(self, tmp_path):
        clipped, at = self._checkpoints(tmp_path, "clipped")
        assert clipped.stats["tasks_fired"] == clipped.items == 12
        with on_graph_path():
            graph, graph_at = self._checkpoints(tmp_path, "graph")
        assert graph.stats["tasks_fired"] > 12
        assert at == graph_at and len(at) > 2  # the last is the final one
        assert clipped.fires == graph.fires == clipped.stats["ops_executed"]
        assert clipped.value == graph.value

    def test_kill_and_resume_of_a_stream_whose_entry_clips(self, tmp_path):
        compiled = compile_source(TRI_SRC)

        def runner():
            return StreamRunner(
                compiled, carry=True, initial=0,
                checkpoint_path=str(tmp_path / "run.ckpt"), checkpoint_every=10,
            )

        ref_path, out_path = str(tmp_path / "ref.jsonl"), str(tmp_path / "out.jsonl")
        ref_sink = JsonlSink(ref_path)
        reference = StreamRunner(compiled, carry=True, initial=0).run(
            count_source(9), ref_sink
        )
        ref_sink.close()
        crash_sink = JsonlSink(out_path)
        crashed = runner().run(count_source(9), crash_sink, stop_after_items=5)
        crash_sink.close()
        assert crashed.stats["tasks_fired"] == 5  # one call per item
        resumed_sink = JsonlSink(out_path, resume=True)
        result = runner().run(
            count_source(9), resumed_sink, resume=str(tmp_path / "run.ckpt")
        )
        resumed_sink.close()
        assert result.resumed_from is not None
        assert open(out_path, "rb").read() == open(ref_path, "rb").read()
        assert result.value == reference.value
        assert result.fires == reference.fires
