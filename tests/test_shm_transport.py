"""The shared-memory payload transport: untracked segments, mappings
attached once, replies written into the request's own segment.

What this file pins:

* **steady state** — a warm process run opens, maps and unlinks nothing
  and never talks to ``multiprocessing.resource_tracker``, in the master
  and in the worker, and no tracker process is ever spawned;
* **reply placement** — a result that fits comes back ``pooled`` in one
  of its own call's argument segments; one that fits none (larger than
  every argument, only in-band arguments, only ``("ref", bid)``
  arguments) comes back in a fresh segment the master unlinks;
* **isolation** — a decoded reply is private: writing into it, then
  re-dispatching from the recycled segment, changes neither;
* **the safety argument** — a request segment is recycled only after its
  result was decoded or its worker is dead, under SIGKILL, arena
  allocation failures and forced cache misses;
* **leaks** — late results, unread pipes and workers that die between
  creating a segment and sending it leave ``/dev/shm`` as they found it.
"""

import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import resource_tracker
from types import SimpleNamespace

import _posixshmem
import numpy as np
import pytest

from repro import compile_source
from repro.apps import retina
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.faults import parse_fault_spec
from repro.obs import (
    FireTimedOut, RunContext, ShmSegmentReclaimed, WorkerCrashed,
)
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    default_registry,
)
from repro.runtime import supervise, workers
from repro.runtime.engine import EngineStats
from repro.runtime.supervise import Supervisor
from repro.runtime.workers import (
    ShmSegment,
    WorkerPool,
    decode_value,
    encode_value,
    pick_context,
    unlink_segments_of,
)

from .programs import Fold

#: Every array in this file is far above it, every scalar far below.
THRESHOLD = 1024


def _shm_entries():
    return set(os.listdir("/dev/shm"))


def _registry():
    reg = default_registry()

    @reg.register(pure=True, cost=2e6)
    def double(a):
        return a * 2.0

    @reg.register(pure=True, cost=2e6)
    def grow(a):
        return np.tile(a, 8)

    @reg.register(pure=True, cost=2e6)
    def scale_second(big, small):
        return small * float(big[0])

    @reg.register(pure=True, cost=2e6)
    def make(n):
        return np.arange(n, dtype=np.float64)

    @reg.register(pure=True, cost=2e6)
    def vbump(a):
        return a + 1.0

    @reg.register(pure=True, cost=2e6)
    def total(a):
        return float(a.sum())

    @reg.register(pure=True, cost=2e6)
    def nap(a):
        time.sleep(30.0)
        return a

    return reg


REGISTRY = _registry()


@pytest.fixture
def pool():
    before = _shm_entries()
    with WorkerPool(1, registry=REGISTRY, shm_threshold=THRESHOLD) as p:
        yield p
    assert _shm_entries() == before


def _arg(pool, array):
    enc = encode_value(array, THRESHOLD, arena=pool.arena)
    assert enc.pooled
    return enc


def _round_trip(pool, calls):
    """Send ``calls`` to worker 0, one per message; their replies
    (without the worker id), in arrival order."""
    for call in calls:
        pool.submit_to(0, ([], [call]))
    results = []
    while len(results) < len(calls):
        ready = pool.wait(10.0)
        assert ready, "worker did not answer"
        for obj in ready:
            assert pool.worker_for_conn(obj) is not None, "worker died"
            results.append(obj.recv()[1:])
    return results


def _decode_reply(pool, payload):
    return decode_value(payload, segment=pool.arena.reply_segment(payload))


# ---------------------------------------------------------------------------
# The segment class
# ---------------------------------------------------------------------------
class TestShmSegment:
    def test_create_attach_unlink(self):
        before = _shm_entries()
        seg = ShmSegment.create(5000)
        try:
            assert _shm_entries() - before == {seg.name}
            assert seg.size == 5000
            seg.buf[:4] = b"abcd"
            other = ShmSegment.attach(seg.name)
            assert other.size == 5000
            assert bytes(other.buf[:4]) == b"abcd"
            other.close()
        finally:
            seg.close()
            seg.unlink()
        assert _shm_entries() == before
        seg.unlink()  # already gone: not an error
        with pytest.raises(FileNotFoundError):
            ShmSegment.attach(seg.name)

    def test_name_carries_creator_and_parent_pid(self):
        seg = ShmSegment.create(64)
        try:
            assert seg.name.startswith(
                f"dlm_{os.getppid()}_{os.getpid()}_"
            )
        finally:
            seg.close()
            seg.unlink()

    def test_source_tree_has_no_tracker_or_stdlib_segments(self):
        root = os.path.dirname(os.path.dirname(workers.__file__))
        for folder, _, files in os.walk(root):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as fh:
                        text = fh.read()
                    assert "shared_memory" not in text, name
                    assert "resource_tracker" not in text, name


# ---------------------------------------------------------------------------
# (a) Steady state
# ---------------------------------------------------------------------------
def _log_shm_calls(monkeypatch, path):
    """Log every call that opens, maps or unlinks shared memory or talks
    to a resource tracker — here and in every process forked from here —
    as one ``pid name`` line in ``path``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            os.write(fd, f"{os.getpid()} {name}\n".encode())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        workers,
        "_posixshmem",
        SimpleNamespace(
            shm_open=logged("shm_open", _posixshmem.shm_open),
            shm_unlink=logged("shm_unlink", _posixshmem.shm_unlink),
        ),
    )
    monkeypatch.setattr(
        workers, "mmap", SimpleNamespace(mmap=logged("mmap", mmap.mmap))
    )
    for name in ("register", "unregister", "ensure_running"):
        monkeypatch.setattr(
            resource_tracker,
            name,
            logged(f"resource_tracker.{name}", getattr(resource_tracker, name)),
        )
    return fd


def _retina():
    cfg = retina.RetinaConfig(
        height=160, width=160, kernel_size=13, num_iter=2, seed=2
    )
    return retina.compile_retina(2, cfg, optimize_passes=FULL_PASS_ORDER)


class TestSteadyState:
    def test_warm_retina_run_makes_no_shm_syscalls(self, monkeypatch, tmp_path):
        log = tmp_path / "calls.log"
        fd = _log_shm_calls(monkeypatch, log)
        compiled = _retina()
        want = SequentialExecutor().run(
            compiled.graph, (), compiled.registry
        ).value.signature()
        executor = ProcessExecutor(1, persistent=True, shm_threshold=4096)
        try:
            first = executor.run(compiled.graph, (), compiled.registry)
            assert first.value.signature() == want
            cold = log.read_text().splitlines()
            worker_pid = executor._pool.processes[0].pid
            # The first run did create and attach — in both processes.
            assert f"{os.getpid()} shm_open" in cold
            assert f"{worker_pid} shm_open" in cold
            assert f"{worker_pid} mmap" in cold
            for _ in range(2):
                warm = executor.run(compiled.graph, (), compiled.registry)
                assert warm.value.signature() == want
            assert log.read_text().splitlines() == cold
            arena = executor._pool.arena.stats()
            assert first.stats.dispatched_fires > 0
            assert arena["replies"] == 3 * first.stats.dispatched_fires
            assert arena["lent"] == 0
        finally:
            executor.close()
            os.close(fd)
        assert not any(
            "resource_tracker" in line
            for line in log.read_text().splitlines()
        )

    def test_no_tracker_process_after_a_process_run(self):
        script = textwrap.dedent(
            """
            import os
            import numpy as np
            from multiprocessing import resource_tracker
            from repro import compile_source
            from repro.runtime import ProcessExecutor, default_registry

            reg = default_registry()

            @reg.register(pure=True, cost=2e6)
            def mk(n):
                return np.arange(n, dtype=np.float64)

            @reg.register(pure=True, cost=2e6)
            def twice(a):
                return a * 2.0

            @reg.register(pure=True, cost=2e6)
            def total(a):
                return float(a.sum())

            prog = compile_source(
                "main(n) let a = mk(n) in add(total(twice(a)), total(a))",
                registry=reg,
            )
            executor = ProcessExecutor(
                1,
                persistent=True,
                cost_threshold=0.0,
                shm_threshold=1024,
                measured_costs={"mk": 0.0},
            )
            value = executor.run(prog.graph, (50_000,), reg).value
            assert value == float(np.arange(50_000).sum() * 3)
            assert executor._pool.arena.stats()["created"] > 0
            children = []
            for entry in os.listdir("/proc"):
                if entry.isdigit():
                    try:
                        with open(f"/proc/{entry}/stat") as fh:
                            ppid = fh.read().rsplit(")", 1)[1].split()[1]
                    except OSError:
                        continue
                    if int(ppid) == os.getpid():
                        children.append(int(entry))
            assert children == [executor._pool.processes[0].pid], children
            executor.close()
            assert resource_tracker._resource_tracker._pid is None
            print("clean")
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.dirname(workers.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "clean"
        assert "resource_tracker" not in out.stderr  # no leak warnings


# ---------------------------------------------------------------------------
# (b) Reply placement
# ---------------------------------------------------------------------------
class TestReplyPlacement:
    def test_fitting_result_returns_in_its_own_request_segment(self, pool):
        a = np.arange(2_000, dtype=np.float64)
        enc = _arg(pool, a)
        [(cid, ok, payload, *_)] = _round_trip(
            pool, [(1, "double", [enc], None)]
        )
        assert (cid, ok) == (1, True)
        assert payload.pooled and payload.shm_name == enc.shm_name
        np.testing.assert_array_equal(_decode_reply(pool, payload), a * 2.0)
        assert pool.arena.stats()["replies"] == 1
        pool.arena.release(enc.shm_name)

    def test_reply_takes_the_smallest_segment_that_fits(self, pool):
        big = _arg(pool, np.full(40_000, 3.0))
        small = _arg(pool, np.arange(2_000, dtype=np.float64))
        assert pool.arena._lent[big.shm_name].size > (
            pool.arena._lent[small.shm_name].size
        )
        [(_, ok, payload, *_)] = _round_trip(
            pool, [(1, "scale_second", [big, small], None)]
        )
        assert ok is True
        assert payload.pooled and payload.shm_name == small.shm_name
        np.testing.assert_array_equal(
            _decode_reply(pool, payload), np.arange(2_000) * 3.0
        )
        for enc in (big, small):
            pool.arena.release(enc.shm_name)

    def test_result_larger_than_every_request_segment_is_fresh(self, pool):
        before = _shm_entries()
        a = np.arange(2_000, dtype=np.float64)
        enc = _arg(pool, a)
        [(_, ok, payload, *_)] = _round_trip(pool, [(1, "grow", [enc], None)])
        assert ok is True
        assert payload.via_shm and not payload.pooled
        assert payload.shm_name in _shm_entries() - before
        assert pool.arena.reply_segment(payload) is None
        np.testing.assert_array_equal(decode_value(payload), np.tile(a, 8))
        assert payload.shm_name not in _shm_entries()  # consumer unlinked
        assert pool.arena.stats()["replies"] == 0
        pool.arena.release(enc.shm_name)

    def test_in_band_arguments_only_reply_fresh(self, pool):
        scalar = encode_value(5_000, THRESHOLD, arena=pool.arena)
        assert not scalar.via_shm
        [(_, ok, payload, *_)] = _round_trip(
            pool, [(1, "make", [scalar], None)]
        )
        assert ok is True and payload.via_shm and not payload.pooled
        np.testing.assert_array_equal(
            decode_value(payload), np.arange(5_000, dtype=np.float64)
        )
        assert payload.shm_name not in _shm_entries()

    def test_ref_arguments_only_reply_fresh(self, pool):
        a = np.arange(3_000, dtype=np.float64)
        enc = _arg(pool, a)
        [(_, ok, payload, *_)] = _round_trip(
            pool, [(1, "total", [("blk", 7, enc)], None)]
        )
        assert ok is True and not payload.via_shm
        pool.arena.release(enc.shm_name)
        [(_, ok, payload, *_)] = _round_trip(
            pool, [(2, "double", [("ref", 7)], None)]
        )
        assert ok is True and payload.via_shm and not payload.pooled
        np.testing.assert_array_equal(decode_value(payload), a * 2.0)
        assert payload.shm_name not in _shm_entries()

    def test_each_queued_call_replies_in_its_own_segment(self, pool):
        arrays = [np.full(2_000, float(i)) for i in range(3)]
        encs = [_arg(pool, a) for a in arrays]
        assert len({e.shm_name for e in encs}) == 3
        calls = [(10 + i, "vbump", [enc], None) for i, enc in enumerate(encs)]
        results = _round_trip(pool, calls)
        assert [r[0] for r in results] == [10, 11, 12]
        for (_, ok, payload, *_), enc, a in zip(results, encs, arrays):
            assert ok is True
            assert payload.pooled and payload.shm_name == enc.shm_name
            np.testing.assert_array_equal(
                _decode_reply(pool, payload), a + 1.0
            )
            pool.arena.release(enc.shm_name)
        assert pool.arena.stats()["replies"] == 3

    def test_supervisor_decodes_a_reply_while_its_segments_are_lent(
        self, monkeypatch
    ):
        """Every pooled reply names a segment in its own record's
        ``pooled`` list and is decoded before that list is released."""
        decoded = []
        checked = []
        real_decode = supervise.decode_value
        real_release = Supervisor._release_encodings

        def spy_decode(enc, **kwargs):
            decoded.append(enc)
            return real_decode(enc, **kwargs)

        def spy_release(self, record, crashed, pid):
            if not crashed and decoded and decoded[-1].pooled:
                enc = decoded.pop()
                assert enc.shm_name in record.pooled
                assert enc.shm_name in self.pool.arena._lent
                checked.append(enc.shm_name)
            return real_release(self, record, crashed, pid)

        monkeypatch.setattr(supervise, "decode_value", spy_decode)
        monkeypatch.setattr(Supervisor, "_release_encodings", spy_release)
        compiled = compile_source(
            "main(n) let a = make(n) in add(total(double(a)), total(vbump(a)))",
            registry=REGISTRY,
        )
        executor = ProcessExecutor(
            1,
            persistent=True,
            cost_threshold=0.0,
            shm_threshold=THRESHOLD,
            measured_costs={"make": 0.0},
            affinity="none",  # ship ``a`` in full to both consumers
        )
        try:
            result = executor.run(compiled.graph, (4_000,), REGISTRY)
            stats = executor._pool.arena.stats()
        finally:
            executor.close()
        want = SequentialExecutor().run(compiled.graph, (4_000,), REGISTRY)
        assert result.value == want.value
        assert len(checked) == stats["replies"] == 2  # double and vbump
        assert stats["lent"] == 0


# ---------------------------------------------------------------------------
# (c) Isolation
# ---------------------------------------------------------------------------
class TestIsolation:
    def test_decoded_reply_and_recycled_segment_are_independent(self, pool):
        a = np.arange(2_000, dtype=np.float64)
        enc = _arg(pool, a)
        [(_, _, payload, *_)] = _round_trip(pool, [(1, "double", [enc], None)])
        first = _decode_reply(pool, payload)
        pool.arena.release(enc.shm_name)
        first[:] = -1.0  # the master owns its decoded copy outright
        b = np.arange(2_000, dtype=np.float64) + 100.0
        enc2 = _arg(pool, b)
        assert enc2.shm_name == enc.shm_name  # recycled
        [(_, _, payload2, *_)] = _round_trip(
            pool, [(2, "double", [enc2], None)]
        )
        second = _decode_reply(pool, payload2)
        pool.arena.release(enc2.shm_name)
        np.testing.assert_array_equal(second, b * 2.0)
        assert (first == -1.0).all()
        np.testing.assert_array_equal(a, np.arange(2_000, dtype=np.float64))
        np.testing.assert_array_equal(
            b, np.arange(2_000, dtype=np.float64) + 100.0
        )
        second[:] = 7.0  # ... and writes to it never reach the segment
        [seg] = pool.arena._free[16384]
        assert seg.name == enc.shm_name
        np.testing.assert_array_equal(
            np.frombuffer(seg.buf[: b.nbytes], dtype=np.float64), b * 2.0
        )

    def test_decoded_arrays_are_writable(self, pool):
        enc = _arg(pool, np.ones(2_000))
        [(_, _, payload, *_)] = _round_trip(pool, [(1, "double", [enc], None)])
        out = _decode_reply(pool, payload)
        pool.arena.release(enc.shm_name)
        assert out.flags.writeable
        out += 1.0
        assert (out == 3.0).all()


# ---------------------------------------------------------------------------
# (d) Chaos: the safety argument under faults
# ---------------------------------------------------------------------------
CHAOS_SRC = """
main(n)
  let
    a = make(n)
    b = double(a)
    c = double(b)
    d = vbump(a)
    e = vbump(b)
  in add(add(total(c), total(d)), add(total(e), total(grow(a))))
"""


def _chaos_run(spec_text, workers_n=2, **options):
    compiled = compile_source(CHAOS_SRC, registry=REGISTRY)
    want = SequentialExecutor().run(compiled.graph, (3_000,), REGISTRY).value
    before = _shm_entries()
    executor = ProcessExecutor(
        workers_n,
        persistent=True,
        cost_threshold=0.0,
        shm_threshold=THRESHOLD,
        measured_costs={"make": 0.0},
        fault_policy=FaultPolicy(max_retries=6, backoff=0.0, max_respawns=64),
        fault_spec=parse_fault_spec(spec_text) if spec_text else None,
        **options,
    )
    try:
        results = [
            executor.run(compiled.graph, (3_000,), REGISTRY) for _ in range(3)
        ]
        arena = executor._pool.arena.stats()
    finally:
        executor.close()
    assert [r.value for r in results] == [want] * 3
    assert arena["lent"] == 0
    assert _shm_entries() == before
    return results, arena


def _nap_pending():
    """What the supervisor reads of a ``PendingOp``: one 30-second call
    with one pooled argument."""
    return SimpleNamespace(
        spec=REGISTRY.get("nap"),
        args=(np.ones(2_000),),
        op_inputs=(),
        node_id=0,
    )


class TestChaos:
    def test_fault_free_baseline_replies_in_request_segments(self):
        _, arena = _chaos_run(None)
        assert arena["replies"] > 0

    @pytest.mark.parametrize(
        "spec_text",
        [
            "kill:op=double,nth=2",
            "kill:p=0.15,seed=3",
            "arena:p=0.5,seed=2",
            "cachemiss:p=1.0",
            "kill:p=0.1,seed=4;arena:p=0.3,seed=6;cachemiss:p=0.5,seed=1",
        ],
    )
    def test_faults_change_nothing_and_leak_nothing(self, spec_text):
        crashes = Fold(None, WorkerCrashed)
        _chaos_run(spec_text, bus=crashes.bus)
        if "kill:op" in spec_text:
            assert crashes["worker_crashes"] >= 1

    def test_sigkill_with_replies_in_flight(self, monkeypatch):
        """Kill the worker from outside while it still holds queued
        calls: whatever was salvaged or re-fired, the answer and
        ``/dev/shm`` do not change."""
        compiled = compile_source(CHAOS_SRC, registry=REGISTRY)
        want = SequentialExecutor().run(
            compiled.graph, (50_000,), REGISTRY
        ).value
        before = _shm_entries()
        killed = []
        real_absorb = Supervisor._absorb

        def kill_with_calls_queued(self, message):
            real_absorb(self, message)
            if not killed and self._worker_calls[message[0]]:
                # Calls queued behind the result just decoded are still
                # there.
                process = self.pool.processes[message[0]]
                os.kill(process.pid, signal.SIGKILL)
                killed.append(process.pid)

        crashes = Fold(None, WorkerCrashed)
        executor = ProcessExecutor(
            1,
            persistent=True,
            cost_threshold=0.0,
            shm_threshold=THRESHOLD,
            fault_policy=FaultPolicy(max_retries=4, backoff=0.0),
            bus=crashes.bus,
        )
        try:
            monkeypatch.setattr(Supervisor, "_absorb", kill_with_calls_queued)
            result = executor.run(compiled.graph, (50_000,), REGISTRY)
            arena = executor._pool.arena.stats()
        finally:
            executor.close()
        assert killed and result.value == want
        assert crashes["worker_crashes"] == 1
        assert arena["lent"] == 0
        assert _shm_entries() == before

    def test_timed_out_worker_is_dead_before_its_segments_recycle(
        self, monkeypatch
    ):
        before = _shm_entries()
        policy = FaultPolicy(max_retries=1, timeout=0.2, backoff=0.0)
        with WorkerPool(1, registry=REGISTRY, shm_threshold=THRESHOLD) as p:
            timeouts = Fold(None, FireTimedOut)
            sup = Supervisor(p, policy, bus=timeouts.bus)
            sup.dispatch(_nap_pending())
            hung = p.processes[0]
            alive_at_reclaim = []
            real_reclaim = p.arena.reclaim
            monkeypatch.setattr(
                p.arena,
                "reclaim",
                lambda names: alive_at_reclaim.append(hung.is_alive())
                or real_reclaim(names),
            )
            deadline = time.monotonic() + 10.0
            while not alive_at_reclaim and time.monotonic() < deadline:
                sup.pump(block=True)
            assert alive_at_reclaim == [False]
            assert timeouts["fires_timed_out"] == 1
            sup.drain_in_flight()  # the retry, napping in the new worker
        assert _shm_entries() == before

    def test_drain_in_flight_kills_busy_workers_before_reclaiming(self):
        before = _shm_entries()
        with WorkerPool(1, registry=REGISTRY, shm_threshold=THRESHOLD) as p:
            reclaimed = Fold(None, ShmSegmentReclaimed)
            sup = Supervisor(p, FaultPolicy(), bus=reclaimed.bus)
            pending = _nap_pending()
            sup.dispatch(pending)
            sup.flush()
            assert p.arena.stats()["lent"] == 1
            worker = p.processes[0]
            assert sup.drain_in_flight() == [pending]
            assert not worker.is_alive()
            assert p.arena.stats()["lent"] == 0
            assert reclaimed["shm_segments_reclaimed"] == 1
        assert _shm_entries() == before


# ---------------------------------------------------------------------------
# Leak fixes
# ---------------------------------------------------------------------------
class TestLeaks:
    def test_late_result_in_a_fresh_segment_is_unlinked(self, pool):
        """A result whose record the crash path already resolved (a
        salvaged duplicate) is dropped — with its segment."""
        sup = Supervisor(pool, FaultPolicy(), stats=EngineStats())
        before = _shm_entries()
        late = encode_value(np.arange(5_000, dtype=np.float64), THRESHOLD)
        assert late.shm_name in _shm_entries()
        sup._absorb((0, 999, True, late, 0.0, 0.0, False))
        assert _shm_entries() == before
        assert sup.take_completions() == []
        # Error and miss replies carry no segment and are dropped too.
        sup._absorb((0, 998, False, ("text", "boom", ""), 0.0, 0.0, False))
        sup._absorb((0, 997, "miss", [3], 0.0, 0.0, False))

    def test_sweep_removes_what_a_dead_child_created(self):
        before = _shm_entries()
        mine = ShmSegment.create(4096)

        def child():
            for _ in range(2):
                ShmSegment.create(4096).close()  # made, never sent
            os._exit(0)

        process = pick_context().Process(target=child)
        process.start()
        process.join(10.0)
        try:
            prefix = f"dlm_{os.getpid()}_{process.pid}_"
            left = _shm_entries() - before - {mine.name}
            assert len(left) == 2
            assert all(name.startswith(prefix) for name in left)
            assert unlink_segments_of(process.pid) == 2
            assert _shm_entries() - before == {mine.name}  # not the master's
            assert unlink_segments_of(process.pid) == 0
        finally:
            mine.close()
            mine.unlink()
        assert _shm_entries() == before

    def test_respawn_sweeps_a_killed_workers_unread_result(self):
        before = _shm_entries()
        with WorkerPool(1, registry=REGISTRY, shm_threshold=THRESHOLD) as p:
            scalar = encode_value(5_000, THRESHOLD)
            p.submit_to(0, ([], [(1, "make", [scalar], None)]))
            assert p.wait(10.0)  # the result sits in the pipe, unread
            old = p.processes[0]
            assert len(_shm_entries() - before) == 1
            old.kill()
            p.respawn(0)
            assert _shm_entries() == before
            assert p.processes[0].pid != old.pid
        assert _shm_entries() == before

    def test_close_sweeps_results_nobody_read(self):
        before = _shm_entries()
        p = WorkerPool(1, registry=REGISTRY, shm_threshold=THRESHOLD)
        try:
            scalar = encode_value(5_000, THRESHOLD)
            p.submit_to(0, ([], [(1, "make", [scalar], None)]))
            assert p.wait(10.0)
            assert len(_shm_entries() - before) == 1
        finally:
            p.close()
        assert _shm_entries() == before

    def test_degraded_isolate_copies_stay_in_band(self, monkeypatch):
        """``run_inline(isolate=True)`` copies through pickle alone: the
        only segment the master makes is the arena's, for the attempt it
        shipped before the pool was lost."""
        created = []
        real_create = ShmSegment.create

        def counting(size):
            created.append(size)
            return real_create(size)

        monkeypatch.setattr(ShmSegment, "create", staticmethod(counting))
        compiled = compile_source(
            "main(n) total(double(make(n)))", registry=REGISTRY
        )
        result = ProcessExecutor(
            1,
            cost_threshold=0.0,
            shm_threshold=THRESHOLD,
            measured_costs={"make": 0.0, "total": 0.0},
            fault_spec=parse_fault_spec("kill:op=double,p=1.0"),
            fault_policy=FaultPolicy(
                max_retries=0, max_respawns=0, backoff=0.0
            ),
        ).run(compiled.graph, (4_000,), REGISTRY)
        assert result.stats.executor_degraded >= 1
        assert result.value == float(np.arange(4_000).sum() * 2)
        assert created == [32768]


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_replies_gauge_is_exported(self):
        compiled = compile_source(
            "main(n) total(double(make(n)))", registry=REGISTRY
        )
        ctx = RunContext("replies", flight_recorder=False)
        ProcessExecutor(
            1,
            cost_threshold=0.0,
            shm_threshold=THRESHOLD,
            measured_costs={"make": 0.0},
            run_ctx=ctx,
        ).run(compiled.graph, (4_000,), REGISTRY)
        gauges = ctx.metrics.gauges
        assert gauges["shm_arena/replies"].value == 1.0  # double's result
        assert gauges["shm_arena/lent"].value == 0.0
