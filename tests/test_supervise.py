"""The fault-tolerance layer: supervision, retries, degradation, codec.

ISSUE 5's tentpole.  The supervised :class:`ProcessExecutor` must survive
worker crashes (SIGKILL mid-fire), hung workers (per-fire timeouts), and
failing operator bodies — re-executing firings deterministically (safe by
single-assignment: the master's memory is untouched until the commit) —
and degrade gracefully to in-process execution when the pool is beyond
saving.  Poison fires surface as structured
:class:`~repro.errors.OperatorError` with the attempt ledger.
"""

import os
import pickle
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import compile_source
from repro.apps.montecarlo import compile_pi
from repro.apps.retina import RetinaConfig, compile_retina
from repro.errors import (
    OperatorError,
    PoolIrrecoverableError,
    RuntimeFailure,
)
from repro.faults import InjectedFault, parse_fault_spec
from repro.obs import (
    EventBus,
    EventLog,
    ExecutorDegraded,
    FireRetried,
    FireTimedOut,
    ShmSegmentReclaimed,
    WorkerCrashed,
    WorkerRespawned,
    attach_metrics,
)
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)
from repro.runtime.engine import EngineStats
from repro.runtime.operators import OperatorSpec
from repro.runtime.supervise import Supervisor, run_with_retries
from repro.runtime.workers import (
    RemoteOperatorFailure,
    WorkerPool,
    _decode_exception,
    _encode_exception,
    cleanup_arenas,
)


def _registry():
    reg = default_registry()

    @reg.register(pure=True, cost=2e6)
    def mkarr(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, n))

    @reg.register(name="scale", modifies=(0,), cost=2e6)
    def scale(a, k):
        a *= k
        return a

    @reg.register(pure=True, cost=2e6)
    def total(a):
        return float(a.sum())

    return reg


REGISTRY = _registry()

SRC = """
main(n)
  let
    a = mkarr(n, 7)
    s1 = total(scale(a, 3))
    s2 = total(a)
  in add(s1, s2)
"""


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


def _run(spec_text=None, policy=None, workers=2, bus=None, src=SRC, n=24):
    compiled = compile_source(src, registry=REGISTRY)
    executor = ProcessExecutor(
        workers,
        cost_threshold=0.0,
        shm_threshold=256,
        fault_policy=policy,
        fault_spec=(
            parse_fault_spec(spec_text) if spec_text is not None else None
        ),
        bus=bus,
    )
    return compiled.graph, executor.run(
        compiled.graph, args=(n,), registry=REGISTRY
    )


REFERENCE = None


def _reference(n=24):
    global REFERENCE
    if REFERENCE is None:
        compiled = compile_source(SRC, registry=REGISTRY)
        REFERENCE = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
    return REFERENCE


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_defaults(self):
        p = FaultPolicy()
        assert p.max_retries == 2
        assert p.timeout is None
        assert p.degrade == "ladder"

    def test_parse(self):
        p = FaultPolicy.parse("retries=3, timeout=10, backoff=0.1, degrade=off")
        assert (p.max_retries, p.timeout, p.backoff, p.degrade) == (
            3, 10.0, 0.1, "off",
        )
        assert FaultPolicy.parse("timeout=none").timeout is None
        assert FaultPolicy.parse("respawns=1").max_respawns == 1

    @pytest.mark.parametrize(
        "bad",
        ["retries=-1", "timeout=0", "backoff=-1", "degrade=sideways",
         "respawns=-2", "volume=11", "retries"],
    )
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPolicy.parse(bad)


# ---------------------------------------------------------------------------
# The in-process retry loop
# ---------------------------------------------------------------------------
class TestRunWithRetries:
    def _spec(self, fn, modifies=()):
        return OperatorSpec(name="op", fn=fn, modifies=modifies)

    def test_success_passthrough(self):
        spec = self._spec(lambda x: x + 1)
        assert run_with_retries(spec, (41,), FaultPolicy()) == 42

    def test_flaky_pure_op_retried(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) < 3:
                raise ValueError("transient")
            return x

        spec = self._spec(flaky)
        policy = FaultPolicy(max_retries=3, backoff=0.0)
        retries = []
        assert run_with_retries(
            spec, (7,), policy, on_retry=lambda n, e: retries.append(n)
        ) == 7
        assert len(calls) == 3
        assert retries == [1, 2]

    def test_mutating_body_failure_not_retried(self):
        # A failed modifies body may have half-written its argument; with
        # no serialization boundary the retry would see corrupted input.
        calls = []

        def bad(a):
            calls.append(1)
            a[0] = 99
            raise ValueError("mid-mutation")

        spec = self._spec(bad, modifies=(0,))
        with pytest.raises(OperatorError):
            run_with_retries(spec, ([1, 2],), FaultPolicy(max_retries=5))
        assert len(calls) == 1

    def test_injected_fault_retryable_even_for_mutators(self):
        # Injected faults fire before the body: the argument is pristine,
        # so even a modifies operator retries.
        injector = parse_fault_spec("raise:nth=1").build()
        calls = []

        def bump(a):
            calls.append(1)
            a[0] += 1
            return a

        spec = self._spec(bump, modifies=(0,))
        policy = FaultPolicy(max_retries=2, backoff=0.0)
        out = run_with_retries(spec, ([1],), policy, injector)
        assert out == [2]
        assert len(calls) == 1  # the first attempt died pre-body

    def test_poison_carries_attempt_ledger(self):
        def die(x):
            raise ValueError("always")

        spec = self._spec(die)
        with pytest.raises(OperatorError) as excinfo:
            run_with_retries(
                spec, (1,), FaultPolicy(max_retries=2, backoff=0.0), node_id=9
            )
        err = excinfo.value
        assert err.node_id == 9
        assert len(err.attempts) == 3
        assert all("always" in outcome for _, _, outcome in err.attempts)
        assert isinstance(err.__cause__, ValueError)

    def test_no_policy_means_no_retries(self):
        calls = []

        def die(x):
            calls.append(1)
            raise ValueError("nope")

        with pytest.raises(OperatorError):
            run_with_retries(self._spec(die), (1,), None)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Exception codec (satellite: _decode_exception coverage)
# ---------------------------------------------------------------------------
class CustomError(Exception):
    pass


class Unpicklable(Exception):
    def __init__(self, msg):
        super().__init__(msg)
        self.fh = open(os.devnull)  # sockets/handles never pickle

    def __repr__(self):
        return f"Unpicklable({self.args[0]!r})"


def _raise_and_encode(exc):
    try:
        raise exc
    except Exception as caught:
        return _encode_exception(caught)


class TestExceptionCodec:
    def test_custom_type_round_trips(self):
        out = _decode_exception(_raise_and_encode(CustomError("boom", 5)))
        assert type(out) is CustomError
        assert out.args == ("boom", 5)

    def test_traceback_text_preserved(self):
        def deep():
            raise CustomError("from deep")

        try:
            deep()
        except Exception as caught:
            enc = _encode_exception(caught)
        out = _decode_exception(enc)
        assert "in deep" in out.remote_traceback
        assert "CustomError" in out.remote_traceback

    def test_nested_causes_relinked(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError as inner:
                raise CustomError("outer") from inner
        except Exception as caught:
            enc = _encode_exception(caught)
        out = _decode_exception(enc)
        assert type(out) is CustomError
        assert type(out.__cause__) is KeyError
        assert out.__cause__.args == ("inner",)

    def test_unpicklable_falls_back_to_repr(self):
        out = _decode_exception(_raise_and_encode(Unpicklable("no wire")))
        assert isinstance(out, RemoteOperatorFailure)
        assert "Unpicklable('no wire')" in str(out)
        assert "worker traceback" in str(out)

    def test_unpicklable_cause_under_picklable_root(self):
        try:
            try:
                raise Unpicklable("deep handle")
            except Exception as inner:
                raise CustomError("outer") from inner
        except Exception as caught:
            enc = _encode_exception(caught)
        out = _decode_exception(enc)
        assert type(out) is CustomError
        assert isinstance(out.__cause__, RemoteOperatorFailure)
        assert "deep handle" in str(out.__cause__)

    def test_wire_form_pickles(self):
        enc = _raise_and_encode(CustomError("wire"))
        assert _decode_exception(pickle.loads(pickle.dumps(enc))).args == (
            "wire",
        )

    def test_legacy_formats_accepted(self):
        legacy = ("pickle", pickle.dumps(ValueError("old")), "tb text")
        assert _decode_exception(legacy).args == ("old",)
        text = _decode_exception(("text", "repr of exc", "tb text"))
        assert isinstance(text, RemoteOperatorFailure)
        assert "repr of exc" in str(text)


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_respawned_and_result_identical(self):
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        before = _shm_entries()
        _, result = _run("kill:op=total,nth=1", bus=bus)
        assert result.value == _reference()
        assert result.stats.worker_crashes >= 1
        assert result.stats.worker_respawns >= 1
        assert result.stats.fires_retried >= 1
        crashes = log.of_type(WorkerCrashed)
        respawns = log.of_type(WorkerRespawned)
        retried = log.of_type(FireRetried)
        assert crashes and respawns and retried
        assert crashes[0].exitcode == -9
        assert any(e.reason == "crash" for e in retried)
        assert _shm_entries() <= before  # nothing leaked

    def test_arena_segments_reclaimed_from_dead_worker(self):
        # total's argument is a big array: it rides a pooled arena
        # segment, which the worker still holds when SIGKILL lands.
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        _, result = _run("kill:op=total,nth=1", bus=bus)
        reclaimed = log.of_type(ShmSegmentReclaimed)
        assert reclaimed
        assert result.stats.shm_segments_reclaimed == len(reclaimed)
        assert all(e.nbytes > 0 for e in reclaimed)

    def test_metrics_reflect_injected_faults(self):
        bus = EventBus()
        metrics = attach_metrics(bus)
        _, result = _run("kill:op=total,nth=1", bus=bus)
        assert (
            metrics.counter("worker_crashes").value
            == result.stats.worker_crashes
        )
        assert (
            metrics.counter("fires_retried").value
            == result.stats.fires_retried
        )
        assert metrics.counter("shm_segments_reclaimed").value == (
            result.stats.shm_segments_reclaimed
        )

    def test_random_kills_still_bit_identical(self):
        _, result = _run(
            "kill:p=0.1,seed=3",
            policy=FaultPolicy(max_retries=4, backoff=0.0, max_respawns=64),
        )
        assert result.value == _reference()


# ---------------------------------------------------------------------------
# Timeouts
# ---------------------------------------------------------------------------
class TestTimeouts:
    def test_hung_worker_killed_and_fire_retried(self):
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        _, result = _run(
            "delay:op=total,nth=1,seconds=30",
            policy=FaultPolicy(max_retries=2, timeout=0.5, backoff=0.0),
            bus=bus,
        )
        assert result.value == _reference()
        assert result.stats.fires_timed_out >= 1
        assert result.stats.worker_crashes >= 1
        timed_out = log.of_type(FireTimedOut)
        assert timed_out and timed_out[0].timeout == 0.5
        assert any(
            e.reason == "timeout" or "timed out" in str(e.reason)
            for e in log.of_type(FireRetried)
        )


# ---------------------------------------------------------------------------
# The case studies under a fault cocktail
# ---------------------------------------------------------------------------
#: Worker kills on 5% of operator calls, plus one 30-second stall on the
#: first call the clause sees, forced past a 0.75 s per-call budget.
CHAOS_SPEC = "kill:p=0.05,seed=7;delay:nth=1,seconds=30"
CHAOS_POLICY = FaultPolicy(max_retries=6, timeout=0.75, backoff=0.0, max_respawns=64)


def _fused_retina():
    prog = compile_retina(
        2, RetinaConfig(height=32, width=32, kernel_size=5, num_iter=2), fuse=True
    )
    return prog, ()


def _montecarlo_pi():
    return compile_pi(seed=2026, batch_size=512), (16,)


class TestCaseStudiesUnderChaos:
    """Retina (``modifies`` slab state, fused graph) and the Monte-Carlo
    estimator (pure fan-out/reduce) finish bit-identical under random
    kills and a forced timeout, and leave no segment or arena behind."""

    @pytest.mark.parametrize("build", [_fused_retina, _montecarlo_pi])
    def test_bit_identical_and_nothing_left(self, build):
        prog, args = build()
        want = SequentialExecutor().run(prog.graph, args, prog.registry).value
        before = _shm_entries()
        result = ProcessExecutor(
            2,
            cost_threshold=0.0,
            shm_threshold=1024,
            fault_policy=CHAOS_POLICY,
            fault_spec=parse_fault_spec(CHAOS_SPEC),
        ).run(prog.graph, args, prog.registry)
        got = result.value
        if hasattr(want, "signature"):
            got, want = got.signature(), want.signature()
        assert got == want
        stats = result.stats
        assert stats.worker_crashes >= 1, "the kill clause never fired"
        assert stats.fires_timed_out >= 1, "the forced timeout never fired"
        assert stats.fires_retried >= stats.worker_crashes
        assert _shm_entries() <= before, "leaked shared-memory segments"
        assert cleanup_arenas() == 0, "live arenas left for the atexit reaper"


# ---------------------------------------------------------------------------
# Poison fires
# ---------------------------------------------------------------------------
class TestPoisonFires:
    def test_structured_operator_error(self):
        with pytest.raises(OperatorError) as excinfo:
            _run(
                "raise:op=total,p=1.0",
                policy=FaultPolicy(max_retries=2, backoff=0.0),
            )
        err = excinfo.value
        assert err.operator == "total"
        assert err.node_id >= 0
        assert len(err.attempts) == 3
        assert err.worker_pid is not None
        assert isinstance(err.__cause__, InjectedFault)

    def test_real_worker_exception_still_wrapped(self):
        reg = default_registry()

        @reg.register(name="die", cost=2e6)
        def die(x):
            raise ValueError(f"worker boom {x}")

        compiled = compile_source("main(n) die(n)", registry=reg)
        with pytest.raises(OperatorError) as excinfo:
            ProcessExecutor(2, cost_threshold=0.0).run(
                compiled.graph, args=(5,), registry=reg
            )
        assert "die" in str(excinfo.value)
        assert "worker boom 5" in str(excinfo.value.__cause__)


# ---------------------------------------------------------------------------
# The send path: dispatch stages, pump sends one call per message
# ---------------------------------------------------------------------------
def _send_registry():
    reg = default_registry()

    @reg.register(name="work", pure=True, cost=1e7)
    def work(i):
        return i * i

    @reg.register(name="slow", pure=True, cost=5.0)
    def slow(n):
        time.sleep(0.3)
        return n

    @reg.register(name="nap", pure=True, cost=1e7)
    def nap(i):
        time.sleep(0.3)
        return i

    return reg


SEND_REGISTRY = _send_registry()

#: Four dispatched calls, a slow local body, four more dispatched calls:
#: all before the ready queue first drains.
FOUR_AND_FOUR = """
main(n)
  let
    a1 = work(1)
    a2 = work(2)
    a3 = work(3)
    a4 = work(4)
    s = slow(n)
    b1 = work(add(s, 1))
    b2 = work(add(s, 2))
    b3 = work(add(s, 3))
    b4 = work(add(s, 4))
  in add(add(add(a1, a2), add(a3, a4)), add(add(b1, b2), add(b3, b4)))
"""


class TestSendPath:
    def test_pool_lost_between_dispatches_degrades(self):
        # The first call kills the only worker.  Nothing is sent before
        # the queue drains, so the loss surfaces in pump, where the
        # ladder catches it, not in a dispatch that raises past it.
        compiled = compile_source(FOUR_AND_FOUR, registry=SEND_REGISTRY)
        want = SequentialExecutor().run(
            compiled.graph, (10,), SEND_REGISTRY
        ).value
        got = ProcessExecutor(
            1,
            fault_spec=parse_fault_spec("kill:op=work,nth=1"),
            fault_policy=FaultPolicy(max_respawns=0, backoff=0.0),
        ).run(compiled.graph, (10,), SEND_REGISTRY)
        assert got.value == want
        assert got.stats.dispatched_fires == 8
        assert got.stats.executor_degraded == 1

    def test_calls_queued_on_one_worker_do_not_time_out(self):
        # Eight 0.3 s calls on one worker: the eighth finishes 2.4 s
        # after the send, inside its budget of 8 x 0.55 s.
        compiled = compile_source(
            "main(n) par_reduce(add, nap, 0, n)",
            registry=SEND_REGISTRY,
            prelude=True,
        )
        got = ProcessExecutor(
            1, fault_policy=FaultPolicy(timeout=0.55)
        ).run(compiled.graph, (8,), SEND_REGISTRY)
        assert got.value == sum(range(8))
        assert got.stats.dispatched_fires == 8
        assert got.stats.fires_timed_out == 0
        assert got.stats.worker_respawns == 0

    def test_raise_mid_flush_leaves_the_rest_staged(self):
        before = _shm_entries()
        pendings = [
            SimpleNamespace(
                spec=REGISTRY.get("total"),
                args=(np.full(4, float(i)),),
                op_inputs=(),
                node_id=i,
            )
            for i in range(5)
        ]
        with WorkerPool(3, registry=REGISTRY) as pool:
            supervisor = Supervisor(
                pool, FaultPolicy(max_respawns=0), stats=EngineStats()
            )
            for pending in pendings:
                supervisor.dispatch(pending)
            # Staged, not sent: dispatch never touches a pipe.
            assert supervisor.stats.ipc_messages_sent == 0
            dead = pool.processes[1]
            dead.kill()
            dead.join()
            with pytest.raises(PoolIrrecoverableError):
                supervisor.pump(block=False)
            # One call reached worker 0 before the send to the dead
            # worker 1 raised; the other three were still staged.
            assert supervisor.stats.ipc_messages_sent == 1
            recovered = supervisor.drain_in_flight()
        assert sorted(p.node_id for p in recovered) == list(range(5))
        assert _shm_entries() == before


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_irrecoverable_pool_degrades_inline(self):
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        _, result = _run(
            "kill:p=1.0",
            policy=FaultPolicy(max_retries=1, max_respawns=0, backoff=0.0),
            bus=bus,
        )
        assert result.value == _reference()
        assert result.stats.executor_degraded >= 1
        degraded = log.of_type(ExecutorDegraded)
        assert degraded and degraded[0].from_executor == "process"

    def test_degrade_off_surfaces_pool_error(self):
        with pytest.raises(PoolIrrecoverableError) as excinfo:
            _run(
                "kill:p=1.0",
                policy=FaultPolicy(
                    max_retries=1, max_respawns=0, degrade="off", backoff=0.0
                ),
            )
        assert "respawn budget" in str(excinfo.value)

    def test_pool_construction_failure_falls_to_threaded(self, monkeypatch):
        import repro.runtime.executors as executors

        def broken_pool(*args, **kwargs):
            raise OSError("no processes today")

        monkeypatch.setattr(executors, "WorkerPool", broken_pool)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        _, result = _run(None, bus=bus)
        assert result.value == _reference()
        assert result.stats.executor_degraded >= 1
        degraded = log.of_type(ExecutorDegraded)
        assert degraded[0].to_executor == "threaded"
        assert "no processes today" in degraded[0].reason

    def test_operator_error_not_swallowed_by_ladder(self, monkeypatch):
        # Degradation handles machinery failures; a failing *program*
        # must surface identically from the fallback executor.
        import repro.runtime.executors as executors

        monkeypatch.setattr(
            executors,
            "WorkerPool",
            lambda *a, **k: (_ for _ in ()).throw(OSError("down")),
        )
        with pytest.raises(OperatorError):
            _run("raise:op=total,p=1.0", policy=FaultPolicy(max_retries=0))


# ---------------------------------------------------------------------------
# Inline executors under injection
# ---------------------------------------------------------------------------
class TestInlineExecutors:
    def test_sequential_with_injection_matches(self):
        compiled = compile_source(SRC, registry=REGISTRY)
        result = SequentialExecutor(
            fault_policy=FaultPolicy(max_retries=3, backoff=0.0),
            fault_spec=parse_fault_spec("raise:p=0.3,seed=5"),
        ).run(compiled.graph, args=(24,), registry=REGISTRY)
        assert result.value == _reference()
        assert result.stats.fires_retried >= 1

    def test_threaded_with_injection_matches(self):
        compiled = compile_source(SRC, registry=REGISTRY)
        result = ThreadedExecutor(
            3,
            fault_policy=FaultPolicy(max_retries=3, backoff=0.0),
            fault_spec=parse_fault_spec("raise:p=0.3,seed=5"),
        ).run(compiled.graph, args=(24,), registry=REGISTRY)
        assert result.value == _reference()
        assert result.stats.fires_retried >= 1

    def test_kill_clause_inert_in_inline_executors(self):
        compiled = compile_source(SRC, registry=REGISTRY)
        result = SequentialExecutor(
            fault_spec=parse_fault_spec("kill:p=1.0"),
        ).run(compiled.graph, args=(24,), registry=REGISTRY)
        assert result.value == _reference()


# ---------------------------------------------------------------------------
# Double-release guards (satellite)
# ---------------------------------------------------------------------------
class TestDoubleReleaseGuards:
    def test_activation_pool_rejects_double_release(self):
        from repro.runtime import ActivationPool, TemplatePlan
        from repro.runtime.scheduler import Task  # noqa: F401 - engine dep

        graph = compile_source("main(n) incr(n)").graph
        pool = ActivationPool()
        act = pool.acquire(TemplatePlan(graph.template("main"), graph))
        pool.release(act)
        with pytest.raises(RuntimeError, match="released"):
            pool.release(act)

    def test_complete_fire_rejects_double_commit(self):
        from repro.runtime import ExecutionState, PendingOp

        compiled = compile_source("main(n) incr(n)")
        state = ExecutionState(compiled.graph, default_registry())
        tasks = list(state.start((1,)))
        pending = None
        while tasks and pending is None:
            fired = state.fire(tasks.pop(), suspend=True)
            if isinstance(fired, PendingOp):
                pending = fired
            else:
                tasks.extend(fired)
        assert pending is not None
        raw = pending.spec.fn(*pending.args)
        state.complete_fire(pending, raw)
        with pytest.raises(RuntimeFailure, match="twice"):
            state.complete_fire(pending, raw)
