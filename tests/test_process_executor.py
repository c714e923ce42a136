"""ProcessExecutor: parity, COW isolation across processes, transport.

The executor's contract is the paper's determinism guarantee extended
over a real process boundary: bit-identical results to the sequential
executor, with copy-on-write isolation now provided by serialization
instead of physical copies.  These tests cover the payload codec
(shared-memory and in-band paths), the dispatch policy, worker error
propagation, the dispatch events, and — most importantly — that a
worker-side destructive write can never leak back into the master's
blocks.
"""

import numpy as np
import pytest

from repro import compile_source
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.errors import OperatorError
from repro.obs import (
    EventBus,
    EventLog,
    ResultReceived,
    ShmBlockCreated,
    TaskDispatched,
    TaskFired,
)
from repro.runtime import (
    DispatchPolicy,
    ProcessExecutor,
    RegistryRef,
    SequentialExecutor,
    default_registry,
    executors,
)
from repro.runtime.operators import OperatorSpec
from repro.runtime.workers import (
    ShmSegment,
    decode_value,
    discard_encoded,
    encode_value,
)


def _numpy_registry():
    reg = default_registry()

    @reg.register(pure=True, cost=2e6)
    def mkarr(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, n))

    @reg.register(name="scale", modifies=(0,), cost=2e6)
    def scale(a, k):
        a *= k
        return a

    @reg.register(name="smash", modifies=(0,), cost=2e6)
    def smash(a):
        a[:] = -1.0
        return a

    @reg.register(pure=True, cost=2e6)
    def total(a):
        return float(a.sum())

    @reg.register(name="die", cost=2e6)
    def die(x):
        raise ValueError(f"worker boom {x}")

    return reg


NUMPY_REGISTRY = _numpy_registry()

SHARED_BLOCK_SRC = """
main(n)
  let
    a = mkarr(n, 7)
    s1 = total(scale(a, 3))
    s2 = total(smash(a))
    s3 = total(a)
  in add(add(s1, s2), s3)
"""


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------
class TestCodec:
    def test_small_values_stay_in_band(self):
        for obj in (42, "hello", [1, 2, 3], {"k": (1.5, None)}):
            enc = encode_value(obj)
            assert not enc.via_shm
            assert decode_value(enc) == obj

    def test_large_array_travels_via_shm(self):
        a = np.arange(64 * 1024, dtype=np.float64)
        enc = encode_value(a, shm_threshold=4096)
        assert enc.via_shm
        assert enc.shm_nbytes >= a.nbytes
        out = decode_value(enc)
        np.testing.assert_array_equal(out, a)

    def test_decoded_array_is_writable_and_private(self):
        a = np.ones(8192, dtype=np.float64)
        enc = encode_value(a, shm_threshold=1024)
        out = decode_value(enc)
        out[:] = 99.0  # must not raise (readonly) ...
        assert a[0] == 1.0  # ... and must not alias the original

    def test_consumer_unlinks_the_segment(self):
        a = np.zeros(8192, dtype=np.float64)
        enc = encode_value(a, shm_threshold=1024)
        decode_value(enc)
        with pytest.raises(FileNotFoundError):
            ShmSegment.attach(enc.shm_name)

    def test_discard_encoded_cleans_up(self):
        a = np.zeros(8192, dtype=np.float64)
        enc = encode_value(a, shm_threshold=1024)
        discard_encoded(enc)
        with pytest.raises(FileNotFoundError):
            ShmSegment.attach(enc.shm_name)
        discard_encoded(enc)  # idempotent

    def test_nested_arrays_share_one_segment(self):
        payload = {
            "x": np.arange(4096, dtype=np.float64),
            "y": [np.ones((64, 64)), "tag"],
        }
        enc = encode_value(payload, shm_threshold=1024)
        assert enc.via_shm
        assert len(enc.segments) == 2
        out = decode_value(enc)
        np.testing.assert_array_equal(out["x"], payload["x"])
        np.testing.assert_array_equal(out["y"][0], payload["y"][0])
        assert out["y"][1] == "tag"

    def test_non_contiguous_array_falls_back_in_band(self):
        a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)[::2, ::2]
        enc = encode_value(a, shm_threshold=64)
        out = decode_value(enc)
        np.testing.assert_array_equal(out, a)


# ---------------------------------------------------------------------------
# Registry rehydration
# ---------------------------------------------------------------------------
class TestRegistryRef:
    def test_factory_ref_loads(self):
        ref = RegistryRef("repro.runtime.operators", "default_registry")
        reg = ref.load()
        assert "incr" in reg

    def test_instance_ref_loads(self):
        ref = RegistryRef("repro.runtime.operators", "builtin_registry")
        assert "add" in ref.load()

    def test_ref_round_trips_through_pickle(self):
        import pickle

        ref = RegistryRef("repro.runtime.operators", "default_registry")
        assert pickle.loads(pickle.dumps(ref)) == ref


# ---------------------------------------------------------------------------
# Dispatch policy
# ---------------------------------------------------------------------------
class TestDispatchPolicy:
    def _spec(self, **kwargs):
        return OperatorSpec(name="op", fn=lambda *a: None, **kwargs)

    def test_cost_hint_decides(self):
        policy = DispatchPolicy(cost_threshold=100.0)
        assert policy.should_dispatch(self._spec(cost=1000.0), (1,))
        assert not policy.should_dispatch(self._spec(cost=1.0), (1,))

    def test_zero_threshold_dispatches_everything(self):
        policy = DispatchPolicy(cost_threshold=0.0)
        assert policy.should_dispatch(self._spec(cost=1.0), (1,))

    def test_hintless_falls_back_to_payload_size(self):
        policy = DispatchPolicy(nbytes_threshold=1024)
        big = np.zeros(4096)
        assert policy.should_dispatch(self._spec(), (big,))
        assert not policy.should_dispatch(self._spec(), (1, 2.0))

    def test_broken_cost_hint_falls_back(self):
        def bad_cost(*args):
            raise TypeError("not written for this payload")

        policy = DispatchPolicy(nbytes_threshold=1024)
        assert policy.should_dispatch(
            self._spec(cost=bad_cost), (np.zeros(4096),)
        )

    def test_measured_zero_never_dispatches(self):
        policy = DispatchPolicy(cost_threshold=0.0, measured_seconds={"op": 0.0})
        assert not policy.should_dispatch(self._spec(cost=1e9), (1,))
        assert policy.static_dispatch(self._spec(cost=1e9)) is False


# ---------------------------------------------------------------------------
# Execution parity with the sequential executor
# ---------------------------------------------------------------------------
class TestParity:
    def test_fib_all_local(self):
        compiled = compile_source(
            """
            main(n) fib(n)
            fib(n)
              if is_less(n, 2)
              then n
              else add(fib(sub(n, 1)), fib(sub(n, 2)))
            """
        )
        result = ProcessExecutor(2).run(compiled.graph, args=(12,))
        assert result.value == 144

    def test_fib_all_remote(self):
        compiled = compile_source(
            """
            main(n) fib(n)
            fib(n)
              if is_less(n, 2)
              then n
              else add(fib(sub(n, 1)), fib(sub(n, 2)))
            """
        )
        result = ProcessExecutor(2, cost_threshold=0.0).run(
            compiled.graph, args=(8,)
        )
        assert result.value == 21

    @pytest.mark.parametrize("group_max", [1, 2, 8])
    def test_numpy_program_bit_identical(self, group_max, monkeypatch):
        # Calls expand with at most ``group_max - 1`` ready peers.
        monkeypatch.setattr(executors, "_GROUP_MAX", group_max)
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        seq = SequentialExecutor().run(
            compiled.graph, args=(32,), registry=NUMPY_REGISTRY
        )
        proc = ProcessExecutor(
            2,
            cost_threshold=0.0,
            shm_threshold=1024,
        ).run(compiled.graph, args=(32,), registry=NUMPY_REGISTRY)
        assert proc.value == seq.value

    @pytest.mark.usefixtures("graph_path")
    def test_stats_match_sequential(self):
        # COW decisions are *counted* identically even though remote
        # dispatch skips the physical copies.
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        seq = SequentialExecutor().run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        ).stats
        proc = ProcessExecutor(2, cost_threshold=0.0, shm_threshold=512).run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        ).stats
        assert proc.ops_executed == seq.ops_executed
        assert proc.tasks_fired == seq.tasks_fired
        assert proc.cow_copies == seq.cow_copies
        assert proc.in_place_writes == seq.in_place_writes

    def test_single_worker(self):
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        seq = SequentialExecutor().run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        )
        proc = ProcessExecutor(1, cost_threshold=0.0).run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        )
        assert proc.value == seq.value

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_a_warm_pool_serves_only_the_program_it_was_built_for(
        self, monkeypatch
    ):
        # Two live programs whose ids collide stand in for a new program
        # landing at a dead one's address.  A pool keyed by ids alone
        # served the second the first one's workers, which know only the
        # first one's fused chain: UnknownOperatorError after 3 attempts.
        monkeypatch.setattr(executors, "id", lambda obj: 0, raising=False)
        registry = default_registry()
        first, second = (
            compile_source(
                src, registry=registry, optimize_passes=FULL_PASS_ORDER
            ).graph
            for src in (
                "main(a, b, c, d) sub(mul(add(a, b), c), d)",
                "main(a, b, c, d) add(mul(sub(a, b), c), d)",
            )
        )
        executor = ProcessExecutor(1, cost_threshold=0.0, persistent=True)
        try:
            assert executor.run(first, (1, 2, 3, 4), registry).value == 5
            result = executor.run(second, (1, 2, 3, 4), registry)
        finally:
            executor.close()
        assert result.value == 1
        assert result.stats.dispatched_fires == 1


# ---------------------------------------------------------------------------
# COW isolation across the process boundary
# ---------------------------------------------------------------------------
class TestCowIsolation:
    def test_worker_destructive_write_does_not_leak(self):
        # ``a`` is shared by three consumers; ``smash`` overwrites its
        # argument wholesale inside a worker.  If worker-side writes
        # leaked through shared memory, s3 (and the COW-protected s1)
        # would see -1 everywhere and diverge from the sequential run.
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        seq = SequentialExecutor().run(
            compiled.graph, args=(48,), registry=NUMPY_REGISTRY
        )
        proc = ProcessExecutor(
            2, cost_threshold=0.0, shm_threshold=256
        ).run(compiled.graph, args=(48,), registry=NUMPY_REGISTRY)
        assert proc.value == seq.value

    def test_codec_isolation_is_structural(self):
        # The same guarantee at the codec level: mutating the decoded
        # copy never touches the producer's array.
        a = np.ones((64, 64))
        enc = encode_value(a, shm_threshold=256)
        out = decode_value(enc)
        out[:] = -1.0
        assert float(a.sum()) == 64 * 64


# ---------------------------------------------------------------------------
# Errors and events
# ---------------------------------------------------------------------------
class TestErrorsAndEvents:
    def test_worker_exception_surfaces_as_operator_error(self):
        compiled = compile_source(
            "main(n) die(n)", registry=NUMPY_REGISTRY
        )
        with pytest.raises(OperatorError) as excinfo:
            ProcessExecutor(2, cost_threshold=0.0).run(
                compiled.graph, args=(5,), registry=NUMPY_REGISTRY
            )
        assert "die" in str(excinfo.value)
        assert "worker boom 5" in str(excinfo.value.__cause__)

    def test_dispatch_events_emitted(self):
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        bus = EventBus()
        log = EventLog()
        log.attach(bus)
        ProcessExecutor(2, cost_threshold=0.0, shm_threshold=256, bus=bus).run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        )
        dispatched = log.of_type(TaskDispatched)
        received = log.of_type(ResultReceived)
        assert dispatched and received
        assert len(dispatched) == len(received)
        assert {e.call_id for e in dispatched} == {
            e.call_id for e in received
        }
        assert log.of_type(ShmBlockCreated)
        # Worker spans land on worker tracks (master is processor 0).
        op_spans = [e for e in log.of_type(TaskFired) if e.kind == "op"]
        assert op_spans and all(e.processor >= 1 for e in op_spans)

    def test_zero_events_without_subscribers(self):
        compiled = compile_source(SHARED_BLOCK_SRC, registry=NUMPY_REGISTRY)
        bus = EventBus()  # no subscribers: dropped by resolve_bus
        result = ProcessExecutor(2, cost_threshold=0.0, bus=bus).run(
            compiled.graph, args=(16,), registry=NUMPY_REGISTRY
        )
        assert result.tracer is None
