"""Affinity scheduling policies (section 9.3) — simulated and real.

The first half covers the policy objects and the simulator's use of
them; the second half covers the real locality layer built on the same
policies: the worker-resident block cache, by-reference argument
shipping, the master-side residency tracker, and that none of it
changes a result under a cache miss, an in-place write or a worker
crash.  That no policy changes what a generated program means is
``tests/test_oracle.py``'s process matrix.
"""

import functools
import gc
from unittest import mock

import numpy as np
import pytest

from repro import compile_source
from repro.faults import parse_fault_spec
from repro.machine import SimulatedExecutor, butterfly, uniform
from repro.obs import RunContext, WorkerCrashed
from repro.obs.expo import render_prometheus
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    default_registry,
    executors,
)
from repro.runtime.affinity import (
    AffinityPolicy,
    OperatorAffinity,
    input_residency,
    make_policy,
    pick_most_resident,
)
from repro.runtime.blocks import wrap_payload
from repro.runtime.supervise import ResidencyTracker
from repro.runtime.values import MultiValue
from repro.runtime.workers import _CACHE_MISS, BlockCache, WorkerPool

from .programs import CopyView, Fold


class TestPolicyFactory:
    def test_names(self):
        assert make_policy("none").name == "none"
        assert make_policy("operator").name == "operator"
        assert make_policy("data").name == "data"

    def test_instance_passthrough(self):
        policy = OperatorAffinity()
        assert make_policy(policy) is policy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("psychic")


class TestPolicyChoices:
    def test_default_picks_lowest_idle(self):
        class FakeTask:
            def label(self):
                return "x"

        assert AffinityPolicy().choose(FakeTask(), {3, 1, 2}) == 1

    def test_operator_affinity_remembers(self):
        class FakeTask:
            def label(self):
                return "convolve"

        policy = OperatorAffinity()
        task = FakeTask()
        policy.notify(task, 2)
        assert policy.choose(task, {0, 1, 2}) == 2

    def test_operator_affinity_never_waits(self):
        class FakeTask:
            def label(self):
                return "convolve"

        policy = OperatorAffinity()
        task = FakeTask()
        policy.notify(task, 2)
        # Preferred processor busy: pick another rather than stall.
        assert policy.choose(task, {0, 1}) == 0


def _pipeline_program():
    """A two-stage pipeline over a large block: producer then consumers."""
    reg = default_registry()

    @reg.register(name="produce", cost=100.0)
    def produce():
        return np.zeros(10_000)  # 80 KB

    @reg.register(name="stage", pure=True, cost=100.0)
    def stage(a, k):
        return float(a.sum()) + k

    @reg.register(name="combine", pure=True, cost=10.0)
    def combine(a, b):
        return a + b

    src = """
    main()
      let blk = produce()
          x1 = stage(blk, 1)
          y1 = stage(blk, 2)
      in combine(x1, y1)
    """
    return compile_source(src, registry=reg), reg


class TestAffinityOnNUMA:
    def test_data_affinity_reduces_remote_traffic(self):
        compiled, reg = _pipeline_program()
        machine = butterfly(4)
        base = SimulatedExecutor(machine, affinity="none").run(
            compiled.graph, registry=reg
        )
        data = SimulatedExecutor(machine, affinity="data").run(
            compiled.graph, registry=reg
        )
        # Both stages read the 80 KB block; data affinity runs at least
        # one of them where the block lives.
        assert data.traffic.remote_bytes <= base.traffic.remote_bytes
        assert data.value == base.value

    def test_policies_never_change_results(self):
        compiled, reg = _pipeline_program()
        values = {
            SimulatedExecutor(butterfly(3), affinity=policy)
            .run(compiled.graph, registry=reg)
            .value
            for policy in ("none", "operator", "data")
        }
        assert len(values) == 1

    def test_affinity_is_work_conserving(self):
        # Even with affinity, a uniform machine's fork of equal tasks
        # still finishes in critical-path time given enough processors.
        compiled, reg = _pipeline_program()
        for policy in ("operator", "data"):
            r = SimulatedExecutor(uniform(8), affinity=policy).run(
                compiled.graph, registry=reg
            )
            assert r.ticks == pytest.approx(100 + 100 + 10)

# ---------------------------------------------------------------------------
# Shared placement helpers (one §9.3 rule, two dispatch paths)
# ---------------------------------------------------------------------------
class TestPlacementHelpers:
    def test_input_residency_groups_bytes_by_holder(self):
        a = wrap_payload(np.zeros(100))   # 800 bytes
        b = wrap_payload(np.zeros(25))    # 200 bytes
        holders = {id(a): (0, 2), id(b): (2,)}
        got = input_residency([a, b, 7], lambda blk: holders[id(blk)])
        assert got == {0: 800, 2: 1000}

    def test_input_residency_walks_packages(self):
        a = wrap_payload(np.zeros(10))
        pkg = MultiValue((a, MultiValue((a,))))
        got = input_residency([pkg], lambda blk: (1,))
        assert got == {1: 160}

    def test_pick_most_resident_prefers_bytes_then_lowest_id(self):
        assert pick_most_resident({2: 100, 1: 100}, {0, 1, 2}) == 1
        assert pick_most_resident({2: 300, 1: 100}, {0, 1, 2}) == 2
        assert pick_most_resident({}, {3, 1}) == 1
        # A non-idle holder never wins: choose among idle only.
        assert pick_most_resident({0: 999}, {1, 2}) == 1


# ---------------------------------------------------------------------------
# The worker-resident cache
# ---------------------------------------------------------------------------
class TestBlockCache:
    def test_hit_miss_and_stats(self):
        cache = BlockCache(max_bytes=10_000)
        v = np.zeros(100)
        assert cache.put(1, v)
        assert cache.get(1) is v
        assert cache.get(2) is _CACHE_MISS
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["resident_bytes"] == v.nbytes

    def test_lru_eviction_is_oldest_first(self):
        cache = BlockCache(max_bytes=2 * 800)
        cache.put(1, np.zeros(100))
        cache.put(2, np.zeros(100))
        cache.get(1)                      # 1 is now most-recently used
        cache.put(3, np.zeros(100))       # evicts 2, not 1
        assert cache.get(2) is _CACHE_MISS
        assert cache.get(1) is not _CACHE_MISS
        assert cache.get(3) is not _CACHE_MISS
        assert cache.stats()["evictions"] == 1

    def test_oversized_payload_is_rejected_not_cached(self):
        cache = BlockCache(max_bytes=100)
        assert not cache.put(1, np.zeros(100))
        assert cache.get(1) is _CACHE_MISS
        assert cache.stats()["resident_bytes"] == 0

    def test_invalidate_releases_bytes(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put(1, np.zeros(100))
        cache.put(2, np.zeros(100))
        cache.invalidate([1, 99])         # unknown ids are fine
        assert cache.get(1) is _CACHE_MISS
        assert cache.stats()["resident_bytes"] == 800

    def test_replacing_a_bid_accounts_bytes_once(self):
        cache = BlockCache(max_bytes=10_000)
        cache.put(1, np.zeros(100))
        cache.put(1, np.zeros(200))
        assert cache.stats()["resident_bytes"] == 1600

    def test_refused_put_drops_the_older_entry_under_the_id(self):
        cache = BlockCache(max_bytes=1_000)
        assert cache.put(1, np.zeros(100))
        assert not cache.put(1, np.zeros(200))    # over budget: refused
        assert cache.get(1) is _CACHE_MISS        # ...and 1 is not the old array
        assert cache.stats()["resident_bytes"] == 0
        assert cache.stats()["resident_blocks"] == 0

    def test_refused_put_leaves_other_entries_alone(self):
        cache = BlockCache(max_bytes=1_000)
        keep = np.zeros(100)
        cache.put(2, keep)
        assert not cache.put(1, np.zeros(200))
        assert cache.get(2) is keep
        assert cache.stats()["evictions"] == 0


# ---------------------------------------------------------------------------
# The master-side residency tracker
# ---------------------------------------------------------------------------
class TestResidencyTracker:
    def test_bids_are_monotonic_and_never_reused(self):
        t = ResidencyTracker(2)
        a, b = wrap_payload(np.zeros(4)), wrap_payload(np.zeros(4))
        bid_a = t.ensure_bid(a)
        assert t.ensure_bid(a) == bid_a
        assert t.ensure_bid(b) > bid_a
        assert t.reserve_bid() > t.ensure_bid(b)

    def test_residency_add_discard(self):
        t = ResidencyTracker(2)
        blk = wrap_payload(np.zeros(4))
        bid = t.ensure_bid(blk)
        t.add(bid, 1)
        assert t.resident(bid, 1) and not t.resident(bid, 0)
        assert set(t.holders(blk)) == {1}
        t.discard(bid, 1)
        assert not t.resident(bid, 1)

    def test_block_death_queues_invalidations(self):
        t = ResidencyTracker(2)
        blk = wrap_payload(np.zeros(4))
        bid = t.ensure_bid(blk)
        t.add(bid, 0)
        t.add(bid, 1)
        del blk  # GC fires the weakref callback
        assert t.take_invalidations(0) == [bid]
        assert t.take_invalidations(1) == [bid]
        assert t.take_invalidations(0) == []  # drained

    def test_forget_invalidates_now_and_not_again_at_death(self):
        t = ResidencyTracker(1)
        blk = wrap_payload(np.zeros(4))
        bid = t.ensure_bid(blk)
        t.add(bid, 0)
        t.forget(blk)
        assert t.take_invalidations(0) == [bid]
        del blk  # eventual death must not queue a second round
        assert t.take_invalidations(0) == []

    def test_drop_worker_purges_residency_and_queue(self):
        t = ResidencyTracker(2)
        blk = wrap_payload(np.zeros(4))
        bid = t.ensure_bid(blk)
        t.add(bid, 0)
        t.add(bid, 1)
        dead = wrap_payload(np.zeros(4))
        t.add(t.ensure_bid(dead), 0)
        del dead  # queues an invalidation for worker 0
        t.drop_worker(0)
        assert not t.resident(bid, 0)
        assert t.resident(bid, 1)
        assert t.take_invalidations(0) == []  # fresh respawn: nothing

    def test_adopt_registers_result_blocks(self):
        t = ResidencyTracker(1)
        blk = wrap_payload(np.zeros(4))
        bid = t.reserve_bid()
        t.adopt(blk, bid, 0)
        assert blk.bid == bid
        assert t.resident(bid, 0)
        # Adopting an already-tracked block is a no-op.
        t.adopt(blk, t.reserve_bid(), 0)
        assert blk.bid == bid

    def test_stats_shape(self):
        t = ResidencyTracker(1)
        blk = wrap_payload(np.zeros(4))
        t.add(t.ensure_bid(blk), 0)
        s = t.stats()
        assert s["blocks_tracked"] == 1
        assert s["resident_blocks"] == 1
        assert s["resident_bytes"] == blk.nbytes
        assert s["hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# The cachemiss fault kind
# ---------------------------------------------------------------------------
class TestCacheMissFault:
    def test_parses_and_roundtrips(self):
        spec = parse_fault_spec("cachemiss:op=af_stage,p=1.0")
        assert spec.clauses[0].kind == "cachemiss"
        assert parse_fault_spec(spec.describe()) == spec

    def test_fires_on_lookup_not_on_call(self):
        inj = parse_fault_spec("cachemiss:p=1.0").build()
        inj.on_call("anything")  # must not raise, sleep, or kill
        assert inj.on_cache_lookup("anything")
        assert inj.injected == 1

    def test_scoped_by_operator(self):
        inj = parse_fault_spec("cachemiss:op=af_stage,p=1.0").build()
        assert not inj.on_cache_lookup("other")
        assert inj.on_cache_lookup("af_stage")


# ---------------------------------------------------------------------------
# The real locality layer: ref shipping, misses, invalidation, crashes
# ---------------------------------------------------------------------------
def _locality_registry():
    reg = default_registry()

    @reg.register(name="af_produce", pure=True, cost=4e6)
    def af_produce(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(4096)  # 32 KB

    @reg.register(name="af_stage", pure=True, cost=4e6)
    def af_stage(a, k):
        return float((a * k).sum())

    @reg.register(name="af_bump", modifies=(0,), cost=1.0)
    def af_bump(a, k):
        a += k
        return a

    return reg


AFFINITY_REGISTRY = _locality_registry()

#: One producer, six consumers of the same 32 KB block: the fan-out
#: shape locality is for.  With ``--affinity data`` the block crosses
#: the wire once (or zero times, via result adoption); with ``none`` it
#: is re-encoded for every consumer.
FANOUT_SRC = """
main(seed)
  let blk = af_produce(seed)
      s1 = af_stage(blk, 1)
      s2 = af_stage(blk, 2)
      s3 = af_stage(blk, 3)
      s4 = af_stage(blk, 4)
      s5 = af_stage(blk, 5)
      s6 = af_stage(blk, 6)
  in add(add(add(s1, s2), add(s3, s4)), add(s5, s6))
"""

FANOUT = compile_source(FANOUT_SRC, registry=AFFINITY_REGISTRY)

#: Remote reads of a block, then a *local* in-place bump, then a remote
#: read of the mutated block — the invalidation-ordering case: the
#: worker's resident pre-bump copy must never satisfy the post-bump read.
MUTATE_SRC = """
main(seed)
  let blk = af_produce(seed)
      a = af_stage(blk, 2)
      b = af_bump(blk, a)
      c = af_stage(b, 3)
  in add(a, c)
"""

MUTATE = compile_source(MUTATE_SRC, registry=AFFINITY_REGISTRY)


def _run_fanout(
    affinity, workers=1, fault_spec=None, fault_policy=None, bus=None
):
    return ProcessExecutor(
        workers,
        cost_threshold=0.0,
        affinity=affinity,
        fault_spec=fault_spec,
        fault_policy=fault_policy,
        bus=bus,
    ).run(FANOUT.graph, args=(7,), registry=AFFINITY_REGISTRY)


class TestLocalityDispatch:
    def test_ref_shipping_cuts_encoded_bytes_bit_identically(self):
        reference = SequentialExecutor().run(
            FANOUT.graph, args=(7,), registry=AFFINITY_REGISTRY
        )
        none = _run_fanout("none")
        data = _run_fanout("data")
        assert none.value == reference.value
        assert data.value == reference.value
        # Legacy dispatch never refs; affinity refs the fan-out reads.
        assert none.stats.blocks_ref_shipped == 0
        assert none.stats.encode_bytes_avoided == 0
        assert data.stats.blocks_ref_shipped >= 2
        assert data.stats.encode_bytes_avoided > 0
        # One worker holds every block it was sent: no ref can miss.
        assert data.stats.affinity_misses == 0
        # The headline claim: at least 2x fewer encoded wire bytes.
        assert data.stats.encode_bytes * 2 <= none.stats.encode_bytes

    def test_one_worker_fanout_avoids_exactly_the_block_six_times(self):
        # Golden from the last commit that sized blocks at construction:
        # the adopted 32 KB result is ref-shipped to all six readers.
        view = CopyView()
        stats = _run_fanout("data", bus=view.bus).stats
        assert stats.blocks_ref_shipped == 6
        assert stats.encode_bytes_avoided == 196608
        assert stats.cow_copies == 0
        assert view.take() == ({}, {})

    def test_block_ids_do_not_restart_under_a_warm_pool(self):
        # Each run builds a supervisor, the persistent pool's caches
        # survive it: run 2's block once took run 1's id, the worker
        # refused the (over-budget) new value and kept answering reads
        # with run 1's array — 29.0 instead of 33.0.
        registry = default_registry()

        @registry.register(name="mk", pure=True, cost=1.0)
        def mk(n, fill):
            return np.full(n, fill)

        @registry.register(name="rd", pure=True, cost=10_000_000.0)
        def rd(block, i):
            return float(block[i]) + i

        program = compile_source(
            "main(n, fill)\n"
            "  let b = mk(n, fill)\n"
            "  in add(add(rd(b,1), rd(b,2)), rd(b,3))\n",
            registry=registry,
        )
        small_cache = functools.partial(WorkerPool, cache_bytes=1_000_000)
        with mock.patch.object(executors, "WorkerPool", small_cache):
            executor = ProcessExecutor(1, persistent=True)
            try:
                values = [
                    executor.run(program.graph, args, registry).value
                    for args in ((50_000, 7.0), (300_000, 9.0))
                ]
            finally:
                executor.close()
        assert values == [27.0, 33.0]

    def test_one_tracker_serves_every_run_of_a_warm_pool(self):
        # The record of what the workers' caches hold lives as long as
        # they do: ids go on where the last run stopped, and blocks that
        # died with a run are invalidated by the next run's first message
        # instead of filling the caches (retina: 220 -> 361 MB peak RSS
        # when each run's tracker took its queue with it).
        executor = ProcessExecutor(1, cost_threshold=0.0, persistent=True)

        def run_once():
            executor.run(FANOUT.graph, args=(7,), registry=AFFINITY_REGISTRY)

        try:
            run_once()
            tracker = executor._pool.residency
            gc.collect()
            after_first = tracker.stats()
            assert after_first["resident_blocks"] == 0
            assert after_first["pending_invalidations"] >= 1
            last_id = tracker.reserve_bid()
            run_once()
            assert executor._pool.residency is tracker
            assert tracker.reserve_bid() > last_id + 1
            gc.collect()
            # Run 1's queue went out; what is pending now is run 2's.
            assert (
                tracker.stats()["pending_invalidations"]
                == after_first["pending_invalidations"]
            )
        finally:
            executor.close()

    def test_operator_affinity_is_bit_identical_too(self):
        none = _run_fanout("none")
        op = _run_fanout("operator", workers=2)
        assert op.value == none.value

    def test_cache_miss_fallback_is_bit_identical(self):
        # Force every by-reference lookup to miss: each affected fire
        # comes back as a structured miss reply and re-dispatches fully
        # encoded.  No retry budget is consumed and the answer is
        # unchanged.
        none = _run_fanout("none")
        missy = _run_fanout(
            "data",
            fault_spec=parse_fault_spec("cachemiss:p=1.0"),
            fault_policy=FaultPolicy(max_retries=1, backoff=0.0),
        )
        assert missy.value == none.value
        assert missy.stats.affinity_misses >= 1
        assert missy.stats.fires_retried == 0

    def test_midrun_in_place_write_is_bit_identical(self):
        reference = SequentialExecutor().run(
            MUTATE.graph, args=(3,), registry=AFFINITY_REGISTRY
        )
        for affinity in ("none", "data"):
            got = ProcessExecutor(2, affinity=affinity).run(
                MUTATE.graph, args=(3,), registry=AFFINITY_REGISTRY
            )
            assert got.value == reference.value
        assert got.stats.in_place_writes >= 1

    def test_crash_then_ref_is_bit_identical(self):
        # Kill the worker on its first af_stage call — after the block
        # went resident.  The retried fire must not ref the dead (then
        # respawned, hence empty) cache.
        none = _run_fanout("none")
        crashes = Fold(None, WorkerCrashed)
        crashy = _run_fanout(
            "data",
            fault_spec=parse_fault_spec("kill:op=af_stage,nth=1"),
            fault_policy=FaultPolicy(
                max_retries=5, backoff=0.0, max_respawns=4
            ),
            bus=crashes.bus,
        )
        assert crashy.value == none.value
        assert crashes["worker_crashes"] >= 1

    def test_memory_gauges_reach_prometheus(self):
        ctx = RunContext("affinity-expo", flight_recorder=False)
        got = ProcessExecutor(
            1, cost_threshold=0.0, affinity="data", run_ctx=ctx
        ).run(FANOUT.graph, args=(7,), registry=AFFINITY_REGISTRY)
        assert got.stats.blocks_ref_shipped >= 1
        gauges = ctx.metrics.gauges
        assert any(k.startswith("shm_arena/") for k in gauges)
        assert any(k.startswith("worker_cache/") for k in gauges)
        assert gauges["worker_cache/refs_shipped"].value >= 1
        text = render_prometheus(ctx.metrics)
        assert 'delirium_shm_arena{key="created"}' in text
        assert 'delirium_worker_cache{key="refs_shipped"}' in text
        # The event-driven counters ride the same registry.
        assert ctx.metrics.counters["blocks_ref_shipped"].value >= 1
