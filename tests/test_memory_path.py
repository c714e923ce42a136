"""Runtime memory-path units: the shared-memory arena, the measured
dispatch policy, dispatch calibration, the paper's copy rule and the
size of a block.

These are the pieces behind the zero-copy process path: the master's
:class:`~repro.runtime.workers.ShmArena` recycles POSIX segments across
fires, :class:`~repro.runtime.workers.DispatchPolicy` consults measured
per-operator wall costs before paying an IPC round trip, and
``calibrate_dispatch`` produces that table from one traced run.  The
engine writes an argument in place only when its block holds the sole
reference, and copies it otherwise (§2.1).
"""

from __future__ import annotations

import resource
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro import compile_source
from repro.apps.queens import compile_queens
from repro.apps.retina import RetinaConfig, compile_retina
from repro.machine import (
    SimulatedExecutor,
    butterfly,
    calibrate_dispatch,
    cray_ymp,
)
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    blocks,
    default_registry,
)
from repro.runtime.blocks import payload_nbytes
from repro.runtime.workers import (
    DispatchPolicy,
    ShmArena,
    ShmSegment,
    decode_value,
    encode_value,
)

from .programs import CopyView


class TestShmArena:
    def test_acquire_release_reuses_segment(self):
        arena = ShmArena()
        try:
            first = arena.acquire(5000)
            name = first.name
            arena.release(name)
            second = arena.acquire(6000)  # same 8192-byte size class
            assert second.name == name
            assert arena.stats()["created"] == 1
            assert arena.stats()["reused"] == 1
        finally:
            arena.close()

    def test_size_classes_are_powers_of_two_with_floor(self):
        arena = ShmArena(min_bytes=4096)
        assert arena._size_class(1) == 4096
        assert arena._size_class(4096) == 4096
        assert arena._size_class(4097) == 8192
        assert arena._size_class(100_000) == 131_072

    def test_distinct_classes_do_not_share(self):
        arena = ShmArena()
        try:
            small = arena.acquire(1000)
            arena.release(small.name)
            big = arena.acquire(1_000_000)
            assert big.name != small.name
            assert arena.stats()["created"] == 2
            assert arena.stats()["reused"] == 0
        finally:
            arena.close()

    def test_close_unlinks_everything(self):
        arena = ShmArena()
        lent = arena.acquire(5000)
        freed = arena.acquire(5000)
        arena.release(freed.name)
        names = [lent.name, freed.name]
        arena.close()
        assert arena.stats()["lent"] == 0
        assert arena.stats()["free"] == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                ShmSegment.attach(name)

    def test_pooled_encode_decode_round_trip(self):
        arena = ShmArena()
        try:
            payload = np.arange(10_000, dtype=np.float64)
            enc = encode_value(payload, shm_threshold=1024, arena=arena)
            assert enc.pooled
            assert enc.shm_name is not None
            decoded = decode_value(enc)
            np.testing.assert_array_equal(decoded, payload)
            assert arena.stats()["lent"] == 1
            arena.release(enc.shm_name)
            # The next large encode must reuse the same segment.
            enc2 = encode_value(payload * 2.0, shm_threshold=1024, arena=arena)
            assert enc2.shm_name == enc.shm_name
            assert arena.stats()["reused"] == 1
            np.testing.assert_array_equal(decode_value(enc2), payload * 2.0)
        finally:
            arena.close()

    def test_small_payloads_skip_the_arena(self):
        arena = ShmArena()
        try:
            enc = encode_value(np.arange(4), shm_threshold=1 << 20, arena=arena)
            assert not enc.pooled
            assert enc.shm_name is None
            assert arena.stats()["created"] == 0
        finally:
            arena.close()


def _spec(name: str, cost):
    return SimpleNamespace(name=name, try_cost_ticks=lambda payloads: cost)


class TestDispatchPolicy:
    def test_measured_table_overrides_cost_hint(self):
        policy = DispatchPolicy(
            measured_seconds={"cheap": 0.0001, "heavy": 0.02},
            min_dispatch_seconds=0.002,
        )
        # cheap's static hint says "dispatch"; the measurement vetoes it.
        assert not policy.should_dispatch(_spec("cheap", 1e9), (1,))
        assert policy.should_dispatch(_spec("heavy", 1.0), (1,))

    def test_unmeasured_falls_back_to_cost_hint(self):
        policy = DispatchPolicy(
            measured_seconds={"other": 1.0}, cost_threshold=2_000_000.0
        )
        assert policy.should_dispatch(_spec("unknown", 3_000_000.0), (1,))
        assert not policy.should_dispatch(_spec("unknown", 1_000.0), (1,))

    def test_zero_threshold_still_dispatches_everything(self):
        policy = DispatchPolicy(cost_threshold=0.0)
        assert policy.should_dispatch(_spec("anything", 0.0), (1,))


class TestCalibrateDispatch:
    @pytest.fixture(scope="class")
    def calibration(self):
        config = RetinaConfig(height=32, width=32, kernel_size=5, num_iter=2)
        prog = compile_retina(2, config, fuse=True)
        return calibrate_dispatch(prog.graph, prog.registry)

    def test_partition_covers_all_measured_operators(self, calibration):
        names = set(calibration.seconds_by_operator)
        assert names
        assert set(calibration.dispatch) | set(calibration.keep_local) == names
        assert not set(calibration.dispatch) & set(calibration.keep_local)
        for name in calibration.dispatch:
            assert (
                calibration.seconds_by_operator[name]
                >= calibration.min_dispatch_seconds
            )

    def test_fused_specs_measured_under_spec_names(self, calibration):
        # measure_costs keys records by node *label* ("a+b"); the policy
        # needs spec names ("fused:...") — the mapping must land there.
        assert any(
            name.startswith("fused:")
            for name in calibration.seconds_by_operator
        )

    def test_tiny_retina_keeps_everything_local(self, calibration):
        # 32x32 firings are tens of microseconds — far below one IPC
        # round trip.  This is the PR 4 regression fix in miniature.
        assert calibration.dispatch == []

    def test_bar_at_zero_dispatches_everything(self):
        config = RetinaConfig(height=32, width=32, kernel_size=5, num_iter=1)
        prog = compile_retina(2, config, fuse=True)
        calibration = calibrate_dispatch(
            prog.graph, prog.registry, min_dispatch_seconds=0.0
        )
        assert calibration.keep_local == []
        assert set(calibration.dispatch) == set(
            calibration.seconds_by_operator
        )


#: Every backend, by name.  ``cost_threshold=0`` sends every body to the
#: worker, where the process boundary makes the copy; the decision is
#: counted all the same.
EXECUTORS = {
    "sequential": SequentialExecutor,
    "threaded": lambda **kw: ThreadedExecutor(2, **kw),
    "process": lambda **kw: ProcessExecutor(1, cost_threshold=0.0, **kw),
    "simulated": lambda **kw: SimulatedExecutor(cray_ymp(2), **kw),
}


def _array_registry():
    reg = default_registry()

    @reg.register(name="make_array", pure=True)
    def make_array(n):
        return np.zeros(int(n), dtype=np.float64)

    @reg.register(name="bump", modifies=(0,))
    def bump(a):
        a += 1.0
        return a

    return reg


class TestTheCopyRule:
    """§2.1: an operator writes an argument in place only when it holds
    the sole reference; otherwise the runtime copies first."""

    #: Four in-place increments over one fresh array.
    CHAIN = """
    main(n)
      bump(bump(bump(bump(make_array(n)))))
    """

    @pytest.mark.parametrize("check_purity", [False, True])
    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    def test_a_chain_over_one_fresh_array_writes_in_place(
        self, kind, check_purity
    ):
        reg = _array_registry()
        compiled = compile_source(self.CHAIN, registry=reg)
        result = EXECUTORS[kind](check_purity=check_purity).run(
            compiled.graph, args=(8,), registry=reg
        )
        stats = result.stats
        assert (stats.in_place_writes, stats.cow_copies) == (4, 0)
        np.testing.assert_array_equal(result.value, np.full(8, 4.0))

    @pytest.mark.parametrize("kind", sorted(EXECUTORS))
    @pytest.mark.parametrize("version, in_place", [(1, 80), (2, 144)])
    def test_retina_writes_every_block_in_place(self, version, in_place, kind):
        compiled = compile_retina(version, RetinaConfig(), fuse=True)
        view = CopyView()
        stats = EXECUTORS[kind](bus=view.bus).run(
            compiled.graph, registry=compiled.registry
        ).stats
        assert (stats.in_place_writes, stats.cow_copies) == (in_place, 0)
        assert view.take() == ({}, {})


class TestBlockSizeFollowsThePayload:
    """``DataBlock.nbytes`` measures the *current* payload: an in-place
    write drops the memo, so a later COW copy's ``CowCopy`` carries its
    real size (it used to be frozen at construction: 172 bytes here)."""

    SRC = """
    main()
      let a = mk()
          b = grow(a)
          c = touch(b)
      in <b, c>
    """

    @staticmethod
    def _registry():
        reg = default_registry()

        @reg.register(name="mk")
        def mk():
            return [0, 0, 0]

        @reg.register(name="grow", modifies=(0,))
        def grow(lst):
            lst.extend([0] * 100_000)
            return lst

        @reg.register(name="touch", modifies=(0,))
        def touch(lst):
            lst[0] = 1
            return lst

        return reg

    # check_purity routes through _begin_operator instead of the inline
    # fire.
    @pytest.mark.parametrize("check_purity", [False, True])
    def test_cow_copy_after_in_place_growth_books_the_grown_size(
        self, check_purity
    ):
        reg = self._registry()
        compiled = compile_source(self.SRC, registry=reg)
        view = CopyView()
        result = SequentialExecutor(
            check_purity=check_purity, bus=view.bus
        ).run(compiled.graph, registry=reg)
        b, c = result.value
        assert (len(b), b[0], c[0]) == (100_003, 0, 1)
        stats = result.stats
        assert (stats.in_place_writes, stats.cow_copies) == (1, 1)
        copies, nbytes = view.take()
        assert copies == {"touch": 1}
        assert nbytes == {"touch": payload_nbytes(b)}
        assert nbytes["touch"] > 800_000

    def test_size_is_lazy_memoised_and_droppable(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            blocks, "payload_nbytes",
            lambda p, _real=payload_nbytes: calls.append(1) or _real(p),
        )
        block = blocks.DataBlock([1, 2, 3])
        assert calls == []
        first = block.nbytes
        assert block.nbytes == first and len(calls) == 1
        block.payload.extend(range(100))
        assert block.nbytes == first  # memoised until told otherwise
        block.drop_size()
        assert block.nbytes == payload_nbytes(block.payload) > first


class _Plain:
    pass


#: The retina's blocks hold opaque application objects, sized by
#: ``sys.getsizeof`` alone; the goldens below were taken where a plain
#: instance is 56 bytes (CPython 3.11) and mean nothing elsewhere.
_retina_goldens = pytest.mark.skipif(
    sys.getsizeof(_Plain()) != 56,
    reason="byte goldens taken with 56-byte plain instances",
)


class TestSizeParityWithEagerSizing:
    """Figures that read block sizes, as literal goldens taken from the
    last commit that sized every block at construction.  None of these
    programs resizes a payload in place, so lazy sizing must not move
    them."""

    @_retina_goldens
    def test_retina_one_worker_residency_stats(self):
        compiled = compile_retina(2, RetinaConfig(), fuse=True)
        stats = ProcessExecutor(1, cost_threshold=0.0).run(
            compiled.graph, registry=compiled.registry
        ).stats
        assert stats.blocks_ref_shipped == 164
        assert stats.encode_bytes_avoided == 9184

    @_retina_goldens
    def test_retina_numa_ticks(self):
        # butterfly charges every transfer by the block's size.
        compiled = compile_retina(2, RetinaConfig(), fuse=True)
        ticks = SimulatedExecutor(butterfly(8)).run(
            compiled.graph, registry=compiled.registry
        ).ticks
        # Was 29949440.984 while static nodes fired: each cost a
        # processor ``dispatch_ticks + node_overhead_ticks``.
        assert ticks == pytest.approx(29947236.952, rel=1e-12)

    # Were 214644 and 834286 while constants, capture-free closures and
    # shortcut arms fired: each was charged a dispatch and a node overhead;
    # 136915 and 522496 while every ``try`` was a call (a ``CALL`` firing
    # and an activation each) instead of spliced into ``do_it``.
    @pytest.mark.parametrize("n, ticks", [(5, 106243.0), (6, 399041.0)])
    def test_queens_cray_ticks(self, n, ticks):
        compiled = compile_queens(n)
        result = SimulatedExecutor(cray_ymp(4)).run(
            compiled.graph, registry=compiled.registry
        )
        assert result.ticks == ticks


#: 100 total retina iterations, run as 20 five-iteration programs so the
#: growth window also covers executor setup/teardown churn.
RSS_CONFIG = RetinaConfig(height=64, width=64, kernel_size=5, num_iter=5)
RSS_RUNS = 20
#: Allowed peak-RSS growth across the window.  A real leak — one 32 KiB
#: slab chain per iteration — costs several MiB over 100 iterations;
#: allocator noise stays well under this.
RSS_BOUND_KIB = 24 * 1024


def test_retina_rss_growth_bounded():
    prog = compile_retina(2, RSS_CONFIG, fuse=True)
    graph, registry = prog.graph, prog.registry

    def run_once():
        return SequentialExecutor().run(graph, registry=registry)

    baseline_result = run_once()  # warm allocator, import caches, pools
    run_once()
    baseline_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for _ in range(RSS_RUNS):
        result = run_once()
    growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline_kib
    assert result.value.signature() == baseline_result.value.signature()
    assert growth <= RSS_BOUND_KIB, (
        f"peak RSS grew {growth} KiB over {RSS_RUNS * RSS_CONFIG.num_iter} "
        f"retina iterations (bound: {RSS_BOUND_KIB} KiB)"
    )
