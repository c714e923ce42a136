"""Chaos smoke checks, small enough for CI.

The ISSUE 5 fault-tolerance layer exercised on the two case-study apps:
retina (mutable slab state, fused graphs) and the Monte-Carlo
π estimator (pure fan-out/reduce), each run under the supervised process
executor with

* worker SIGKILLs at p=0.05 (deterministic, seeded), and
* one forced per-fire timeout (a 30 s injected delay under a sub-second
  timeout budget — the hung worker is killed and the fire re-dispatched),

asserting that the run completes, the result is bit-identical to the
fault-free run, the fault counters actually saw the injected faults, and
no shared-memory segment outlives the run.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.montecarlo import compile_pi
from repro.apps.retina import RetinaConfig, compile_retina
from repro.faults import parse_fault_spec
from repro.runtime import FaultPolicy, ProcessExecutor, SequentialExecutor

WORKERS = 3

#: Worker kills on 5% of operator calls, plus one 30-second stall on the
#: first call the clause sees — forced past the 0.75 s per-fire budget.
CHAOS_SPEC = "kill:p=0.05,seed=7;delay:nth=1,seconds=30"
CHAOS_POLICY = FaultPolicy(
    max_retries=6, timeout=0.75, backoff=0.0, max_respawns=64
)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


def _chaos_run(graph, registry):
    executor = ProcessExecutor(
        WORKERS,
        cost_threshold=0.0,
        shm_threshold=1024,
        fault_policy=CHAOS_POLICY,
        fault_spec=parse_fault_spec(CHAOS_SPEC),
    )
    return executor.run(graph, registry=registry)


def test_retina_survives_chaos():
    prog = compile_retina(
        2, RetinaConfig(height=32, width=32, kernel_size=5, num_iter=2),
        fuse=True,
    )
    fault_free = SequentialExecutor().run(prog.graph, registry=prog.registry)
    before = _shm_entries()
    result = _chaos_run(prog.graph, prog.registry)
    assert result.value.signature() == fault_free.value.signature()
    stats = result.stats
    assert stats.worker_crashes >= 1, "the kill clause never fired"
    assert stats.fires_timed_out >= 1, "the forced timeout never fired"
    assert stats.fires_retried >= stats.worker_crashes
    assert _shm_entries() <= before, "leaked shared-memory segments"
    from repro.runtime.workers import cleanup_arenas

    assert cleanup_arenas() == 0, "live arenas left for the atexit reaper"


def test_montecarlo_survives_chaos():
    prog = compile_pi(seed=2026, batch_size=512)
    fault_free = SequentialExecutor().run(
        prog.graph, args=(16,), registry=prog.registry
    )
    before = _shm_entries()
    executor = ProcessExecutor(
        WORKERS,
        cost_threshold=0.0,
        shm_threshold=1024,
        fault_policy=CHAOS_POLICY,
        fault_spec=parse_fault_spec(CHAOS_SPEC),
    )
    result = executor.run(prog.graph, args=(16,), registry=prog.registry)
    assert result.value == fault_free.value
    assert result.stats.worker_crashes >= 1
    assert result.stats.fires_timed_out >= 1
    assert _shm_entries() <= before, "leaked shared-memory segments"
    from repro.runtime.workers import cleanup_arenas

    assert cleanup_arenas() == 0, "live arenas left for the atexit reaper"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
