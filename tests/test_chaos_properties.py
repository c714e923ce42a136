"""Hypothesis chaos properties: injected faults never change the answer.

The fault-tolerance argument of ISSUE 5 in property form.  Delirium's
single-assignment semantics make re-execution of a failed firing safe by
construction, so a run with deterministic fault injection — operator
exceptions, delays, SIGKILLed workers, arena allocation failures — must
be *bit-identical* to the fault-free run, under every executor, worker
count and fusion setting.  The generated programs
deliberately share mutable blocks across destructive bumps (the
adversarial case for any re-fire path).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.faults import parse_fault_spec
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
)

from tests.test_properties import REGISTRY, _programs


def _compile(source, fuse):
    passes = PASS_ORDER + ("fuse",) if fuse else PASS_ORDER
    return compile_source(source, registry=REGISTRY, optimize_passes=passes)


def _reference(compiled, n):
    return SequentialExecutor().run(
        compiled.graph, args=(n,), registry=REGISTRY
    ).value


#: Fault cocktails exercising every injection kind.  Probabilities are
#: high enough to fire on nearly every generated program; retries and the
#: respawn budget absorb them.
_FAULT_SPECS = st.sampled_from(
    [
        "raise:p=0.3,seed=5",
        "raise:op=bump,p=0.5,seed=9",
        "kill:p=0.1,seed=3",
        "kill:op=blk_sum,nth=1",
        "arena:p=0.5,seed=2",
        "raise:p=0.2,seed=1;kill:p=0.05,seed=4;arena:p=0.3,seed=6",
    ]
)

#: Generous budgets: the property under test is result *identity*, not
#: bounded retries — with deterministic per-count hashing, a p=0.3 clause
#: will occasionally fire on several consecutive counts, and a tight
#: retry budget would turn that legitimate retry streak into a poison
#: error (0.3**26 makes that effectively impossible here; the poison
#: path itself is covered in test_supervise.py).
_POLICY = FaultPolicy(max_retries=25, backoff=0.0, max_respawns=200)


class TestChaosEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.booleans(),
        _FAULT_SPECS,
    )
    def test_sequential_chaos_matches(self, source, n, fuse, faults):
        compiled = _compile(source, fuse)
        reference = _reference(compiled, n)
        chaotic = SequentialExecutor(
            fault_policy=_POLICY, fault_spec=parse_fault_spec(faults)
        ).run(compiled.graph, args=(n,), registry=REGISTRY).value
        assert chaotic == reference

    @settings(max_examples=10, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.booleans(),
        st.integers(1, 4),
        _FAULT_SPECS,
    )
    def test_threaded_chaos_matches(self, source, n, fuse, workers, faults):
        compiled = _compile(source, fuse)
        reference = _reference(compiled, n)
        chaotic = ThreadedExecutor(
            workers,
            fault_policy=_POLICY,
            fault_spec=parse_fault_spec(faults),
        ).run(compiled.graph, args=(n,), registry=REGISTRY).value
        assert chaotic == reference

    @settings(max_examples=6, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.booleans(),
        st.integers(1, 3),
        st.integers(0, 100),
        _FAULT_SPECS,
    )
    def test_process_chaos_matches(
        self, source, n, fuse, workers, seed, faults
    ):
        # The full tentpole claim: operator bodies in other processes,
        # every fire force-dispatched, workers crashing and respawning —
        # still bit-identical under any worker count, scheduling seed and
        # fusion setting.
        compiled = _compile(source, fuse)
        reference = _reference(compiled, n)
        result = ProcessExecutor(
            workers,
            cost_threshold=0.0,
            shm_threshold=256,
            seed=seed,
            fault_policy=_POLICY,
            fault_spec=parse_fault_spec(faults),
        ).run(compiled.graph, args=(n,), registry=REGISTRY)
        assert result.value == reference

    @settings(max_examples=6, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.integers(1, 3),
    )
    def test_forced_degradation_matches(self, source, n, workers):
        # Kill every worker instantly with no respawn budget: the run
        # must finish inline through the degradation ladder, bit-identical.
        compiled = _compile(source, True)
        reference = _reference(compiled, n)
        result = ProcessExecutor(
            workers,
            cost_threshold=0.0,
            shm_threshold=256,
            fault_policy=FaultPolicy(
                max_retries=1, backoff=0.0, max_respawns=0
            ),
            fault_spec=parse_fault_spec("kill:p=1.0"),
        ).run(compiled.graph, args=(n,), registry=REGISTRY)
        assert result.value == reference
        assert result.stats.executor_degraded >= 1
