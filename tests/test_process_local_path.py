"""The process master's local leg is the sequential engine's fire.

``ProcessExecutor`` decides a dispatch class once per node and executor
configuration and fires local work with ``ExecutionState.fire``; a firing
suspends (a ``PendingOp`` exists) only when it goes remote or a call
head's callee turns out to be an operator.  This file pins what must not move while that happens:

* results bit-identical to ``SequentialExecutor`` and every contract
  ``EngineStats`` counter, and the per-operator copy view folded from
  ``CowCopy``, equal to the goldens recorded at the commit
  before the class table existed (``golden_process_stats.json``; the
  scheduling consequences — fires, expansions, activations — are not
  kept);
* structural guards on the fast path (no ``PendingOp``, no retry
  wrapper, no peer key for heads that have no peers; on a warm
  executor no classification, no policy call and no scan for peers that
  finds none);
* the retry contract: a local body that raises gets the same attempts,
  events and error text as when every fire was begun and completed;
* no reference cycle through the run's ``ExecutionState``;
* mid-run degradation still finishes bit-identical.
"""

import collections
import dataclasses
import gc
import json
import os
import random
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.apps import loganalytics, montecarlo, queens, retina
from repro.apps.compiler_app import generate_workload
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.errors import OperatorError
from repro.faults import FaultSpec
from repro.obs import EventBus, FireRetried, OpFinished, OpStarted, TaskFired
from repro.runtime import (
    DispatchPolicy,
    FaultPolicy,
    ProcessExecutor,
    ReadyQueue,
    SequentialExecutor,
    crown,
    default_registry,
    engine,
    executors,
)
from repro.runtime.blocks import payload_nbytes
from repro.runtime.operators import OperatorSpec

from .programs import CopyView

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "golden_process_stats.json"
)


def _compile(source, registry, **kwargs):
    return compile_source(
        source, registry=registry, optimize_passes=FULL_PASS_ORDER, **kwargs
    ).graph


def _queens(n):
    registry = queens.make_registry(n)
    return _compile(queens.queens_source(n), registry), registry, [()], {}


def _pi(ticks_per_sample):
    """``PI_PROGRAM``; the batch cost hint (samples x ticks) puts the
    leaves under or over the default dispatch threshold."""
    registry = montecarlo.make_registry(
        seed=3, batch_size=2_000, ticks_per_sample=ticks_per_sample
    )
    graph = _compile(montecarlo.PI_PROGRAM, registry, prelude=True)
    return graph, registry, [(8,)], {}


def _log():
    registry = loganalytics.make_registry()
    graph = _compile(loganalytics.LOG_PROGRAM, registry)
    batches = [loganalytics.make_batch(5, i, 32) for i in range(3)]
    args = [(loganalytics.empty_stats(), b) for b in batches]
    return graph, registry, args, {}


def _retina():
    cfg = retina.RetinaConfig(
        height=48, width=48, kernel_size=5, num_iter=2, seed=2
    )
    compiled = retina.compile_retina(
        2, cfg, optimize_passes=FULL_PASS_ORDER
    )
    # At this frame size every hint is under the default threshold; a
    # lower one sends the convolutions and frame updates to the workers.
    return compiled.graph, compiled.registry, [()], {"cost_threshold": 3e4}


def _chain_add(terms):
    acc = terms[0]
    for term in terms[1:]:
        acc = f"add({acc}, {term})"
    return acc


def _fanout():
    """The benchmark's fan-out shape: local producers, remote readers."""
    registry = default_registry()
    elems = 6_000

    @registry.register(name="fo_produce", pure=True, cost=50_000.0)
    def fo_produce(seed, index):
        return np.random.default_rng([seed, index]).standard_normal(elems)

    @registry.register(name="fo_read", pure=True, cost=10_000_000.0)
    def fo_read(block, k):
        return float(np.sqrt(np.abs(block) + k).sum())

    lines, terms = ["main(seed)", "  let"], []
    for b in range(2):
        lines.append(f"    b{b} = fo_produce(seed, {b})")
        for k in range(1, 4):
            lines.append(f"    r{b}_{k} = fo_read(b{b}, {k})")
            terms.append(f"r{b}_{k}")
    lines.append("  in " + _chain_add(terms))
    return _compile("\n".join(lines) + "\n", registry), registry, [(9,)], {}


def _pythia():
    """The benchmark's generated multi-function program."""
    registry = default_registry()
    functions = generate_workload(6, 1990).strip().split("\n\n")
    rng = random.Random(1990)
    calls = []
    for text in functions:
        name, params = re.match(r"(\w+)\(([^)]*)\)", text).groups()
        picks = [rng.choice("abc") for _ in params.split(",")]
        calls.append(f"{name}({', '.join(picks)})")
    source = (
        "main(a, b, c)\n  " + _chain_add(calls) + "\n\n"
        + "\n\n".join(functions) + "\n"
    )
    args = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)]
    return _compile(source, registry), registry, args, {}


CASES = {
    "queens4": lambda: _queens(4),
    "queens5": lambda: _queens(5),
    "queens6": lambda: _queens(6),
    "pi_local": lambda: _pi(30.0),
    "pi_remote": lambda: _pi(2_000.0),
    "log": _log,
    "retina": _retina,
    "fanout": _fanout,
    "pythia": _pythia,
}

#: ``(workers, batch, affinity)``: the defaults at one and two workers,
#: then each option moved alone.  ``batch`` off caps a peer group at one
#: call (``executors._GROUP_MAX``): every call expands alone.
CONFIGS = [
    (1, True, "data"),
    (2, True, "data"),
    (1, False, "data"),
    (1, True, "operator"),
    (1, True, "none"),
]


def stats_dict(stats, view=None):
    """The exact counters of a run: every non-default ``EngineStats``
    field but the timing probe, and, given the run's :class:`CopyView`,
    its per-operator copy view under the goldens' keys
    ``copies_by_operator`` and ``copy_bytes_by_operator``."""
    out = {k: v for k, v in dataclasses.asdict(stats).items() if v}
    out.pop("op_body_seconds", None)
    if view is not None:
        copies, nbytes = view.take()
        for key, by_op in (
            ("copies_by_operator", copies), ("copy_bytes_by_operator", nbytes)
        ):
            if by_op:
                out[key] = by_op
    return out


def run_case(name, workers, batch, affinity):
    """All argument tuples of one case on a warm process executor;
    returns ``(values, per-run stats dicts)``."""
    graph, registry, arg_tuples, options = CASES[name]()
    view = CopyView()
    executor = ProcessExecutor(
        workers, persistent=True, affinity=affinity, bus=view.bus, **options
    )
    group_max = executors._GROUP_MAX if batch else 1
    values, stats = [], []
    try:
        with mock.patch.object(executors, "_GROUP_MAX", group_max):
            for args in arg_tuples:
                result = executor.run(graph, args, registry)
                values.append(result.value)
                stats.append(stats_dict(result.stats, view))
    finally:
        executor.close()
    return values, stats


def config_key(name, workers, batch, affinity):
    return f"{name}|{workers}|{'batch' if batch else 'nobatch'}|{affinity}"


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(
            dataclasses.astuple(a), dataclasses.astuple(b)
        )
    return a == b


with open(GOLDENS_PATH) as fh:
    GOLDENS = json.load(fh)

#: With two workers the order results arrive in — and with it how fires
#: group, where they are placed and how many activations are live at
#: once — belongs to the host's scheduler, not to the program.
ARRIVAL_DEPENDENT = {
    "ipc_messages_sent", "ipc_messages_received", "blocks_cached",
    "blocks_ref_shipped", "affinity_misses", "encode_bytes",
    "encode_bytes_avoided", "activation_stats",
}

#: How a run was scheduled, not what it computed: a clipped call fires
#: once, so these are deleted from the goldens and never compared.
CONSEQUENCES = {"tasks_fired", "expansions", "activation_stats"}

#: ``sys.getsizeof`` of a list follows its allocation: a board copied by
#: ``list.copy`` is exactly sized where ``deepcopy``'s append loop
#: over-allocated, so the byte totals of the ``cow_bytes`` fold (the
#: ``CowCopy`` sizes, by operator) over copied boards moved with
#: ``copy_payload``.  Every count is exact.
ALLOCATION_DEPENDENT = {"copy_bytes_by_operator"}


@pytest.mark.parametrize("workers,batch,affinity", CONFIGS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_results_and_counters_match_parent(name, workers, batch, affinity):
    graph, registry, arg_tuples, _ = CASES[name]()
    expected = [
        SequentialExecutor().run(graph, args, registry).value
        for args in arg_tuples
    ]
    values, stats = run_case(name, workers, batch, affinity)
    assert _same(values, expected)
    golden = GOLDENS[config_key(name, workers, batch, affinity)]
    skipped = set(CONSEQUENCES)
    if workers > 1:
        skipped |= ARRIVAL_DEPENDENT
    if name.startswith("queens"):
        skipped |= ALLOCATION_DEPENDENT
    for got, want in zip(stats, golden, strict=True):
        for field in (set(got) | set(want)) - skipped:
            assert got.get(field, 0) == want.get(field, 0), field


# ---------------------------------------------------------------------------
# The per-node decision
# ---------------------------------------------------------------------------


def _raising_hint(*args):
    raise RuntimeError("hint not written for these payloads")


_hints = st.one_of(
    st.none(),
    st.floats(0.0, 1e7),
    st.integers(0, 10**7),
    st.floats(1.0, 1e6).map(lambda k: lambda *args: k * len(args)),
    st.just(_raising_hint),
)
_arguments = st.lists(
    st.one_of(
        st.integers(),
        st.binary(max_size=200),
        st.lists(st.integers(), max_size=30),
        st.integers(0, 400).map(np.zeros),
    ),
    max_size=4,
).map(tuple)
_policies = st.builds(
    DispatchPolicy,
    cost_threshold=st.floats(0.0, 1e7),
    nbytes_threshold=st.integers(0, 4_000),
    measured_seconds=st.none()
    | st.dictionaries(st.sampled_from("abc"), st.floats(0.0, 0.01)),
)


def _should_dispatch_at_parent(policy, spec, payloads):
    """``DispatchPolicy.should_dispatch`` as it was before the static
    half was split off: the oracle for both halves."""
    if policy.measured_seconds is not None:
        seconds = policy.measured_seconds.get(spec.name)
        if seconds is not None:
            return seconds >= policy.min_dispatch_seconds
    cost = spec.try_cost_ticks(payloads)
    if cost is not None:
        return cost >= policy.cost_threshold
    return (
        sum(payload_nbytes(p) for p in payloads) >= policy.nbytes_threshold
    )


@settings(max_examples=400, deadline=None)
@given(_policies, st.sampled_from("abc"), _hints, _arguments)
def test_static_decision_agrees_with_the_payload_decision(
    policy, name, hint, payloads
):
    spec = OperatorSpec(name=name, fn=len, cost=hint)
    decision = policy.should_dispatch(spec, payloads)
    assert decision == _should_dispatch_at_parent(policy, spec, payloads)
    static = policy.static_dispatch(spec)
    named = name in (policy.measured_seconds or {})
    assert (static is None) == (
        not named and (hint is None or callable(hint))
    )
    assert static is None or static == decision


# ---------------------------------------------------------------------------
# Structural guards
# ---------------------------------------------------------------------------


def test_warm_queens_takes_no_generic_step(monkeypatch):
    graph, registry, _, _ = _queens(5)
    executor = ProcessExecutor(1, persistent=True)
    try:
        executor.run(graph, (), registry)  # warm: pool and plans
        counts = {"pending": 0, "retries": 0, "plain_keys": 0}

        class CountingPendingOp(engine.PendingOp):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                counts["pending"] += 1
                super().__init__(*args, **kwargs)

        def counting_retries(*args, **kwargs):
            counts["retries"] += 1
            return run_with_retries(*args, **kwargs)

        def counting_key(task):
            key = batch_key(task)
            counts["plain_keys"] += key is None
            return key

        run_with_retries = executors.run_with_retries
        batch_key = executors.batch_key
        monkeypatch.setattr(engine, "PendingOp", CountingPendingOp)
        monkeypatch.setattr(executors, "run_with_retries", counting_retries)
        monkeypatch.setattr(executors, "batch_key", counting_key)
        result = executor.run(graph, (), registry)
    finally:
        executor.close()
    assert result.stats.ops_executed > 100
    assert result.stats.dispatched_fires == 0
    assert counts == {"pending": 0, "retries": 0, "plain_keys": 0}
    # The classes are memoized in the program's per-node tables.
    plans = engine._PLAN_CACHES[id(graph)]
    classes = {
        entry.memo[1]
        for plan in plans.templates.values()
        for entry in plan.nodes
        if entry.memo[0] is not None
    }
    assert classes == {executors._FIRE, executors._OP, executors._CALL}


def _count_decisions(monkeypatch):
    """From here on, count the calls a dispatch decision is made of."""
    counts = collections.Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            out = inner(*args, **kwargs)
            if name == "take_peers" and not out:
                counts["empty take_peers"] += 1
            return out

        monkeypatch.setattr(owner, name, counting)

    count(executors.Run, "_node_class")
    count(DispatchPolicy, "should_dispatch")
    count(ReadyQueue, "take_peers")
    count(executors, "batch_key")
    return counts


def _classes(graph):
    """Dispatch class of every node the last run over ``graph`` met."""
    return {
        (plan.template.name, node_id): entry.memo[1]
        for plan in engine._PLAN_CACHES[id(graph)].templates.values()
        for node_id, entry in enumerate(plan.nodes)
        if entry.memo[0] is not None
    }


def _warm_pythia(monkeypatch):
    """Run pythia's tuples twice on a persistent one-worker executor and
    check that the second round decides nothing and repeats the first;
    returns the graph and the second round's results."""
    graph, registry, arg_tuples, _ = _pythia()
    executor = ProcessExecutor(1, persistent=True)
    try:
        first = [executor.run(graph, args, registry) for args in arg_tuples]
        counts = _count_decisions(monkeypatch)
        second = [executor.run(graph, args, registry) for args in arg_tuples]
    finally:
        executor.close()
    assert counts == {}
    for a, b in zip(first, second, strict=True):
        assert a.value == b.value
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
    return graph, second


def test_warm_pythia_decides_nothing_again(monkeypatch):
    """Every operator stays home, so the entry clips: the second run of a
    persistent executor decides nothing, generates nothing and calls the
    crown the first run made."""
    generated = []
    monkeypatch.setattr(crown.Crown, "__init__", _recording(
        crown.Crown.__init__, generated
    ))
    graph, second = _warm_pythia(monkeypatch)
    assert len(generated) == 1
    # The fused chains cannot leave (numeric hint under the threshold):
    # the whole run is one call of the entry's crown.
    row = engine._PLAN_CACHES[id(graph)].entry
    assert row.memo[1] == executors._CLIP and row.crown.specs
    assert second[0].stats.tasks_fired == 1
    assert second[0].stats.fused_fires > 0
    assert second[0].stats.dispatched_fires == 0


def _recording(init, log):
    def recording(self, *args, **kwargs):
        log.append(args[0])
        init(self, *args, **kwargs)

    return recording


@pytest.mark.usefixtures("graph_path")
def test_warm_pythia_on_the_graph_decides_nothing_again(monkeypatch):
    """Every node fires once per run, nothing is dispatched and no two
    activations of a node are ever ready together: the second run of a
    persistent executor classifies nothing, asks no policy and scans for
    no peers."""
    graph, second = _warm_pythia(monkeypatch)
    # The fused chains cannot leave (numeric hint under the threshold):
    # each is fired whole.
    classes = _classes(graph)
    fused = [
        classes[name, node_id]
        for name, template in graph.templates.items()
        for node_id, node in enumerate(template.nodes)
        if node.fused is not None and (name, node_id) in classes
    ]
    assert fused and set(fused) == {executors._FIRE}
    assert second[0].stats.fused_fires > 0
    assert second[0].stats.dispatched_fires == 0


@pytest.fixture(scope="module")
def pi_local():
    return _pi(30.0)


def test_only_a_head_with_a_peer_collects_peers(pi_local, monkeypatch):
    graph, registry, arg_tuples, _ = pi_local
    executor = ProcessExecutor(1, persistent=True)
    try:
        first = executor.run(graph, arg_tuples[0], registry)
        counts = _count_decisions(monkeypatch)
        second = executor.run(graph, arg_tuples[0], registry)
    finally:
        executor.close()
    assert counts["_node_class"] == 0
    assert counts["take_peers"] > 0
    assert counts["empty take_peers"] == 0
    assert second.value == first.value


def test_alternating_configurations_read_only_their_own_classes(
    monkeypatch,
):
    """One memo slot per node: executors of different configuration
    taking turns on one program each classify again, never read the
    other's answer, and a configuration running twice in a row reads."""
    graph, registry, arg_tuples, _ = _fanout()
    args = arg_tuples[0]
    expected = SequentialExecutor().run(graph, args, registry).value
    remote = ProcessExecutor(1, persistent=True)
    local = ProcessExecutor(1, persistent=True, cost_threshold=1e12)
    counts = _count_decisions(monkeypatch)
    try:
        for executor, dispatched in [
            (remote, 6), (local, 0), (remote, 6), (local, 0)
        ]:
            counts.clear()
            result = executor.run(graph, args, registry)
            assert result.value == expected
            assert result.stats.dispatched_fires == dispatched
            assert counts["_node_class"] > 0
        counts.clear()
        assert local.run(graph, args, registry).value == expected
        assert counts["_node_class"] == 0
    finally:
        remote.close()
        local.close()


def test_runs_that_want_per_fire_detail_keep_the_generic_path(monkeypatch):
    graph, registry, arg_tuples, _ = _pythia()
    args = arg_tuples[0]
    expected = SequentialExecutor().run(graph, args, registry)
    pendings = []

    class RecordingPendingOp(engine.PendingOp):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pendings.append(self)

    monkeypatch.setattr(engine, "PendingOp", RecordingPendingOp)
    counts = _count_decisions(monkeypatch)
    # An injector sees every body before it runs, and switches peer
    # expansion off: every operator is begun, no head looks for peers.
    injected = ProcessExecutor(1, fault_spec=FaultSpec.parse(NEVER)).run(
        graph, args, registry
    )
    assert injected.value == expected.value
    assert len(pendings) == injected.stats.ops_executed > 0
    assert counts["take_peers"] == counts["batch_key"] == 0
    # A span subscriber: one span per firing.  No body here can leave and
    # every call expands a closure, so each firing is spanned whole and
    # none is begun.
    del pendings[:]
    bus = EventBus()
    spans = []
    bus.subscribe(spans.append, (TaskFired,))
    traced = ProcessExecutor(1, bus=bus).run(graph, args, registry)
    assert traced.value == expected.value
    assert len(spans) == traced.stats.tasks_fired
    assert pendings == []


@pytest.mark.parametrize("leaves", [5, 8, 13])
def test_peer_check_skips_only_scans_that_find_nothing(pi_local, leaves):
    """With ``has_peer`` answering yes to everything every head scans
    for peers, as before the check existed: same groups, same counters."""
    graph, registry, _, _ = pi_local

    def run():
        result = ProcessExecutor(1).run(graph, (leaves,), registry)
        return result.value, stats_dict(result.stats)

    checked = run()
    with mock.patch.object(ReadyQueue, "has_peer", lambda self, head: True):
        assert run() == checked


def test_finished_run_leaves_no_cycle_through_the_state(monkeypatch):
    graph, registry, _, _ = _queens(4)
    states = []

    class TrackedState(engine.ExecutionState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(executors, "ExecutionState", TrackedState)
    gc.collect()
    gc.disable()
    try:
        ProcessExecutor(1).run(graph, (), registry)
        ref = weakref.ref(states.pop())
        assert ref() is None  # freed by reference count alone
    finally:
        gc.enable()
    # A failed run's state is pinned by the exception's traceback; what
    # the executor owes it is the hook cleared.
    flaky = _flaky_registry(fail_times=99)
    bad = compile_source("main(x) add(flaky(x), 1)", registry=flaky).graph
    with pytest.raises(OperatorError):
        ProcessExecutor(1).run(bad, (1,), flaky)
    assert states.pop().recover_op is None


# ---------------------------------------------------------------------------
# The retry contract
# ---------------------------------------------------------------------------


def _flaky_registry(fail_times):
    registry = default_registry()
    calls = {"flaky": 0, "grow": 0}
    registry.calls = calls

    @registry.register(name="flaky", pure=True, cost=5.0)
    def flaky(x):
        calls["flaky"] += 1
        if calls["flaky"] <= fail_times:
            raise ValueError(f"flaky boom {calls['flaky']}")
        return x + 1

    @registry.register(name="mklist", cost=5.0)
    def mklist(x):
        return [x]

    @registry.register(name="grow", modifies=(0,), cost=5.0)
    def grow(xs):
        calls["grow"] += 1
        xs.append(0)
        raise ValueError("grow boom")

    return registry


def _retry_run(source, fail_times, **options):
    registry = _flaky_registry(fail_times)
    graph = compile_source(source, registry=registry).graph
    bus = EventBus()
    events = []
    # Not TaskFired: a subscriber to it selects the begin/complete path.
    bus.subscribe(events.append, (FireRetried, OpStarted, OpFinished))
    executor = ProcessExecutor(
        1, bus=bus, fault_policy=FaultPolicy(backoff=0.001), **options
    )
    outcome = error = None
    try:
        outcome = executor.run(graph, (1,), registry)
    except OperatorError as exc:
        error = exc
    # The stream without its clock: event kinds in order, retries whole.
    stream = [
        dataclasses.astuple(e)[1:]
        if isinstance(e, FireRetried)
        else (type(e).__name__, e.name)
        for e in events
    ]
    return outcome, error, stream, registry.calls


#: A fault spec that never fires: its injector alone sends the run down
#: the begin/complete path, the behaviour the fast path must reproduce.
NEVER = "raise:op=no_such_operator,nth=1"


@pytest.mark.usefixtures("graph_path")
@pytest.mark.parametrize("fail_times", [1, 2])
def test_flaky_pure_operator_is_retried_like_the_generic_path(fail_times):
    source = "main(x) add(flaky(x), 1)"
    fast = _retry_run(source, fail_times)
    generic = _retry_run(source, fail_times, fault_spec=FaultSpec.parse(NEVER))
    for outcome, error, stream, calls in (fast, generic):
        assert error is None
        assert outcome.value == 3
        assert outcome.stats.fires_retried == fail_times
        assert calls["flaky"] == fail_times + 1
    node_id = generic[2][1][2]
    assert fast[2] == generic[2] == [
        ("OpStarted", "flaky"),
        *[
            ("flaky", -1, node_id, n + 1, "error", 0.001 * 2 ** (n - 1))
            for n in range(1, fail_times + 1)
        ],
        ("OpFinished", "flaky"),
        ("OpStarted", "add"),
        ("OpFinished", "add"),
    ]


@pytest.mark.usefixtures("graph_path")
def test_exhausted_retries_report_every_attempt():
    source = "main(x) add(flaky(x), 1)"
    fast = _retry_run(source, 99)
    generic = _retry_run(source, 99, fault_spec=FaultSpec.parse(NEVER))
    for outcome, error, stream, calls in (fast, generic):
        assert outcome is None
        assert calls["flaky"] == 3  # attempt 1 + max_retries
        assert [a[0] for a in error.attempts] == [1, 2, 3]
        # Only a firing that ends in success announces its retries.
        assert stream == [("OpStarted", "flaky")]
    assert str(fast[1]) == str(generic[1])
    assert fast[1].attempts == generic[1].attempts
    assert fast[1].node_id == generic[1].node_id


@pytest.mark.usefixtures("graph_path")
def test_failing_modifies_operator_is_never_retried():
    source = "main(x) grow(mklist(x))"
    fast = _retry_run(source, 0)
    generic = _retry_run(source, 0, fault_spec=FaultSpec.parse(NEVER))
    for outcome, error, stream, calls in (fast, generic):
        assert outcome is None
        assert calls["grow"] == 1
        assert error.attempts == ()
        assert stream[-1] == ("OpStarted", "grow")
        assert not any(len(entry) > 2 for entry in stream)  # no FireRetried
        assert "grow boom" in str(error)
    assert str(fast[1]) == str(generic[1])


# ---------------------------------------------------------------------------
# Degradation
# ---------------------------------------------------------------------------


def test_mid_run_degrade_finishes_bit_identical():
    graph, registry, arg_tuples, _ = _fanout()
    expected = SequentialExecutor().run(graph, arg_tuples[0], registry).value
    executor = ProcessExecutor(
        2,
        fault_spec=FaultSpec.parse("kill:nth=2"),
        fault_policy=FaultPolicy(max_respawns=0, backoff=0.001),
    )
    result = executor.run(graph, arg_tuples[0], registry)
    assert result.value == expected
    assert result.stats.executor_degraded == 1
