"""Executor conformance: one firing loop, three backends, one answer.

Every executor drives the same ``Run`` loop and differs only in where a
suspended body runs, so a program must produce the same result, the same
schedule-independent engine counters and — when it fails — the same
error from every one of them, whatever the run observes (a span
subscriber, a fault injector, the purity checker) and whether calls
expand with their ready peers or not (``nobatch`` caps a peer group at
one call; only a run with a dispatch policy forms groups).  The
reference for every cell is the plain sequential run.

The programs are built so the counters cannot depend on the schedule: a
block's second consumer always needs the first one's result, so its
reference count at fire time is a fact of the program.  Those compiled
with no passes keep their constants, closures and trivial arms all the
way to the graph, where the load plans bind them (static nodes,
shortcut templates, known callees).
"""

import numpy as np
import pytest

import repro.runtime.executors as executors
from repro import compile_source
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.errors import OperatorError
from repro.faults import FaultSpec
from repro.obs import EventBus, ExecutorDegraded, TaskFired
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
)

from .programs import on_graph_path

#: Dispatched in process mode (the default threshold is 2e6 ticks).  Every
#: program fires one such operator twice: the mid-run degradation kills
#: the worker at an operator's second call.
HEAVY = 1e7

REGISTRY = default_registry()


@REGISTRY.register(name="cf_mk", cost=10.0)
def cf_mk(n, v):
    return np.full(n, float(v))


@REGISTRY.register(name="cf_bump", modifies=(0,), cost=10.0)
def cf_bump(a):
    a += 1.0
    return a


@REGISTRY.register(name="cf_same", cost=10.0)
def cf_same(a):
    return a


@REGISTRY.register(name="cf_total", pure=True, cost=HEAVY)
def cf_total(a):
    return float(a.sum())


@REGISTRY.register(name="cf_total2", pure=True, cost=HEAVY)
def cf_total2(a, b):
    return float(a.sum() + b.sum())


@REGISTRY.register(name="cf_split", pure=True, cost=HEAVY)
def cf_split(x):
    return x + 1, x * 2


@REGISTRY.register(name="cf_leaf", pure=True, cost=HEAVY)
def cf_leaf(i):
    return i * i + 1


@REGISTRY.register(name="cf_glue", pure=True, cost=5.0)
def cf_glue(i):
    return i + 3


@REGISTRY.register(name="cf_twice", cost=10.0)
def cf_twice(a):
    return a, a


@REGISTRY.register(name="cf_addv", cost=10.0)
def cf_addv(x, y):
    return x + y


@REGISTRY.register(name="cf_boom", pure=True, cost=5.0)
def cf_boom(i):
    if i == 5:
        raise ValueError("boom at 5")
    return i


PROGRAMS = {
    # ``a`` is still owed to cf_total2 when cf_bump writes it (a copy);
    # the second cf_mk's block has one consumer (in place); ``y`` is
    # ``x``'s own block (an operator returning its input keeps the block),
    # so the write to ``y`` finds it shared and copies.
    "cow_and_in_place": (
        """
main(n)
  let
    a = cf_mk(n, 1)
    b = cf_bump(a)
    s = cf_total2(a, b)
    c = cf_bump(cf_mk(n, 2))
    x = cf_mk(n, 3)
    y = cf_same(x)
    r = cf_bump(y)
    t = cf_total2(r, x)
  in add(add(s, cf_total(c)), t)
""",
        (64,),
        ("cow_copies", "in_place_writes"),
        FULL_PASS_ORDER,
    ),
    "fused_untuple": (
        """
main(n) par_reduce(add, halves, 0, n)

halves(i)
  let <a, b> = cf_split(i)
  in add(a, b)
""",
        (6,),
        ("fused_fires", "expansions"),
        FULL_PASS_ORDER,
    ),
    # Operator values reach CALL nodes: one dispatched, one kept local.
    "call_of_operator": (
        """
main(n) add(par_reduce(add, cf_leaf, 0, n), par_reduce(add, cf_glue, 0, n))
""",
        (8,),
        ("expansions",),
        FULL_PASS_ORDER,
    ),
    # An operator born ready (all operands static); a constant, a
    # parameter and a capture as a function's whole result, reached
    # through a CALL, a tail CALL and both arms of a tail and of a
    # non-tail IF.
    "static_values": (
        """
main(n)
  let
    five = add(2, 3)
    k = konst(n)
    i = ident(n)
    w = wrap(n)
    t = pick(1, n)
    e = pick(0, n)
    m = add(if n then n else 0, if 0 then 1 else n)
  in cf_leaf(cf_leaf(add(add(add(five, k), add(i, w)), add(add(t, e), m))))

konst(x) 7
ident(x) x
wrap(x) ident(x)
pick(c, x) if c then x else 9
""",
        (6,),
        ("expansions",),
        (),
    ),
    # The block reaches cf_bump through a shortcut arm and a shortcut
    # callee holding exactly the share it left cf_mk with: written in
    # place, never copied.
    "shortcut_in_place": (
        """
main(n)
  let
    a = cf_mk(n, 1)
    b = if n then a else NULL
  in add(cf_total(cf_bump(ident(b))), cf_total(cf_mk(n, 2)))

ident(x) x
""",
        (6,),
        ("in_place_writes",),
        (),
    ),
    # Operator references are static values handed to a prelude function.
    "opref_to_prelude": (
        "main(n) par_reduce(add, cf_leaf, 0, n)",
        (6,),
        ("expansions",),
        (),
    ),
}

# One array returned twice reaches cf_addv on two edges once the untuple
# is fused away: both elements keep the one block through the fused node.
_TWICE = """
main(n)
  let
    a = cf_mk(n, 1)
    <x, y> = cf_twice(a)
  in add(cf_total(cf_addv(x, y)), cf_total(cf_mk(n, 3)))
"""
PROGRAMS["same_array_twice"] = (_TWICE, (6,), ("fused_fires",), FULL_PASS_ORDER)
PROGRAMS["same_array_twice_no_passes"] = (_TWICE, (6,), ("ops_executed",), ())

FAILING = "main(n) par_index_map(cf_boom, 0, n)"

COUNTERS = (
    "tasks_fired", "ops_executed", "expansions", "cow_copies",
    "in_place_writes", "fused_fires",
)

EXECUTORS = (
    "sequential", "threaded", "process", "degraded_at_build",
    "degraded_mid_run",
)
MODES = ("plain", "subscriber", "injector", "purity")

_GRAPHS = {}


def _graph(source, passes=FULL_PASS_ORDER):
    if (source, passes) not in _GRAPHS:
        _GRAPHS[source, passes] = compile_source(
            source, registry=REGISTRY, prelude=True, optimize_passes=passes
        ).graph
    return _GRAPHS[source, passes]


def _no_pool(*args, **kwargs):
    raise OSError("no processes today")


def _run(kind, mode, batch, graph, args, monkeypatch):
    """One cell of the matrix; returns ``(result, spans)``."""
    if not batch:
        monkeypatch.setattr(executors, "_GROUP_MAX", 1)
    options = {}
    clauses = []
    spans = []
    if mode == "subscriber":
        options["bus"] = bus = EventBus()
        bus.subscribe(spans.append, (TaskFired,))
    elif mode == "injector":
        # The first call of every operator raises, in whichever process
        # makes it; the retry succeeds.
        clauses.append("raise:nth=1")
        options["fault_policy"] = FaultPolicy(max_retries=2, backoff=0.0)
    elif mode == "purity":
        options["check_purity"] = True
    if kind == "degraded_mid_run":
        clauses.append("kill:nth=2")
        retries = options.get("fault_policy", FaultPolicy()).max_retries
        options["fault_policy"] = FaultPolicy(
            max_retries=retries, max_respawns=0, backoff=0.0
        )
    if clauses:
        options["fault_spec"] = FaultSpec.parse(";".join(clauses))
    if kind == "sequential":
        executor = SequentialExecutor(**options)
    elif kind == "threaded":
        executor = ThreadedExecutor(2, **options)
    else:
        if kind == "degraded_at_build":
            monkeypatch.setattr(executors, "WorkerPool", _no_pool)
        executor = ProcessExecutor(1, **options)
    return executor.run(graph, args, REGISTRY), spans


def _counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


#: What a run computes and copies, whichever path it takes: a clipped
#: call (``repro.runtime.crown``) fires once, so fires and expansions are
#: compared on the graph path only.
CONTRACT = ("ops_executed", "cow_copies", "in_place_writes", "fused_fires")


@pytest.fixture(scope="module")
def references():
    out = {}
    with on_graph_path():
        for name, (source, args, exercised, passes) in PROGRAMS.items():
            out[name] = _reference(source, args, exercised, passes)
    return out


def _reference(source, args, exercised, passes):
    result = SequentialExecutor().run(_graph(source, passes), args, REGISTRY)
    counters = _counters(result.stats)
    # The program does exercise what its name says.
    for counter in exercised:
        assert counters[counter] > 0, (source, counter)
    return result.value, counters


@pytest.mark.usefixtures("graph_path")
@pytest.mark.parametrize("batch", [False, True], ids=["nobatch", "batch"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", EXECUTORS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_same_result_and_counters(
    name, kind, mode, batch, references, monkeypatch
):
    source, args, _, passes = PROGRAMS[name]
    value, counters = references[name]
    result, spans = _run(
        kind, mode, batch, _graph(source, passes), args, monkeypatch
    )
    assert result.value == value
    assert _counters(result.stats) == counters
    if mode == "subscriber":
        # One span per firing, each joined to its task.
        assert len(spans) == counters["tasks_fired"]
        assert len({s.seq for s in spans}) == len(spans)
    if mode == "injector":
        assert result.stats.fires_retried > 0
    if kind in ("process", "degraded_mid_run"):
        assert result.stats.dispatched_fires > 0
    assert result.stats.executor_degraded == (
        1 if kind.startswith("degraded") else 0
    )


@pytest.mark.parametrize("batch", [False, True], ids=["nobatch", "batch"])
@pytest.mark.parametrize("kind", EXECUTORS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_clipped_runs_keep_the_contract(
    name, kind, batch, references, monkeypatch
):
    """With calls clipped wherever the configuration allows, every
    backend still gives the graph path's value and contract counters."""
    source, args, _, passes = PROGRAMS[name]
    value, counters = references[name]
    result, _ = _run(
        kind, "plain", batch, _graph(source, passes), args, monkeypatch
    )
    assert result.value == value
    got = _counters(result.stats)
    assert {c: got[c] for c in CONTRACT} == {c: counters[c] for c in CONTRACT}


@pytest.mark.parametrize("batch", [False, True], ids=["nobatch", "batch"])
@pytest.mark.parametrize("mode", ["plain", "subscriber", "purity"])
@pytest.mark.parametrize("kind", EXECUTORS)
def test_failing_program_reports_the_same_error(
    kind, mode, batch, monkeypatch
):
    """Error type, operator and node id are the engine's, not the
    backend's: a failing firing names its node under every executor
    (``ThreadedExecutor`` used to report ``-1``) and is wrapped even when
    its call expanded with its peers."""
    with pytest.raises(OperatorError) as reference:
        SequentialExecutor().run(_graph(FAILING), (8,), REGISTRY)
    with pytest.raises(OperatorError) as excinfo:
        _run(kind, mode, batch, _graph(FAILING), (8,), monkeypatch)
    error = excinfo.value
    assert type(error) is OperatorError
    assert error.operator == reference.value.operator == "cf_boom"
    assert error.node_id == reference.value.node_id >= 0
    assert isinstance(error.__cause__, ValueError)


def test_degraded_run_keeps_its_configuration(monkeypatch):
    """The ladder swaps the backend of the same run: its ``trace=True``
    tracer survives a pool that could not be built and times every
    firing of the degraded run."""
    monkeypatch.setattr(executors, "WorkerPool", _no_pool)
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, (ExecutorDegraded,))
    source, args, _, _ = PROGRAMS["call_of_operator"]
    result = ProcessExecutor(2, trace=True, bus=bus).run(
        _graph(source), args, REGISTRY
    )
    assert result.value == SequentialExecutor().run(
        _graph(source), args, REGISTRY
    ).value
    assert result.stats.executor_degraded == 1
    assert [e.to_executor for e in seen] == ["threaded"]
    assert result.tracer is not None
    assert len(result.tracer.records) == result.stats.tasks_fired > 1
