"""Every executor, pass set, path and fault means what the reference
evaluator means.

Section 8 of the paper: "execution within the model is deterministic ...
the computed result is deterministic regardless of the number of
processors you are using and the order of execution."  Each example here
draws a program (``tests/programs.py``), an argument and one *cell* —
an executor configuration × a pass set × a fault setting — runs the
cell, and asserts that its value is
:func:`~repro.lang.reference.evaluate_source`'s on the same text.  No
cell is compared with another run, so a fault every path shares still
shows.

On fault-free sequential cells the run also keeps the graph path's
contract counters: ``ops_executed`` and ``fused_fires``, and the write
decisions ``cow_copies + in_place_writes``; under the priority queue a
clipped run never copies more, and the plain run is one call of the
entry's crown (with the crown's line budget lifted for a closure past
it).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro import compile_source
from repro.apps import queens
from repro.compiler.passes.pipeline import FULL_PASS_ORDER, PASS_ORDER
from repro.faults import parse_fault_spec
from repro.lang.reference import evaluate_source
from repro.machine import SimulatedExecutor, butterfly, uniform
from repro.runtime import (
    FaultPolicy,
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
    executors,
)
from repro.runtime import crown
from repro.runtime.engine import _plans_for

from .programs import (
    KINDS, LIBRARY, REGISTRY, calls_run, graph_run, programs, same,
)
from .test_optimizer_linear import generated_sources

#: No pass, each pass with an AST half alone, the default set, the
#: default set with ``fuse``, and every pass.
PASS_SETS = (
    (), *((name,) for name in PASS_ORDER), PASS_ORDER, PASS_ORDER + ("fuse",),
    FULL_PASS_ORDER,
)

#: Fault cocktails exercising every injection kind.  ``kill`` and
#: ``arena`` clauses are inert in-process, so one spec works under every
#: executor.
COCKTAILS = (
    "raise:p=0.3,seed=5",
    "raise:op=bump,p=0.5,seed=9",
    "kill:p=0.1,seed=3",
    "kill:op=blk_sum,nth=1",
    "arena:p=0.5,seed=2",
    "raise:p=0.2,seed=1;kill:p=0.05,seed=4;arena:p=0.3,seed=6",
)

#: Every worker killed at once with no respawn budget: a process run
#: must finish through the degradation ladder.
DEGRADE = "degrade"

#: Budgets generous enough that the property under test is the value,
#: not bounded retries: a p=0.3 clause may fire on several consecutive
#: counts (the poison path is ``test_supervise.py``'s).
_POLICY = FaultPolicy(max_retries=25, backoff=0.0, max_respawns=200)
_DEGRADE_POLICY = FaultPolicy(max_retries=1, backoff=0.0, max_respawns=0)

AFFINITIES = ("none", "operator", "data")

#: Each family's axes and every value each may take.
AXES = {
    "sequential": {
        "path": ("default", "graph", "calls"),
        "queue": ("priority", "seeded", "fifo"),
        "faults": (None, *COCKTAILS),
    },
    "threaded": {
        "workers": (1, 2, 3, 4),
        "faults": (None, *COCKTAILS),
    },
    "process": {
        "workers": (1, 2, 3),
        "dispatch": ("policy", "all"),
        "group_max": tuple(range(1, 33)),
        "affinity": AFFINITIES,
        "faults": (None, *COCKTAILS, DEGRADE),
    },
    "simulated": {
        "machine": (*(("uniform", p) for p in range(1, 7)), ("butterfly", 3)),
        "affinity": AFFINITIES,
    },
}


@dataclasses.dataclass(frozen=True)
class Cell:
    executor: str
    passes: tuple[str, ...]
    seed: int | None = None
    faults: str | None = None
    path: str = "default"
    queue: str = "priority"
    workers: int = 1
    dispatch: str = "policy"
    group_max: int = executors._GROUP_MAX
    affinity: str = "none"
    machine: tuple = ("uniform", 1)

    def _fault_options(self) -> dict:
        if self.faults is None:
            return {}
        if self.faults == DEGRADE:
            spec, policy = "kill:p=1.0", _DEGRADE_POLICY
        else:
            spec, policy = self.faults, _POLICY
        return {"fault_spec": parse_fault_spec(spec), "fault_policy": policy}

    def run(self, graph, args):
        options = self._fault_options()
        if self.executor == "sequential":
            if self.queue == "seeded":
                options["seed"] = self.seed
            options["use_priorities"] = self.queue != "fifo"
            path = {
                "default": lambda *a, **k: SequentialExecutor(**k).run(*a),
                "graph": graph_run,
                "calls": calls_run,
            }[self.path]
            return path(graph, args, REGISTRY, **options)
        if self.executor == "threaded":
            executor = ThreadedExecutor(self.workers, **options)
            return executor.run(graph, args, REGISTRY)
        if self.executor == "process":
            if self.dispatch == "all" or self.faults == DEGRADE:
                options["cost_threshold"] = 0.0
            with mock.patch.object(executors, "_GROUP_MAX", self.group_max):
                return ProcessExecutor(
                    self.workers, shm_threshold=256, seed=self.seed,
                    affinity=self.affinity, **options,
                ).run(graph, args, REGISTRY)
        kind, processors = self.machine
        machine = uniform(processors) if kind == "uniform" else butterfly(processors)
        executor = SimulatedExecutor(machine, affinity=self.affinity)
        return executor.run(graph, args, REGISTRY)


def cells(executor):
    """One cell of ``executor``'s family, every axis drawn."""
    seed = st.integers(0, 1000)
    if executor == "process":
        seed = st.none() | st.integers(0, 100)
    axes = {name: st.sampled_from(values) for name, values in AXES[executor].items()}
    return st.builds(
        Cell, st.just(executor), st.sampled_from(PASS_SETS), seed, **axes
    )


def check(source, n, cell):
    """Run ``cell`` on ``source``; its value must be the evaluator's."""
    graph = compile_source(
        source, registry=REGISTRY, optimize_passes=cell.passes
    ).graph
    result = cell.run(graph, (n,))
    assert same(result.value, evaluate_source(source, (n,), REGISTRY)), cell
    return graph, result


ARGUMENTS = st.integers(-5, 5)

#: The matrix reports a failing example as drawn, unshrunk: shrinking a
#: red process or fault cell ran for minutes past 700 MB, and
#: :class:`TestStages` already holds small fixed reproducers.
UNSHRUNK = tuple(p for p in Phase if p not in (Phase.shrink, Phase.explain))


class TestMatrix:
    @settings(max_examples=250, deadline=None, phases=UNSHRUNK)
    @given(programs(), ARGUMENTS, cells("sequential"))
    def test_sequential(self, source, n, cell):
        graph, result = check(source, n, cell)
        if cell.faults is not None:
            return
        a, b = result.stats, graph_run(graph, (n,), REGISTRY).stats
        assert (a.ops_executed, a.fused_fires) == (b.ops_executed, b.fused_fires)
        assert a.cow_copies + a.in_place_writes == b.cow_copies + b.in_place_writes
        if cell.queue == "priority":
            assert a.cow_copies <= b.cow_copies
            if cell.path == "default":
                if not hasattr(_plans_for(graph, REGISTRY).entry.crown, "source"):
                    # A closure past the crown's line budget stays on the
                    # graph; with the budget lifted it is one call again.
                    with mock.patch.object(crown, "_MAX_LINES", 10**6):
                        graph, result = check(source, n, cell)
                    a = result.stats
                assert (a.tasks_fired, a.expansions) == (1, 0)

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(programs(), ARGUMENTS, cells("threaded"))
    def test_threaded(self, source, n, cell):
        check(source, n, cell)

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(programs(), ARGUMENTS, cells("process"))
    def test_process(self, source, n, cell):
        _, result = check(source, n, cell)
        if cell.faults == DEGRADE:
            assert result.stats.executor_degraded >= 1

    @settings(max_examples=55, deadline=None, phases=UNSHRUNK)
    @given(programs(), ARGUMENTS, cells("simulated"))
    def test_simulated(self, source, n, cell):
        check(source, n, cell)


def test_every_axis_value_can_be_drawn():
    assert set(PASS_SETS) == {
        (), ("inline",), ("constprop",), ("cse",), ("dce",),
        PASS_ORDER, PASS_ORDER + ("fuse",), FULL_PASS_ORDER,
    }
    for executor, axes in AXES.items():
        domain = {"passes": PASS_SETS, **axes}
        seen = {axis: set() for axis in domain}

        @settings(
            max_examples=200, phases=[Phase.generate], database=None,
            derandomize=True,
        )
        @given(cells(executor))
        def draw(cell):
            assert cell.executor == executor
            for axis in domain:
                seen[axis].add(getattr(cell, axis))

        draw()
        for axis, values in domain.items():
            assert seen[axis] == set(values), (executor, axis)


#: One fixed program per stage kind of ``programs()``, each shaped so that
#: a swapped or shared value changes its result: a package of unequal
#: halves read through ``sub``, a loop whose two updates differ, a block
#: written twice while a reader still holds it.
STAGES = {
    "arith": "main(n) add(mul(n, 3), max2(sub(n, 2), incr(n)))",
    "if": "main(n) let s = if is_less(n, 1) then incr(n) else mul(decr(n), 2)"
          " t = if is_less(s, 3) then blk_sum(bump(mkblock(n), 1)) else sub(s, 4)"
          " in add(s, add(t, incr(t)))",
    "closure": "main(n) let f(p) add(mul(p, 2), n) in add(f(n), f(incr(n)))",
    "iterate": "main(n) iterate { i = 0, incr(i)  acc = mul(n, n), add(acc, i) }"
               " while is_less(i, 4), result acc",
    "package": "main(n) let pkg = <incr(n), mul(n, 3)> <a, b> = pkg"
               " <c, w> = twin(mkblock(n)) in add(sub(a, b), add(c, blk_sum(w)))",
    "block": "main(n) let b0 = mkblock(n) b1 = bump(b0, 2) b2 = push(b0, 5)"
             " in add(add(blk_sum(b0), blk_sum(b1)), blk_sum(b2))",
    "recursion": "main(n) let y = mkblock(n) z = mkblock(n) w = push(z, 3)"
                 " in add(add(both(3, y), blk_sum(y)), add(add(down(4, mkblock(n)),"
                 " tri(4)), add(blk_sum(z), blk_sum(w))))",
    "group": "main(n) g0(2, n)\ng0(n, x) if is_less(n, 1) then x"
             " else add(g1(sub(n, 1), incr(x)), t0(sub(n, 1), x))\n"
             "g1(n, x) if is_less(n, 1) then 2 else g0(sub(n, 1), add(x, x))\n"
             "t0(n, x) max2(g1(n, x), sub(x, 1))",
    "constant_if": "main(n) let s = if is_less(1, 2) then add(n, 1)"
                   " else down(3, mkblock(n)) t = if is_less(3, 0)"
                   " then add(n, 1) else down(3, mkblock(n)) in add(s, t)",
    "float": "main(n) let inf = incr(n) nan = decr(n)"
             " a = let x = add(mul(1e308, 10.0), n) in x b = let x = add(inf, n) in x"
             " c = let x = sub(mul(1e308, 10.0), mul(1e308, 1e308)) in x"
             " d = let x = sub(nan, nan) in x in <a, b, c, d>",
}

#: One cell per family (and the sequential graph path), each far from
#: the defaults on every axis it has.
FIXED_CELLS = {
    "sequential": Cell("sequential", FULL_PASS_ORDER),
    "graph": Cell("sequential", (), path="graph", queue="fifo"),
    "threaded": Cell("threaded", PASS_ORDER + ("fuse",), workers=3),
    "process": Cell(
        "process", PASS_ORDER, workers=2, dispatch="all", group_max=1,
        affinity="data",
    ),
    "simulated": Cell(
        "simulated", FULL_PASS_ORDER, machine=("butterfly", 3),
        affinity="operator",
    ),
}


class TestStages:
    """Each stage kind alone, in fixed cells: a fault that only one kind
    shows is caught whatever the matrix draws."""

    def test_every_stage_kind_has_a_program(self):
        assert tuple(STAGES) == KINDS

    @pytest.mark.parametrize("family", FIXED_CELLS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_stage(self, kind, family):
        for n in (-2, 3):
            check(STAGES[kind] + "\n" + LIBRARY, n, FIXED_CELLS[family])


class TestWorkloads:
    """The benchmark's generated workload and a case study, compiled with
    every pass and with none."""

    @staticmethod
    def agree(source, args, registry):
        want = evaluate_source(source, args, registry)
        for passes in (FULL_PASS_ORDER, ()):
            compiled = compile_source(source, registry=registry, optimize_passes=passes)
            assert compiled.run(args=args).value == want, passes

    @settings(max_examples=20, deadline=None)
    @given(generated_sources, st.tuples(*[st.integers(-9, 9)] * 3))
    def test_pythia(self, source, args):
        self.agree(source, args, default_registry())

    @pytest.mark.parametrize("n", [4, 5])
    def test_queens(self, n):
        self.agree(queens.queens_source(n), (), queens.make_registry(n))
