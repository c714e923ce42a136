"""Hypothesis property tests on the model's central guarantees.

Section 8 of the paper: "execution within the model is deterministic ...
the computed result is deterministic regardless of the number of processors
you are using and the order of execution."  We generate random well-formed
Delirium programs (including shared mutable blocks and operators that
destructively modify them) and check:

* every executor — sequential (any scheduling seed, with or without
  priorities), threaded, simulated (any machine, any processor count,
  any affinity policy) — produces the same value;
* compiling with and without the optimizer produces the same value;
* the simulator's makespan satisfies the list-scheduling algebra
  (``max(work/P, critical_path) <= makespan <= work/P + critical_path``)
  on overhead-free machines.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.lang.ast import unparse
from repro.machine import SimulatedExecutor, butterfly, uniform
from repro.runtime import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
    default_registry,
    executors,
)


def _registry():
    reg = default_registry()

    @reg.register(name="mkblock", cost=20.0)
    def mkblock(n):
        return [n, n + 1, n + 2]

    @reg.register(name="bump", modifies=(0,), cost=30.0)
    def bump(lst, k):
        for i in range(len(lst)):
            lst[i] += k
        return lst

    @reg.register(name="blk_sum", pure=True, cost=10.0)
    def blk_sum(lst):
        return sum(lst)

    return reg


REGISTRY = _registry()

_PURE_OPS = [("incr", 1), ("decr", 1), ("add", 2), ("mul", 2), ("sub", 2),
             ("is_less", 2), ("max2", 2)]


@st.composite
def _programs(draw):
    """A random well-formed program over ints and mutable blocks.

    Structure: main(n) binds a chain of values, some of which are shared
    mutable blocks that several later bindings destructively bump — the
    adversarial case for copy-on-write — then combines everything
    arithmetically (converting blocks with blk_sum).
    """
    n_bindings = draw(st.integers(2, 7))
    names: list[str] = ["n"]          # int-valued names in scope
    block_names: list[str] = []       # block-valued names in scope
    lines: list[str] = []
    for i in range(n_bindings):
        name = f"v{i}"
        choice = draw(st.integers(0, 7))
        if choice == 6:
            # Package build + zero-copy decomposition.
            a = draw(st.sampled_from(names))
            b = draw(st.sampled_from(names))
            lines.append(f"pkg{i} = <incr({a}), decr({b})>")
            lines.append(f"<{name}, {name}b> = pkg{i}")
            names.extend([name, f"{name}b"])
            continue
        if choice == 7:
            # A local function, closed over an existing name, called twice.
            k = draw(st.sampled_from(names))
            x = draw(st.sampled_from(names))
            lines.append(f"h{i}(p{i}) add(p{i}, {k})")
            lines.append(f"{name} = add(h{i}({x}), h{i}(incr({x})))")
            names.append(name)
            continue
        if choice == 0:
            lines.append(f"{name} = mkblock({draw(st.sampled_from(names))})")
            block_names.append(name)
            continue
        if choice == 1 and block_names:
            src = draw(st.sampled_from(block_names))
            k = draw(st.integers(-3, 3))
            lines.append(f"{name} = bump({src}, {k})")
            block_names.append(name)
            continue
        if choice == 2 and block_names:
            src = draw(st.sampled_from(block_names))
            lines.append(f"{name} = blk_sum({src})")
            names.append(name)
            continue
        if choice == 3:
            cond = draw(st.sampled_from(names))
            a = draw(st.sampled_from(names))
            b = draw(st.sampled_from(names))
            lines.append(
                f"{name} = if is_less({cond}, 2) then incr({a}) else decr({b})"
            )
            names.append(name)
            continue
        op, arity = draw(st.sampled_from(_PURE_OPS))
        args = ", ".join(
            draw(st.sampled_from(names)) for _ in range(arity)
        )
        lines.append(f"{name} = {op}({args})")
        names.append(name)
    # Combine everything so nothing is dead: sum the ints and the blocks.
    acc = names[0]
    for other in names[1:]:
        acc = f"add({acc}, {other})"
    for blk in block_names:
        acc = f"add({acc}, blk_sum({blk}))"
    bindings = "\n      ".join(lines)
    return f"main(n)\n  let {bindings}\n  in {acc}"


class TestDeterminismProperty:
    @settings(max_examples=40, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(0, 1000))
    def test_schedule_independence(self, source, n, seed):
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        shuffled = SequentialExecutor(seed=seed).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        fifo = SequentialExecutor(use_priorities=False).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        assert shuffled == reference
        assert fifo == reference

    @settings(max_examples=25, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(1, 6))
    def test_processor_count_independence(self, source, n, p):
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        simulated = SimulatedExecutor(uniform(p)).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        assert simulated == reference

    @settings(max_examples=15, deadline=None)
    @given(_programs(), st.integers(-5, 5))
    def test_threaded_independence(self, source, n):
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        threaded = ThreadedExecutor(4).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        assert threaded == reference

    @settings(max_examples=8, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 100),
    )
    def test_process_executor_independence(
        self, source, n, workers, group_max, seed
    ):
        # The strongest form of the section-8 guarantee: operator bodies
        # run in other *processes* (every op force-dispatched, payloads
        # through shared memory when big enough), under any worker count,
        # peer-group cap, and scheduling seed — still bit-identical.  The
        # module-level REGISTRY travels to workers by fork inheritance.
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        with mock.patch.object(executors, "_GROUP_MAX", group_max):
            remote = ProcessExecutor(
                workers,
                cost_threshold=0.0,
                shm_threshold=256,
                seed=seed,
            ).run(compiled.graph, args=(n,), registry=REGISTRY).value
        assert remote == reference

    @settings(max_examples=15, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.sampled_from(["none", "operator", "data"]),
    )
    def test_affinity_independence(self, source, n, policy):
        compiled = compile_source(source, registry=REGISTRY)
        reference = SequentialExecutor().run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        numa = SimulatedExecutor(butterfly(3), affinity=policy).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).value
        assert numa == reference


class TestOptimizerProperty:
    @settings(max_examples=40, deadline=None)
    @given(_programs(), st.integers(-5, 5))
    def test_optimizer_preserves_semantics(self, source, n):
        full = compile_source(source, registry=REGISTRY)
        bare = compile_source(source, registry=REGISTRY, optimize_passes=())
        assert (
            full.run(args=(n,)).value == bare.run(args=(n,)).value
        )

    @settings(max_examples=20, deadline=None)
    @given(_programs(), st.integers(-5, 5))
    def test_each_pass_alone_preserves_semantics(self, source, n):
        bare = compile_source(source, registry=REGISTRY, optimize_passes=())
        expected = bare.run(args=(n,)).value
        for single in ("inline", "constprop", "cse", "dce"):
            compiled = compile_source(
                source, registry=REGISTRY, optimize_passes=(single,)
            )
            assert compiled.run(args=(n,)).value == expected, single


class TestScheduleAlgebraProperty:
    @settings(max_examples=25, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(2, 8))
    def test_graham_bound(self, source, n, p):
        compiled = compile_source(source, registry=REGISTRY)
        work = SimulatedExecutor(uniform(1)).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).ticks
        cp = SimulatedExecutor(uniform(128)).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).ticks
        t = SimulatedExecutor(uniform(p)).run(
            compiled.graph, args=(n,), registry=REGISTRY
        ).ticks
        assert t >= max(cp, work / p) - 1e-6
        assert t <= work / p + cp + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(_programs(), st.integers(-5, 5))
    def test_more_processors_never_slower(self, source, n):
        compiled = compile_source(source, registry=REGISTRY)
        previous = None
        for p in (1, 2, 4):
            t = SimulatedExecutor(uniform(p)).run(
                compiled.graph, args=(n,), registry=REGISTRY
            ).ticks
            if previous is not None:
                # Greedy list scheduling is not strictly monotone in P
                # (Graham's anomalies), but the slowdown is bounded; allow
                # the classical (2 - 1/p) slack over the previous time.
                assert t <= previous * 2 + 1e-6
            previous = t


class TestGeneratedProgramsAreWellFormed:
    @settings(max_examples=30, deadline=None)
    @given(_programs())
    def test_generator_output_compiles_and_validates(self, source):
        from repro import validate_program

        compiled = compile_source(source, registry=REGISTRY)
        validate_program(compiled.graph)

    @settings(max_examples=15, deadline=None)
    @given(_programs())
    def test_generator_output_round_trips(self, source):
        from repro.lang import parse_program

        p = parse_program(source)
        assert parse_program(unparse(p)) == p


class TestFusionProperty:
    """ISSUE 3: fused execution is bit-identical to unfused execution
    under every executor, any worker count, any scheduling seed."""

    @staticmethod
    def _passes():
        from repro.compiler.passes.pipeline import PASS_ORDER

        return PASS_ORDER + ("fuse",)

    @settings(max_examples=30, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(0, 1000))
    def test_sequential_fused_matches(self, source, n, seed):
        plain = compile_source(source, registry=REGISTRY)
        fused = compile_source(
            source, registry=REGISTRY, optimize_passes=self._passes()
        )
        reference = SequentialExecutor().run(
            plain.graph, args=(n,), registry=REGISTRY
        ).value
        assert SequentialExecutor().run(
            fused.graph, args=(n,), registry=REGISTRY
        ).value == reference
        assert SequentialExecutor(seed=seed).run(
            fused.graph, args=(n,), registry=REGISTRY
        ).value == reference

    @settings(max_examples=12, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(1, 6))
    def test_threaded_fused_matches(self, source, n, workers):
        plain = compile_source(source, registry=REGISTRY)
        fused = compile_source(
            source, registry=REGISTRY, optimize_passes=self._passes()
        )
        reference = SequentialExecutor().run(
            plain.graph, args=(n,), registry=REGISTRY
        ).value
        assert ThreadedExecutor(workers).run(
            fused.graph, args=(n,), registry=REGISTRY
        ).value == reference

    @settings(max_examples=6, deadline=None)
    @given(
        _programs(),
        st.integers(-5, 5),
        st.integers(1, 3),
        st.integers(0, 100),
    )
    def test_process_fused_matches(self, source, n, workers, seed):
        # cost_threshold=0 force-dispatches every fire, fused super-nodes
        # included, so workers exercise lazy recomposition of the chain
        # recipes shipped at pool start.
        plain = compile_source(source, registry=REGISTRY)
        fused = compile_source(
            source, registry=REGISTRY, optimize_passes=self._passes()
        )
        reference = SequentialExecutor().run(
            plain.graph, args=(n,), registry=REGISTRY
        ).value
        assert ProcessExecutor(
            workers, cost_threshold=0.0, shm_threshold=256, seed=seed
        ).run(fused.graph, args=(n,), registry=REGISTRY).value == reference

    @settings(max_examples=12, deadline=None)
    @given(_programs(), st.integers(-5, 5), st.integers(1, 6))
    def test_simulated_fused_matches(self, source, n, p):
        plain = compile_source(source, registry=REGISTRY)
        fused = compile_source(
            source, registry=REGISTRY, optimize_passes=self._passes()
        )
        reference = SequentialExecutor().run(
            plain.graph, args=(n,), registry=REGISTRY
        ).value
        assert SimulatedExecutor(uniform(p)).run(
            fused.graph, args=(n,), registry=REGISTRY
        ).value == reference
