"""The N-queens case study (section 3)."""

import hashlib

import pytest

from repro.apps.queens import (
    PAPER_EIGHT_QUEENS,
    SOLUTION_COUNTS,
    compile_queens,
    make_registry,
    queens_source,
    solve,
    solve_sequential,
)
from repro.compiler import compile_source
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.graph.serialize import dumps
from repro.machine import SimulatedExecutor, cray_2, uniform
from repro.runtime import SequentialExecutor


class TestSequentialOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_known_solution_counts(self, n):
        assert len(solve_sequential(n)) == SOLUTION_COUNTS[n]

    def test_solutions_are_valid(self):
        for sol in solve_sequential(6):
            assert len(set(sol)) == 6
            diags = [c - i for i, c in enumerate(sol)]
            anti = [c + i for i, c in enumerate(sol)]
            assert len(set(diags)) == 6 and len(set(anti)) == 6


class TestDeliriumQueens:
    @pytest.mark.parametrize("n", [2, 4, 5, 6])
    def test_matches_oracle(self, n):
        assert solve(n) == solve_sequential(n)

    def test_paper_listing_compiles_and_runs(self):
        compiled = compile_source(PAPER_EIGHT_QUEENS, registry=make_registry(8))
        result = compiled.run()
        assert len(result.value) == 92

    def test_generated_source_for_8_matches_paper_result(self):
        assert len(solve(8)) == 92

    def test_deterministic_across_schedules(self):
        compiled = compile_queens(6)
        results = {
            tuple(
                SequentialExecutor(seed=seed)
                .run(compiled.graph, registry=compiled.registry)
                .value
            )
            for seed in (1, 2, 3)
        }
        assert len(results) == 1

    def test_simulated_machine_same_result(self):
        compiled = compile_queens(5)
        sim = SimulatedExecutor(cray_2()).run(
            compiled.graph, registry=compiled.registry
        )
        assert sim.value == solve_sequential(5)

    def test_invalid_board_size(self):
        with pytest.raises(ValueError):
            queens_source(0)


#: sha256 of the ``.dlc`` the commit before ``try`` was spliced into
#: ``do_it`` compiled from ``compile_queens(6)``.
PARENT_QUEENS_6_SHA256 = (
    "ef1e1aaf995437330cc4328fa8b1cea5f433497578b4fef34154bec2bd2c3207"
)


class TestPriorityScheme:
    """Section 7: the priority scheme tames the activation explosion."""

    def test_priorities_reduce_peak_activations(self):
        # The paper's experiment is on the program as written, where every
        # ``try`` is a call (inline expansion's graph half would splice it
        # into ``do_it``); checked, not assumed.
        as_written = tuple(p for p in PASS_ORDER if p != "inline")
        compiled = compile_queens(6, optimize_passes=as_written)
        digest = hashlib.sha256(dumps(compiled.graph).encode("utf-8")).hexdigest()
        assert digest == PARENT_QUEENS_6_SHA256
        with_p = SequentialExecutor(use_priorities=True).run(
            compiled.graph, registry=compiled.registry
        )
        without = SequentialExecutor(use_priorities=False).run(
            compiled.graph, registry=compiled.registry
        )
        assert with_p.value == without.value
        peak_with = with_p.stats.activation_stats["peak_live"]
        peak_without = without.stats.activation_stats["peak_live"]
        assert peak_with < peak_without / 2

    def test_spliced_program_barely_needs_the_priorities(self):
        # Most of what the scheme saved were short-lived ``try``
        # activations: without them flat FIFO peaks within 10% of it.
        compiled = compile_queens(6)
        peaks = [
            SequentialExecutor(use_priorities=flag).run(
                compiled.graph, registry=compiled.registry
            ).stats.activation_stats["peak_live"]
            for flag in (True, False)
        ]
        assert peaks == [137, 150]

    def test_recursive_calls_marked(self):
        compiled = compile_queens(4)
        from repro.graph.ir import NodeKind

        recursive_calls = [
            node
            for t in compiled.graph.templates.values()
            for node in t.nodes
            if node.kind is NodeKind.CALL and node.recursive
        ]
        assert recursive_calls  # try <-> do_it cycle

    def test_cow_isolates_boards(self):
        compiled = compile_queens(5)
        result = SequentialExecutor(check_purity=True).run(
            compiled.graph, registry=compiled.registry
        )
        assert result.stats.cow_copies > 0
        assert result.value == solve_sequential(5)


class TestParallelScaling:
    def test_queens_speeds_up(self):
        compiled = compile_queens(6)
        t1 = SimulatedExecutor(uniform(1)).run(
            compiled.graph, registry=compiled.registry
        ).ticks
        t8 = SimulatedExecutor(uniform(8)).run(
            compiled.graph, registry=compiled.registry
        ).ticks
        assert t1 / t8 > 3.0  # plenty of parallelism in the search tree
