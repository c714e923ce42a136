"""Section 3: parallel recursive backtracking (eight queens).

The paper uses the program to show that Delirium expresses parallel
backtracking compactly and that "a tremendous degree of parallelism is
exposed."  This benchmark measures that: solution correctness (92 for
N=8), the speedup of the search tree on a simulated Cray-2, and the
copy-on-write behaviour of the shared boards.
"""

import pytest

from repro.apps.queens import SOLUTION_COUNTS, compile_queens, solve_sequential
from repro.machine import SimulatedExecutor, cray_2
from repro.runtime import SequentialExecutor


@pytest.fixture(scope="module")
def compiled8():
    return compile_queens(8)


def test_eight_queens_finds_92_solutions(benchmark, compiled8, report):
    result = benchmark(
        lambda: SequentialExecutor().run(
            compiled8.graph, registry=compiled8.registry
        )
    )
    rows = [
        f"solutions: {len(result.value)} (expected {SOLUTION_COUNTS[8]})",
        f"operators executed: {result.stats.ops_executed}",
        f"subgraph expansions: {result.stats.expansions}",
        f"board copy-on-writes: {result.stats.cow_copies}, "
        f"in-place: {result.stats.in_place_writes}",
    ]
    report("Section 3 — eight queens under Delirium", "\n".join(rows))
    assert len(result.value) == 92
    assert result.value == solve_sequential(8)


def test_queens_search_tree_scales(report):
    compiled = compile_queens(6)
    times = {}
    for p in (1, 2, 4, 8, 16):
        times[p] = SimulatedExecutor(cray_2(p)).run(
            compiled.graph, registry=compiled.registry
        ).ticks
    rows = [
        f"P={p:<3} speedup {times[1] / t:>6.2f}" for p, t in times.items()
    ]
    report("Section 3 — 6-queens speedup on simulated Cray-2", "\n".join(rows))
    assert times[1] / times[4] > 3.0
    assert times[1] / times[16] > 6.0


def test_queens_operator_line_count(report):
    """Paper: 'roughly 100 lines of C' for the operators; the coordination
    framework itself fits on a page."""
    import inspect

    from repro.apps.queens import operators, programs

    op_lines = len(inspect.getsource(operators.make_registry).splitlines())
    framework_lines = len(
        [l for l in programs.PAPER_EIGHT_QUEENS.splitlines() if l.strip()]
    )
    report(
        "Section 3 — code sizes",
        f"operator module: ~{op_lines} lines of Python "
        "(paper: ~100 lines of C)\n"
        f"coordination framework: {framework_lines} lines of Delirium",
    )
    assert framework_lines < 30
