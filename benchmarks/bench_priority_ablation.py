"""Section 7: the three-level priority ready queue, ablated.

Paper: "The priority scheme reduces the number of template activations
required to evaluate a Delirium program, by making activations available
for re-use as early as possible" — and section 3 warns that eight queens
"might lead to an unwieldy explosion of schedulable operators without the
priority execution scheme."

The ablation runs N-queens with the scheme on and off (flat FIFO) and
reports peak live activations, allocations, and the implied activation
memory.  Results are identical either way — only the resource footprint
changes.  "Re-use" is measured as the peak live: a released activation is
dropped, so allocations count every expansion and are equal under both
disciplines.

The experiment is the paper's, so it runs the program *as written*
(every ``try`` a call: compiled without inline expansion, and checked
against the bytes the compiler emitted before it spliced calls around a
cycle).  A second row reports the default compile, where ``try`` is
spliced into ``do_it``: most of what the scheme saved were short-lived
``try`` activations, and without them flat FIFO barely explodes.
"""

import hashlib

import pytest

from repro.apps.queens import compile_queens, solve_sequential
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.graph.serialize import dumps
from repro.machine.memory import activation_bytes
from repro.runtime import SequentialExecutor
from repro.runtime.executors import Run

#: sha256 of the ``.dlc`` the commit before the splice compiled from
#: ``compile_queens(7)``.
PARENT_QUEENS_7_SHA256 = (
    "5188e5eab94b8cb6615d18ccd3463e0b9cf342eeae4ee074a94f34e3e61d3899"
)


@pytest.fixture(scope="module")
def compiled():
    as_written = compile_queens(
        7, optimize_passes=tuple(p for p in PASS_ORDER if p != "inline")
    )
    digest = hashlib.sha256(dumps(as_written.graph).encode("utf-8")).hexdigest()
    assert digest == PARENT_QUEENS_7_SHA256
    return as_written


def _run(compiled, use_priorities: bool):
    # Every call an activation: a plain sequential run would clip queens'
    # calls into one generated function (crown clipping) and make none.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Run, "_clips", lambda self, entry: False)
        return SequentialExecutor(use_priorities=use_priorities).run(
            compiled.graph, registry=compiled.registry
        )


def _activation_memory(compiled, peak_by_template):
    return sum(
        count * activation_bytes(compiled.graph.templates[name])
        for name, count in peak_by_template.items()
    )


def test_priority_scheme_bounds_activations(benchmark, compiled, report):
    with_priorities = benchmark(lambda: _run(compiled, True))
    flat_fifo = _run(compiled, False)
    assert with_priorities.value == flat_fifo.value == solve_sequential(7)

    rows = [
        f"{'':<26}{'priorities':>12}{'flat FIFO':>12}",
    ]
    for label, a, b in (
        (
            "peak live activations",
            with_priorities.stats.activation_stats["peak_live"],
            flat_fifo.stats.activation_stats["peak_live"],
        ),
        (
            "activations allocated",
            with_priorities.stats.activation_stats["created"],
            flat_fifo.stats.activation_stats["created"],
        ),
    ):
        rows.append(f"{label:<26}{a:>12}{b:>12}")
    ratio = (
        flat_fifo.stats.activation_stats["peak_live"]
        / with_priorities.stats.activation_stats["peak_live"]
    )
    rows.append(f"peak-footprint ratio: {ratio:.1f}x")
    spliced = compile_queens(7)
    peaks = [
        _run(spliced, flag).stats.activation_stats["peak_live"]
        for flag in (True, False)
    ]
    rows.append(
        f"{'peak live, try spliced':<26}{peaks[0]:>12}{peaks[1]:>12}"
        f"  ({peaks[1] / peaks[0]:.1f}x)"
    )
    report("Section 7 — priority-scheme ablation (7-queens)", "\n".join(rows))

    assert ratio > 2.0


def test_priorities_do_not_change_results_or_work(compiled):
    a = _run(compiled, True)
    b = _run(compiled, False)
    assert a.value == b.value
    assert a.stats.ops_executed == b.stats.ops_executed
    assert a.stats.expansions == b.stats.expansions
