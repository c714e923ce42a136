"""Fast fusion smoke: tiny fused retina, CI-sized.

The full wall-clock benchmark (``bench_wallclock.py``) runs a
production-ish frame and takes seconds; CI wants a sub-second check that
the fusion pass still (a) removes nodes from the retina graphs, (b) fires
strictly fewer engine tasks for the same operator calls (fires plus the
calls folded into other fires are conserved), and (c) leaves the result
bit-identical to the unfused run.  This is that check, at 32x32.
"""

from __future__ import annotations

import pytest

from repro.apps.retina import RetinaConfig, compile_retina
from repro.runtime import SequentialExecutor

TINY = RetinaConfig(height=32, width=32, num_iter=2)


@pytest.mark.parametrize("version", [1, 2])
def test_fused_retina_smoke(version, report):
    plain = compile_retina(version, TINY)
    fused = compile_retina(version, TINY, fuse=True)
    assert fused.graph.total_nodes() < plain.graph.total_nodes()

    rp = SequentialExecutor().run(plain.graph, registry=plain.registry)
    rf = SequentialExecutor().run(fused.graph, registry=fused.registry)
    assert rf.value.signature() == rp.value.signature()
    assert rf.stats.tasks_fired < rp.stats.tasks_fired
    assert rf.stats.fused_fires > 0
    assert (
        rf.stats.tasks_fired + rf.stats.fused_ops_saved
        == rp.stats.tasks_fired + rp.stats.fused_ops_saved
    )

    report(
        f"Fusion smoke — retina v{version} at 32x32",
        f"nodes {plain.graph.total_nodes()} -> {fused.graph.total_nodes()}; "
        f"task firings {rp.stats.tasks_fired} -> {rf.stats.tasks_fired}; "
        f"fused fires {rf.stats.fused_fires} "
        f"(saved {rf.stats.fused_ops_saved} source firings); "
        "results bit-identical",
    )
