"""Fast fusion smoke: tiny fused retina and a pythia-shaped program, CI-sized.

A sub-second check, for CI, that the fusion pass still (a) removes nodes
from the retina graphs, (b) fires strictly fewer engine tasks for the
same operator calls, and (c) leaves the result bit-identical to the
unfused run, at 32x32, plus the same for ``IF``\\ s with cheap arms
folded into their region. (b) is exact: fires plus the calls folded into
other fires equal the unfused run's, minus the arm-operator fires that
run took — folded, those are guarded steps, counted nowhere because they
may not run.
"""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.apps.retina import RetinaConfig, compile_retina
from repro.compiler.passes.pipeline import PASS_ORDER
from repro.graph.ir import NodeKind
from repro.obs import EventBus, Expansion
from repro.runtime import SequentialExecutor

TINY = RetinaConfig(height=32, width=32, num_iter=2)

#: The shape ``repro.apps.compiler_app`` generates for pythia: cheap
#: conditions, each IF's arms one cheap operator or a bare name.
IF_SOURCE = """
main(p0, p1)
  let t0_alt = incr(p0)
      t0 = if is_less(p1, p0) then sub(6, p1) else t0_alt
      t1_alt = incr(t0)
      t1 = if is_less(p1, p0) then mul(t0, p1) else t1_alt
  in add(add(t1, t0), 3)
"""


def _runs(plain, fused, **kwargs):
    """Both runs, and the unfused run's work minus its folded-arm fires."""
    arm_ops = {
        name: sum(n.kind is NodeKind.OP for n in t.nodes)
        for name, t in plain.graph.templates.items()
        if name not in fused.graph.templates
    }
    taken = []
    bus = EventBus()
    bus.subscribe(
        lambda e: taken.append(arm_ops.get(e.template, 0)), events=(Expansion,)
    )
    rp = SequentialExecutor(bus=bus).run(
        plain.graph, registry=plain.registry, **kwargs
    )
    rf = SequentialExecutor().run(fused.graph, registry=fused.registry, **kwargs)
    conserved = rp.stats.tasks_fired + rp.stats.fused_ops_saved - sum(taken)
    assert rf.stats.tasks_fired + rf.stats.fused_ops_saved == conserved
    assert rf.stats.tasks_fired < rp.stats.tasks_fired
    assert rf.stats.fused_fires > 0
    return rp, rf


@pytest.mark.parametrize("version", [1, 2])
def test_fused_retina_smoke(version, report):
    plain = compile_retina(version, TINY)
    fused = compile_retina(version, TINY, fuse=True)
    assert fused.graph.total_nodes() < plain.graph.total_nodes()

    rp, rf = _runs(plain, fused)
    assert rf.value.signature() == rp.value.signature()

    report(
        f"Fusion smoke — retina v{version} at 32x32",
        f"nodes {plain.graph.total_nodes()} -> {fused.graph.total_nodes()}; "
        f"task firings {rp.stats.tasks_fired} -> {rf.stats.tasks_fired}; "
        f"fused fires {rf.stats.fused_fires} "
        f"(saved {rf.stats.fused_ops_saved} source firings); "
        "results bit-identical",
    )


@pytest.mark.parametrize("args", [(1, 4), (4, 1)], ids=["else", "then"])
def test_folded_if_smoke(args, report):
    plain = compile_source(IF_SOURCE, optimize_passes=PASS_ORDER)
    fused = compile_source(IF_SOURCE, optimize_passes=PASS_ORDER + ("fuse",))
    assert not any(
        n.kind is NodeKind.IF for t in fused.graph.templates.values() for n in t.nodes
    )

    rp, rf = _runs(plain, fused, args=args)
    assert rf.value == rp.value

    report(
        f"Fusion smoke — folded IFs, args {args}",
        f"templates {len(plain.graph.templates)} -> {len(fused.graph.templates)}; "
        f"task firings {rp.stats.tasks_fired} -> {rf.stats.tasks_fired}; "
        f"expansions {rp.stats.expansions} -> {rf.stats.expansions}; "
        "results identical",
    )
