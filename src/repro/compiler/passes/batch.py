"""Batch lowering: extend generated codegen sources with a batch binder.

The batched execution path (``--batch``) coalesces same-node ready fires
and executes them through one :func:`~repro.runtime.operators.batch_call`.
For plain registered operators that call resolves a hand-written
``batch_fn`` or falls back to a loop over ``spec.fn``.  Fused chains
lowered by the codegen pass have neither — their callable is generated —
so this terminal pass appends a *batch binder* to every generated source::

    def _delirium_bind_batch(_f0, _f1):
        _fused = _delirium_bind(_f0, _f1)
        def _fused_batch(_calls):
            return [_fused(*_args) for _args in _calls]
        return _fused_batch

The text is :func:`~repro.runtime.operators.generate_batch_source`'s,
a pure function of the member count that the graph loader regenerates to
check a stored source.  Each side (master or worker) that resolves the
fused spec binds both binders from the same source text (``node_spec`` /
the worker's resolve path call
:func:`~repro.runtime.operators.bind_codegen_batch`, which returns
``None`` for sources this pass never touched).  The loop lives
inside one generated frame next to the specialized body, so a batched
fused chain pays zero per-fire interpretation — the same property the
scalar codegen path has — and the results are bit-identical to N scalar
calls by construction: it *is* N scalar calls, re-associated.

Runs after ``codegen`` (it rewrites that pass's artifact) and is a no-op
on graphs where codegen never ran, so ``--batch --no-codegen`` stays
valid: batching then uses the interpreted fallback loop.
"""

from __future__ import annotations

from ...graph.ir import GraphProgram
from ...runtime.operators import (
    BATCH_BINDER_NAME,
    OperatorRegistry,
    generate_batch_source,
)


def run(graph: GraphProgram, registry: OperatorRegistry) -> dict[str, int]:
    """Append batch binders to every codegen source in ``graph``, in place.

    Idempotent (sources already carrying the binder are left alone) and
    keyed by fused node name like the codegen pass, so structurally
    identical recipes keep sharing one source text.  ``codegen_fn`` is
    untouched — the scalar binder's output is unchanged; only new text is
    appended.  Statistics merge into the optimization report as
    ``batch.chains_batchable`` / ``batch.unique_sources``.
    """
    extended: dict[str, str] = {}
    lowered = 0
    for template in graph.templates.values():
        for node in template.nodes:
            source = node.codegen
            if source is None or node.fused is None:
                continue
            if BATCH_BINDER_NAME in source:
                continue
            new = extended.get(node.name)
            if new is None:
                new = extended[node.name] = source + generate_batch_source(
                    len(node.fused[0])
                )
            node.codegen = new
            lowered += 1
    if not lowered:
        return {}
    return {
        "batch.chains_batchable": lowered,
        "batch.unique_sources": len(extended),
    }
