"""Codegen lowering: compile fused recipes to specialized Python.

The fusion pass (:mod:`repro.compiler.passes.fuse`) collapses regions into
super-nodes carrying ``(steps, untuple_n)`` recipes, and the runtime
replays those recipes through a generic loop (``compose_fused``): per step
a tuple unpack, a list comprehension over arg refs, and an append.  That
interpretation is pure overhead — the recipe is static, so the whole
replay can be *generated* once per distinct recipe: argument unpacking,
the step sequence, and intermediate-value threading all inlined into one
specialized function, compiled with ``compile()``/``exec`` at
graph-finalize time.

The generated artifact is **source text**, stored on the fused node
(:attr:`~repro.graph.ir.Node.codegen`) so it serializes into the on-disk
compile cache and ships to worker processes next to the fused recipes —
no code objects are ever pickled.  The source defines a *binder*::

    def _delirium_bind(_f0, _f1):
        def _fused(a0, a1, a2):
            t0 = _f0(a0, a1)
            t1 = _f1(t0, a2)
            return t1
        return _fused

Each side (master or worker) compiles the source and calls the binder
with the member operator functions from *its own* registry, in step
order; the members become closure cells, so calls inside the generated
body are single ``LOAD_DEREF`` + ``CALL`` sequences with no dict lookups
and no per-step interpretation.  A single-step chain (the ubiquitous
``split + absorbed untuple`` shape) binds to the member function itself —
zero added frames, exactly what the interpreted fast path did.

A trailing absorbed untuple needs no generated code: the final step's
tuple is the function result, and the engine delivers its elements to the
node's output ports (the delivery carries template-named error messages
the generated function must not duplicate).

A folded ``IF`` generates an ``if _fj(cond):`` / ``else:`` around its
arms' guarded steps, its select's member ``_fj`` being ``is_truthy``.  The
generator, :func:`~repro.runtime.operators.generate_source`, lives beside
the recipe interpreter, where the graph loader regenerates stored texts.
"""

from __future__ import annotations

from typing import Any, Callable

from ...graph.ir import GraphProgram
from ...runtime.operators import (
    OperatorRegistry,
    bind_codegen,
    generate_source,
)


def run(graph: GraphProgram, registry: OperatorRegistry) -> dict[str, int]:
    """Lower every fused recipe in ``graph`` to generated source, in place.

    Runs after ``fuse``/``donate`` as the terminal graph pass.  Each fused
    node gets its generated source on :attr:`~repro.graph.ir.Node.codegen`
    and the compile-time bound callable on ``codegen_fn``; structurally
    identical recipes (equal fused names) share one compiled source.
    Statistics merge into the optimization report under the usual
    ``pass.stat`` keys: ``codegen.chains_lowered``,
    ``codegen.unique_sources``.
    """
    bound: dict[str, tuple[str, Callable[..., Any]]] = {}
    lowered = 0
    for template in graph.templates.values():
        for node in template.nodes:
            if node.fused is None:
                continue
            entry = bound.get(node.name)
            if entry is None:
                steps, untuple_n = node.fused
                source = generate_source(steps, untuple_n)
                fn = bind_codegen(source, steps, registry, name=node.label)
                entry = bound[node.name] = (source, fn)
            node.codegen, node.codegen_fn = entry
            lowered += 1
    if not lowered:
        return {}
    return {
        "codegen.chains_lowered": lowered,
        "codegen.unique_sources": len(bound),
    }
