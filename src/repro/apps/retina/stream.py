"""The retina as a continuous stream: one timestep per stream item.

The batch programs (:mod:`repro.apps.retina.programs`) bake the frame
count into the graph as ``NUM_ITER`` — the paper's retina watches a
fixed-length stimulus.  A real retina watches a *camera*: frames arrive
indefinitely and the run must hold flat memory while surviving master
crashes.  This module re-expresses the balanced v2 timestep as a
carry-mode stream program for :class:`~repro.runtime.stream.StreamRunner`:

* ``RETINA_STREAM_STEP`` is the body of v2's ``main`` iterate, lifted to
  ``main(scene)`` — the carried :class:`~repro.apps.retina.model.RetinaState`
  comes in as the argument instead of around the loop.  ``do_convol`` is
  v2's balanced listing, verbatim.
* The initial carry is :func:`~repro.apps.retina.model.initial_state`,
  which is exactly what ``set_up()`` returns — so ``N`` stream steps are
  *bit-identical* to ``RETINA_V2`` with ``NUM_ITER=N`` (pinned by
  ``tests/test_stream.py``).
* Each committed frame emits ``state.signature()`` to the sink, giving
  checkpoint/resume a file-level bit-identity statement.
"""

from __future__ import annotations

from typing import Any

from ...compiler import CompiledProgram, compile_source
from ...compiler.passes.pipeline import FULL_PASS_ORDER
from ...runtime.stream import StreamResult, StreamRunner, count_source
from . import model
from .model import RetinaConfig, RetinaState
from .operators import make_registry

#: One v2 timestep with the scene as an argument instead of a loop
#: variable.  ``do_convol`` is the section 5.2 balanced listing.
RETINA_STREAM_STEP = """
main(scene)
  let
    <a,b,c,d>=target_split(scene)
    ao=target_bite(a)
    bo=target_bite(b)
    co=target_bite(c)
    do=target_bite(d)
  in do_convol(ao,bo,co,do)

do_convol(c1,c2,c3,c4)
  iterate
  {
    slab=START_SLAB,incr(slab)
    convolve_data=pre_update(c1,c2,c3,c4),
        let
          <a,b,c,d>=convol_split(convolve_data)
          ao=convol_bite(a,slab)
          bo=convol_bite(b,slab)
          co=convol_bite(c,slab)
          do=convol_bite(d,slab)
        in let
            <u1,u2,u3,u4> = update_split(ao,bo,co,do)
            au=update_bite(u1,slab)
            bu=update_bite(u2,slab)
            cu=update_bite(u3,slab)
            du=update_bite(u4,slab)
           in done_up(slab,au,bu,cu,du)
  } while is_not_equal(slab,FINAL_SLAB),
    result convolve_data
"""


def compile_retina_stream(
    config: RetinaConfig | None = None,
    fuse: bool = False,
    **kwargs,
) -> CompiledProgram:
    """Compile the one-timestep stream program against the v2 registry."""
    cfg = config or RetinaConfig()
    if fuse and "optimize_passes" not in kwargs:
        kwargs["optimize_passes"] = FULL_PASS_ORDER
    return compile_source(
        RETINA_STREAM_STEP,
        registry=make_registry(cfg),
        defines={
            "START_SLAB": cfg.start_slab,
            "FINAL_SLAB": cfg.final_slab,
        },
        **kwargs,
    )


def signature_emit(state: RetinaState) -> list:
    """Reduce a frame's state to its JSON-able signature for the sink."""
    return list(state.signature())


def make_stream_runner(
    config: RetinaConfig | None = None,
    *,
    executor: str = "sequential",
    compiled: CompiledProgram | None = None,
    **runner_kwargs: Any,
) -> StreamRunner:
    """A :class:`StreamRunner` for the retina stream.

    The carried scene is ``main``'s only argument, so ``make_args``
    drops the item (the frame index is implicit in the carry chain).
    Extra keyword arguments (``checkpoint_path``, ``fault_spec``, ...)
    pass through to the runner.
    """
    cfg = config or RetinaConfig()
    program = compiled or compile_retina_stream(cfg)
    return StreamRunner(
        program,
        program.registry,
        executor=executor,
        carry=True,
        initial=model.initial_state(cfg),
        make_args=lambda item, carry: (carry,),
        emit=signature_emit,
        **runner_kwargs,
    )


def stream_retina(
    n_steps: int,
    config: RetinaConfig | None = None,
    sink: Any = None,
    *,
    executor: str = "sequential",
    resume: str | None = None,
    **runner_kwargs: Any,
) -> StreamResult:
    """Run ``n_steps`` retina timesteps as a stream.

    Equivalent to ``RETINA_V2`` with ``NUM_ITER=n_steps`` — the final
    carry's ``signature()`` matches bit-for-bit.  ``sink`` defaults to
    an in-memory sink; pass a
    :class:`~repro.runtime.stream.JsonlSink` for durable output and a
    ``checkpoint_path=`` to survive master kills.
    """
    from ...runtime.stream import MemorySink

    runner = make_stream_runner(
        config, executor=executor, **runner_kwargs
    )
    try:
        return runner.run(
            count_source(n_steps),
            sink if sink is not None else MemorySink(),
            resume=resume,
        )
    finally:
        runner.close()
