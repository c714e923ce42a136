"""The retina Delirium programs — the section 5 listings, verbatim.

``RETINA_V1`` is the first parallelization (section 5.1), whose
sequential ``post_up`` capped speedup near two; ``RETINA_V2`` is the
balanced version (section 5.2) that decomposes the temporal update into a
second four-way fork-join.  Symbolic constants are bound by the
preprocessor exactly as in the paper.
"""

from __future__ import annotations

from ...compiler import CompiledProgram, compile_source
from ...compiler.passes.pipeline import FULL_PASS_ORDER
from .model import RetinaConfig
from .operators import make_registry

#: Section 5.1 listing.
RETINA_V1 = """
main()
  iterate
  {
    timestep=0,incr(timestep)
    scene=set_up(),
      let
        <a,b,c,d>=target_split(scene)
        ao=target_bite(a)
        bo=target_bite(b)
        co=target_bite(c)
        do=target_bite(d)
      in do_convol(ao,bo,co,do)
 }
  while is_not_equal(timestep, NUM_ITER),
  result scene

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
      in post_up(slab,ao,bo,co,do)
  } while is_not_equal(slab,FINAL_SLAB),
    result convolve_data
"""

#: Section 5.2 listing (the balanced do_convol).
RETINA_V2 = """
main()
  iterate
  {
    timestep=0,incr(timestep)
    scene=set_up(),
      let
        <a,b,c,d>=target_split(scene)
        ao=target_bite(a)
        bo=target_bite(b)
        co=target_bite(c)
        do=target_bite(d)
      in do_convol(ao,bo,co,do)
 }
  while is_not_equal(timestep, NUM_ITER),
  result scene

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


def compile_retina(
    version: int = 2,
    config: RetinaConfig | None = None,
    fuse: bool = False,
    **kwargs,
) -> CompiledProgram:
    """Compile retina v1 or v2 against its operator registry.

    The preprocessor receives ``NUM_ITER``/``START_SLAB``/``FINAL_SLAB``
    from the config, exactly as the paper's symbolic constants.  With
    ``fuse=True`` the graph-level fusion pass collapses cheap
    single-consumer chains (and the split→untuple pairs) into super-nodes.
    The default keeps the paper-shaped graphs that the figure and dump
    tests pin.
    """
    cfg = config or RetinaConfig()
    source = {1: RETINA_V1, 2: RETINA_V2}[version]
    if fuse and "optimize_passes" not in kwargs:
        kwargs["optimize_passes"] = FULL_PASS_ORDER
    return compile_source(
        source,
        registry=make_registry(cfg),
        defines={
            "NUM_ITER": cfg.num_iter,
            "START_SLAB": cfg.start_slab,
            "FINAL_SLAB": cfg.final_slab,
        },
        **kwargs,
    )
