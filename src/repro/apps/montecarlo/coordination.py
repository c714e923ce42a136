"""Delirium coordination for the Monte-Carlo estimators.

Both estimators use the section 9.2 prelude: the batch count is a value,
so the fan-out follows the data, and ``par_reduce``'s balanced tree keeps
floating-point accumulation schedule-independent.  Batch results travel
as ``<sum, count>`` packages combined by ``mc_combine``.
"""

from __future__ import annotations

from ...compiler import CompiledProgram, compile_source
from ...runtime.operators import OperatorRegistry, default_registry
from . import model
from .model import OptionSpec

PI_PROGRAM = """
main(n_batches)
  mc_pi(par_reduce(mc_combine, pi_batch, 0, n_batches))
"""

OPTION_PROGRAM = """
main(n_batches)
  mc_mean(par_reduce(mc_combine, option_batch, 0, n_batches))
"""


def make_registry(
    seed: int = 2026,
    batch_size: int = 4096,
    spec: OptionSpec | None = None,
    ticks_per_sample: float = 30.0,
) -> OperatorRegistry:
    """Monte-Carlo operators; batch cost scales with the batch size."""
    option = spec or OptionSpec()
    reg = default_registry()
    local = OperatorRegistry()
    batch_cost = float(batch_size) * ticks_per_sample

    @local.register(name="pi_batch", pure=True, cost=batch_cost)
    def pi_batch(batch_index: int):
        return model.pi_batch(seed, batch_index, batch_size)

    @local.register(name="option_batch", pure=True, cost=batch_cost)
    def option_batch(batch_index: int):
        return model.option_batch(option, seed, batch_index, batch_size)

    @local.register(name="mc_combine", pure=True, cost=5.0)
    def mc_combine(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @local.register(name="mc_pi", pure=True, cost=5.0)
    def mc_pi(acc):
        return model.pi_estimate(acc[0], acc[1])

    @local.register(name="mc_mean", pure=True, cost=5.0)
    def mc_mean(acc):
        return acc[0] / acc[1]

    return reg.merged_with(local)


def compile_pi(
    seed: int = 2026, batch_size: int = 4096, **kwargs
) -> CompiledProgram:
    """The dartboard-π estimator.

    Extra keyword arguments go to :func:`repro.compile_source` — e.g.
    ``optimize_passes=FULL_PASS_ORDER`` (from
    :mod:`repro.compiler.passes.pipeline`) for a fused configuration.
    """
    return compile_source(
        PI_PROGRAM,
        registry=make_registry(seed=seed, batch_size=batch_size),
        prelude=True,
        **kwargs,
    )


def compile_option(
    spec: OptionSpec | None = None,
    seed: int = 2026,
    batch_size: int = 4096,
    **kwargs,
) -> CompiledProgram:
    """The European-call pricer.  Extra kwargs go to ``compile_source``."""
    return compile_source(
        OPTION_PROGRAM,
        registry=make_registry(seed=seed, batch_size=batch_size, spec=spec),
        prelude=True,
        **kwargs,
    )
