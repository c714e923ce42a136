"""Stream wiring for the log-analytics pipeline.

Builds the pull-based source (batch ``i`` is a pure function of the
seed), the carry-mode :class:`~repro.runtime.stream.StreamRunner`, and
the emit function that writes one aggregate row per committed batch.
``python -m repro.apps.loganalytics`` is the CLI face of this module —
and the subprocess the ``kill -9`` benchmark murders.
"""

from __future__ import annotations

from typing import Any

from ...runtime.stream import (
    CallableSource,
    MemorySink,
    StreamResult,
    StreamRunner,
)
from . import model
from .coordination import compile_log_program

DEFAULT_SEED = 2026
DEFAULT_BATCH_SIZE = 64


def batch_source(
    seed: int = DEFAULT_SEED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    n_batches: int | None = None,
) -> CallableSource:
    """The log feed: batch ``i`` = ``make_batch(seed, i, batch_size)``."""
    return CallableSource(
        lambda index: model.make_batch(seed, index, batch_size),
        n_items=n_batches,
    )


def make_stream_runner(
    *,
    executor: str = "sequential",
    compiled: Any = None,
    **runner_kwargs: Any,
) -> StreamRunner:
    """A carry-mode runner for the per-batch program.

    ``main(agg, batch)`` matches carry mode's default argument order,
    so no ``make_args`` override is needed.  Extra keyword arguments
    (``checkpoint_path``, ``fault_spec``, ...) pass through to the
    runner.
    """
    program = compiled or compile_log_program()
    return StreamRunner(
        program,
        executor=executor,
        carry=True,
        initial=model.empty_stats(),
        emit=model.stats_row,
        **runner_kwargs,
    )


def stream_logs(
    n_batches: int,
    sink: Any = None,
    *,
    seed: int = DEFAULT_SEED,
    batch_size: int = DEFAULT_BATCH_SIZE,
    executor: str = "sequential",
    resume: str | None = None,
    **runner_kwargs: Any,
) -> StreamResult:
    """Aggregate ``n_batches`` log batches as a stream.

    The final carry equals :func:`.model.sequential_stats` for the same
    ``(seed, n_batches, batch_size)`` — exactly, not approximately.
    """
    runner = make_stream_runner(executor=executor, **runner_kwargs)
    try:
        return runner.run(
            batch_source(seed, batch_size, n_batches),
            sink if sink is not None else MemorySink(),
            resume=resume,
        )
    finally:
        runner.close()
