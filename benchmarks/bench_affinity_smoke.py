"""Fast locality smoke: ref-shipped fan-out vs full encodings, CI-sized.

A seconds-scale check, for CI, that the locality layer still (a)
produces bit-identical results, (b) cuts the encoded wire bytes of a
fan-out/fan-in shape by at least 2x versus ``--affinity none`` (the win
that exists even on one worker: the shared block crosses the wire at
most once instead of once per consumer), and (c) leaves the
critical-path profiler reconciling — the locality layer must not distort
the observability story it is measured by.
"""

from __future__ import annotations

import numpy as np

from repro import compile_source
from repro.obs import RunContext
from repro.obs.critpath import RECONCILIATION_TOLERANCE
from repro.runtime import ProcessExecutor, SequentialExecutor, default_registry

FAN = 6
BLOCK_ELEMS = 25_000  # 200 KB of float64 per ship avoided
COSTS = {"fan_produce": 0.05, "fan_stage": 0.05}


def _registry():
    reg = default_registry()

    @reg.register(name="fan_produce", pure=True)
    def fan_produce(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(BLOCK_ELEMS)

    @reg.register(name="fan_stage", pure=True)
    def fan_stage(a, k):
        return float((a * k).sum())

    return reg


def _fanout_source():
    stages = "\n".join(
        f"      s{i} = fan_stage(blk, {i})" for i in range(1, FAN + 1)
    )
    acc = "s1"
    for i in range(2, FAN + 1):
        acc = f"add({acc}, s{i})"
    return f"main(seed)\n  let blk = fan_produce(seed)\n{stages}\n  in {acc}\n"


def _run(compiled, registry, affinity, ctx=None):
    return ProcessExecutor(
        1,
        measured_costs=COSTS,
        affinity=affinity,
        run_ctx=ctx,
    ).run(compiled.graph, args=(13,), registry=registry)


def test_affinity_smoke(report):
    registry = _registry()
    compiled = compile_source(_fanout_source(), registry=registry)
    ref = SequentialExecutor().run(
        compiled.graph, args=(13,), registry=registry
    )

    none = _run(compiled, registry, "none")
    data = _run(compiled, registry, "data")

    # Zero parity drift: the locality layer may only change *transport*.
    assert none.value == ref.value, "affinity=none diverged from sequential"
    assert data.value == ref.value, "affinity=data diverged from sequential"

    enc_none = none.stats.encode_bytes
    enc_data = data.stats.encode_bytes
    assert none.stats.blocks_ref_shipped == 0
    assert data.stats.blocks_ref_shipped >= FAN - 1, (
        f"fan-out must ref-ship the shared block: "
        f"{data.stats.blocks_ref_shipped} refs"
    )
    assert data.stats.affinity_misses == 0, "no miss expected on one worker"
    assert data.stats.encode_bytes_avoided > 0
    assert enc_none >= 2 * enc_data, (
        f"affinity=data must encode at most half the wire bytes of "
        f"affinity=none on the fan-out: {enc_data} vs {enc_none}"
    )

    # The profiler still reconciles on an affinity-enabled run.
    ctx = RunContext(record_events=True, flight_recorder=False)
    profiled = _run(compiled, registry, "data", ctx=ctx)
    assert profiled.value == ref.value
    crit = ctx.critical_path(profiled.wall_seconds)
    assert crit.reconciliation_error <= RECONCILIATION_TOLERANCE, (
        f"critical path no longer reconciles under affinity: "
        f"{crit.reconciliation_error:.3f}"
    )

    report(
        "Affinity smoke — fan-out/fan-in, small",
        f"bit-identical under none/data; encoded wire bytes "
        f"{enc_none} -> {enc_data} "
        f"({enc_none / max(enc_data, 1):.1f}x fewer), "
        f"{data.stats.blocks_ref_shipped} ref-shipped block read(s), "
        f"{data.stats.encode_bytes_avoided} bytes avoided; critical path "
        f"reconciles at {crit.reconciliation_error:.3f} "
        f"(tolerance {RECONCILIATION_TOLERANCE})",
    )
