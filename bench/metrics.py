"""What the benchmark declares: names, units and bounds live in the
root ``BENCHMARK.json`` (the one place they are written); this module
loads it and adds the one thing the self-test needs that the file's
fixed schema has no room for: which counts repeat exactly.  (Which
end-to-end metric each layer should move, on which workload, is the
per-layer table of ``bench/README.md``.)
"""

from __future__ import annotations

import json
import os
from typing import Any

from . import ROOT


def manifest() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict[str, Any], trace: int) -> dict[str, dict[str, Any]]:
    """The metrics a run of this kind must emit, by name."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry for entry in entries}


#: Counts that must read identically on two runs of the same commit,
#: seed and sizes (the self-test holds them to it).  Worker-placement
#: counters (``affinity.*``, ``workers.shm_segments``) are left out:
#: they depend on which worker happened to be idle.
EXACT = frozenset(
    {
        "lang.tokens",
        "compiler.nodes_out",
        "compiler.templates_out",
        "compiler.fused_nodes",
        "compiler.donated_edges",
        "graph.dlc_bytes",
        "engine.fires",
        "engine.ops",
        "engine.expansions",
        "engine.cow_copies",
        "engine.in_place_writes",
        "engine.copies_avoided",
        "activation.created",
        "activation.reused",
        "activation.peak_live",
        "supervise.dispatched_fires",
        "supervise.retries",
        "supervise.degraded",
        "stream.fires",
        "checkpoint.written",
        "host.cpu_count",
    }
)
