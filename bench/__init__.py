"""The repository's benchmark: six workloads, paired-ratio end-to-end
metrics and an outside-in layer ledger.

Everything here measures ``src/repro`` from outside — by timing calls
into public functions and reading public counters — and touches nothing
under ``src/``.  Run it from the repository root::

    python3 -m bench                      # all six workloads, untraced
    python3 -m bench --trace 1            # the traced pass (per-layer)
    python3 -m bench --workload queens --seed 7 --seconds 10 --trace 0

See ``bench/README.md`` for the metric tables and the method.
"""

from __future__ import annotations

import os
import sys

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch directory for everything a run writes (sink files,
#: checkpoints, the compile cache, ``trace.json``); git-ignored.
WORK = os.path.join(ROOT, "bench", "_work")


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's own ``src/``.

    The benchmark measures the program next to it, never an installed
    copy; a checkout without ``src/repro`` is refused outright.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"bench: no program to measure: {src}/repro does not exist"
        )
    if src not in sys.path:
        sys.path.insert(0, src)
