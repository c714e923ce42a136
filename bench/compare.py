"""Compare two suite results: ``python3 -m bench.compare A.json B.json``.

``A`` is the parent, ``B`` the change; both come from
``python3 -m bench --repeat N --out FILE`` with N at least 2 (ideally
10): a verdict never rests on one run.  One row per
(metric, workload) with both medians and quartiles, the change in the
metric's *worse* direction as a share of A's median, the bound, and a
verdict:

``worse``         B's median is worse than A's by more than the bound;
``better``        every run of B reads better than every run of A, or
                  the median improved by more than the bound;
``within-bound``  neither;
``unresolved``    the run-to-run spread is wider than the bound and the
                  two sides' runs overlap — not "unchanged".

Per-layer metrics (traced results) have no bound: their rows carry the
delta only.  Exits 1 if any row is ``worse``; refuses (exit 2) to compare
results taken with different seeds, sizes or CPU counts, or with fewer
than two runs of a workload on either side.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any


def series(run_list: list[dict[str, Any]], metric: str) -> list[float]:
    """One value per run."""
    return [run["metrics"][metric]["value"] for run in run_list]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    a: list[float], b: list[float], lower_is_better: bool, bound: float
) -> tuple[float, str]:
    """(share of A's median by which B is worse, verdict)."""
    qa, qb = quartiles(a), quartiles(b)
    if not qa[1]:
        return 0.0, "within-bound" if not qb[1] else "unresolved"
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max(
        (qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1] or qa[1])
    )
    if lower_is_better:
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if spread > bound and not (b_all_better or b_all_worse):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if b_all_better or worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within-bound"


def refuse(a: dict[str, Any], b: dict[str, Any]) -> str | None:
    for key in ("seed", "seed_step", "sizes", "trace", "seconds"):
        if a.get(key) != b.get(key):
            return f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
    if a["host"]["cpu_count"] != b["host"]["cpu_count"]:
        return (
            f"host.cpu_count differs: {a['host']['cpu_count']} vs "
            f"{b['host']['cpu_count']}"
        )
    for name in a["workloads"]:
        if name not in b["workloads"]:
            return f"workload {name} missing from B"
        for side, document in (("A", a), ("B", b)):
            if len(document["workloads"][name]) < 2:
                return f"{name}: {side} has fewer than two runs"
        size_a = a["workloads"][name][0]["size"]
        size_b = b["workloads"][name][0]["size"]
        if size_a != size_b:
            return f"{name} sizes differ: {size_a} vs {size_b}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    a, b = documents
    reason = refuse(a, b)
    if reason:
        print(f"compare: refusing: {reason}", file=sys.stderr)
        return 2

    print(f"A {a['commit'][:12]}  B {b['commit'][:12]}  seed {a['seed']}")
    print(
        f"{'metric':<28}{'workload':<12}{'A q1/med/q3':>30}"
        f"{'B q1/med/q3':>30}{'worse by':>10}{'bound':>7}  verdict"
    )
    any_worse = False
    for name, runs_a in a["workloads"].items():
        runs_b = b["workloads"][name]
        for metric in runs_a[0]["metrics"]:
            va, vb = series(runs_a, metric), series(runs_b, metric)
            bound = a["bounds"].get(metric)
            lower = a["better"][metric] == "lower"
            worse_by, word = verdict(
                va, vb, lower, bound if bound is not None else float("inf")
            )
            if bound is None:
                word = "-"
            any_worse = any_worse or word == "worse"

            def show(values: list[float]) -> str:
                return "/".join(f"{q:.4g}" for q in quartiles(values))

            print(
                f"{metric:<28}{name:<12}{show(va):>30}{show(vb):>30}"
                f"{worse_by:>+10.3f}"
                f"{'' if bound is None else bound:>7}  {word}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
