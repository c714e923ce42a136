"""ASCII Gantt timelines from simulated-execution traces.

The paper's environment had "various tools for analyzing and improving
execution speed"; node timings show *how long*, a timeline shows *where
the processors sat idle*.  The retina's v1 bottleneck is unmistakable
here: three processors blank while one grinds through ``post_up``.

Usage::

    result = SimulatedExecutor(cray_2(4), trace=True).run(...)
    print(gantt(result.tracer, n_processors=4))
"""

from __future__ import annotations

from ..runtime.tracing import NodeTiming, Tracer


def _glyph_for(label: str, legend: dict[str, str]) -> str:
    if label not in legend:
        used = set(legend.values())
        for ch in label:
            if ch.isalnum() and ch not in used:
                legend[label] = ch
                break
        else:
            pool = "abcdefghijklmnopqrstuvwxyz0123456789"
            legend[label] = next(
                (c for c in pool if c not in used), "?"
            )
    return legend[label]


def gantt(
    tracer: Tracer,
    n_processors: int,
    width: int = 72,
    ops_only: bool = True,
    min_fraction: float = 0.002,
) -> str:
    """Render one row per processor; columns are simulated time.

    Each operator gets a stable single-character glyph (legend printed
    below); idle time is ``.``; spans shorter than ``min_fraction`` of the
    makespan are dropped to keep the row readable.
    """
    records: list[NodeTiming] = (
        tracer.op_records() if ops_only else list(tracer.records)
    )
    if not records:
        return "(empty trace)"
    makespan = max(r.start + r.ticks for r in records)
    if makespan <= 0:
        return "(zero-length trace)"
    legend: dict[str, str] = {}
    rows = [["." for _ in range(width)] for _ in range(n_processors)]
    for r in sorted(records, key=lambda r: r.start):
        if r.ticks < min_fraction * makespan:
            continue
        glyph = _glyph_for(r.label, legend)
        c0 = int(r.start / makespan * width)
        c1 = max(int((r.start + r.ticks) / makespan * width), c0 + 1)
        if 0 <= r.processor < n_processors:
            for c in range(c0, min(c1, width)):
                rows[r.processor][c] = glyph
    lines = [
        f"P{p} |{''.join(row)}|" for p, row in enumerate(rows)
    ]
    lines.append(f"     0{' ' * (width - 12)}{makespan:>10.0f} ticks")
    lines.append(
        "legend: "
        + "  ".join(f"{g}={label}" for label, g in sorted(legend.items()))
    )
    return "\n".join(lines)


def utilization_per_processor(
    tracer: Tracer, n_processors: int
) -> list[float]:
    """Busy fraction of the makespan, per processor, from a trace."""
    records = list(tracer.records)
    if not records:
        return [0.0] * n_processors
    makespan = max(r.start + r.ticks for r in records)
    busy = [0.0] * n_processors
    for r in records:
        if 0 <= r.processor < n_processors:
            busy[r.processor] += r.ticks
    if makespan <= 0:
        return [0.0] * n_processors
    return [b / makespan for b in busy]
