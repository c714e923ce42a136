"""Cost-model calibration from measured operator times.

The paper's environment measured real per-node times on real machines;
this module closes the loop for the simulator: run a program once on the
sequential executor with wall-clock node timing, and derive per-operator
cost overrides (ticks) from the measurements.  Useful when operators have
no analytic cost hints — the simulated speedup curves then reflect the
*actual* relative costs of the Python kernels.

Example::

    costs = measure_costs(program.graph, registry, args=(8,))
    result = SimulatedExecutor(cray_ymp(4), op_cost_overrides=costs).run(
        program.graph, args=(8,), registry=registry)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..graph.ir import GraphProgram, NodeKind
from ..runtime.executors import SequentialExecutor
from ..runtime.operators import OperatorRegistry, default_registry

#: Default scale: one second of wall time = this many simulated ticks.
DEFAULT_TICKS_PER_SECOND = 1e9


@dataclass
class CalibrationReport:
    """Measured per-operator statistics and the derived cost table."""

    #: operator label -> mean measured ticks per call
    costs: dict[str, float] = field(default_factory=dict)
    #: operator label -> number of calls observed
    calls: dict[str, int] = field(default_factory=dict)
    #: total wall seconds of the calibration run
    wall_seconds: float = 0.0
    ticks_per_second: float = DEFAULT_TICKS_PER_SECOND

    def dominant(self, k: int = 5) -> list[tuple[str, float]]:
        """The k most expensive operators by total measured time."""
        totals = {
            name: self.costs[name] * self.calls[name] for name in self.costs
        }
        return sorted(totals.items(), key=lambda kv: -kv[1])[:k]


def measure_costs(
    graph: GraphProgram,
    registry: OperatorRegistry | None = None,
    args: tuple[Any, ...] = (),
    ticks_per_second: float = DEFAULT_TICKS_PER_SECOND,
    min_ticks: float = 1.0,
) -> CalibrationReport:
    """Run once with node timing and derive per-operator mean costs.

    The returned report's ``costs`` dict plugs directly into
    ``SimulatedExecutor(op_cost_overrides=...)``.  Means are used (not
    per-call values) so the simulation stays deterministic; operators
    whose cost genuinely varies with arguments should keep analytic
    hints instead.
    """
    registry = registry if registry is not None else default_registry()
    executor = SequentialExecutor(trace=True)
    result = executor.run(graph, args=args, registry=registry)
    assert result.tracer is not None
    report = CalibrationReport(
        wall_seconds=result.wall_seconds, ticks_per_second=ticks_per_second
    )
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in result.tracer.op_records():
        totals[record.label] = totals.get(record.label, 0.0) + record.ticks
        counts[record.label] = counts.get(record.label, 0) + 1
    for label, total_seconds in totals.items():
        mean_ticks = total_seconds / counts[label] * ticks_per_second
        report.costs[label] = max(mean_ticks, min_ticks)
        report.calls[label] = counts[label]
    return report


@dataclass
class DispatchCalibration:
    """Measured per-operator wall costs and the dispatch split they imply.

    ``seconds_by_operator`` plugs directly into
    ``ProcessExecutor(measured_costs=...)`` /
    :class:`~repro.runtime.workers.DispatchPolicy`; ``dispatch`` and
    ``keep_local`` record the resulting policy decision for reporting.
    """

    #: operator *name* (including fused super-operator names) -> mean
    #: measured wall seconds per firing.
    seconds_by_operator: dict[str, float] = field(default_factory=dict)
    #: names whose measured cost clears ``min_dispatch_seconds``.
    dispatch: list[str] = field(default_factory=list)
    #: names cheaper than one IPC round trip — kept in the master.
    keep_local: list[str] = field(default_factory=list)
    min_dispatch_seconds: float = 0.002
    report: CalibrationReport = field(default_factory=CalibrationReport)


def calibrate_dispatch(
    graph: GraphProgram,
    registry: OperatorRegistry | None = None,
    args: tuple[Any, ...] = (),
    min_dispatch_seconds: float = 0.002,
    ticks_per_second: float = DEFAULT_TICKS_PER_SECOND,
    repeats: int = 3,
) -> DispatchCalibration:
    """Measure per-operator wall costs and split them around the IPC bar.

    Built on :func:`measure_costs`, which keys its records by node
    *label*; ordinary operator nodes are labeled with their operator
    name, but a fused super-node's label is the human-readable chain
    (``"a+b+untuple"``) while the spec the dispatch policy sees is named
    by the machine recipe (``"fused:..."``).  This walks the graph's OP
    nodes to map labels back to spec names; when several nodes share a
    name, the *maximum* measured cost wins — the conservative direction
    for a dispatch decision.

    The measurement run repeats ``repeats`` times and each label keeps
    its *minimum* mean: scheduler noise can only inflate a wall-clock
    sample, never deflate it, so best-of-N is the faithful estimate of
    an operator's intrinsic cost (a transient load spike must hit every
    repeat to survive into the dispatch decision).
    """
    report = measure_costs(
        graph, registry, args=args, ticks_per_second=ticks_per_second
    )
    for _ in range(max(0, repeats - 1)):
        again = measure_costs(
            graph, registry, args=args, ticks_per_second=ticks_per_second
        )
        for label, ticks in again.costs.items():
            if label in report.costs:
                report.costs[label] = min(report.costs[label], ticks)
            else:  # pragma: no cover - nondeterministic program shapes
                report.costs[label] = ticks
                report.calls[label] = again.calls[label]
    label_to_name: dict[str, str] = {}
    for template in graph.templates.values():
        for node in template.nodes:
            if node.kind is NodeKind.OP and node.label:
                label_to_name.setdefault(node.label, node.name)
    seconds: dict[str, float] = {}
    for label, mean_ticks in report.costs.items():
        name = label_to_name.get(label, label)
        per_fire = mean_ticks / report.ticks_per_second
        seconds[name] = max(seconds.get(name, 0.0), per_fire)
    return DispatchCalibration(
        seconds_by_operator=seconds,
        dispatch=sorted(
            n for n, s in seconds.items() if s >= min_dispatch_seconds
        ),
        keep_local=sorted(
            n for n, s in seconds.items() if s < min_dispatch_seconds
        ),
        min_dispatch_seconds=min_dispatch_seconds,
        report=report,
    )


# ---------------------------------------------------------------------------
# On-disk persistence
# ---------------------------------------------------------------------------
#
# A calibration run executes the whole program once per repeat on the
# sequential executor — far too expensive to redo on every invocation
# when nothing that determines the measurement has changed.  The
# persisted table is keyed by everything it is a function of: the
# operator registry (names), the program's operator population
# (including fused super-operator recipes), and the machine the numbers
# were taken on.  Any of those changing changes the key, so a stale
# table can never be served; ``--recalibrate`` forces a fresh
# measurement even on a hit.


def machine_fingerprint() -> str:
    """Stable identity of "this machine" for calibration keys.

    Wall-clock operator costs depend on the ISA, the OS, the Python
    build, and (for dispatch decisions) the core count — a table
    measured on one box must not be served on another.
    """
    import os
    import platform

    return "|".join(
        (
            platform.machine(),
            platform.system(),
            platform.python_version(),
            str(os.cpu_count() or 1),
        )
    )


def _calibration_key(
    graph: GraphProgram, registry: OperatorRegistry | None
) -> str:
    import hashlib
    import json

    reg = registry if registry is not None else default_registry()
    ops = sorted(
        {
            node.name
            for template in graph.templates.values()
            for node in template.nodes
            if node.kind is NodeKind.OP
        }
    )
    payload = json.dumps(
        {
            "machine": machine_fingerprint(),
            "ops": ops,
            "registry": sorted(reg.names()),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def calibration_path(
    graph: GraphProgram, registry: OperatorRegistry | None = None
) -> str:
    """Where this (program, registry, machine) combination persists."""
    import os

    from ..tools.cache import cache_dir

    return os.path.join(
        cache_dir(), "calibration", _calibration_key(graph, registry) + ".json"
    )


def save_dispatch_calibration(
    calibration: DispatchCalibration,
    graph: GraphProgram,
    registry: OperatorRegistry | None = None,
) -> str:
    """Persist measured per-operator seconds; returns the file path.

    Only the measurements are stored — the dispatch/keep-local split is
    a pure function of the seconds and the caller's threshold, so it is
    recomputed on load (a different ``min_dispatch_seconds`` must not be
    answered with a split computed for another one).
    """
    import json
    import os
    import tempfile

    path = calibration_path(graph, registry)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "machine": machine_fingerprint(),
        "seconds_by_operator": calibration.seconds_by_operator,
        "min_dispatch_seconds": calibration.min_dispatch_seconds,
    }
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=".cal-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(tmp, path)  # atomic: readers see old or new, never half
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_dispatch_calibration(
    graph: GraphProgram,
    registry: OperatorRegistry | None = None,
    min_dispatch_seconds: float = 0.002,
) -> DispatchCalibration | None:
    """The persisted calibration for this key, or ``None``.

    Any read failure (missing file, truncated write from a crashed
    process, schema drift) degrades to ``None`` — the caller simply
    measures again.  The loaded table's report is empty: raw per-label
    tick records are not persisted, only the derived seconds.
    """
    import json

    try:
        with open(calibration_path(graph, registry), encoding="utf-8") as fh:
            payload = json.load(fh)
        seconds = {
            str(name): float(value)
            for name, value in payload["seconds_by_operator"].items()
        }
    except Exception:
        return None
    return DispatchCalibration(
        seconds_by_operator=seconds,
        dispatch=sorted(
            n for n, s in seconds.items() if s >= min_dispatch_seconds
        ),
        keep_local=sorted(
            n for n, s in seconds.items() if s < min_dispatch_seconds
        ),
        min_dispatch_seconds=min_dispatch_seconds,
    )


def calibrate_dispatch_cached(
    graph: GraphProgram,
    registry: OperatorRegistry | None = None,
    args: tuple[Any, ...] = (),
    min_dispatch_seconds: float = 0.002,
    ticks_per_second: float = DEFAULT_TICKS_PER_SECOND,
    repeats: int = 3,
    force: bool = False,
) -> DispatchCalibration:
    """:func:`calibrate_dispatch` behind the on-disk table.

    ``force=True`` (the CLI's ``--recalibrate``) skips the lookup,
    measures fresh, and overwrites the stored table.  A cache hit costs
    one small JSON read instead of ``repeats`` traced program runs.
    """
    if not force:
        cached = load_dispatch_calibration(
            graph, registry, min_dispatch_seconds=min_dispatch_seconds
        )
        if cached is not None:
            return cached
    calibration = calibrate_dispatch(
        graph,
        registry,
        args=args,
        min_dispatch_seconds=min_dispatch_seconds,
        ticks_per_second=ticks_per_second,
        repeats=repeats,
    )
    save_dispatch_calibration(calibration, graph, registry)
    return calibration
