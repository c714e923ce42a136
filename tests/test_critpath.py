"""Critical-path profiler: causal DAG, reconciliation, comparison."""

import pytest

from repro import compile_source
from repro.obs import RunContext, TaskEnqueued, TaskFired
from repro.obs.critpath import (
    RECONCILIATION_TOLERANCE,
    compare_critical_paths,
    critical_path,
)
from repro.runtime import ProcessExecutor, SequentialExecutor
from repro.tools.compare_runs import compare
from repro.tools.timing_report import critical_path_section

from tests.conftest import FIB_SRC, FORK_JOIN_SRC, fork_join_registry


def _profiled_run(executor, compiled, args, registry=None):
    ctx = RunContext(record_events=True, flight_recorder=False)
    executor.run_ctx = ctx
    result = executor.run(compiled.graph, args=args, registry=registry)
    return result, ctx.critical_path(result.wall_seconds)


class TestSequentialProfile:
    @pytest.fixture(scope="class")
    def profiled(self):
        compiled = compile_source(FIB_SRC)
        return _profiled_run(SequentialExecutor(), compiled, (12,))

    def test_reconciles_with_wallclock(self, profiled):
        result, report = profiled
        assert report.wall_seconds == result.wall_seconds
        assert report.reconciliation_error <= RECONCILIATION_TOLERANCE

    def test_every_firing_captured(self, profiled):
        result, report = profiled
        assert report.n_firings == result.stats.tasks_fired

    def test_path_is_a_causal_chain(self, profiled):
        _, report = profiled
        path = report.path
        assert path, "a nonempty run must have a nonempty critical path"
        # The chain starts at a root and each link names its predecessor.
        assert path[0].parent_seq is None
        for prev, node in zip(path, path[1:]):
            assert node.parent_seq == prev.seq
            assert node.start >= prev.start
        # Path time can't exceed the wall it explains.
        assert report.path_seconds <= report.wall_seconds * (
            1 + RECONCILIATION_TOLERANCE
        )

    def test_slack_nonnegative_and_ranked(self, profiled):
        _, report = profiled
        assert all(s >= 0.0 for s in report.slack.values())
        ranked = report.top_slack(10)
        assert ranked == sorted(ranked, key=lambda kv: -kv[1])
        # top_slack excludes on-path firings: the slackest off-path firing
        # must have at least as much slack as anything it skipped.
        on_path = {r.seq for r in report.path}
        off_path_max = max(
            (s for seq, s in report.slack.items() if seq not in on_path),
            default=0.0,
        )
        if ranked:
            assert ranked[0][1] == pytest.approx(off_path_max)

    def test_describe_and_section_render(self, profiled):
        _, report = profiled
        text = report.describe()
        assert "critical path" in text
        assert "reconciliation" in text
        section = critical_path_section(report)
        assert "most slack" in section

    def test_to_dict_round_trips_key_figures(self, profiled):
        _, report = profiled
        doc = report.to_dict()
        assert doc["n_firings"] == report.n_firings
        assert doc["reconciliation_error"] == pytest.approx(
            report.reconciliation_error
        )
        assert doc["path_length"] == len(report.path)
        assert doc["path_labels"] == [r.label for r in report.path]


class TestProcessProfile:
    def test_dispatched_run_reconciles_and_attributes(self):
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        result, report = _profiled_run(
            ProcessExecutor(2, cost_threshold=0.0),
            compiled,
            (),
            registry=reg,
        )
        assert result.value is not None
        assert report.reconciliation_error <= RECONCILIATION_TOLERANCE
        att = report.attribution
        # The additive decomposition is recorded...
        for key in ("operator_body", "engine_overhead", "master_wait"):
            assert att[key] >= 0.0
        # ...and the overlapping (non-additive) worker figures exist.
        assert "worker_body" in att and "ipc_latency" in att
        assert 0.0 <= report.master_overhead_fraction <= 1.0

    def test_worker_spans_join_master_enqueues(self):
        # Causality across the IPC boundary: a dispatched firing's parent
        # is the master-side firing that enqueued it.
        reg = fork_join_registry()
        compiled = compile_source(FORK_JOIN_SRC, registry=reg)
        _, report = _profiled_run(
            ProcessExecutor(2, cost_threshold=0.0),
            compiled,
            (),
            registry=reg,
        )
        workers = [r for r in report.path if r.processor >= 1]
        assert workers, "cost_threshold=0 must put worker spans on the path"
        # The chain survives the IPC boundary: dispatched firings carry
        # parent links back to a single parentless root.
        assert len(report.path) >= 2
        assert report.path[0].parent_seq is None
        for rec in report.path[1:]:
            assert rec.parent_seq is not None


class TestWorkerOnlyRun:
    """With constants bound at load a run's first firings may be
    operators born ready, and every firing may be dispatched: the stream
    then has no master span at all."""

    @staticmethod
    def _report():
        def enq(ts, seq):
            return TaskEnqueued(ts, "f", "op", 0, "main", 1, seq, seq)

        def fired(ts, seq, duration, processor):
            return TaskFired(
                ts, "f", "op", 0, "main", 1, seq, seq, duration, processor
            )

        # Two operators born ready run on workers 1 and 2; the commit of
        # the first enqueues a third.
        return critical_path(
            [
                enq(0.0, 1), enq(0.0, 2),
                enq(1.1, 3), fired(0.1, 1, 1.0, 1),
                fired(0.1, 2, 1.5, 2),
                fired(1.6, 3, 0.4, 1),
            ],
            wall_seconds=2.0,
        )

    def test_born_ready_firings_are_roots(self):
        report = self._report()
        assert [r.seq for r in report.path] == [1, 3]
        assert report.path[0].parent_seq is None
        assert report.slack[2] == pytest.approx(0.4)

    def test_master_waited_for_all_of_it(self):
        report = self._report()
        assert report.attribution["master_wait"] == pytest.approx(2.0)
        assert report.reconciliation_error <= RECONCILIATION_TOLERANCE


class TestEmptyAndDegenerate:
    def test_no_events_yields_empty_report(self):
        report = critical_path([], wall_seconds=0.0)
        assert report.n_firings == 0
        assert report.path == []
        assert "0 firings" in report.describe()

    def test_critical_path_requires_recording(self):
        ctx = RunContext(flight_recorder=False)
        with pytest.raises(ValueError, match="record_events"):
            ctx.critical_path()


class TestComparison:
    @pytest.fixture(scope="class")
    def two_reports(self):
        compiled = compile_source(FIB_SRC)
        _, a = _profiled_run(SequentialExecutor(), compiled, (10,))
        _, b = _profiled_run(SequentialExecutor(), compiled, (10,))
        return a, b

    def test_compare_critical_paths_renders(self, two_reports):
        a, b = two_reports
        text = compare_critical_paths(a, b)
        assert "wall:" in text
        assert "critical path" in text

    def test_compare_runs_carries_the_diff(self, two_reports):
        # tools.compare_runs threads critpath reports through to the
        # rendered delta table.
        from repro.machine import SimulatedExecutor, uniform

        a, b = two_reports
        compiled = compile_source(FIB_SRC)
        base = SimulatedExecutor(uniform(2)).run(compiled.graph, args=(8,))
        cand = SimulatedExecutor(uniform(4)).run(compiled.graph, args=(8,))
        out = compare(
            base, cand, baseline_critpath=a, candidate_critpath=b
        )
        assert out.critical_path_diff
        assert out.critical_path_diff in out.describe()
