"""Self-test of the benchmark (not collected by tier-1; run it by path):

    python3 -m pytest bench/selftest.py -q

Smoke sizes only.  Holds the harness to its own contract: a smoke run
finishes in under 30 s and ends with the one JSON line the driver reads;
every name ``BENCHMARK.json`` declares is emitted exactly once and is
well-formed; counts flagged exact repeat across two runs; trace spans
nest and their self times sum to the traced wall; ``compare`` reaches
each verdict and refuses mismatched inputs; a configuration that raises
every round is reported as failed operations, not a crash; and a
directory without the program is refused.

Two tests run at the shipped sizes, because what they guard is a
property of those sizes: the workloads separate the layers, and fanout's
concurrent readers do not share state.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench import compare
from bench.metrics import EXACT, declared, manifest

SPEC = manifest()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(
    workload: str, trace: int, seed: int = 1990, full: bool = False
) -> tuple[dict, float]:
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    if not full:
        command.append("--smoke")
    t0 = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


cached_smoke = functools.lru_cache(maxsize=None)(smoke)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_contract(workload: str, trace: int) -> None:
    result, elapsed = cached_smoke(workload, trace)
    assert elapsed < 30.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = declared(SPEC, trace)
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == wanted[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["queens", "logstream", "montecarlo"])
def test_exact_counts_repeat(workload: str) -> None:
    first, _ = cached_smoke(workload, 1)
    second, _ = smoke(workload, 1)
    for name in sorted(EXACT):
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a == b, f"{name}: {a} != {b}"


@pytest.mark.parametrize("workload", ["retina", "logstream"])
def test_spans_nest_and_self_times_sum_to_wall(workload: str) -> None:
    result, _ = cached_smoke(workload, 1)
    path = os.path.join(ROOT, "bench", "_work", f"trace-{workload}.json")
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    spans = document["spans"]
    covered = [0.0] * len(spans)
    roots = 0.0
    for span in spans:
        assert set(span) == {"name", "start", "end", "parent", "run_id"}
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            assert span["name"] == "iteration"
            roots += span["end"] - span["start"]
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert parent["run_id"] == span["run_id"]
        covered[span["parent"]] += span["end"] - span["start"]
    own = sum(
        span["end"] - span["start"] - inside
        for span, inside in zip(spans, covered)
    )
    assert own == pytest.approx(roots, rel=1e-9)

    values = {k: m["value"] for k, m in result["metrics"].items()}
    rows = (
        "compile_s", "source_s", "body_s", "sink_s", "checkpoint_s",
        "master_s",
    )
    total = sum(values[f"ledger.{row}"] for row in rows)
    assert total == pytest.approx(values["ledger.wall_s"], rel=1e-9)
    assert values["trace.overhead_x"] > 0


def test_shipped_sizes_separate_the_layers() -> None:
    """Each workload leaves the layer it claims to leave idle, idle — at
    the sizes the driver runs, so a resize cannot silently break it."""
    traced = {}
    for workload in ("retina", "queens", "montecarlo", "fanout"):
        result, _ = smoke(workload, 1, full=True)
        assert result["correct"] is True
        traced[workload] = {k: m["value"] for k, m in result["metrics"].items()}
    assert traced["queens"]["supervise.dispatched_fires"] == 0
    assert traced["fanout"]["affinity.bytes_avoided"] > 0
    assert traced["retina"]["affinity.bytes_avoided"] == 0
    assert traced["montecarlo"]["affinity.bytes_avoided"] == 0
    assert traced["montecarlo"]["affinity.encode_bytes"] < 4096
    assert (
        traced["queens"]["engine.overhead_frac"]
        >= 5 * traced["retina"]["engine.overhead_frac"]
    )


def test_fanout_threaded_equals_the_reference_at_full_size() -> None:
    """``ThreadedExecutor`` runs ``fo_read`` bodies concurrently with the
    GIL dropped inside NumPy: any state they shared would corrupt sums."""
    from bench.workloads import WORKLOADS

    wl = WORKLOADS["fanout"](1990, smoke=False)
    expected = wl.reference()
    runner = wl.runner("threaded", wl.compile())
    try:
        for _ in range(20):
            assert runner()[0] == expected
    finally:
        runner.close()


class Raises:
    """A runner whose every call raises."""

    def __call__(self) -> None:
        raise RuntimeError("broken executor")

    def close(self) -> None:
        pass


def test_a_configuration_that_always_raises_is_failed_not_fatal() -> None:
    from bench import child
    from bench.workloads import SetUp

    up = SetUp("queens", 1990, smoke=True)
    assert not up.failed
    up.proc.close()
    up.proc = Raises()
    try:
        out = child.measure(up, 0.2)
    finally:
        gc.unfreeze()
    assert out["detail"]["proc1_x"]["n"] == 0
    assert out["metrics"]["proc1_x"] == child.NO_SAMPLE
    assert out["detail"]["seq_x"]["n"] >= child.MIN_ROUNDS
    assert out["metrics"]["seq_x"] > 0 and out["metrics"]["compile_x"] > 0
    assert len(up.failed) > child.MIN_ROUNDS
    assert all("broken executor" in what for what in up.failed)
    assert up.attempted > len(up.failed)
    json.dumps(out, allow_nan=False)


def test_the_traced_pass_survives_a_configuration_that_raises() -> None:
    from bench import WORK, child, layers

    os.makedirs(WORK, exist_ok=True)
    ctx = layers.Context("queens", 1990, smoke=True)
    ctx.proc.close()
    ctx.proc = Raises()
    out = child.trace(ctx, 0.5)
    assert set(out["metrics"]) == set(declared(SPEC, 1))
    assert len(ctx.failed) >= child.MIN_ROUNDS
    assert all("broken executor" in what for what in ctx.failed)
    assert out["metrics"]["executors.proc1_x"] == 0
    assert out["metrics"]["executors.seq_s"] > 0
    json.dumps(out, allow_nan=False)


def suite_document(seq_x: list[float], seed: int = 1) -> dict:
    runs = [
        {
            "metrics": {"seq_x": {"value": v, "unit": "ratio"}},
            "detail": {},
            "setup_samples": [{"setup_s": 1.0}],
            "size": {"n": 7},
        }
        for v in seq_x
    ]
    return {
        "seed": seed, "sizes": "full", "seconds": 10.0, "trace": 0,
        "commit": "test", "host": {"cpu_count": 2},
        "bounds": {"seq_x": 0.10}, "better": {"seq_x": "lower"},
        "workloads": {"queens": runs},
    }


def run_compare(tmp_path, a: dict, b: dict, capsys) -> tuple[int, str]:
    paths = []
    for label, document in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    code = compare.main(paths)
    return code, capsys.readouterr().out


def test_compare_verdicts(tmp_path, capsys) -> None:
    base = suite_document([50.0, 50.5, 51.0, 50.2])
    code, out = run_compare(
        tmp_path, base, suite_document([60.0, 60.5, 61.0, 60.2]), capsys
    )
    assert code == 1 and "worse" in out
    code, out = run_compare(
        tmp_path, base, suite_document([50.1, 50.6, 51.1, 50.0]), capsys
    )
    assert code == 0 and "within-bound" in out
    code, out = run_compare(
        tmp_path, base, suite_document([40.0, 40.5, 41.0, 40.2]), capsys
    )
    assert code == 0 and "better" in out
    noisy = suite_document([40.0, 50.0, 60.0, 70.0])
    code, out = run_compare(tmp_path, base, noisy, capsys)
    assert code == 0 and "unresolved" in out


def test_compare_refuses_different_seeds(tmp_path, capsys) -> None:
    a = suite_document([50.0, 50.5], seed=1)
    b = suite_document([50.0, 50.5], seed=2)
    code, _ = run_compare(tmp_path, a, b, capsys)
    assert code == 2


def test_compare_refuses_a_single_run(tmp_path, capsys) -> None:
    code, _ = run_compare(
        tmp_path, suite_document([50.0, 50.5]), suite_document([40.0]), capsys
    )
    assert code == 2


def test_directory_without_the_program_is_refused(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "queens", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
