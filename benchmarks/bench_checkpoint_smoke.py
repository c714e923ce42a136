"""Checkpoint/resume smoke checks, small enough for CI (PR 10).

Four gates on the robustness tentpole:

* **The kill -9 drill** — the log-analytics CLI runs as a subprocess
  with a seeded ``masterkill`` clause, dies by real ``SIGKILL`` mid
  stream, resumes from its checkpoint in a fresh process, and must
  produce a sink file *bit-identical* to an uninterrupted reference run
  (no missing rows, no duplicated rows, no divergent bytes).
* **Flat memory** — a 10⁵-firing streaming run (the ISSUE's order of
  magnitude) must hold RSS growth near zero: pull-based sources admit
  one item at a time, so nothing accumulates with stream length.
* **Checkpoint overhead < 5%** — periodic snapshots on a firing-count
  cadence must cost under 5% of the uncheckpointed wall clock, and the
  sink digest must be unchanged by checkpointing.  With
  ``--bench-json FILE`` the measured pair is recorded under
  ``streaming_checkpoint``.
* **Zero arena leaks** — after the drill, no shared-memory segment and
  no live arena survives (the atexit/SIGTERM reaper of
  :mod:`repro.runtime.workers` is the last line of defense; the drill
  proves the normal paths never need it).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import compile_source
from repro.runtime.stream import (
    JsonlSink,
    MemorySink,
    StreamRunner,
    count_source,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: 16 engine firings per item; 6 500 items ≈ 10⁵ firings.
DEEP_SRC = (
    "main(acc, x)\n  add(acc, "
    + "add(mul(x,x), " * 7
    + "incr(x)"
    + ")" * 8
)
FLAT_RSS_ITEMS = 6_500
RSS_BUDGET_KIB = 24 * 1024  # allocator noise allowance, ~24 MiB

#: Overhead workload: 600 log batches (4 800 fires, ~0.6 s) with a
#: snapshot every 800 fires — each snapshot is an fsync'd atomic
#: rename, so the cadence must be amortized over real work.
OVERHEAD_ITEMS = 600
CHECKPOINT_EVERY = 800
OVERHEAD_BUDGET = 0.05
REPEATS = 3

DRILL_ITEMS = 60
DRILL_KILL_AT = 35


def _cli(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run(
        [sys.executable, "-m", "repro.apps.loganalytics", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


def test_masterkill_resume_bit_identical(tmp_path):
    """kill -9 the master mid-stream; resume must replay nothing and
    reproduce the uninterrupted sink byte for byte."""
    cwd = str(tmp_path)
    shm_before = _shm_entries()

    ref = _cli(
        ["--items", str(DRILL_ITEMS), "--sink", "ref.jsonl", "--quiet"],
        cwd,
    )
    assert ref.returncode == 0, ref.stderr

    crash = _cli(
        [
            "--items", str(DRILL_ITEMS),
            "--sink", "out.jsonl",
            "--checkpoint", "run.ckpt",
            "--checkpoint-every", "64",
            "--inject-faults", f"masterkill:nth={DRILL_KILL_AT}",
            "--quiet",
        ],
        cwd,
    )
    assert crash.returncode == -signal.SIGKILL or crash.returncode == 137, (
        f"masterkill must SIGKILL the master, got rc={crash.returncode}: "
        f"{crash.stderr}"
    )
    assert (tmp_path / "run.ckpt").exists(), "no checkpoint survived"
    partial = (tmp_path / "out.jsonl").read_bytes()
    reference = (tmp_path / "ref.jsonl").read_bytes()
    assert partial != reference, "the kill landed too late to test anything"

    resumed = _cli(
        [
            "--items", str(DRILL_ITEMS),
            "--sink", "out.jsonl",
            "--checkpoint", "run.ckpt",
            "--resume", "run.ckpt",
        ],
        cwd,
    )
    assert resumed.returncode == 0, resumed.stderr
    summary = json.loads(resumed.stdout)
    assert summary["resumed_from"] == "run.ckpt"
    assert summary["items"] == DRILL_ITEMS
    assert (tmp_path / "out.jsonl").read_bytes() == reference

    # Zero-leak gate: the drill (including the SIGKILLed master) must
    # leave /dev/shm as it found it, with nothing for atexit to reap.
    from repro.runtime.workers import cleanup_arenas

    assert cleanup_arenas() == 0, "live arenas left for the atexit reaper"
    assert _shm_entries() <= shm_before, "leaked shared-memory segments"


def test_flat_rss_over_1e5_firings(tmp_path):
    """RSS must stay flat over a ~10⁵-firing stream (the ISSUE gate)."""
    program = compile_source(DEEP_SRC)
    runner = StreamRunner(program, carry=True, initial=0)
    # Warm-up: plan cache, allocator arenas, interned machinery.
    runner.run(count_source(300), MemorySink())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    sink = JsonlSink(str(tmp_path / "out.jsonl"))
    result = runner.run(count_source(FLAT_RSS_ITEMS), sink)
    sink.close()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    assert result.fires >= 100_000
    growth_kib = after - before
    assert growth_kib < RSS_BUDGET_KIB, (
        f"RSS grew {growth_kib} KiB over {result.fires} firings — "
        f"streaming state is accumulating"
    )


def test_checkpoint_overhead_under_budget(tmp_path, bench_json):
    """Periodic snapshots cost < 5% wall clock and change no output."""
    from repro.apps.loganalytics.stream import batch_source, make_stream_runner

    def run(checkpointed: bool, tag: str):
        best = None
        digest = None
        checkpoints = 0
        fires = 0
        for i in range(REPEATS):
            kwargs = {}
            if checkpointed:
                kwargs = {
                    "checkpoint_path": str(
                        tmp_path / f"{tag}{i}.ckpt"
                    ),
                    "checkpoint_every": CHECKPOINT_EVERY,
                }
            runner = make_stream_runner(**kwargs)
            sink = MemorySink()
            t0 = time.perf_counter()
            result = runner.run(
                batch_source(n_batches=OVERHEAD_ITEMS), sink
            )
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
            digest = result.sink_digest
            checkpoints = result.checkpoints_written
            fires = result.fires
        return best, digest, checkpoints, fires

    plain_seconds, plain_digest, _, fires = run(False, "none")
    ckpt_seconds, ckpt_digest, checkpoints, _ = run(True, "ck")

    assert ckpt_digest == plain_digest, (
        "checkpointing changed the sink output"
    )
    assert checkpoints >= 3, "cadence produced too few snapshots to measure"

    overhead = max(ckpt_seconds - plain_seconds, 0.0) / plain_seconds
    bench_json(
        "streaming_checkpoint",
        {
            "workload": (
                f"loganalytics stream, {OVERHEAD_ITEMS} batches, "
                f"snapshot every {CHECKPOINT_EVERY} fires"
            ),
            "items": OVERHEAD_ITEMS,
            "fires": fires,
            "checkpoints_written": checkpoints,
            "plain_seconds": plain_seconds,
            "checkpointed_seconds": ckpt_seconds,
            "overhead_fraction": overhead,
            "budget": OVERHEAD_BUDGET,
            "cpu_count": os.cpu_count(),
        }
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"checkpoint overhead {overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} ({plain_seconds:.4f}s -> "
        f"{ckpt_seconds:.4f}s, {checkpoints} snapshots)"
    )
