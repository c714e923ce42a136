"""Checkpoint/resume smoke checks, small enough for CI (PR 10).

Four checks on checkpoint/resume:

* **The kill -9 drill** — the log-analytics CLI runs as a subprocess
  with a seeded ``masterkill`` clause, dies by real ``SIGKILL`` mid
  stream, resumes from its checkpoint in a fresh process, and must
  produce a sink file *bit-identical* to an uninterrupted reference run
  (no missing rows, no duplicated rows, no divergent bytes).
* **Flat memory** — a 10⁵-firing streaming run (the ISSUE's order of
  magnitude) must hold RSS growth near zero: pull-based sources admit
  one item at a time, so nothing accumulates with stream length.
* **Checkpoints change no output** — periodic snapshots on a
  firing-count cadence leave the sink digest unchanged.  What they cost
  in wall clock is the repository benchmark's ``checkpoint.on_x``
  (``python3 -m bench --workload logstream``), not a gate here.
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

#: Cadence workload: 600 log batches (4 800 fires) with a snapshot every
#: 800 fires.
CADENCE_ITEMS = 600
CHECKPOINT_EVERY = 800

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


def test_checkpoints_change_no_output(tmp_path):
    """Periodic snapshots leave the sink output as it was."""
    from repro.apps.loganalytics.stream import batch_source, make_stream_runner

    def run(**kwargs):
        result = make_stream_runner(**kwargs).run(
            batch_source(n_batches=CADENCE_ITEMS), MemorySink()
        )
        return result.sink_digest, result.checkpoints_written

    plain_digest, _ = run()
    ckpt_digest, checkpoints = run(
        checkpoint_path=str(tmp_path / "ck.ckpt"),
        checkpoint_every=CHECKPOINT_EVERY,
    )
    assert ckpt_digest == plain_digest, (
        "checkpointing changed the sink output"
    )
    assert checkpoints >= 3, "cadence produced too few snapshots"
