"""The benchmark's command line and the parent side of every run.

The parent never imports the program.  It pins the BLAS thread pools,
launches fresh subprocesses (``bench.child``) — several set-up samples,
then the measuring one — and afterwards holds the run to account: no
``/dev/shm`` segment and no worker process may outlive its workload.

Two ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  and prints, as the last line of stdout, one JSON object with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
  end-to-end metric untraced, every per-layer metric traced).
* without ``--workload`` it runs all six, prints every metric by name
  with its unit, and with ``--out FILE`` writes the result ``compare``
  reads.  ``--repeat N --seed-step 1`` gives each of the N runs another
  seed and prints the run-to-run spread of every end-to-end metric the
  way the driver takes it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from typing import Any

from . import ROOT, WORK
from .metrics import declared, manifest

#: Fresh set-up subprocesses per untraced run; ``setup_s`` is the median
#: of their times, each paired with a baseline (below).
SETUP_SAMPLES = 5

#: ``setup_s`` is paired like every other gated metric: each set-up
#: sample is divided by a bench-owned baseline of the same kind of work
#: — a fresh interpreter that imports NumPy — timed right before and
#: after it.  Raw seconds follow the host instead (the same set-up took
#: 0.74, 0.98 and 1.05 s over three back-to-back A/A sets, beyond any
#: bound the contract allows).  The contract wants the metric in
#: seconds, so the ratio is priced at a fixed, host-independent
#: convention of 0.1 s per interpreter start: ``setup_s`` 0.6 means "six
#: interpreter starts".  Raw seconds and baselines are kept per sample.
SECONDS_PER_START = 0.1

#: One child may take this long before it is killed (the first run in a
#: cold checkout pays the page cache for NumPy/SciPy).
CHILD_TIMEOUT = 170.0

DEFAULT_SEED = 1990


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Everything the program caches goes inside the checkout.
    env["DELIRIUM_CACHE_DIR"] = os.path.join(WORK, "cache")
    return env


def run_child(
    mode: str, name: str, seed: int, seconds: float, smoke: bool, tag: str
) -> dict[str, Any]:
    """Launch one ``bench.child`` and return the JSON it ends with."""
    command = [
        sys.executable, "-m", "bench", "--child", mode, "--tag", tag,
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--t0", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} child exceeded {CHILD_TIMEOUT}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{name}: {mode} child exited {done.returncode}")
    return json.loads(lines[-1])


def baseline_start() -> float:
    """Seconds to start an interpreter and import NumPy, right now."""
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=child_env(), check=True
    )
    return time.monotonic() - t0


def setup_samples(
    name: str, seed: int, smoke: bool, tag: str
) -> list[dict[str, float]]:
    """Set-up times of fresh subprocesses, each between two baselines."""
    samples = []
    after = baseline_start()
    for _ in range(2 if smoke else SETUP_SAMPLES):
        before = after
        raw = run_child("setup", name, seed, 0, smoke, tag)["setup_s"]
        after = baseline_start()
        start = (before + after) / 2
        samples.append(
            {
                "raw_s": raw,
                "start_s": start,
                "setup_s": raw / start * SECONDS_PER_START,
            }
        )
    return samples


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def survivors(tag: str) -> list[int]:
    """Processes still carrying this run's tag on their command line
    (forked workers inherit their parent's)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if tag.encode() in fh.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def run_workload(
    spec: dict[str, Any], name: str, seed: int, seconds: float,
    trace: int, smoke: bool,
) -> dict[str, Any]:
    """One complete run of one workload; the dict ``main`` prints from."""
    tag = f"bench-run-{uuid.uuid4().hex}"
    before = shm_segments()
    try:
        if trace:
            setups = []
            report = run_child("trace", name, seed, seconds, smoke, tag)
        else:
            setups = setup_samples(name, seed, smoke, tag)
            report = run_child("measure", name, seed, seconds, smoke, tag)
            report["metrics"]["setup_s"] = statistics.median(
                sample["setup_s"] for sample in setups
            )
    finally:
        leftover = survivors(tag)
        for pid in leftover:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    failed = list(report["failed"])
    attempted = report["attempted"] + 2
    leaked = sorted(shm_segments() - before)
    if leaked:
        failed.append(f"leaked /dev/shm segments: {leaked}")
    if leftover:
        failed.append(f"surviving processes: {leftover}")

    wanted = declared(spec, trace)
    got = report["metrics"]
    if set(got) != set(wanted):
        raise BenchError(
            f"{name}: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(got))}, "
            f"undeclared {sorted(set(got) - set(wanted))}"
        )
    return {
        "workload": name,
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": got[key], "unit": wanted[key]["unit"]}
            for key in wanted
        },
        "detail": report.get("detail", {}),
        "raw_seconds": report.get("raw_seconds", {}),
        "setup_samples": setups,
        "size": report["size"],
        "host": report["host"],
        "trace_file": report.get("trace_file"),
    }


def print_metrics(result: dict[str, Any]) -> None:
    state = "ok" if result["correct"] else "FAILED " + "; ".join(result["failed"])
    print(f"== {result['workload']}  ({result['attempted']} checked, {state})")
    for key, metric in result["metrics"].items():
        line = f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}"
        detail = result["detail"].get(key)
        if detail:
            line += (
                f"   n={detail['n']} q1={detail['q1']:.4g} "
                f"q3={detail['q3']:.4g} min={detail['min']:.4g}"
            )
        print(line)


def check_load(strict: bool) -> None:
    load1, cpus = os.getloadavg()[0], os.cpu_count() or 1
    if load1 > 0.5 * cpus:
        message = f"bench: 1-min load {load1:.2f} > 0.5 x {cpus} CPUs"
        if strict:
            raise BenchError(message + " (--strict)")
        print(message + "; timings will be noisy", file=sys.stderr)


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def spread(values: list[float]) -> float:
    """The driver's acceptance statistic: the distance between the first
    and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_spreads(
    spec: dict[str, Any], name: str, runs: list[dict[str, Any]]
) -> None:
    """Median and spread of every end-to-end metric over ``runs``; a
    spread should stay below a third of the metric's bound."""
    for entry in spec["end_to_end"]:
        key, bound = entry["name"], entry["bound"]
        values = [run["metrics"][key]["value"] for run in runs]
        share = spread(values)
        flag = "" if share < bound / 3 else "  > bound/3"
        print(
            f"{name:<11} {key:<12} median {statistics.median(values):>10.5g}"
            f"  spread {share:.4f}  bound {bound}{flag}",
            flush=True,
        )


def run_suite(spec: dict[str, Any], ns: argparse.Namespace) -> int:
    """Every workload (or the one given), ``--repeat`` runs each, run
    ``i`` with seed ``seed + i * seed_step``; every metric printed."""
    names = [ns.workload] if ns.workload else [
        w["name"] for w in spec["workloads"]
    ]
    results: dict[str, Any] = {}
    ok = True
    for name in names:
        runs = []
        for i in range(ns.repeat):
            result = run_workload(
                spec, name, ns.seed + i * ns.seed_step, ns.seconds,
                ns.trace, ns.smoke,
            )
            print_metrics(result)
            ok = ok and result["correct"]
            runs.append(result)
        results[name] = runs
        if ns.repeat >= 2 and not ns.trace:
            print_spreads(spec, name, runs)
    if ns.out:
        document = {
            "seed": ns.seed,
            "seed_step": ns.seed_step,
            "sizes": "smoke" if ns.smoke else "full",
            "seconds": ns.seconds,
            "trace": ns.trace,
            "commit": commit(),
            "host": results[names[0]][0]["host"],
            "bounds": {
                m["name"]: m["bound"] for m in spec["end_to_end"]
            },
            "better": {
                m["name"]: m["better"]
                for m in spec["end_to_end"] + spec["per_layer"]
            },
            "workloads": results,
        }
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
        print(f"wrote {ns.out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (self-test)")
    parser.add_argument("--strict", action="store_true",
                        help="refuse to run on a loaded host")
    parser.add_argument("--repeat", type=int, default=None,
                        help="suite mode: runs per workload")
    parser.add_argument("--seed-step", type=int, default=0,
                        help="suite mode: run i uses seed + i * step")
    parser.add_argument("--out", help="suite mode: write the result JSON")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--tag", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    if ns.child:
        from . import child

        return child.main(
            ns.child, ns.workload, ns.seed, ns.seconds, ns.smoke, ns.t0
        )

    spec = manifest()
    if ns.seconds is None:
        ns.seconds = 1.0 if ns.smoke else float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    if ns.workload is not None and ns.workload not in known:
        parser.error(f"unknown workload {ns.workload!r}; one of {known}")
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no program to measure under {ROOT}/src")
        os.makedirs(WORK, exist_ok=True)
        check_load(ns.strict)
        if ns.workload is None or ns.repeat is not None or ns.out:
            ns.repeat = ns.repeat or 1
            return run_suite(spec, ns)
        result = run_workload(
            spec, ns.workload, ns.seed, ns.seconds, ns.trace, ns.smoke
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_metrics(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": len(result["failed"]),
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1
