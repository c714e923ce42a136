"""Driver: ``python -m repro.apps.loganalytics [options]``.

Streams synthetic log batches through the shard/aggregate program and
prints the final aggregate row.  The flags mirror ``delirium run``'s
streaming surface so the checkpoint benchmark can drive this module as
a subprocess, ``kill -9`` it mid-stream (via ``--inject-faults
masterkill:nth=K``), and resume it bit-identically::

    python -m repro.apps.loganalytics --items 200 \\
        --sink out.jsonl --checkpoint run.ckpt --checkpoint-every 500 \\
        --inject-faults masterkill:nth=120
    python -m repro.apps.loganalytics --items 200 \\
        --sink out.jsonl --checkpoint run.ckpt --resume run.ckpt
"""

from __future__ import annotations

import argparse
import json

from ...faults import parse_fault_spec
from ...runtime.stream import JsonlSink, MemorySink
from ...runtime.workers import install_arena_signal_cleanup
from . import model
from .stream import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_SEED,
    batch_source,
    make_stream_runner,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.loganalytics",
        description="Stream synthetic log batches through Delirium.",
    )
    parser.add_argument("--items", type=int, default=50, metavar="N")
    parser.add_argument(
        "--executor",
        choices=("sequential", "threaded", "process"),
        default="sequential",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE
    )
    parser.add_argument("--sink", metavar="PATH", default=None)
    parser.add_argument("--checkpoint", metavar="PATH", default=None)
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="FIRES", default=None
    )
    parser.add_argument("--resume", metavar="CKPT", default=None)
    parser.add_argument("--inject-faults", metavar="SPEC", default=None)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the final row"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    install_arena_signal_cleanup()
    fault_spec = (
        parse_fault_spec(args.inject_faults)
        if args.inject_faults
        else None
    )
    runner = make_stream_runner(
        executor=args.executor,
        n_workers=args.workers,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        fault_spec=fault_spec,
    )
    if args.sink:
        sink = JsonlSink(args.sink, resume=args.resume is not None)
    else:
        sink = MemorySink()
    try:
        result = runner.run(
            batch_source(args.seed, args.batch_size, args.items),
            sink,
            resume=args.resume,
        )
    finally:
        runner.close()
        sink.close()
    if not args.quiet:
        print(
            json.dumps(
                {
                    "items": result.items,
                    "fires": result.fires,
                    "resumed_from": result.resumed_from,
                    "checkpoints": result.checkpoints_written,
                    "sink_digest": result.sink_digest,
                    "final": model.stats_row(result.value),
                },
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
