"""Plain-Python references and output checks for the six workloads.

Every reference is built only from the operator callables of the
registry the Delirium program runs against (``registry.get(name).fn``),
so numerator and denominator of a ``*_x`` ratio share every kernel and
differ by the runtime alone: no graphs, no activations, no blocks, no
ready queue — just the program's control flow written out by hand.

The checks at the bottom turn a run's result into a comparable value;
any mismatch with the reference's value counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Callable

from . import add_src_to_path

add_src_to_path()

from repro.apps.loganalytics import empty_stats, stats_row  # noqa: E402
from repro.apps.queens import SOLUTION_COUNTS  # noqa: E402
from repro.runtime import NULL  # noqa: E402


def ops(registry: Any, *names: str) -> list[Callable[..., Any]]:
    """The bare Python callables behind registered operators."""
    return [registry.get(name).fn for name in names]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def retina(registry: Any, cfg: Any) -> Any:
    """Section 5.2 ``RETINA_V2`` as two nested Python loops."""
    (
        set_up, target_split, target_bite, pre_update, convol_split,
        convol_bite, update_split, update_bite, done_up,
    ) = ops(
        registry,
        "set_up", "target_split", "target_bite", "pre_update",
        "convol_split", "convol_bite", "update_split", "update_bite",
        "done_up",
    )
    scene = set_up()
    for _ in range(cfg.num_iter):
        chunks = [target_bite(c) for c in target_split(scene)]
        data = pre_update(*chunks)
        for slab in range(cfg.start_slab, cfg.final_slab):
            bands = [convol_bite(b, slab) for b in convol_split(data)]
            parts = [update_bite(u, slab) for u in update_split(*bands)]
            data = done_up(slab, *parts)
        scene = data
    return scene


def queens(registry: Any, n: int) -> list[tuple[int, ...]]:
    """The section 3 recursion; copies the board where the runtime's
    copy-on-write would."""
    empty_board, add_queen, is_valid, is_equal, incr, merge, show = ops(
        registry,
        "empty_board", "add_queen", "is_valid", "is_equal", "incr",
        "merge", "show_solutions",
    )
    locations = range(1, n + 1)

    def do_it(board: list[int], queen: int) -> Any:
        return merge(*[attempt(board, queen, loc) for loc in locations])

    def attempt(board: list[int], queen: int, location: int) -> Any:
        new_board = add_queen(list(board), queen, location)
        if not is_valid(new_board):
            return NULL
        if is_equal(queen, n):
            return new_board
        return do_it(new_board, incr(queen))

    return show(do_it(empty_board(), 1))


def montecarlo(registry: Any, n_batches: int) -> float:
    """``par_reduce`` as a balanced recursion over the batch index range
    (the same association tree, so the float result is bit-identical)."""
    pi_batch, combine, mc_pi = ops(
        registry, "pi_batch", "mc_combine", "mc_pi"
    )

    def reduce(lo: int, hi: int) -> Any:
        if hi - lo == 1:
            return pi_batch(lo)
        mid = (lo + hi) // 2
        return combine(reduce(lo, mid), reduce(mid, hi))

    return mc_pi(reduce(0, n_batches))


def fanout(registry: Any, seed: int, n_blocks: int, fan: int) -> float:
    """Produce each block once, read it ``fan`` times, left-fold the sum
    in program order."""
    produce, read, add = ops(registry, "fo_produce", "fo_read", "add")
    total = None
    for b in range(n_blocks):
        block = produce(seed, b)
        for k in range(1, fan + 1):
            value = read(block, k)
            total = value if total is None else add(total, value)
    return total


def logstream(registry: Any, batches: list[Any], path: str) -> dict:
    """The plain fold over the batches, writing the same JSONL rows a
    ``JsonlSink`` would (canonical JSON, one flush + fsync at the end)."""
    shard4, shard_stats, combine4, merge_stats = ops(
        registry, "shard4", "shard_stats", "combine4", "merge_stats"
    )
    agg = empty_stats()
    with open(path, "wb") as fh:
        for batch in batches:
            s1, s2, s3, s4 = shard4(batch)
            partial = combine4(
                shard_stats(s1), shard_stats(s2),
                shard_stats(s3), shard_stats(s4),
            )
            agg = merge_stats(agg, partial)
            fh.write(encode_row(stats_row(agg)))
        fh.flush()
        os.fsync(fh.fileno())
    return agg


_HEADER = re.compile(r"^(\w+)\(([^)]*)\)$")
_IF = re.compile(r"^if (.*) then (.*) else (.*)$")


def pythia(source: str, registry: Any) -> Callable[..., Any]:
    """Transliterate a let-chain program to Python and return ``main``.

    Handles exactly the shape ``generate_workload`` and the bench's
    generated ``main`` emit: ``name(params)`` headers in column 0, one
    optional ``let`` block of ``name = expr`` lines, an ``in expr`` (or a
    bare expression) result, and ``if c then a else b`` right-hand
    sides.  Operator names resolve to the registry's own callables.
    """
    out: list[str] = []
    for line in source.splitlines():
        text = line.strip()
        if not text:
            continue
        header = _HEADER.match(line)
        if header:
            out.append(f"def {header.group(1)}({header.group(2)}):")
            continue
        result = not text.startswith("let ") and "=" not in text
        text = text.removeprefix("let ").removeprefix("in ").strip()
        name, _, expr = ("", "", text) if result else text.partition(" = ")
        cond = _IF.match(expr)
        if cond:
            expr = f"({cond.group(2)}) if {cond.group(1)} else ({cond.group(3)})"
        out.append(f"    return {expr}" if result else f"    {name} = {expr}")
    scope = {name: registry.get(name).fn for name in registry.names()}
    exec(compile("\n".join(out), "<pythia-reference>", "exec"), scope)
    return scope["main"]


# ---------------------------------------------------------------------------
# Output checks: run result -> comparable value
# ---------------------------------------------------------------------------


def retina_output(state: Any) -> tuple:
    return state.signature()


def queens_output(solutions: Any, n: int) -> tuple:
    """The solutions themselves plus the OEIS count for the board size."""
    found = tuple(solutions)
    return found, len(found) == SOLUTION_COUNTS[n]


def encode_row(row: Any) -> bytes:
    """One sink row in the canonical JSONL form ``JsonlSink`` writes."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rows_digest(rows: list[Any]) -> str:
    """The digest of the file these rows would make (memory sinks)."""
    return hashlib.sha256(b"".join(map(encode_row, rows))).hexdigest()
