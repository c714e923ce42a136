"""Crash-consistent checkpoints of a streaming run's master state.

PR 5 made the runtime survive any *worker* death; the master process
remained a single point of total loss.  This module is the durable half
of fixing that: a compact, atomically written snapshot of everything the
master needs to resume a streaming run (:mod:`repro.runtime.stream`)
after ``kill -9`` — and nothing it does not.

Single-assignment (PAPER.md §8) is what makes the snapshot cheap and
honest.  A Delirium value, once produced, is final; a stream item, once
committed to the sink, is final.  So the master's recovery state is just
the *frontier*:

========================  ==============================================
field                     why it suffices
========================  ==============================================
completed-item frontier   items before it are committed (final, never
                          re-fired); items after it have produced **no**
                          observable effect — their partial firings died
                          with the master's heap
live blocks (carry)       the only values crossing an item boundary; a
                          pickle of the carried value is bit-exact
source offset             pull-based sources are deterministic functions
                          of their offset; re-seek and continue
sink flush position       the byte offset + rolling digest of the
                          durable prefix; resume truncates the sink back
                          to exactly this point, making the append-only
                          output idempotent
fault cursors             injection decisions are pure functions of
                          ``(seed, salt, kind, op, count)``; restoring
                          the counters restores the decision sequence
EngineStats               accumulated counters, so resumed telemetry
                          reports the whole logical run
========================  ==============================================

No Chandy–Lamport coordination, no message-channel draining: the
checkpoint is taken at an item boundary, where by construction nothing
is in flight.

File format (single file)::

    magic (8 bytes) | header length (4 bytes LE) | header JSON | payload

The header is the *manifest*: format version, fingerprints of the
program graph and operator registry, the flag set (compile-cache pass
tuple and stream options), frontier counters, and the SHA-256 of the
pickled payload.  :func:`read_checkpoint` refuses a payload whose hash
does not match; :func:`verify_compatible` refuses resume against a
different program, registry, or flag set with a structured
:class:`CheckpointMismatchError` naming the offending key.  Writes are
atomic and durable: temp file in the target directory, ``fsync`` of the
file, ``os.replace``, ``fsync`` of the directory — a checkpoint either
exists completely or not at all.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import DeliriumError

CHECKPOINT_MAGIC = b"DLRMCKPT"
CHECKPOINT_VERSION = 1

_LEN = struct.Struct("<I")


class CheckpointError(DeliriumError):
    """A checkpoint file is missing, truncated, or corrupt."""


class CheckpointMismatchError(CheckpointError):
    """Resume was attempted against an incompatible checkpoint.

    ``key`` names the mismatched manifest entry (``"program"``,
    ``"registry"``, ``"flags"``, or ``"version"``); ``expected`` is the
    checkpoint's value, ``found`` the resuming run's.  Structured so
    callers (and tests) can assert on *which* compatibility gate fired
    rather than string-matching a message.
    """

    def __init__(self, key: str, expected: Any, found: Any) -> None:
        self.key = key
        self.expected = expected
        self.found = found
        super().__init__(
            f"checkpoint mismatch on {key!r}: checkpoint has "
            f"{expected!r}, this run has {found!r} — refusing to resume "
            f"(resume requires the identical program, registry, and "
            f"flag set)"
        )


def program_fingerprint(program: Any) -> str:
    """Content hash of a compiled program graph.

    Hashes the canonical serialized form (:mod:`repro.graph.serialize`),
    which includes fusion recipes — so ``--no-fuse`` against a fused
    checkpoint already differs here, before the flag set is even
    compared.  A checkpoint taken by a build whose ``.dlc`` still carried
    generated fused source or per-edge last-use lists differs here too,
    and is refused.
    """
    from ..graph import serialize

    text = serialize.dumps(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]


def registry_fingerprint(registry: Any) -> str:
    """Content hash of an operator registry's *interface*.

    Function bodies cannot be hashed portably; what resume correctness
    needs is that the same operator names exist with the same shapes
    (arity, destructive-modify sets, purity).
    """
    entries = []
    for name in sorted(registry.names()):
        spec = registry.get(name)
        entries.append(
            [
                name,
                spec.arity,
                sorted(spec.modifies),
                bool(spec.pure),
            ]
        )
    blob = json.dumps(entries, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]


def canonical_flags(flags: dict[str, Any]) -> str:
    """The flag set as a canonical JSON string (sorted keys)."""
    return json.dumps(flags, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Checkpoint:
    """One loaded snapshot: the JSON manifest plus the pickled payload."""

    path: str
    manifest: dict[str, Any]
    payload: dict[str, Any]

    @property
    def seq(self) -> int:
        return int(self.manifest["seq"])

    @property
    def items(self) -> int:
        return int(self.manifest["items"])

    @property
    def fires(self) -> int:
        return int(self.manifest["fires"])

    @property
    def source_offset(self) -> int:
        return int(self.manifest["source_offset"])

    @property
    def sink_state(self) -> dict[str, Any]:
        return dict(self.manifest["sink"])


def write_checkpoint(
    path: str, manifest: dict[str, Any], payload: dict[str, Any]
) -> int:
    """Atomically write one snapshot; returns the file size in bytes.

    The caller's ``manifest`` is augmented with the format version and
    the payload hash/size; it must already carry the identity keys
    (``program``, ``registry``, ``flags``) and the frontier counters.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    head = dict(manifest)
    head["format_version"] = CHECKPOINT_VERSION
    head["payload_sha256"] = hashlib.sha256(blob).hexdigest()
    head["payload_nbytes"] = len(blob)
    header = json.dumps(head, sort_keys=True).encode("utf-8")

    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(_LEN.pack(len(header)))
    buf.write(header)
    buf.write(blob)
    data = buf.getvalue()

    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Durability of the *name*: without the directory fsync a crash can
    # survive the rename in the page cache but lose it on disk.
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return len(data)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)
    return len(data)


def read_checkpoint(path: str) -> Checkpoint:
    """Load and verify one snapshot written by :func:`write_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}")
    if len(data) < len(CHECKPOINT_MAGIC) + _LEN.size:
        raise CheckpointError(f"checkpoint {path!r} is truncated")
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"checkpoint {path!r} has bad magic "
            f"{data[: len(CHECKPOINT_MAGIC)]!r}"
        )
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = _LEN.unpack_from(data, off)
    off += _LEN.size
    if len(data) < off + hlen:
        raise CheckpointError(f"checkpoint {path!r} header is truncated")
    try:
        manifest = json.loads(data[off : off + hlen].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} header is not valid JSON: {exc}"
        )
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            "version", version, CHECKPOINT_VERSION
        )
    blob = data[off + hlen :]
    if len(blob) != manifest.get("payload_nbytes"):
        raise CheckpointError(
            f"checkpoint {path!r} payload is truncated: "
            f"{len(blob)} bytes, manifest says "
            f"{manifest.get('payload_nbytes')}"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint {path!r} payload hash mismatch: file has "
            f"{digest}, manifest says {manifest.get('payload_sha256')}"
        )
    payload = pickle.loads(blob)
    return Checkpoint(path=path, manifest=manifest, payload=payload)


def verify_compatible(
    ckpt: Checkpoint,
    *,
    program_fp: str,
    registry_fp: str,
    flags: dict[str, Any],
) -> None:
    """Refuse resume unless program, registry, and flag set all match.

    Raises :class:`CheckpointMismatchError` naming the first mismatched
    key.  Committed sink output is never touched on refusal — a wrong
    resume must not corrupt a right run's output.
    """
    if ckpt.manifest.get("program") != program_fp:
        raise CheckpointMismatchError(
            "program", ckpt.manifest.get("program"), program_fp
        )
    if ckpt.manifest.get("registry") != registry_fp:
        raise CheckpointMismatchError(
            "registry", ckpt.manifest.get("registry"), registry_fp
        )
    want = canonical_flags(flags)
    have = canonical_flags(ckpt.manifest.get("flags", {}))
    if have != want:
        raise CheckpointMismatchError(
            "flags", ckpt.manifest.get("flags", {}), flags
        )


@dataclass
class CheckpointCadence:
    """When is the next snapshot due?  Operator-call count and/or
    wall-clock.

    ``every_fires`` counts operator calls (``ops_executed``) since the
    last snapshot (the natural unit for the <5% overhead budget: cost
    amortizes over work actually done, and the count is the same whether
    a run clipped its calls or took the graph path); ``every_seconds``
    bounds data loss on a wall clock
    (the :class:`~repro.runtime.supervise.FaultPolicy` ``checkpoint=``
    knob).  Either, both, or neither may be set; with neither, only
    final checkpoints happen.
    """

    every_fires: int | None = None
    every_seconds: float | None = None
    _last_fires: int = 0
    _last_time: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.every_fires is not None and self.every_fires < 1:
            raise ValueError("every_fires must be >= 1")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("every_seconds must be > 0")

    @property
    def enabled(self) -> bool:
        return self.every_fires is not None or self.every_seconds is not None

    def due(self, fires: int) -> bool:
        """Is a snapshot due, given total fires committed so far?"""
        if (
            self.every_fires is not None
            and fires - self._last_fires >= self.every_fires
        ):
            return True
        return (
            self.every_seconds is not None
            and time.monotonic() - self._last_time >= self.every_seconds
        )

    def mark(self, fires: int) -> None:
        """Record that a snapshot was just taken at ``fires``."""
        self._last_fires = fires
        self._last_time = time.monotonic()
