"""Worker-process infrastructure for :class:`ProcessExecutor`.

The paper's runtime ran operator bodies on real Y-MP processors while the
coordination semantics stayed centralized; this module is the Python
analogue.  Three pieces:

* **Payload transport** (:func:`encode_value` / :func:`decode_value`) —
  pickle protocol 5 with out-of-band buffers: any contiguous NumPy buffer
  at or above ``shm_threshold`` bytes is lifted out of the pickle stream
  into one POSIX shared-memory segment (:class:`ShmSegment`), so
  convolution-sized blocks never cross the process pipe.  Everything
  else — small arrays, scalars, application objects — rides the pickle
  bytes unchanged.  The *consumer* of a segment copies it into private
  memory, so a worker-side destructive write can never be observed by
  the master (copy-on-write isolation holds across the process boundary
  by construction, and the tests prove it).  Arguments travel in the
  master's :class:`ShmArena` segments, which both sides map once, and a
  result travels back in the segment its own arguments came in.

* **Registry rehydration** (:class:`RegistryRef`) — operator functions are
  never pickled.  Under the default ``fork`` start method workers inherit
  the master's registry (closures and all); on spawn-only platforms a
  ``RegistryRef`` names an importable factory (``module:attr`` plus
  arguments) that each worker calls once to rebuild its registry, exactly
  as the original system re-linked the compiled C operators into every
  process.

* **The pool** (:class:`WorkerPool`) — persistent worker processes, each
  fed operator calls, one per message, over its own duplex pipe and
  answering each with one result.  Per-worker pipes (rather than one
  shared queue) are what makes the pool supervisable: the master always
  knows which calls a worker holds, a SIGKILLed worker cannot die
  holding a shared queue lock and deadlock everyone else, and
  ``multiprocessing.connection.wait`` multiplexes the result pipes *and*
  the process sentinels so a crash is observed the same way a result
  is.  :meth:`WorkerPool.respawn` replaces a dead worker with a
  fresh process (re-shipping the registry ref, fused chains, and fault
  spec), which is the mechanism under
  :class:`~repro.runtime.supervise.Supervisor`'s fault policy.
"""

from __future__ import annotations

import atexit
import glob
import importlib
import mmap
import os
import pickle
import secrets
import signal
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Any

try:  # POSIX only; without it every payload rides the pickle stream
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None

from ..errors import RuntimeFailure
from .blocks import payload_nbytes, wraps_as_block
from .operators import (
    FusedChain,
    OperatorRegistry,
    default_registry,
    fused_spec,
)

#: NumPy buffers at or above this many bytes travel via shared memory.
SHM_THRESHOLD_DEFAULT = 64 * 1024

#: Per-worker resident block-cache budget (see :class:`BlockCache`).
CACHE_BYTES_DEFAULT = 256 * 1024 * 1024

#: Shared-memory segment offsets are aligned to this many bytes.
_ALIGN = 64

#: Registry handed to forked workers (set by :class:`WorkerPool` around
#: process start; children capture it in their copied address space).
_FORK_REGISTRY: OperatorRegistry | None = None


class RemoteOperatorFailure(RuntimeFailure):
    """An operator raised in a worker and the exception did not pickle.

    Carries the worker-side traceback text instead.
    """


def pick_context():
    """The multiprocessing context: ``fork`` where available, else spawn.

    Fork is strongly preferred — workers inherit the full operator
    registry (including closure-captured configuration, as in the retina
    case study) with no import-path ceremony.
    """
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    return get_context(method)


@dataclass(frozen=True)
class RegistryRef:
    """An importable recipe for rebuilding an operator registry.

    ``module``/``attr`` name either an :class:`OperatorRegistry` instance
    or a factory callable; ``args``/``kwargs`` (which must pickle) are
    passed to the factory.  Example::

        RegistryRef("repro.apps.retina", "make_registry", (config,))
    """

    module: str
    attr: str
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    def load(self) -> OperatorRegistry:
        obj: Any = importlib.import_module(self.module)
        for part in self.attr.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, OperatorRegistry):
            return obj
        registry = obj(*self.args, **dict(self.kwargs))
        if not isinstance(registry, OperatorRegistry):
            raise RuntimeFailure(
                f"registry ref {self.module}:{self.attr} produced "
                f"{type(registry).__name__}, not an OperatorRegistry"
            )
        return registry


# ---------------------------------------------------------------------------
# Payload transport
# ---------------------------------------------------------------------------


def _segment_prefix(parent_pid: int, pid: int) -> str:
    """What the names of all segments created by process ``pid`` start with."""
    return f"dlm_{parent_pid}_{pid}_"


def _unlink(name: str) -> None:
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:  # the other side got there first
        pass


def unlink_segments_of(pid: int) -> int:
    """Unlink what child process ``pid`` created and nobody consumed.

    A worker's fresh result segment has no owner between its creation and
    the master's decode; when the worker is dead (or the pool closed)
    whatever still carries its prefix can have no consumer left.  Returns
    the number of segments removed.
    """
    leftovers = glob.glob(
        f"/dev/shm/{_segment_prefix(os.getpid(), pid)}*"
    )
    for path in leftovers:
        _unlink(os.path.basename(path))
    return len(leftovers)


class ShmSegment:
    """One mapped POSIX shared-memory segment, unknown to any resource tracker.

    Lifetime is explicit: whoever the transport names as a segment's owner
    calls :meth:`unlink` (a tracker process would cost two pipe writes per
    create and per attach, and may unlink a segment its owner still uses).
    The name carries the creator's pid and its parent's, so a master can
    find what a dead worker left behind (:func:`unlink_segments_of`).
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, mapping: mmap.mmap) -> None:
        self.name = name
        self.size = len(mapping)
        self.buf = memoryview(mapping)
        self._mmap = mapping

    @classmethod
    def create(cls, size: int) -> "ShmSegment":
        prefix = "/" + _segment_prefix(os.getppid(), os.getpid())
        while True:
            path = prefix + secrets.token_hex(4)
            try:
                fd = _posixshmem.shm_open(
                    path, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
                )
            except FileExistsError:
                continue
            break
        try:
            os.ftruncate(fd, size)
            return cls(path[1:], mmap.mmap(fd, size))
        except OSError:
            _posixshmem.shm_unlink(path)
            raise
        finally:
            os.close(fd)

    @classmethod
    def attach(cls, name: str) -> "ShmSegment":
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            return cls(name, mmap.mmap(fd, os.fstat(fd).st_size))
        finally:
            os.close(fd)

    def close(self) -> None:
        """Unmap; the segment itself stays until someone unlinks it."""
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        _unlink(self.name)


@dataclass
class EncodedValue:
    """One payload serialized for the process boundary.

    ``data`` is the pickle stream; when ``shm_name`` is set, the large
    buffers live in that shared-memory segment at ``segments`` (offset,
    nbytes) positions, in pickle buffer order.  ``shm_nbytes`` is the
    payload's total buffer size (0 for pure-pickle payloads).

    ``pooled`` marks a segment of the master's :class:`ShmArena` — an
    argument the master placed there, or a result the worker wrote into
    one of its own call's argument segments.  The consumer copies out and
    leaves the segment alone; a non-pooled (fresh) segment is unlinked by
    its consumer.
    """

    data: bytes
    shm_name: str | None = None
    segments: tuple[tuple[int, int], ...] = ()
    shm_nbytes: int = 0
    pooled: bool = False

    @property
    def nbytes(self) -> int:
        return len(self.data) + self.shm_nbytes

    @property
    def via_shm(self) -> bool:
        return self.shm_name is not None


class ShmArena:
    """A master-side pool of reusable shared-memory segments.

    Segments come in power-of-two size classes and stay alive across
    calls: ``acquire`` reuses a free one when it fits, both processes map
    a segment once (the master here, a worker on first sight — see
    :func:`worker_main`), and the executor returns a call's segments with
    :meth:`release` once the worker's result arrived.  Until then they
    are *lent*: the worker copies the arguments out and may write the
    call's result back into one of them (:meth:`reply_segment`), so a
    lent segment is recycled only after its result was decoded or its
    worker is dead (:meth:`reclaim`).  Only :meth:`close` — called at
    worker-pool shutdown — unlinks them.

    The arena lives in the master (a segment's next consumer is unknown
    at encode time) and is empty when workers fork, so children never
    inherit arena mappings.

    No resource tracker knows these segments, so every arena registers
    in a module-level ``WeakSet`` and a single ``atexit`` pass
    (:func:`cleanup_arenas`) unlinks whatever is still live when the
    master exits — so a master that dies between pool start and the
    first commit (unhandled exception, ``SystemExit``, SIGTERM routed
    through :func:`install_arena_signal_cleanup`) leaks nothing into
    ``/dev/shm``.  Only ``SIGKILL`` still leaks, which no in-process
    mechanism can prevent.
    """

    def __init__(self, min_bytes: int = 4096) -> None:
        _LIVE_ARENAS.add(self)
        self.min_bytes = min_bytes
        self.created = 0
        self.reused = 0
        self.created_bytes = 0
        self.reclaimed = 0
        #: Results that came back in one of their call's own segments.
        self.replies = 0
        #: Fault-injection hook: when set and it returns True, the next
        #: :meth:`acquire` raises ``OSError`` exactly as a real
        #: ``shm_open`` failure would (callers fall back to an unpooled
        #: segment — see :func:`encode_value`).
        self.fail_hook: Any = None
        #: name -> segment currently lent to an in-flight call.
        self._lent: dict[str, ShmSegment] = {}
        #: size class -> free segments of that class.
        self._free: dict[int, list[ShmSegment]] = {}

    def _size_class(self, nbytes: int) -> int:
        return 1 << (max(self.min_bytes, nbytes) - 1).bit_length()

    def acquire(self, nbytes: int) -> ShmSegment:
        """A segment of at least ``nbytes``, recycled when one fits."""
        if self.fail_hook is not None and self.fail_hook():
            raise OSError("injected arena allocation failure")
        cls = self._size_class(nbytes)
        free = self._free.get(cls)
        if free:
            shm = free.pop()
            self.reused += 1
        else:
            shm = ShmSegment.create(cls)
            self.created += 1
            self.created_bytes += cls
        self._lent[shm.name] = shm
        return shm

    def release(self, name: str) -> None:
        """Return a lent segment to its free list (unknown names ignored)."""
        shm = self._lent.pop(name, None)
        if shm is not None:
            self._free.setdefault(shm.size, []).append(shm)

    def reply_segment(self, enc: EncodedValue) -> ShmSegment | None:
        """The lent segment a worker wrote ``enc`` into, already mapped
        here; ``None`` for in-band and fresh-segment results."""
        if not enc.pooled:
            return None
        self.replies += 1
        return self._lent[enc.shm_name]

    def reclaim(self, names: Any) -> list[tuple[str, int]]:
        """Recover segments checked out to a call that will never complete.

        Called by the supervisor when a worker dies mid-fire: the dead
        process can no longer read or write its lent segments, so they
        are safe to recycle immediately.  Returns ``(name, nbytes)``
        pairs for the segments actually reclaimed (unknown names — e.g.
        a call whose segments were already released by a late result —
        are skipped).
        """
        out: list[tuple[str, int]] = []
        for name in names:
            shm = self._lent.get(name)
            if shm is not None:
                self.release(name)
                self.reclaimed += 1
                out.append((name, shm.size))
        return out

    def close(self) -> None:
        """Unlink every segment (lent and free).  Arena is reusable after."""
        segments = list(self._lent.values())
        segments.extend(
            shm for free in self._free.values() for shm in free
        )
        self._lent.clear()
        self._free.clear()
        for shm in segments:
            shm.close()
            shm.unlink()

    def live_segments(self) -> int:
        """Segments currently backed by ``/dev/shm`` (lent plus free)."""
        return len(self._lent) + sum(len(v) for v in self._free.values())

    def stats(self) -> dict[str, int]:
        return {
            "created": self.created,
            "reused": self.reused,
            "reclaimed": self.reclaimed,
            "replies": self.replies,
            "created_bytes": self.created_bytes,
            "lent": len(self._lent),
            "free": sum(len(v) for v in self._free.values()),
        }


#: Every arena constructed in this process and not yet garbage-collected;
#: the atexit pass below closes (= unlinks) whichever still hold segments.
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def cleanup_arenas() -> int:
    """Unlink the segments of every live arena; returns arenas closed.

    Registered with ``atexit`` so an abandoned master (unhandled
    exception, ``SystemExit``, a signal routed through
    :func:`install_arena_signal_cleanup`) never leaks ``/dev/shm``
    segments.  Safe to call any number of times — :meth:`ShmArena.close`
    leaves the arena empty and reusable.
    """
    closed = 0
    for arena in list(_LIVE_ARENAS):
        if arena.live_segments():
            try:
                arena.close()
            except Exception:  # noqa: BLE001 - exit path must not raise
                continue
            closed += 1
    return closed


atexit.register(cleanup_arenas)

_SIGNAL_CLEANUP_INSTALLED = False


def install_arena_signal_cleanup(
    signals: tuple[int, ...] = (signal.SIGTERM,),
) -> None:
    """Chain arena cleanup into fatal-signal handling (main thread only).

    SIGTERM's default disposition kills the process without running
    ``atexit`` hooks, so a terminated master would leak its pooled
    segments.  The installed handler unlinks them, restores the previous
    handler, and re-raises the signal — the same chain-and-reraise shape
    as :meth:`~repro.obs.flightrec.FlightRecorder.install_signal_handlers`.
    The CLI installs this once per process; idempotent.
    """
    global _SIGNAL_CLEANUP_INSTALLED
    if _SIGNAL_CLEANUP_INSTALLED:
        return
    for signum in signals:
        previous = signal.getsignal(signum)

        def handler(num: int, frame: Any, _prev: Any = previous) -> None:
            cleanup_arenas()
            signal.signal(
                num, _prev if _prev is not None else signal.SIG_DFL
            )
            signal.raise_signal(num)

        signal.signal(signum, handler)
    _SIGNAL_CLEANUP_INSTALLED = True


def encode_value(
    obj: Any,
    shm_threshold: int = SHM_THRESHOLD_DEFAULT,
    arena: Any = None,
) -> EncodedValue:
    """Serialize ``obj`` for the other side of a process boundary.

    Contiguous pickle-5 buffers (NumPy array data, wherever it sits in the
    object graph — inside a dataclass, a list, a dict) of at least
    ``shm_threshold`` bytes are placed in one shared-memory segment.
    Without an ``arena`` the segment is fresh and the consumer unlinks it
    in :func:`decode_value`; with one — a :class:`ShmArena` on the
    master, a call's :class:`_RequestSegments` in a worker — the segment
    is borrowed (``pooled=True``) and stays with the arena.  An ``OSError``
    from ``arena.acquire`` (a real or injected allocation failure, a
    result that fits no request segment) degrades to the fresh-segment
    path rather than failing the call.
    """
    if _posixshmem is None:  # pragma: no cover - non-POSIX platforms
        return EncodedValue(pickle.dumps(obj, protocol=5))
    buffers: list[pickle.PickleBuffer] = []

    def callback(pb: pickle.PickleBuffer) -> bool:
        try:
            raw = pb.raw()
        except BufferError:  # non-contiguous; let pickle copy it in-band
            return True
        if raw.nbytes < shm_threshold:
            return True
        buffers.append(pb)
        return False

    data = pickle.dumps(obj, protocol=5, buffer_callback=callback)
    if not buffers:
        return EncodedValue(data)
    segments: list[tuple[int, int]] = []
    total = 0
    for pb in buffers:
        n = pb.raw().nbytes
        segments.append((total, n))
        total += -(-n // _ALIGN) * _ALIGN
    shm = None
    if arena is not None:
        try:
            shm = arena.acquire(total)
        except OSError:
            pass  # fall back to a fresh segment
    pooled = shm is not None
    if not pooled:
        shm = ShmSegment.create(total)
    try:
        for (offset, n), pb in zip(segments, buffers):
            shm.buf[offset : offset + n] = pb.raw().cast("B")
            pb.release()
    finally:
        if not pooled:
            shm.close()  # the consumer attaches by name and unlinks
    return EncodedValue(data, shm.name, tuple(segments), total, pooled)


def decode_value(
    enc: EncodedValue, unlink: bool = True, segment: ShmSegment | None = None
) -> Any:
    """Rebuild a payload from :func:`encode_value`'s wire form.

    The shared-memory bytes (if any) are copied into a **private**
    writable buffer before unpickling.  ``segment`` is this process's
    standing mapping of ``enc``'s segment when it has one (pooled
    segments: the arena's on the master, the attach-once table in a
    worker) and is read in place; otherwise the segment is attached by
    name, copied and unmapped, and a non-pooled one is (by default) also
    unlinked — the consumer owns a fresh segment's teardown, the arena a
    pooled one's.

    Arrays in the result are writable and fully isolated from the
    producer either way: an in-place write on this side is invisible on
    the other, which is what lets the engine skip physical COW copies for
    remote operator calls.
    """
    if enc.shm_name is None:
        return pickle.loads(enc.data)
    if segment is not None:
        private = bytearray(segment.buf[: enc.shm_nbytes])
    else:
        segment = ShmSegment.attach(enc.shm_name)
        try:
            private = bytearray(segment.buf[: enc.shm_nbytes])
        finally:
            segment.close()
            if unlink and not enc.pooled:
                segment.unlink()
    view = memoryview(private)
    buffers = [view[offset : offset + n] for offset, n in enc.segments]
    return pickle.loads(enc.data, buffers=buffers)


def discard_encoded(enc: EncodedValue) -> None:
    """Free an encoded payload that will never be decoded (error paths)."""
    if enc.shm_name is not None and not enc.pooled:
        _unlink(enc.shm_name)  # pooled segments stay with their arena


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------


def _encode_exception(exc: BaseException) -> tuple[str, Any, str]:
    """Serialize a worker-side exception, preserving the ``__cause__`` chain.

    Pickle discards ``__cause__`` (an exception reduces to ``(cls,
    args)``), so each link of the chain is encoded separately —
    pickle-round-trip when possible, ``repr`` text otherwise — and
    :func:`_decode_exception` relinks them on the master.  The worker's
    formatted traceback rides alongside so it survives even when the
    exception object itself cannot.
    """
    tb = traceback.format_exc()
    links: list[tuple[str, Any]] = []
    node: BaseException | None = exc
    seen: set[int] = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        try:
            data = pickle.dumps(node, protocol=5)
            pickle.loads(data)
            links.append(("pickle", data))
        except Exception:  # noqa: BLE001 - exotic exceptions fall to text
            links.append(("text", repr(node)))
        node = node.__cause__
    return ("chain", links, tb)


def _decode_exception(enc: tuple[str, Any, str]) -> BaseException:
    """Rebuild the exception from :func:`_encode_exception`'s wire form.

    Each chain link that pickled comes back as its original type; links
    that did not become :class:`RemoteOperatorFailure` carrying the repr
    (the outermost one also carries the worker traceback text).  The
    decoded root always exposes the worker's formatted traceback as
    ``remote_traceback``.
    """
    _, payload, tb = enc
    links: list[BaseException] = []
    for i, (lkind, lpayload) in enumerate(payload):
        node: BaseException | None = None
        if lkind == "pickle":
            try:
                node = pickle.loads(lpayload)
            except Exception:  # noqa: BLE001 - master lacks the type
                node = None
            if node is not None and not isinstance(node, BaseException):
                node = None
        if node is None:
            text = lpayload if lkind == "text" else repr(lpayload)
            if i == 0:
                text = f"{text}\n--- worker traceback ---\n{tb}"
            node = RemoteOperatorFailure(text)
        links.append(node)
    for parent, cause in zip(links, links[1:]):
        parent.__cause__ = cause
    root = links[0] if links else RemoteOperatorFailure(tb)
    try:
        root.remote_traceback = tb
    except (AttributeError, TypeError):  # pragma: no cover - slotted
        pass
    return root


#: Distinguishes "not resident" from any legitimately cached payload.
_CACHE_MISS = object()


class BlockCache:
    """Bytes-bounded LRU of decoded payloads resident in one worker.

    Keys are master-assigned block ids (``DataBlock.bid``); values are
    the raw payloads operators receive.  Single-assignment makes resident
    copies valid for a block's whole lifetime — the only invalidation
    traffic is block death and declared in-place writes, which the master
    piggybacks on ordinary task messages.  Eviction is strictly
    least-recently-used by bytes; the master's residency belief may then
    run stale, which a lookup miss self-heals (the master re-ships the
    fire fully encoded), so the budget is a memory bound, never a
    correctness constraint.
    """

    __slots__ = (
        "max_bytes", "held_bytes", "hits", "misses", "evictions", "stored",
        "_entries",
    )

    def __init__(self, max_bytes: int = CACHE_BYTES_DEFAULT) -> None:
        self.max_bytes = max_bytes
        self.held_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stored = 0
        #: bid → (payload, nbytes); dict order is the LRU order (oldest
        #: first — hits pop and re-insert).
        self._entries: dict[int, tuple[Any, int]] = {}

    def get(self, bid: int) -> Any:
        """The resident payload, or :data:`_CACHE_MISS`."""
        entry = self._entries.pop(bid, None)
        if entry is None:
            self.misses += 1
            return _CACHE_MISS
        self._entries[bid] = entry
        self.hits += 1
        return entry[0]

    def put(self, bid: int, value: Any) -> bool:
        """Make ``value`` resident under ``bid``; False if it cannot fit
        (whatever sat under ``bid`` is gone either way: a refused id
        misses, it does not answer with the older payload)."""
        old = self._entries.pop(bid, None)
        if old is not None:
            self.held_bytes -= old[1]
        nbytes = payload_nbytes(value)
        if nbytes > self.max_bytes:
            return False
        entries = self._entries
        while self.held_bytes + nbytes > self.max_bytes and entries:
            oldest = next(iter(entries))
            _, evicted_nbytes = entries.pop(oldest)
            self.held_bytes -= evicted_nbytes
            self.evictions += 1
        entries[bid] = (value, nbytes)
        self.held_bytes += nbytes
        self.stored += 1
        return True

    def invalidate(self, bids: Any) -> None:
        """Drop every listed block (dead or mutated on the master)."""
        for bid in bids:
            entry = self._entries.pop(bid, None)
            if entry is not None:
                self.held_bytes -= entry[1]

    def stats(self) -> dict[str, int]:
        return {
            "resident_blocks": len(self._entries),
            "resident_bytes": self.held_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stored": self.stored,
        }


class _RequestSegments:
    """The pooled segments one call's arguments arrived in, offered to
    :func:`encode_value` as the place for that call's result.

    The master keeps them lent until the result arrives, so once the
    arguments are copied out nobody else reads or writes them.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list[ShmSegment]) -> None:
        self.segments = segments

    def acquire(self, nbytes: int) -> ShmSegment:
        """The smallest request segment holding ``nbytes``."""
        fitting = [s for s in self.segments if s.size >= nbytes]
        if not fitting:
            raise OSError("result fits no request segment")
        return min(fitting, key=lambda s: s.size)


def worker_main(
    worker_id: int,
    conn: Any,
    registry_ref: RegistryRef | None,
    shm_threshold: int,
    fused_chains: dict[str, FusedChain] | None = None,
    fault_spec: Any = None,
    fault_salt: int = 0,
    cache_bytes: int = CACHE_BYTES_DEFAULT,
) -> None:
    """Body of one worker process: one call in, one result out, until None.

    ``conn`` is the worker's end of a duplex pipe owned exclusively by
    this process — ``(invalidations, [call])`` messages arrive on it, and
    each is answered by one ``(worker_id, call_id, ok, payload, t0,
    duration, cached)`` message.  ``invalidations`` is a list of block
    ids to drop from the resident cache before the call runs (dead or
    mutated master blocks, piggybacked here so invalidation costs no
    extra IPC).  A message carries exactly one call, in a one-element
    list: ``(call_id, op_name, enc_args, rbid)``, with ``rbid`` the
    master-assigned block id the result should be cached under (``None``
    outside affinity runs).  In the reply ``t0`` is a raw
    ``time.perf_counter`` stamp (CLOCK_MONOTONIC is process-shared, so
    the master can place worker spans on its own timeline) and ``cached``
    whether the worker kept its raw result resident under the
    master-assigned result block id.  ``ok`` is ``True`` (payload an
    :class:`EncodedValue`), ``False`` (payload an encoded exception), or
    ``"miss"`` — the structured cache-miss reply, payload the list of
    block ids this worker could not resolve; the master re-dispatches
    that fire with full encodings.

    Each element of ``enc_args`` is one of three wire forms:

    * a plain :class:`EncodedValue` — decoded fresh, never cached
      (non-block arguments and declared-``modifies`` positions);
    * ``("blk", bid, EncodedValue)`` — decoded, made resident in the
      :class:`BlockCache` under ``bid``, then used;
    * ``("ref", bid)`` — served from the resident cache; no pickle, no
      shared-memory segment crossed the wire.

    Full encodings are always decoded (consuming their pooled shm
    segments) *before* refs are resolved, so a cache miss never leaves a
    segment half-consumed — the master releases a missed fire's
    encodings exactly as it releases a completed one's.

    A pooled segment belongs to the master's arena and lives as long as
    the pool, so this process attaches it on first sight and keeps the
    mapping (a respawned worker starts with none).  Once a call's
    arguments are copied out, its result's large buffers are written
    into the smallest of *that call's own* pooled argument segments that
    holds them (``pooled=True`` in the reply) — warm pages both sides
    already map; a result that fits none (or a call with no pooled
    argument) travels in a fresh segment instead.

    ``fused_chains`` maps fused super-node names to their recipes (plain
    picklable data); the worker generates each body from its recipe and
    binds it against its own registry on first use
    (:func:`~repro.runtime.operators.fused_spec`), so a dispatched fused
    body runs the same code the master would, like a registered operator
    — only recipes cross the process boundary, never code.

    ``fault_spec`` (a picklable :class:`repro.faults.FaultSpec`) installs
    deterministic fault injection: the per-process injector is consulted
    *after* argument decoding and *before* the operator body, so a fault
    never leaves a fresh shared-memory segment half-consumed and a
    retried call always sees unmutated inputs.  ``fault_salt`` is the
    worker's incarnation number — respawned workers make *fresh* fault
    decisions, so a retried call cannot deterministically re-trigger the
    fault that killed its predecessor.
    """
    if registry_ref is not None:
        registry = registry_ref.load()
    elif _FORK_REGISTRY is not None:
        registry = _FORK_REGISTRY
    else:
        registry = default_registry()
    fused_chains = fused_chains or {}
    fused_specs: dict[str, Any] = {}
    injector = fault_spec.build(fault_salt) if fault_spec is not None else None
    cache = BlockCache(cache_bytes)
    #: name → standing mapping of each arena segment seen so far.
    attached: dict[str, ShmSegment] = {}

    def decode_arg(enc: EncodedValue, request: list[ShmSegment]) -> Any:
        """Decode one argument; a pooled segment is read through its
        standing mapping and joins the call's ``request`` segments."""
        if not enc.pooled:
            return decode_value(enc)
        segment = attached.get(enc.shm_name)
        if segment is None:
            segment = ShmSegment.attach(enc.shm_name)
            attached[enc.shm_name] = segment
        request.append(segment)
        return decode_value(enc, segment=segment)

    def resolve_args(
        op_name: str, enc_args: list[Any]
    ) -> tuple[list[Any], list[int], _RequestSegments | None]:
        """Decoded argument payloads, the block ids that missed, and the
        call's pooled segments (``None`` when it has none).

        Two passes: every full encoding is decoded first (consuming its
        shm segments and making ``("blk", ...)`` entries resident), then
        refs are served from the cache — which lets a later argument ref
        a block shipped earlier in the *same* call.
        """
        out: list[Any] = [None] * len(enc_args)
        refs: list[tuple[int, int]] = []
        request: list[ShmSegment] = []
        for i, a in enumerate(enc_args):
            if type(a) is tuple:
                if a[0] == "blk":
                    value = decode_arg(a[2], request)
                    cache.put(a[1], value)
                    out[i] = value
                else:  # ("ref", bid)
                    refs.append((i, a[1]))
            else:
                out[i] = decode_arg(a, request)
        missing: list[int] = []
        for i, bid in refs:
            forced = injector is not None and injector.on_cache_lookup(
                op_name
            )
            value = _CACHE_MISS if forced else cache.get(bid)
            if value is _CACHE_MISS:
                missing.append(bid)
            else:
                out[i] = value
        return out, missing, _RequestSegments(request) if request else None

    def resolve(op_name: str) -> Any:
        spec = fused_specs.get(op_name)
        if spec is None:
            chain = fused_chains.get(op_name)
            if chain is None:
                return registry.get(op_name)
            spec = fused_specs[op_name] = fused_spec(op_name, chain, registry)
        return spec

    while True:
        try:
            message = conn.recv()
        except EOFError:  # master closed its end (or died): clean exit
            return
        if message is None:
            return
        invalidations, [(call_id, op_name, enc_args, rbid)] = message
        if invalidations:
            cache.invalidate(invalidations)
        t0 = time.perf_counter()
        cached = False
        try:
            spec = resolve(op_name)
            args, missing, request = resolve_args(op_name, enc_args)
            if missing:
                # Structured cache-miss reply: every full encoding above
                # was already decoded, so the master's segment
                # bookkeeping proceeds as for a completed fire; it
                # re-ships this one fully encoded.
                ok: Any = "miss"
                payload: Any = missing
            else:
                if injector is not None:
                    injector.on_call(op_name)
                raw = spec.fn(*args)
                payload = encode_value(raw, shm_threshold, request)
                if rbid is not None and wraps_as_block(raw):
                    cached = cache.put(rbid, raw)
                ok = True
        except BaseException as exc:  # noqa: BLE001 - to master
            payload = _encode_exception(exc)
            ok = False
        # The supervisor salvages the pipe's contents on a crash, so a
        # result already sent survives its worker and is not recomputed.
        try:
            conn.send(
                (
                    worker_id, call_id, ok, payload, t0,
                    time.perf_counter() - t0, cached,
                )
            )
        except BrokenPipeError:  # master gone; nothing to report
            return


class WorkerPool:
    """A persistent, supervisable pool of operator-executing processes.

    Every worker owns a duplex pipe to the master: the master sends
    calls down a worker's pipe, one per message (:meth:`submit_to`; the
    supervisor picks the worker), and multiplexes all result pipes plus
    the process *sentinels* with :meth:`wait` — so a result and a
    dead worker arrive through the same select call, and a SIGKILLed
    worker can never wedge a lock another worker needs.  A dead worker
    is replaced in place with :meth:`respawn`, which re-ships the same
    registry ref / fused chains / fault spec the original got.

    Use as a context manager — exit sends one shutdown sentinel per
    worker and joins them, escalating to ``terminate`` for stragglers.
    """

    def __init__(
        self,
        n_workers: int,
        registry: OperatorRegistry | None = None,
        registry_ref: RegistryRef | None = None,
        shm_threshold: int = SHM_THRESHOLD_DEFAULT,
        fused_chains: dict[str, FusedChain] | None = None,
        fault_spec: Any = None,
        cache_bytes: int = CACHE_BYTES_DEFAULT,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.registry_ref = registry_ref
        self.shm_threshold = shm_threshold
        self.cache_bytes = cache_bytes
        #: The master's record of what the workers' caches hold (a
        #: ``supervise.ResidencyTracker``, made by the first supervisor
        #: that ships by reference); it lives as long as they do: here.
        self.residency: Any = None
        #: Reusable dispatch-argument segments.  Created (empty) before the
        #: workers fork so children never inherit arena mappings; the pool
        #: owns its teardown in :meth:`close`.
        self.arena = ShmArena()
        self._ctx = pick_context()
        if (
            self._ctx.get_start_method() != "fork"
            and registry_ref is None
            and registry is not None
            and registry.names() - default_registry().names()
        ):
            raise RuntimeFailure(
                "this platform cannot fork, so workers cannot inherit the "
                "operator registry; pass ProcessExecutor(registry_ref="
                "RegistryRef(module, attr, ...)) naming an importable "
                "registry factory"
            )
        self._registry = registry
        self._fused_chains = fused_chains
        self._fault_spec = fault_spec
        #: Total workers replaced over the pool's lifetime.
        self.respawns = 0
        self.processes: list[Any] = [None] * n_workers
        #: Master-side pipe ends, indexed like :attr:`processes`.
        self.conns: list[Any] = [None] * n_workers
        for i in range(n_workers):
            self._spawn(i)

    def _spawn(self, i: int, fault_salt: int = 0) -> Any:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        global _FORK_REGISTRY
        _FORK_REGISTRY = self._registry
        try:
            p = self._ctx.Process(
                target=worker_main,
                args=(
                    i,
                    child_conn,
                    self.registry_ref,
                    self.shm_threshold,
                    self._fused_chains,
                    self._fault_spec,
                    fault_salt,
                    self.cache_bytes,
                ),
                daemon=True,
                name=f"delirium-proc-{i}",
            )
            p.start()
        finally:
            _FORK_REGISTRY = None
        child_conn.close()  # the worker holds the only live copy now
        self.processes[i] = p
        self.conns[i] = parent_conn
        return p

    def respawn(self, i: int) -> Any:
        """Replace worker ``i`` with a fresh process (same configuration).

        The old process is terminated if somehow still alive (a hung
        worker being put down), its pipe closed — callers salvage it
        first — the segments it created and nobody consumed unlinked, and
        a new worker takes its slot.  Returns the new process.
        """
        old = self.processes[i]
        conn = self.conns[i]
        if conn is not None:
            conn.close()
        if old is not None:
            if old.is_alive():
                old.kill()
            old.join(timeout=5.0)
            unlink_segments_of(old.pid)
        self.respawns += 1
        return self._spawn(i, fault_salt=self.respawns)

    def submit_to(self, i: int, message: tuple[list[int], list[Any]]) -> None:
        """Send one ``(invalidations, [call])`` message to worker ``i``.

        Raises ``BrokenPipeError``/``OSError`` if the worker is already
        dead — callers treat that exactly like a crash-after-dispatch
        (the sentinel fires on the next :meth:`wait`).
        """
        self.conns[i].send(message)

    def wait(self, timeout: float | None = None) -> list[Any]:
        """Block until a result pipe is readable or a sentinel fires.

        Returns the ready objects from ``multiprocessing.connection.wait``
        — a mix of master-side pipe ends (use :meth:`worker_for_conn` /
        ``conn.recv()``) and process sentinels (a dead worker; always
        ready until the worker is respawned, so callers must resolve a
        crash before waiting again).  Empty on timeout.
        """
        from multiprocessing.connection import wait as _mp_wait

        handles: list[Any] = [c for c in self.conns if c is not None]
        handles.extend(
            p.sentinel for p in self.processes if p is not None
        )
        return _mp_wait(handles, timeout)

    def worker_for_conn(self, obj: Any) -> int | None:
        """Worker index owning this pipe end, or None for a sentinel."""
        for i, conn in enumerate(self.conns):
            if conn is obj:
                return i
        return None

    def worker_for_sentinel(self, obj: Any) -> int | None:
        """Worker index owning this process sentinel, or None."""
        for i, p in enumerate(self.processes):
            if p is not None and p.sentinel == obj:
                return i
        return None

    def close(self) -> None:
        for conn in self.conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        deadline = time.monotonic() + 5.0
        for p in self.processes:
            if p is not None:
                p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self.processes:
            if p is not None and p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for conn in self.conns:
            if conn is not None:
                conn.close()
        for p in self.processes:
            if p is not None:
                # Results still unread in a pipe, or made and never sent.
                unlink_segments_of(p.pid)
        self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True, eq=False)
class DispatchPolicy:
    """When does an operator body cross the process boundary?

    Immutable, and equal only to itself: an executor memoizes what
    :meth:`static_dispatch` answered under the policy's *identity* (in
    the class token a :class:`~repro.runtime.executors.Run` picks), so
    nothing the answers depend on may change under it —
    ``measured_seconds`` is copied at construction.

    The best evidence is *measured* wall time: when ``measured_seconds``
    (from :func:`repro.machine.calibrate.calibrate_dispatch`) knows an
    operator, it is dispatched only when one firing costs at least
    ``min_dispatch_seconds`` — the observed per-call IPC round trip;
    anything cheaper runs faster in the master than it serializes.

    Unmeasured operators fall back to the static cost hint (ticks)
    against ``cost_threshold``; operators without a usable hint fall back
    further to a payload-size test (``nbytes_threshold`` over the summed
    argument sizes) — big data usually means big compute, and cheap glue
    on small scalars must never pay IPC.  Set ``cost_threshold=0.0`` to
    dispatch every operator (the determinism test harness does).

    The default ``cost_threshold`` corresponds to ~2 ms at the nominal
    10⁹ ticks/s machine scale, matching ``min_dispatch_seconds``: after
    operator fusion made individual firings cheap, the old 250k-tick
    (0.25 ms) bar dispatched operators that cost far less than the IPC
    they paid, which is exactly the regression the measured table fixes.
    """

    cost_threshold: float = 2_000_000.0
    nbytes_threshold: int = SHM_THRESHOLD_DEFAULT
    #: Measured wall seconds per firing, by operator name (including
    #: fused super-operator names) — see ``calibrate_dispatch``.  A
    #: measurement of ``0.0`` keeps an operator in-process.
    measured_seconds: dict[str, float] | None = None
    #: Minimum measured per-firing cost that justifies the process
    #: boundary (~ one IPC round trip).
    min_dispatch_seconds: float = 0.002

    def __post_init__(self) -> None:
        if self.measured_seconds is not None:
            object.__setattr__(
                self, "measured_seconds", dict(self.measured_seconds)
            )

    def _by_name(self, name: str) -> bool | None:
        if self.measured_seconds is not None:
            seconds = self.measured_seconds.get(name)
            if seconds is not None:
                return seconds >= self.min_dispatch_seconds
        return None

    def static_dispatch(self, spec: Any) -> bool | None:
        """The decision when no payload can change it, else ``None``.

        Measured and numeric-hint operators are decided by their
        spec alone; a callable or absent hint needs the payloads.  Agrees
        with :meth:`should_dispatch` wherever it answers, so an executor
        may classify such a node once instead of once per firing.
        """
        decided = self._by_name(spec.name)
        if decided is None and not (spec.cost is None or callable(spec.cost)):
            cost = spec.try_cost_ticks(())
            if cost is not None:
                decided = cost >= self.cost_threshold
        return decided

    def should_dispatch(self, spec: Any, payloads: tuple[Any, ...]) -> bool:
        decided = self._by_name(spec.name)
        if decided is not None:
            return decided
        cost = spec.try_cost_ticks(payloads)
        if cost is not None:
            return cost >= self.cost_threshold
        total = 0
        for p in payloads:
            total += payload_nbytes(p)
            if total >= self.nbytes_threshold:
                return True
        return total >= self.nbytes_threshold
