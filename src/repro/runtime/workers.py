"""Worker-process infrastructure for :class:`ProcessExecutor`.

The paper's runtime ran operator bodies on real Y-MP processors while the
coordination semantics stayed centralized; this module is the Python
analogue.  Three pieces:

* **Payload transport** (:func:`encode_value` / :func:`decode_value`) —
  pickle protocol 5 with out-of-band buffers: any contiguous NumPy buffer
  at or above ``shm_threshold`` bytes is lifted out of the pickle stream
  into one POSIX shared-memory segment (``multiprocessing.shared_memory``),
  so convolution-sized blocks never cross the process pipe.  Everything
  else — small arrays, scalars, application objects — rides the pickle
  bytes unchanged.  The *consumer* of a segment copies it into private
  memory and unlinks it, so a worker-side destructive write can never be
  observed by the master (copy-on-write isolation holds across the
  process boundary by construction, and the tests prove it).

* **Registry rehydration** (:class:`RegistryRef`) — operator functions are
  never pickled.  Under the default ``fork`` start method workers inherit
  the master's registry (closures and all); on spawn-only platforms a
  ``RegistryRef`` names an importable factory (``module:attr`` plus
  arguments) that each worker calls once to rebuild its registry, exactly
  as the original system re-linked the compiled C operators into every
  process.

* **The pool** (:class:`WorkerPool`) — persistent worker processes, each
  fed *batches* of operator calls over its own duplex pipe.  Per-worker
  pipes (rather than one shared queue) are what makes the pool
  supervisable: the master always knows which calls a worker holds, a
  SIGKILLed worker cannot die holding a shared queue lock and deadlock
  everyone else, and ``multiprocessing.connection.wait`` multiplexes the
  result pipes *and* the process sentinels so a crash is observed the
  same way a result is.  The master assigns batches least-loaded;
  batching amortizes the per-message IPC cost for fine-grained
  operators.  :meth:`WorkerPool.respawn` replaces a dead worker with a
  fresh process (re-shipping the registry ref, fused chains, and fault
  spec), which is the mechanism under
  :class:`~repro.runtime.supervise.Supervisor`'s fault policy.
"""

from __future__ import annotations

import atexit
import importlib
import pickle
import signal
import time
import traceback
import weakref
from dataclasses import dataclass, field, replace as dc_replace
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import resource_tracker, shared_memory
from typing import Any

try:  # POSIX only; the arena needs tracker-free unlink (see ShmArena)
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None

from ..errors import RuntimeFailure
from .blocks import payload_nbytes, wraps_as_block
from .operators import (
    FusedChain,
    OperatorRegistry,
    bind_codegen,
    bind_codegen_batch,
    compose_fused,
    default_registry,
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


@dataclass
class EncodedValue:
    """One payload serialized for the process boundary.

    ``data`` is the pickle stream; when ``shm_name`` is set, the large
    buffers live in that shared-memory segment at ``segments`` (offset,
    nbytes) positions, in pickle buffer order.  ``shm_nbytes`` is the
    payload's total buffer size (0 for pure-pickle payloads).

    ``pooled`` marks a segment borrowed from a master-side
    :class:`ShmArena`: the consumer copies out and *closes* it but never
    unlinks — the arena reuses the segment for later calls and owns its
    teardown.
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

    Every dispatched argument above the shm threshold used to create (and
    the worker unlink) one fresh POSIX segment — a ``shm_open`` /
    ``ftruncate`` / ``mmap`` / ``unlink`` round trip per large payload,
    every fire.  The arena instead keeps segments alive across calls:
    segments come in power-of-two size classes, ``acquire`` reuses a free
    one when it fits, and the executor returns a call's segments with
    :meth:`release` once the worker's result proves the arguments were
    consumed.  Workers copy out and merely *close* pooled segments (see
    :func:`decode_value`); only :meth:`close` — called at worker-pool
    shutdown — unlinks them.

    The arena lives in the master (the workers share one task queue, so a
    segment's next consumer is unknown at encode time) and is empty when
    workers fork, so children never inherit arena mappings.

    Pooled segments are kept out of ``multiprocessing.resource_tracker``
    entirely.  Which processes share a tracker depends on whether the
    tracker happened to start before the workers forked, so any
    registration an arena segment leaves behind in *some* process's
    tracker ends with that tracker unlinking a segment the master still
    reuses (or warning about "leaked" segments it never owned).  Instead
    every registration is withdrawn where it happens — here after
    create, in :func:`decode_value` after attach — and :meth:`close`
    unlinks through ``shm_unlink`` directly, bypassing the tracker's
    bookkeeping.

    Explicit lifetime needs an explicit last line of defense: every
    arena registers in a module-level ``WeakSet`` and a single
    ``atexit`` pass (:func:`cleanup_arenas`) unlinks whatever is still
    live when the master exits — so a master that dies between pool
    start and the first commit (unhandled exception, ``SystemExit``,
    SIGTERM routed through :func:`install_arena_signal_cleanup`) leaks
    nothing into ``/dev/shm``.  Only ``SIGKILL`` still leaks, which no
    in-process mechanism can prevent.
    """

    def __init__(self, min_bytes: int = 4096) -> None:
        _LIVE_ARENAS.add(self)
        self.min_bytes = min_bytes
        self.created = 0
        self.reused = 0
        self.created_bytes = 0
        self.reclaimed = 0
        #: Fault-injection hook: when set and it returns True, the next
        #: :meth:`acquire` raises ``OSError`` exactly as a real
        #: ``shm_open`` failure would (callers fall back to an unpooled
        #: segment — see :func:`encode_value`).
        self.fail_hook: Any = None
        #: name -> (segment, size class) currently lent to an in-flight call.
        self._lent: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        #: size class -> free segments of that class.
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}

    def _size_class(self, nbytes: int) -> int:
        return 1 << (max(self.min_bytes, nbytes) - 1).bit_length()

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A segment of at least ``nbytes``, recycled when one fits."""
        if self.fail_hook is not None and self.fail_hook():
            raise OSError("injected arena allocation failure")
        cls = self._size_class(nbytes)
        free = self._free.get(cls)
        if free:
            shm = free.pop()
            self.reused += 1
        else:
            shm = shared_memory.SharedMemory(create=True, size=cls)
            # Withdraw the create-side tracker registration immediately;
            # the arena owns this segment's whole lifetime (class docs).
            resource_tracker.unregister(shm._name, "shared_memory")
            self.created += 1
            self.created_bytes += cls
        self._lent[shm.name] = (shm, cls)
        return shm

    def release(self, name: str) -> None:
        """Return a lent segment to its free list (unknown names ignored)."""
        entry = self._lent.pop(name, None)
        if entry is not None:
            shm, cls = entry
            self._free.setdefault(cls, []).append(shm)

    def reclaim(self, names: Any) -> list[tuple[str, int]]:
        """Recover segments checked out to a call that will never complete.

        Called by the supervisor when a worker dies mid-fire: the dead
        process's mappings are gone with it, so its lent segments are
        safe to recycle immediately.  Returns ``(name, nbytes)`` pairs
        for the segments actually reclaimed (unknown names — e.g. a call
        whose segments were already released by a late result — are
        skipped).
        """
        out: list[tuple[str, int]] = []
        for name in names:
            entry = self._lent.get(name)
            if entry is not None:
                _, cls = entry
                self.release(name)
                self.reclaimed += 1
                out.append((name, cls))
        return out

    def close(self) -> None:
        """Unlink every segment (lent and free).  Arena is reusable after."""
        segments = [shm for shm, _ in self._lent.values()]
        segments.extend(
            shm for free in self._free.values() for shm in free
        )
        self._lent.clear()
        self._free.clear()
        for shm in segments:
            name = shm._name
            shm.close()
            try:
                if _posixshmem is not None:
                    # Not shm.unlink(): that would also send an
                    # UNREGISTER for a name no tracker has registered.
                    _posixshmem.shm_unlink(name)
                else:  # pragma: no cover - non-POSIX platforms
                    resource_tracker.register(name, "shared_memory")
                    shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def live_segments(self) -> int:
        """Segments currently backed by ``/dev/shm`` (lent plus free)."""
        return len(self._lent) + sum(len(v) for v in self._free.values())

    def stats(self) -> dict[str, int]:
        return {
            "created": self.created,
            "reused": self.reused,
            "reclaimed": self.reclaimed,
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
    arena: ShmArena | None = None,
) -> EncodedValue:
    """Serialize ``obj`` for the other side of a process boundary.

    Contiguous pickle-5 buffers (NumPy array data, wherever it sits in the
    object graph — inside a dataclass, a list, a dict) of at least
    ``shm_threshold`` bytes are placed in one shared-memory segment.
    Without an ``arena`` the segment is fresh and the consumer unlinks it
    in :func:`decode_value`; with an ``arena`` the segment is borrowed
    (``pooled=True``) and the caller returns it via
    :meth:`ShmArena.release` once consumed.  An arena acquisition
    failure (real or injected via :attr:`ShmArena.fail_hook`) degrades
    to the fresh-segment path rather than failing the call.
    """
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
    if arena is not None:
        try:
            shm = arena.acquire(total)
        except OSError:
            shm = None  # allocation failure: fall back to a fresh segment
        if shm is not None:
            for (offset, n), pb in zip(segments, buffers):
                shm.buf[offset : offset + n] = pb.raw().cast("B")
                pb.release()
            # The arena keeps the segment open and will reuse it; nothing
            # to close or unregister here.
            return EncodedValue(
                data, shm.name, tuple(segments), total, pooled=True
            )
    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        for (offset, n), pb in zip(segments, buffers):
            shm.buf[offset : offset + n] = pb.raw().cast("B")
            pb.release()
        return EncodedValue(data, shm.name, tuple(segments), total)
    finally:
        shm.close()
        # Segment lifetime is managed explicitly: the consumer unlinks in
        # decode_value (its attach/unlink pair self-balances in its own
        # resource tracker).  Withdraw the creator-side registration so
        # the tracker does not later "clean up" a segment the consumer
        # already removed (Python < 3.13 has no track=False).
        resource_tracker.unregister(shm._name, "shared_memory")


def decode_value(enc: EncodedValue, unlink: bool = True) -> Any:
    """Rebuild a payload from :func:`encode_value`'s wire form.

    The shared-memory segment (if any) is copied into a **private**
    writable buffer before unpickling, then closed; non-pooled segments
    are (by default) also unlinked — the consumer owns their teardown.
    Pooled segments belong to the producer's :class:`ShmArena`: the copy
    is sliced to the payload's bytes (the segment is size-class rounded),
    the attach-side resource-tracker registration is withdrawn (Python
    registers on attach unconditionally; arena segments stay out of
    every tracker — see :class:`ShmArena`), and the segment itself is
    left alone for the arena to reuse.

    Arrays in the result are writable and fully isolated from the
    producer either way: an in-place write on this side is invisible on
    the other, which is what lets the engine skip physical COW copies for
    remote operator calls.
    """
    if enc.shm_name is None:
        return pickle.loads(enc.data)
    shm = shared_memory.SharedMemory(name=enc.shm_name)
    try:
        if enc.pooled:
            private = bytearray(shm.buf[: enc.shm_nbytes])
        else:
            private = bytearray(shm.buf)
    finally:
        shm.close()
        if enc.pooled:
            resource_tracker.unregister(shm._name, "shared_memory")
        elif unlink:
            shm.unlink()
    view = memoryview(private)
    buffers = [view[offset : offset + n] for offset, n in enc.segments]
    return pickle.loads(enc.data, buffers=buffers)


def discard_encoded(enc: EncodedValue) -> None:
    """Free an encoded payload that will never be decoded (error paths)."""
    if enc.shm_name is None or enc.pooled:
        return  # pooled segments are torn down by their arena
    try:
        shm = shared_memory.SharedMemory(name=enc.shm_name)
    except FileNotFoundError:  # consumer got there first
        return
    shm.close()
    shm.unlink()


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
    ``remote_traceback``.  The legacy two-variant format from before the
    chain encoding is still accepted.
    """
    kind, payload, tb = enc
    if kind == "chain":
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
    if kind == "pickle":  # legacy format
        try:
            decoded = pickle.loads(payload)
            if isinstance(decoded, BaseException):
                return decoded
        except Exception:  # noqa: BLE001
            pass
    return RemoteOperatorFailure(f"{payload}\n--- worker traceback ---\n{tb}")


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
        """Make ``value`` resident under ``bid``; False if it cannot fit."""
        nbytes = payload_nbytes(value)
        if nbytes > self.max_bytes:
            return False
        old = self._entries.pop(bid, None)
        if old is not None:
            self.held_bytes -= old[1]
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


def worker_main(
    worker_id: int,
    conn: Any,
    registry_ref: RegistryRef | None,
    shm_threshold: int,
    fused_chains: dict[str, FusedChain] | None = None,
    fault_spec: Any = None,
    fault_salt: int = 0,
    codegen_sources: dict[str, str] | None = None,
    cache_bytes: int = CACHE_BYTES_DEFAULT,
) -> None:
    """Body of one worker process: batches in, batches out, until None.

    ``conn`` is the worker's end of a duplex pipe owned exclusively by
    this process — ``(invalidations, batch)`` messages arrive on it,
    ``(worker_id, results)`` messages go back on it.  ``invalidations``
    is a list of block ids to drop from the resident cache before the
    batch runs (dead or mutated master blocks, piggybacked here so
    invalidation costs no extra IPC).  Each result is ``(call_id, ok,
    payload, t0, duration, cached)`` with ``t0`` a raw
    ``time.perf_counter`` stamp (CLOCK_MONOTONIC is process-shared, so
    the master can place worker spans on its own timeline) and ``cached``
    whether the worker kept its raw result resident under the
    master-assigned result block id.  ``ok`` is ``True`` (payload an
    :class:`EncodedValue`), ``False`` (payload an encoded exception), or
    ``"miss"`` — the structured cache-miss reply, payload the list of
    block ids this worker could not resolve; the master re-dispatches
    that fire with full encodings.

    A batch entry is either a plain call ``(call_id, op_name, enc_args,
    rbid)`` — answered by one single-result message as soon as it
    finishes — or a grouped entry ``("batch", op_name, [(call_id,
    enc_args, rbid), ...])``: N firings of one operator answered by *one*
    N-result message, executed through the operator's vectorized
    ``batch_fn`` when it has one and fault injection is off, and
    otherwise unrolled through the plain per-call loop (so injection
    decisions stay per firing).  ``rbid`` is the master-assigned block id
    the result should be cached under (``None`` outside affinity runs).

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

    ``fused_chains`` maps fused super-node names to their recipes (plain
    picklable data); the worker composes each chain against its own
    registry on first use, so a dispatched fused body runs exactly like a
    registered operator.  ``codegen_sources`` (fused name → generated
    binder source, from :func:`~repro.runtime.operators.
    collect_codegen_sources`) upgrades those compositions: the worker
    compiles the shipped source and binds it against its *own* registry,
    so a dispatched fused body runs the same specialized code the master
    would — source text crosses the process boundary, never code objects.

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
    codegen_sources = codegen_sources or {}
    fused_specs: dict[str, Any] = {}
    injector = fault_spec.build(fault_salt) if fault_spec is not None else None
    cache = BlockCache(cache_bytes)

    def resolve_args(
        op_name: str, enc_args: list[Any]
    ) -> tuple[list[Any], list[int]]:
        """Decoded argument payloads plus the block ids that missed.

        Two passes: every full encoding is decoded first (consuming its
        shm segments and making ``("blk", ...)`` entries resident), then
        refs are served from the cache — which lets a later argument ref
        a block shipped earlier in the *same* message.
        """
        out: list[Any] = [None] * len(enc_args)
        refs: list[tuple[int, int]] = []
        for i, a in enumerate(enc_args):
            if type(a) is tuple:
                if a[0] == "blk":
                    value = decode_value(a[2])
                    cache.put(a[1], value)
                    out[i] = value
                else:  # ("ref", bid)
                    refs.append((i, a[1]))
            else:
                out[i] = decode_value(a)
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
        return out, missing

    def resolve(op_name: str) -> Any:
        spec = fused_specs.get(op_name)
        if spec is None:
            chain = fused_chains.get(op_name)
            if chain is not None:
                spec = compose_fused(op_name, chain[0], chain[1], registry)
                source = codegen_sources.get(op_name)
                if source is not None:
                    spec = dc_replace(
                        spec,
                        fn=bind_codegen(
                            source, chain[0], registry, name=op_name
                        ),
                        batch_fn=bind_codegen_batch(
                            source, chain[0], registry, name=op_name
                        ),
                    )
                fused_specs[op_name] = spec
            else:
                spec = registry.get(op_name)
        return spec

    while True:
        try:
            message = conn.recv()
        except EOFError:  # master closed its end (or died): clean exit
            return
        if message is None:
            return
        invalidations, batch = message
        if invalidations:
            cache.invalidate(invalidations)
        for entry in batch:
            if entry[0] == "batch":
                # Grouped entry ("batch", op_name, [(call_id, enc_args,
                # rbid), ...]): N firings of one operator, one reply
                # message.  One message for N results concentrates the
                # mid-batch crash window, but a crashed vectorized group
                # is retried by the supervisor as plain singleton fires,
                # which restores the streamed-result salvage semantics.
                _, op_name, calls = entry
                spec = resolve(op_name)
                if spec.batch_fn is not None and injector is None:
                    t_start = time.perf_counter()
                    try:
                        resolved = [
                            resolve_args(op_name, enc_args)
                            for _, enc_args, _ in calls
                        ]
                        # Members whose refs missed get structured miss
                        # replies; the rest still run vectorized, so one
                        # stale residency entry does not forfeit the
                        # whole group's batching win.
                        results = [
                            (cid, "miss", missing, t_start, 0.0, False)
                            for (cid, _, _), (_, missing) in zip(
                                calls, resolved
                            )
                            if missing
                        ]
                        ready = [
                            (cid, rbid, args)
                            for (cid, _, rbid), (args, missing) in zip(
                                calls, resolved
                            )
                            if not missing
                        ]
                        if ready:
                            raws = list(
                                spec.batch_fn(
                                    [tuple(args) for _, _, args in ready]
                                )
                            )
                            if len(raws) != len(ready):
                                raise RuntimeFailure(
                                    f"batch form of operator {op_name!r} "
                                    f"returned {len(raws)} result(s) for "
                                    f"{len(ready)} firing(s)"
                                )
                            total = time.perf_counter() - t_start
                            # The vectorized kernel ran all N firings in
                            # one call; attribute each an equal share so
                            # master timelines stay additive.
                            per = total / len(ready)
                            for i, ((cid, rbid, _), raw) in enumerate(
                                zip(ready, raws)
                            ):
                                cached = (
                                    rbid is not None
                                    and wraps_as_block(raw)
                                    and cache.put(rbid, raw)
                                )
                                results.append(
                                    (
                                        cid,
                                        True,
                                        encode_value(raw, shm_threshold),
                                        t_start + i * per,
                                        per,
                                        cached,
                                    )
                                )
                    except BaseException as exc:  # noqa: BLE001
                        duration = time.perf_counter() - t_start
                        payload = _encode_exception(exc)
                        results = [
                            (cid, False, payload, t_start, duration, False)
                            for cid, _, _ in calls
                        ]
                    try:
                        conn.send((worker_id, results))
                    except BrokenPipeError:  # master gone
                        return
                    continue
                # No vectorized form (or fault injection active, which
                # is decided per firing): fall through to the per-call
                # loop so injection points and result streaming behave
                # exactly as unbatched dispatch.
                singles = [
                    (cid, op_name, enc_args, rbid)
                    for cid, enc_args, rbid in calls
                ]
            else:
                singles = [entry]
            for call_id, op_name, enc_args, rbid in singles:
                t0 = time.perf_counter()
                cached = False
                try:
                    spec = resolve(op_name)
                    args, missing = resolve_args(op_name, enc_args)
                    if missing:
                        # Structured cache-miss reply: every full
                        # encoding above was already decoded, so the
                        # master's segment bookkeeping proceeds as for a
                        # completed fire; it re-ships this one fully
                        # encoded.
                        ok: Any = "miss"
                        payload: Any = missing
                    else:
                        if injector is not None:
                            injector.on_call(op_name)
                        raw = spec.fn(*args)
                        payload = encode_value(raw, shm_threshold)
                        if rbid is not None and wraps_as_block(raw):
                            cached = cache.put(rbid, raw)
                        ok = True
                except BaseException as exc:  # noqa: BLE001 - to master
                    payload = _encode_exception(exc)
                    ok = False
                # Each result is shipped as soon as it exists, not at the
                # end of the batch: a result's fresh shm segments have no
                # owner until the master sees them, so holding finished
                # results while later batchmates run would leak those
                # segments if this process dies mid-batch (the supervisor
                # salvages the pipe's contents on a crash, but cannot
                # know the names of segments that were never sent).
                try:
                    conn.send(
                        (
                            worker_id,
                            [
                                (
                                    call_id,
                                    ok,
                                    payload,
                                    t0,
                                    time.perf_counter() - t0,
                                    cached,
                                )
                            ],
                        )
                    )
                except BrokenPipeError:  # master gone; nothing to report
                    return


class WorkerPool:
    """A persistent, supervisable pool of operator-executing processes.

    Every worker owns a duplex pipe to the master: the master sends
    batches down a worker's pipe (:meth:`submit_to`; the scheduler picks
    the least-loaded worker) and multiplexes all result pipes plus the
    process *sentinels* with :meth:`wait` — so a completed batch and a
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
        codegen_sources: dict[str, str] | None = None,
        cache_bytes: int = CACHE_BYTES_DEFAULT,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.registry_ref = registry_ref
        self.shm_threshold = shm_threshold
        self.cache_bytes = cache_bytes
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
        self._codegen_sources = codegen_sources
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
                    self._codegen_sources,
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
        worker being put down), its pipe closed, and a new worker takes
        its slot.  Returns the new process.
        """
        old = self.processes[i]
        conn = self.conns[i]
        if conn is not None:
            conn.close()
        if old is not None:
            if old.is_alive():
                old.kill()
            old.join(timeout=5.0)
        self.respawns += 1
        return self._spawn(i, fault_salt=self.respawns)

    def submit_to(self, i: int, message: tuple[list[int], list[Any]]) -> None:
        """Send one ``(invalidations, batch)`` message to worker ``i``.

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
        self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class DispatchPolicy:
    """When does an operator body cross the process boundary?

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
    #: Operator names always kept in-process (glue the master can run
    #: faster than it can serialize).
    pinned_local: frozenset[str] = field(default_factory=frozenset)
    #: Measured wall seconds per firing, by operator name (including
    #: fused super-operator names) — see ``calibrate_dispatch``.
    measured_seconds: dict[str, float] | None = None
    #: Minimum measured per-firing cost that justifies the process
    #: boundary (~ one IPC round trip).
    min_dispatch_seconds: float = 0.002

    def _by_name(self, name: str) -> bool | None:
        if name in self.pinned_local:
            return False
        if self.measured_seconds is not None:
            seconds = self.measured_seconds.get(name)
            if seconds is not None:
                return seconds >= self.min_dispatch_seconds
        return None

    def static_dispatch(self, spec: Any) -> bool | None:
        """The decision when no payload can change it, else ``None``.

        Pinned, measured and numeric-hint operators are decided by their
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
