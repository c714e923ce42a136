"""Reference-counted data blocks with copy-on-write.

Section 2.1 of the paper: "The Delirium run time system uses this
information to enforce determinism.  It maintains reference counts in the
data blocks, copying them when two or more operators need simultaneous
write access."

The reference count of a block equals the number of *input slots* currently
holding it (plus one pinned reference per closure capture, a deliberate
conservatism documented below).  When an operator that declared it
*modifies* argument ``i`` fires:

* if the block's count is 1, the operator holds the sole reference and may
  write the payload in place (the fast path the paper's "merging is free"
  idiom relies on);
* otherwise the engine copies the block first and hands the operator the
  private copy — no other consumer can ever observe the write.

Closure captures pin one extra reference for the closure's lifetime, so a
captured block is always treated as shared.  This is conservative (a copy
where the 1990 system might have mutated in place) but never wrong, and
matches the paper's advice that programmers arrange the data flow so large
structures are not captured and mutated simultaneously.

Blocks also carry a *home* processor and answer for a byte-size estimate:
the machine simulator charges NUMA remote-access penalties and accounts
bus traffic from them (sections 7 and 9.3).  The paper's block has no
size field; ours measures the payload only when somebody asks.
"""

from __future__ import annotations

import copy
import sys
from typing import Any

import numpy as np

from .values import Closure, MultiValue, NULL, OperatorValue

#: Types that circulate unwrapped (immutable atomic values).
IMMUTABLE_TYPES = (int, float, complex, bool, str, bytes, frozenset, type(None))

#: Optional module-wide observers of block traffic, each called as
#: ``hook(kind, block, n)``: the allocation hook with kind ``"alloc"``
#: when a fresh block is constructed, the count hook with ``"retain"`` or
#: ``"release"`` after a count update.  Retain/release are module
#: functions with no per-run state, so the hooks are global; install them
#: scoped via :func:`repro.obs.events.observe_blocks`.  ``None`` (the
#: default) keeps the hot path at one global load + identity check, and a
#: crown updates counts inline only while no count hook is installed
#: (:mod:`repro.runtime.crown`): an allocation hook alone watches the
#: fast path.
_ALLOC_HOOK = None
_COUNT_HOOK = None


def set_block_hook(hook, count_hook=None) -> tuple:
    """Install (or clear, with ``None``) the allocation hook and the count
    hook; returns the pair they replace, for ``set_block_hook(*previous)``."""
    global _ALLOC_HOOK, _COUNT_HOOK
    previous = _ALLOC_HOOK, _COUNT_HOOK
    _ALLOC_HOOK, _COUNT_HOOK = hook, count_hook
    return previous


def get_block_hook():
    """The currently installed allocation hook."""
    return _ALLOC_HOOK


#: Exact classes with no parts: ``copy.deepcopy`` returns them as they
#: are, and :func:`payload_nbytes` sizes them with ``sys.getsizeof``.
_ATOMIC = frozenset({int, float, complex, bool, str, bytes, type(None)})


#: Exact-class dispatch cache for :func:`payload_nbytes`: how the walk
#: treats a payload of this class.  Same scheme as ``_WRAP_KIND`` below —
#: every isinstance outcome is a function of the exact class.
_SIZE_KIND: dict[type, int] = {}

_SIZE_LEAF, _SIZE_ARRAY, _SIZE_ITEMS, _SIZE_VALUES = range(4)


def _size_kind(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return _SIZE_ARRAY
    if isinstance(payload, (list, tuple, set)):
        return _SIZE_ITEMS
    if isinstance(payload, dict):
        return _SIZE_VALUES
    return _SIZE_LEAF


def payload_nbytes(payload: Any) -> int:
    """Estimated size in bytes of an operator payload.

    NumPy arrays report exactly; lists, tuples, sets and dicts (values
    only) add ``sys.getsizeof`` of the container to the size of every
    element, recursing through nested containers all the way down;
    everything else falls back to ``sys.getsizeof``.  The estimate feeds
    the simulated machines' traffic accounting, where only relative
    magnitudes matter.

    A payload nested deeper than the interpreter's recursion limit — a
    container that contains itself — raises ``RecursionError`` instead of
    walking forever.
    """
    sizeof = sys.getsizeof
    if payload.__class__ is list:
        classes = set(map(type, payload))
        if _ATOMIC.issuperset(classes):
            # A flat list (a queens board): the walk below, without the
            # walk.  No atomic is garbage-collected, so ``getsizeof`` is
            # its ``__sizeof__``, and items of one class need no lookup.
            each = classes.pop().__sizeof__ if len(classes) == 1 else sizeof
            return sizeof(payload) + sum(map(each, payload))
    kinds = _SIZE_KIND
    total = 0
    stack = [iter((payload,))]
    while stack:
        for item in stack[-1]:
            cls = item.__class__
            kind = kinds.get(cls)
            if kind is None:
                kind = kinds[cls] = _size_kind(item)
            if kind == _SIZE_LEAF:
                try:
                    total += sizeof(item)
                except TypeError:  # pragma: no cover - exotic objects
                    total += 64
            elif kind == _SIZE_ARRAY:
                total += int(item.nbytes)
            else:
                total += sizeof(item)
                if len(stack) > sys.getrecursionlimit():
                    raise RecursionError(
                        "payload nests deeper than the recursion limit "
                        "(a container that contains itself?)"
                    )
                stack.append(
                    iter(item.values() if kind == _SIZE_VALUES else item)
                )
                break
        else:
            stack.pop()
    return total


def copy_payload(payload: Any) -> Any:
    """Copy a payload for copy-on-write.

    NumPy arrays use ``np.copy`` (cheap, contiguous); everything else gets
    ``copy.deepcopy`` — application objects are opaque to the runtime, so
    only a deep copy is guaranteed to isolate the writer.  A plain
    ``list`` or ``dict`` holding nothing but atomic immutables (a queens
    board) has no deeper part to isolate: its shallow copy *is* its deep
    copy, at a tenth of the price.  Subclasses and nested containers
    take the general path.
    """
    if isinstance(payload, np.ndarray):
        return payload.copy()
    cls = payload.__class__
    if cls is list:
        if _ATOMIC.issuperset(map(type, payload)):
            return payload.copy()
    elif cls is dict:
        if _ATOMIC.issuperset(map(type, payload)) and _ATOMIC.issuperset(
            map(type, payload.values())
        ):
            return payload.copy()
    return copy.deepcopy(payload)


class DataBlock:
    """A shared memory block: payload + reference count + placement.

    Attributes
    ----------
    payload:
        The raw object operators see.
    rc:
        Number of live references (input slots + closure pins).
    home:
        Processor id that produced the payload (simulated machines), or
        ``-1`` when unplaced.
    nbytes:
        Size estimate of the *current* payload (:func:`payload_nbytes`),
        computed on first read and memoised.  Constructing and firing
        never compute it; whoever hands the payload to an operator for
        writing calls :meth:`drop_size`, so the next read re-measures.
    bid:
        Master-assigned block id for worker-cache residency tracking
        (process executor with an affinity policy), or ``None`` while the
        block has never crossed the wire.  An in-place write must clear
        it (see ``ExecutionState._bind``): resident worker
        copies keyed by the old id would otherwise serve stale payloads.

    Blocks are weak-referenceable so the residency tracker can observe
    block death without extending any lifetime.
    """

    __slots__ = ("payload", "rc", "home", "_nbytes", "bid", "__weakref__")

    _COUNTER = 0

    def __init__(self, payload: Any, home: int = -1) -> None:
        self.payload = payload
        self.rc = 0
        self.home = home
        self._nbytes: int | None = None
        self.bid: int | None = None
        if _ALLOC_HOOK is not None:
            _ALLOC_HOOK("alloc", self, 1)

    @property
    def nbytes(self) -> int:
        n = self._nbytes
        if n is None:
            n = self._nbytes = payload_nbytes(self.payload)
        return n

    def drop_size(self) -> None:
        """Forget the memoised size: the payload is about to be written."""
        self._nbytes = None

    def unique(self) -> bool:
        """True when this block holds the sole reference (writable)."""
        return self.rc == 1

    def copy(self, home: int = -1) -> "DataBlock":
        """Copy-on-write: a fresh block around a copied payload, unsized
        (an allocation hook may have sized it; its writer is about to
        change it)."""
        clone = DataBlock(copy_payload(self.payload), home)
        clone._nbytes = None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataBlock(rc={self.rc}, home={self.home}, "
            f"nbytes={self.nbytes}, payload={type(self.payload).__name__})"
        )


#: Exact-class dispatch cache for :func:`wrap_payload`: 0 = circulate
#: unwrapped, 1 = tuple-like → MultiValue, 2 = wrap in a DataBlock.  Every
#: isinstance outcome below is a function of the payload's exact class, so
#: the decision is computed once per class and then served from one dict
#: probe — operator results are overwhelmingly drawn from a handful of
#: application types.  The ``NULL`` sentinel is handled by identity and
#: its class never enters the cache.
_WRAP_KIND: dict[type, int] = {}

_NULL_CLS = type(NULL)


def wrap_payload(payload: Any, home: int = -1) -> Any:
    """Wrap an operator result for circulation on graph edges.

    * Immutable atomics, ``NULL``, closures, and operator values pass
      through unwrapped.
    * A Python ``tuple`` becomes a :class:`MultiValue` with each element
      wrapped — this is how operators return multiple values (the paper's
      ``target_split`` returning four pieces).
    * Everything else (arrays, lists, dicts, application objects) is
      wrapped in a fresh :class:`DataBlock`.

    The engine layers block *reuse* on top of this (an operator returning
    one of its own input payloads keeps that input's block identity, which
    is what makes the paper's pointer-returning "merge is free" operators
    free here too); see ``engine.py``.
    """
    cls = payload.__class__
    kind = _WRAP_KIND.get(cls)
    if kind is not None:
        if kind == 2:
            return DataBlock(payload, home=home)
        if kind == 0:
            return payload
        return MultiValue(tuple(wrap_payload(p, home) for p in payload))
    if payload is NULL or isinstance(
        payload, (Closure, OperatorValue, MultiValue, DataBlock)
    ):
        if cls is not _NULL_CLS:
            _WRAP_KIND[cls] = 0
        return payload
    if isinstance(payload, IMMUTABLE_TYPES):
        _WRAP_KIND[cls] = 0
        return payload
    if isinstance(payload, tuple):
        _WRAP_KIND[cls] = 1
        return MultiValue(tuple(wrap_payload(p, home) for p in payload))
    if isinstance(payload, (np.integer, np.floating, np.bool_)):
        # NumPy scalars are immutable; circulate them unwrapped.
        _WRAP_KIND[cls] = 0
        return payload
    if cls is not _NULL_CLS:
        _WRAP_KIND[cls] = 2
    return DataBlock(payload, home=home)


def wraps_as_block(payload: Any) -> bool:
    """Would :func:`wrap_payload` put this payload in a fresh DataBlock?

    The worker-resident block cache keys on this mirror of the wrap
    classification: a result worth caching under its block id is exactly
    one the master will circulate as a :class:`DataBlock` (atomics,
    tuples, and pre-wrapped values never carry a block id).  Kept next to
    :func:`wrap_payload` so the two classifications cannot drift.
    """
    cls = payload.__class__
    kind = _WRAP_KIND.get(cls)
    if kind is not None:
        return kind == 2
    if payload is NULL or isinstance(
        payload, (Closure, OperatorValue, MultiValue, DataBlock)
    ):
        return False
    if isinstance(payload, IMMUTABLE_TYPES) or isinstance(payload, tuple):
        return False
    if isinstance(payload, (np.integer, np.floating, np.bool_)):
        return False
    return True


def retain(value: Any, n: int = 1) -> None:
    """Add ``n`` references to every block reachable through packages."""
    if n == 0:
        return
    if isinstance(value, DataBlock):
        value.rc += n
        if _COUNT_HOOK is not None:
            _COUNT_HOOK("retain", value, n)
    elif isinstance(value, MultiValue):
        for item in value.items:
            retain(item, n)


def release(value: Any, n: int = 1) -> None:
    """Drop ``n`` references from every block reachable through packages."""
    if n == 0:
        return
    if isinstance(value, DataBlock):
        value.rc -= n
        if value.rc < 0:
            # A real error, not an assert: a negative count means some
            # consumer released a share it never held, which silently
            # corrupts copy-on-write decisions — and asserts vanish under
            # ``python -O``, exactly when nobody is watching.
            value.rc += n
            raise RuntimeError(
                f"data block reference count went negative "
                f"(released {n} share(s) from rc={value.rc}): {value!r}"
            )
        if _COUNT_HOOK is not None:
            _COUNT_HOOK("release", value, n)
    elif isinstance(value, MultiValue):
        for item in value.items:
            release(item, n)


def is_truthy(value: Any) -> bool:
    """Delirium condition semantics.

    ``NULL`` is false; numbers and strings follow Python truthiness; a
    :class:`DataBlock` is judged by its payload.  Multi-element NumPy
    arrays raise, as they do in Python — conditions must be scalars.
    """
    if value is NULL:
        return False
    if isinstance(value, DataBlock):
        return bool(value.payload)
    return bool(value)


def unwrap(value: Any) -> Any:
    """Recursively strip runtime wrappers for the public API boundary.

    Blocks yield their payloads; multiple values yield tuples; closures and
    operator values pass through (they are meaningful results too).
    """
    if isinstance(value, DataBlock):
        return value.payload
    if isinstance(value, MultiValue):
        return tuple(unwrap(i) for i in value.items)
    return value


def value_nbytes(value: Any) -> int:
    """Byte estimate of a value as placed on an edge (for NUMA accounting)."""
    if isinstance(value, DataBlock):
        return value.nbytes
    if isinstance(value, MultiValue):
        return sum(value_nbytes(i) for i in value.items)
    if isinstance(value, (Closure, OperatorValue)) or value is NULL:
        return 16
    return payload_nbytes(value)
