"""Fault-tolerant supervision of operator firings.

Delirium's single-assignment semantics make re-execution of a failed
firing safe by construction: a fired operator either delivered its
outputs through ``complete_fire`` or it never happened — the master's
memory is untouched until the commit, and a worker only ever receives
serialized *copies* of the arguments.  This module turns that property
into a fault-tolerance layer:

* :class:`FaultPolicy` — the run-level knobs: how many times a firing is
  re-executed, how long a dispatched firing may take, how retries back
  off, and whether an irrecoverable worker pool degrades to an
  in-process executor or surfaces an error.
* :class:`Supervisor` — owns the dispatch bookkeeping for
  :class:`~repro.runtime.executors.ProcessExecutor`: staging, sending
  one call per message from :meth:`Supervisor.pump` alone, multiplexed
  result/sentinel waiting, crash detection with automatic respawn
  (re-shipping registry refs, fused chains, and the fault spec),
  deterministic re-fire of the calls a dead worker held,
  per-fire timeouts (a hung worker is killed and replaced), reclamation
  of shared-memory arena segments checked out to crashed workers, and a
  poison-fire ledger that converts a repeatedly failing firing into a
  structured :class:`~repro.errors.OperatorError` carrying the node id,
  attempt history, and worker pid.
* :func:`run_with_retries` — the in-process analogue used by the
  sequential and threaded executors (and the process executor's inline
  path): injected faults fire *before* the operator body and are
  therefore always retryable; real operator exceptions are retried only
  for operators without declared in-place writes (a failed ``modifies``
  body may have half-mutated its argument).

Every fault surfaces as a typed event on the bus (``WorkerCrashed``,
``WorkerRespawned``, ``FireRetried``, ``FireTimedOut``,
``ShmSegmentReclaimed``, ``ExecutorDegraded``) for the metrics registry
to count; only retries and degradations are also
:class:`~repro.runtime.engine.EngineStats` counters.

The supervisor is also where the paper's §9.3 locality story meets the
real dispatch path.  With an affinity policy active it keeps a
:class:`ResidencyTracker` — the master-side record of which workers hold
decoded copies of which live blocks — chooses among *idle* workers with
the shared :mod:`repro.runtime.affinity` policies (work-conserving: a
busy preference never queues work), ships already-resident inputs as
``("ref", bid)`` wire tokens instead of full encodings, and piggybacks
block invalidations on outgoing task messages so cache hygiene costs no
extra IPC.  A worker-side miss comes back as a structured reply and the
fire is re-dispatched fully encoded — residency is an optimization
belief, never a correctness input.
"""

from __future__ import annotations

import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import OperatorError, PoolIrrecoverableError, RuntimeFailure
from ..obs.events import (
    AffinityMiss,
    BlockCached,
    BlockRefShipped,
    EventBus,
    FireRetried,
    FireTimedOut,
    ShmBlockCreated,
    ShmSegmentReclaimed,
    TaskDispatched,
    WorkerCrashed,
    WorkerRespawned,
)
from .affinity import (
    AffinityPolicy,
    DataAffinity,
    input_residency,
    make_policy,
    pick_most_resident,
)
from .blocks import DataBlock
from .engine import EngineStats, PendingOp
from .workers import (
    EncodedValue,
    WorkerPool,
    _decode_exception,
    decode_value,
    discard_encoded,
    encode_value,
)

#: Degradation modes: ``"ladder"`` finishes the run in the master — on
#: threads when the pool cannot be built, sequentially when it is lost
#: mid-run (every such loss surfaces in :meth:`Supervisor.pump`, the only
#: place that sends); ``"off"`` raises
#: :class:`~repro.errors.PoolIrrecoverableError` to the caller instead.
DEGRADE_MODES = ("ladder", "off")


@dataclass(frozen=True)
class FaultPolicy:
    """Run-level fault-tolerance knobs.

    max_retries:
        How many times a failed firing is re-executed after its first
        attempt (so a firing runs at most ``1 + max_retries`` times
        before it is declared poison).
    timeout:
        Per-fire wall-clock budget in seconds for dispatched firings;
        ``None`` disables timeouts.  A worker runs its calls one after
        another, so a call's deadline is its send time plus ``timeout``
        times the number of calls assigned to its worker, its own
        included.  A worker that blows the budget is presumed hung,
        killed, and respawned.
    backoff:
        Base delay in seconds before a retry; attempt ``n`` waits
        ``backoff * 2**(n-1)``.  ``0`` retries immediately.
    degrade:
        ``"ladder"`` (default) or ``"off"`` — see :data:`DEGRADE_MODES`.
    max_respawns:
        Worker replacements allowed per run before the pool is declared
        irrecoverable.
    checkpoint:
        Wall-clock checkpoint cadence in seconds for streaming runs
        (:class:`~repro.runtime.stream.StreamRunner`); ``None`` (the
        default) means no time-based cadence.  Non-streaming executors
        ignore it — there is nothing durable to snapshot mid-run until
        a sink exists.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff: float = 0.05
    degrade: str = "ladder"
    max_respawns: int = 8
    checkpoint: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.degrade not in DEGRADE_MODES:
            raise ValueError(
                f"degrade must be one of {DEGRADE_MODES}, not {self.degrade!r}"
            )
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.checkpoint is not None and self.checkpoint <= 0:
            raise ValueError("checkpoint cadence must be positive (or None)")

    @classmethod
    def parse(cls, text: str) -> "FaultPolicy":
        """Build a policy from CLI syntax: ``key=value`` pairs, ``,``-split.

        Keys: ``retries``, ``timeout`` (seconds, or ``none``),
        ``backoff`` (seconds), ``degrade`` (``ladder``/``off``),
        ``respawns``, ``checkpoint`` (seconds, or ``none``).
        Example: ``retries=3,timeout=10,degrade=off,checkpoint=30``.
        """
        kwargs: dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                raise ValueError(
                    f"bad fault-policy entry {part!r}; expected KEY=VALUE"
                )
            try:
                if key == "retries":
                    kwargs["max_retries"] = int(value)
                elif key == "timeout":
                    kwargs["timeout"] = (
                        None
                        if value.lower() in ("none", "off")
                        else float(value)
                    )
                elif key == "backoff":
                    kwargs["backoff"] = float(value)
                elif key == "degrade":
                    kwargs["degrade"] = value
                elif key == "respawns":
                    kwargs["max_respawns"] = int(value)
                elif key == "checkpoint":
                    kwargs["checkpoint"] = (
                        None
                        if value.lower() in ("none", "off")
                        else float(value)
                    )
                else:
                    raise ValueError(f"unknown fault-policy key {key!r}")
            except ValueError as exc:
                if "fault-policy" in str(exc):
                    raise
                raise ValueError(
                    f"bad fault-policy value for {key!r}: {value!r}"
                ) from exc
        return cls(**kwargs)


@dataclass
class Completion:
    """One successfully executed remote firing, ready to commit."""

    pending: PendingOp
    raw: Any
    call_id: int
    worker: int
    t0: float
    duration: float
    nbytes: int
    via_shm: bool
    #: The worker kept its raw result resident under ``rbid`` — the
    #: executor adopts the committed block into the residency tracker.
    cached: bool = False
    rbid: int | None = None


@dataclass
class _CallRecord:
    """Supervisor bookkeeping for one dispatched firing."""

    call_id: int
    pending: PendingOp
    #: Wire-form arguments: plain :class:`EncodedValue` entries mixed
    #: with ``("blk", bid, EncodedValue)`` / ``("ref", bid)`` tuples.
    enc_args: list[Any] = field(default_factory=list)
    pooled: list[str] = field(default_factory=list)
    worker: int = -1
    #: Completed failed attempts: ``(attempt, worker_pid, outcome)``.
    attempts: list[tuple[int, int | None, str]] = field(default_factory=list)
    deadline: float | None = None
    encoded: bool = False
    #: Master-assigned block id for the worker to cache its result under.
    rbid: int | None = None
    #: Force full encodings on the next dispatch (set after a cache-miss
    #: reply; full encodings cannot miss, so the fallback terminates).
    no_ref: bool = False
    #: Block ids shipped by reference in the current encoding — refs are
    #: only meaningful to the worker they were encoded for.
    ref_bids: list[int] = field(default_factory=list)
    #: Worker the current encoding targets (refs bind to one worker).
    enc_worker: int = -1

    @property
    def attempt_next(self) -> int:
        return len(self.attempts) + 1


class ResidencyTracker:
    """Master-side record of which workers hold which live blocks.

    One tracker serves every supervisor of a pool
    (``WorkerPool.residency``): a supervisor lives for one run, the
    caches as long as the pool, and so must the record of what they
    hold.  That makes the master-assigned, increasing block ids *never
    reused* while a cache can still name them — a stale id can at worst
    waste budget, never alias a different block — and lets blocks that
    die between runs be invalidated.  Residency is tracker-owned (not on
    the block) because block death is observed through weakref callbacks,
    which must not touch the dying object.  Invalidations queue per
    worker and piggyback on the next outgoing task message — block
    hygiene costs no extra IPC, and a worker that never receives another
    message simply exits with its cache.
    """

    def __init__(self, n_workers: int) -> None:
        self._next_bid = 0
        #: bid → weakref to the live master block (death callback queues
        #: invalidations to every holder).
        self._blocks: dict[int, weakref.ref] = {}
        #: bid → workers believed to hold a resident decoded copy.
        self._residency: dict[int, set[int]] = {}
        self._by_worker: dict[int, set[int]] = {
            i: set() for i in range(n_workers)
        }
        self._pending_inval: dict[int, list[int]] = {
            i: [] for i in range(n_workers)
        }
        self.invalidations_queued = 0
        self.refs_shipped = 0
        self.refs_missed = 0

    # -- block identity --------------------------------------------------
    def reserve_bid(self) -> int:
        """A fresh id with no registration yet (result ids: the block
        does not exist on the master until the fire commits)."""
        self._next_bid += 1
        return self._next_bid

    def ensure_bid(self, block: DataBlock) -> int:
        """The block's id, assigning and registering one on first use."""
        bid = block.bid
        if bid is None:
            bid = self.reserve_bid()
            block.bid = bid
            self._register(block, bid)
        return bid

    def adopt(self, block: DataBlock, bid: int, worker: int) -> None:
        """A worker cached its raw result under ``bid``; register the
        master's committed block under the same id, resident there."""
        if block.bid is not None:
            return  # identity-reused an already-tracked block
        block.bid = bid
        self._register(block, bid)
        self.add(bid, worker)

    def _register(self, block: DataBlock, bid: int) -> None:
        self._blocks[bid] = weakref.ref(
            block, lambda _ref, _bid=bid: self._dead(_bid)
        )
        self._residency[bid] = set()

    def _dead(self, bid: int) -> None:
        # GC dropped the master's last reference: queue invalidations so
        # holders release their resident copies.  Runs from a weakref
        # callback — only tracker-owned dicts are touched.
        self._blocks.pop(bid, None)
        holders = self._residency.pop(bid, None)
        if holders:
            for w in holders:
                self._by_worker[w].discard(bid)
                self._pending_inval[w].append(bid)
                self.invalidations_queued += 1

    def forget(self, block: DataBlock) -> None:
        """The engine is about to mutate this block in place: invalidate
        every resident copy *now* (the engine clears ``block.bid``)."""
        bid = block.bid
        if bid is None:
            return
        # Drop the weakref registration so eventual death of the block
        # does not queue a second round for an id nobody holds anymore.
        self._blocks.pop(bid, None)
        holders = self._residency.pop(bid, None)
        if holders:
            for w in holders:
                self._by_worker[w].discard(bid)
                self._pending_inval[w].append(bid)
                self.invalidations_queued += 1

    # -- residency -------------------------------------------------------
    def add(self, bid: int, worker: int) -> None:
        holders = self._residency.get(bid)
        if holders is not None:
            holders.add(worker)
            self._by_worker[worker].add(bid)

    def discard(self, bid: int, worker: int) -> None:
        holders = self._residency.get(bid)
        if holders is not None:
            holders.discard(worker)
        self._by_worker[worker].discard(bid)

    def resident(self, bid: int, worker: int) -> bool:
        holders = self._residency.get(bid)
        return holders is not None and worker in holders

    def holders(self, block: DataBlock) -> Any:
        """Workers holding this block (the ``input_residency`` feed)."""
        bid = block.bid
        if bid is None:
            return ()
        return self._residency.get(bid, ())

    def drop_worker(self, worker: int) -> None:
        """A worker died (or was killed): its cache died with it.  Purge
        its residency *before* re-fire/respawn so salvage and retries
        never ref a dead cache, and drop its queued invalidations — a
        fresh process has nothing to invalidate."""
        for bid in self._by_worker[worker]:
            holders = self._residency.get(bid)
            if holders is not None:
                holders.discard(worker)
        self._by_worker[worker] = set()
        self._pending_inval[worker] = []

    def take_invalidations(self, worker: int) -> list[int]:
        """Drain the worker's queued invalidations for piggybacking."""
        out = self._pending_inval[worker]
        if out:
            self._pending_inval[worker] = []
        return out

    def stats(self) -> dict[str, Any]:
        resident_blocks = sum(len(s) for s in self._by_worker.values())
        # Sized here, on demand, from the live master blocks (a dead or
        # forgotten block counts 0): dispatch never measures a payload.
        resident_bytes = 0
        for bids in self._by_worker.values():
            for bid in bids:
                ref = self._blocks.get(bid)
                block = ref() if ref is not None else None
                if block is not None:
                    resident_bytes += block.nbytes
        shipped = self.refs_shipped
        return {
            "blocks_tracked": len(self._blocks),
            "resident_blocks": resident_blocks,
            "resident_bytes": resident_bytes,
            "invalidations_queued": self.invalidations_queued,
            "pending_invalidations": sum(
                len(v) for v in self._pending_inval.values()
            ),
            "refs_shipped": shipped,
            "refs_missed": self.refs_missed,
            "hit_rate": (
                (shipped - self.refs_missed) / shipped if shipped else 1.0
            ),
        }


class _DispatchLabel:
    """Adapter giving a dispatched call the ``label()`` surface the
    simulator-facing affinity policies expect from a task."""

    __slots__ = ("_label",)

    def __init__(self, label: str) -> None:
        self._label = label

    def label(self) -> str:
        return self._label


class Supervisor:
    """Dispatch bookkeeping + fault handling for the process executor.

    The executor calls :meth:`dispatch` for every remote
    :class:`~repro.runtime.engine.PendingOp`, which only stages it, and
    :meth:`pump` whenever its ready queue drains.  ``pump`` is the only
    place that sends (one call per message) and returns committed-ready
    :class:`Completion` objects; it handles everything that can go wrong
    in between: worker crashes (drain late results, reclaim arena
    segments, respawn, re-fire), hung workers (kill + crash path),
    failed attempts (exponential-backoff re-dispatch), and the poison
    ledger.  Every fault therefore surfaces inside ``pump``, where the
    executor's degradation handler sees it.

    Raises :class:`~repro.errors.OperatorError` when one firing exhausts
    its retries, and :class:`~repro.errors.PoolIrrecoverableError` when
    the pool itself does; in both cases already-received completions
    stay buffered (:meth:`take_completions`) and the unfinished firings
    can be recovered with :meth:`drain_in_flight` for inline execution.
    """

    def __init__(
        self,
        pool: WorkerPool,
        policy: FaultPolicy,
        *,
        shm_threshold: int | None = None,
        bus: EventBus | None = None,
        stats: EngineStats | None = None,
        affinity: str | AffinityPolicy = "none",
    ) -> None:
        self.pool = pool
        self.policy = policy
        #: Locality layer: placement policy + residency tracker, or both
        #: ``None`` for ``affinity="none"`` — which is exactly the legacy
        #: least-loaded dispatch path (full encodings, no caches), the
        #: baseline the affinity benchmarks compare against.
        _policy = make_policy(affinity)
        if _policy.name == "none":
            self._affinity: AffinityPolicy | None = None
            self.residency: ResidencyTracker | None = None
        else:
            self._affinity = _policy
            if pool.residency is None:
                pool.residency = ResidencyTracker(pool.n_workers)
            self.residency = pool.residency
        self.shm_threshold = (
            shm_threshold if shm_threshold is not None else pool.shm_threshold
        )
        self.bus = bus
        self.stats = stats if stats is not None else EngineStats()
        self._call_seq = 0
        #: Records staged for (re-)dispatch, in arrival order.
        self._staged: deque[_CallRecord] = deque()
        #: Backoff queue: ``(fire_at_monotonic, record)``.
        self._delayed: list[tuple[float, _CallRecord]] = []
        #: call_id -> record for calls sitting in a worker's pipe/loop.
        self._assigned: dict[int, _CallRecord] = {}
        #: worker index -> call_ids currently assigned to it.
        self._worker_calls: dict[int, set[int]] = {
            i: set() for i in range(pool.n_workers)
        }
        self._completions: list[Completion] = []

    # -- public surface -------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Firings the supervisor still owes the executor a commit for."""
        return len(self._assigned) + len(self._staged) + len(self._delayed)

    def dispatch(self, pending: PendingOp) -> int:
        """Stage one remote firing for the next :meth:`pump`; returns
        its call id."""
        self._call_seq += 1
        record = _CallRecord(self._call_seq, pending)
        self._staged.append(record)
        self.stats.dispatched_fires += 1
        return record.call_id

    def take_completions(self) -> list[Completion]:
        out = self._completions
        self._completions = []
        return out

    def pump(self, block: bool) -> list[Completion]:
        """Advance the pool: send staged work, absorb results and faults.

        With ``block=True``, waits until at least one result, crash,
        timeout, or due retry makes progress possible; with ``False``,
        polls.  Returns (and clears) the buffered completions.
        """
        self._promote_delayed()
        self.flush()
        self._poll(self._wait_timeout(block))
        self._check_timeouts()
        self._promote_delayed()
        self.flush()
        return self.take_completions()

    def drain_in_flight(self) -> list[PendingOp]:
        """Abandon the pool: hand back every uncommitted firing.

        Reclaims/discards any encodings still outstanding and clears the
        supervisor's bookkeeping.  The caller (the degradation path)
        re-executes the returned pendings in-process — on fresh private
        argument copies, since remote pendings skipped physical COW.
        Workers still holding calls are killed first: their results are
        no longer wanted, and a live worker could write one into a
        segment this reclaims.
        """
        for worker, calls in self._worker_calls.items():
            if calls:
                self._kill_worker(worker)
        records = list(self._staged)
        records.extend(r for _, r in self._delayed)
        records.extend(self._assigned.values())
        self._staged.clear()
        self._delayed.clear()
        self._assigned.clear()
        for calls in self._worker_calls.values():
            calls.clear()
        for record in records:
            self._release_encodings(record, crashed=True, pid=None)
        return [r.pending for r in records]

    # -- encoding / staging ---------------------------------------------
    @staticmethod
    def _enc_values(enc_args: list[Any]) -> Any:
        """The :class:`EncodedValue` objects inside a wire-form argument
        list (plain entries and the payloads of ``("blk", ...)`` forms;
        ``("ref", ...)`` tokens carry none)."""
        for e in enc_args:
            if type(e) is tuple:
                if e[0] == "blk":
                    yield e[2]
            else:
                yield e

    def _encode(self, record: _CallRecord, worker: int) -> None:
        """Produce the wire-form argument list for ``worker``.

        Without the locality layer every argument is a plain
        :class:`EncodedValue` (the legacy path).  With it, an input that
        is a live block the worker already holds ships as a ``("ref",
        bid)`` token; a block input the worker does not hold ships as
        ``("blk", bid, enc)`` so the worker makes it resident for next
        time.  Only arguments that provably *are* a block's payload
        (identity-checked against ``pending.op_inputs``) and are not
        declared-``modifies`` positions participate — a worker must
        never cache a payload its operator is allowed to mutate.
        """
        pending = record.pending
        tracker = self.residency
        stats = self.stats
        bus = self.bus
        enc_args: list[Any] = []
        ref_bids: list[int] = []
        encoded_nbytes = 0
        if tracker is not None:
            modifies = pending.spec.modifies
            op_inputs = pending.op_inputs
            n_inputs = len(op_inputs)
            op_name = pending.spec.name
            use_refs = not record.no_ref
            for i, a in enumerate(pending.args):
                block = op_inputs[i] if i < n_inputs else None
                if (
                    type(block) is DataBlock
                    and block.payload is a
                    and i not in modifies
                ):
                    bid = tracker.ensure_bid(block)
                    if use_refs and tracker.resident(bid, worker):
                        enc_args.append(("ref", bid))
                        ref_bids.append(bid)
                        tracker.refs_shipped += 1
                        stats.blocks_ref_shipped += 1
                        stats.encode_bytes_avoided += block.nbytes
                        if bus is not None and bus.wants(BlockRefShipped):
                            bus.emit(
                                BlockRefShipped(
                                    bus.now(),
                                    bid,
                                    block.nbytes,
                                    worker,
                                    op_name,
                                )
                            )
                        continue
                    enc = encode_value(
                        a, self.shm_threshold, arena=self.pool.arena
                    )
                    encoded_nbytes += enc.nbytes
                    tracker.add(bid, worker)
                    stats.blocks_cached += 1
                    if bus is not None and bus.wants(BlockCached):
                        bus.emit(
                            BlockCached(
                                bus.now(), bid, block.nbytes, worker, "arg"
                            )
                        )
                    enc_args.append(("blk", bid, enc))
                    continue
                enc = encode_value(
                    a, self.shm_threshold, arena=self.pool.arena
                )
                encoded_nbytes += enc.nbytes
                enc_args.append(enc)
            record.rbid = tracker.reserve_bid()
        else:
            for a in pending.args:
                enc = encode_value(
                    a, self.shm_threshold, arena=self.pool.arena
                )
                encoded_nbytes += enc.nbytes
                enc_args.append(enc)
            record.rbid = None
        stats.encode_bytes += encoded_nbytes
        record.enc_args = enc_args
        record.ref_bids = ref_bids
        record.enc_worker = worker
        record.pooled = [
            e.shm_name
            for e in self._enc_values(enc_args)
            if e.pooled and e.shm_name is not None
        ]
        record.encoded = True
        if bus is not None and bus.wants(ShmBlockCreated):
            now = bus.now()
            for enc in self._enc_values(enc_args):
                if enc.shm_name is not None:
                    bus.emit(ShmBlockCreated(now, enc.shm_name, enc.shm_nbytes))

    def _release_encodings(
        self, record: _CallRecord, crashed: bool, pid: int | None
    ) -> None:
        """Retire a record's encodings.

        ``crashed=False`` is the normal path: the worker decoded (and
        for fresh segments unlinked) every argument before computing, and
        a result it wrote back into one of the pooled segments is already
        decoded, so only those segments need returning.  ``crashed=True``
        means consumption is unknown — and that the worker is dead or
        never saw the message, so nothing can still write a reply there:
        pooled segments are *reclaimed* and fresh segments unlinked
        best-effort.
        """
        if not record.encoded:
            return
        if crashed:
            reclaimed = self.pool.arena.reclaim(record.pooled)
            if reclaimed:
                bus = self.bus
                if bus is not None and bus.wants(ShmSegmentReclaimed):
                    now = bus.now()
                    for name, nbytes in reclaimed:
                        bus.emit(
                            ShmSegmentReclaimed(now, name, nbytes, pid or 0)
                        )
            for enc in self._enc_values(record.enc_args):
                if not enc.pooled:
                    discard_encoded(enc)
        else:
            for name in record.pooled:
                self.pool.arena.release(name)
        record.enc_args = []
        record.pooled = []
        record.ref_bids = []
        record.encoded = False

    def _least_loaded(self) -> int:
        return min(
            self._worker_calls, key=lambda i: len(self._worker_calls[i])
        )

    def _choose_worker(self, record: _CallRecord) -> int:
        """Pick the target worker for one call.

        Without affinity: least-loaded (the legacy rule).  With it:
        choose among *idle* workers only (work-conserving — when none is
        idle, fall back to least-loaded rather than queueing behind a
        preference, exactly the paper's "overridden if the desired
        processor is busy").  Data affinity feeds the shared
        :func:`~repro.runtime.affinity.input_residency` scan with the
        residency tracker's holders; operator affinity sees the call's
        operator name through a :class:`_DispatchLabel`.
        """
        policy = self._affinity
        if policy is None:
            return self._least_loaded()
        idle = [i for i, calls in self._worker_calls.items() if not calls]
        if not idle:
            return self._least_loaded()
        tracker = self.residency
        if tracker is not None and isinstance(policy, DataAffinity):
            bytes_by_worker = input_residency(
                record.pending.op_inputs, tracker.holders
            )
            return pick_most_resident(bytes_by_worker, idle)
        return policy.choose(
            _DispatchLabel(record.pending.spec.name), set(idle)
        )

    def flush(self) -> None:
        """Send every staged record, one call per message, in order.

        Records leave the staging queue one at a time, so a raise in the
        middle (a pool loss noticed on send, a poison fire) leaves the
        rest staged for :meth:`drain_in_flight`.
        """
        staged = self._staged
        while staged:
            self._send(staged.popleft())

    def _send(self, record: _CallRecord) -> None:
        """Send one call to its chosen worker.

        On a dead pipe the record goes back to the head of the staging
        queue and the crash path runs (respawn, or
        :class:`~repro.errors.PoolIrrecoverableError`).
        """
        worker = self._choose_worker(record)
        if record.encoded and record.enc_worker != worker and record.ref_bids:
            # The old encoding refs a different worker's cache — refs
            # are worker-bound, so drop it and re-encode.  The old
            # target never saw the message (crashed=True: its
            # consumption state is exactly "never consumed").
            self._release_encodings(record, crashed=True, pid=None)
        if not record.encoded:
            self._encode(record, worker)
        inval = (
            self.residency.take_invalidations(worker)
            if self.residency is not None
            else []
        )
        call = (
            record.call_id, record.pending.spec.name, record.enc_args,
            record.rbid,
        )
        try:
            self.pool.submit_to(worker, (inval, [call]))
        except (BrokenPipeError, OSError):
            # The worker died before taking the call: nothing executed,
            # so the record goes back to staging without an attempt
            # mark.  Its encodings are released on the crash path
            # (refs/blk entries bind to the dead worker's cache) and the
            # drained invalidations are moot — drop_worker purges the
            # queue a fresh respawn must not see.
            self._release_encodings(record, crashed=True, pid=None)
            self._staged.appendleft(record)
            process = self.pool.processes[worker]
            if process is not None and process.is_alive():
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
            self._handle_crash(worker)
            return
        self.stats.ipc_messages_sent += 1
        if self._affinity is not None:
            self._affinity.notify(
                _DispatchLabel(record.pending.spec.name), worker
            )
        calls = self._worker_calls[worker]
        calls.add(record.call_id)
        record.worker = worker
        timeout = self.policy.timeout
        # The worker runs its calls one after another: this one may wait
        # behind every call it already holds.
        record.deadline = (
            time.monotonic() + timeout * len(calls)
            if timeout is not None
            else None
        )
        self._assigned[record.call_id] = record
        bus = self.bus
        if bus is not None and bus.wants(TaskDispatched):
            encs = list(self._enc_values(record.enc_args))
            bus.emit(
                TaskDispatched(
                    bus.now(),
                    record.pending.spec.name,
                    record.call_id,
                    sum(e.nbytes for e in encs),
                    any(e.via_shm for e in encs),
                    record.pending.node_id,
                )
            )

    def locality_stats(self) -> dict[str, Any]:
        """Residency-tracker counters, or ``{}`` with affinity off."""
        tracker = self.residency
        return tracker.stats() if tracker is not None else {}

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time dispatch state (flight-recorder snapshot source).

        Called at dump time — possibly mid-crash-handling — so it only
        reads, never mutates, the bookkeeping.
        """
        assigned = [
            {
                "call_id": r.call_id,
                "operator": r.pending.spec.name,
                "node_id": r.pending.node_id,
                "worker": r.worker,
                "attempt": r.attempt_next,
            }
            for r in self._assigned.values()
        ]
        return {
            "in_flight": self.in_flight,
            "assigned": assigned,
            "staged": len(self._staged),
            "delayed": len(self._delayed),
            "completions_buffered": len(self._completions),
        }

    # -- waiting / absorption -------------------------------------------
    def _wait_timeout(self, block: bool) -> float | None:
        if not block:
            return 0.0
        now = time.monotonic()
        candidates: list[float] = []
        if self._delayed:
            candidates.append(min(t for t, _ in self._delayed))
        if self.policy.timeout is not None:
            deadlines = [
                r.deadline
                for r in self._assigned.values()
                if r.deadline is not None
            ]
            if deadlines:
                candidates.append(min(deadlines))
        if not candidates:
            return None if self._assigned else 0.0
        return max(0.0, min(candidates) - now)

    def _poll(self, timeout: float | None) -> bool:
        if not self._assigned:
            if timeout:
                time.sleep(min(timeout, 0.5))
            return False
        progressed = False
        for obj in self.pool.wait(timeout):
            worker = self.pool.worker_for_conn(obj)
            if worker is not None:
                try:
                    message = obj.recv()
                except (EOFError, OSError):
                    self._handle_crash(worker)
                    progressed = True
                    continue
                if message is not None:
                    self._absorb(message)
                    progressed = True
                continue
            worker = self.pool.worker_for_sentinel(obj)
            if worker is not None:
                self._handle_crash(worker)
                progressed = True
        return progressed

    def _absorb(self, message: tuple) -> None:
        """Take one worker reply: ``(worker_id, call_id, ok, payload, t0,
        duration, cached)`` (see :func:`~repro.runtime.workers.worker_main`)."""
        worker_id, call_id, ok, payload, t0, duration, cached = message
        self.stats.ipc_messages_received += 1
        record = self._assigned.pop(call_id, None)
        if record is None:
            # Already resolved via the crash path; a late success may
            # still own a fresh segment nobody will decode.
            if ok is True:
                discard_encoded(payload)
            return
        self._worker_calls[record.worker].discard(call_id)
        pending = record.pending
        if ok == "miss":
            # The worker's cache no longer held a ref-shipped block.  It
            # decoded every full encoding before resolving refs (pooled
            # segments were consumed), so release normally, correct the
            # residency belief, and re-dispatch fully encoded — no
            # attempt is recorded: nothing executed, and a miss must
            # never eat the retry budget.
            self._release_encodings(record, crashed=False, pid=None)
            tracker = self.residency
            if tracker is not None:
                for bid in payload:
                    tracker.discard(bid, worker_id)
                tracker.refs_missed += len(payload)
            record.no_ref = True
            record.worker = -1
            record.deadline = None
            self.stats.affinity_misses += 1
            bus = self.bus
            if bus is not None and bus.wants(AffinityMiss):
                bus.emit(
                    AffinityMiss(
                        bus.now(),
                        pending.spec.name,
                        call_id,
                        worker_id,
                        len(payload),
                    )
                )
            self._staged.append(record)
            return
        if ok:
            raw_payload: EncodedValue = payload
            # Decode before releasing: the result may sit in one of this
            # call's own argument segments, which stay lent (and mapped
            # here) exactly until the release below.
            arena = self.pool.arena
            try:
                raw = decode_value(
                    raw_payload, segment=arena.reply_segment(raw_payload)
                )
            finally:
                self._release_encodings(record, crashed=False, pid=None)
            self._completions.append(
                Completion(
                    pending,
                    raw,
                    call_id,
                    worker_id,
                    t0,
                    duration,
                    raw_payload.nbytes,
                    raw_payload.via_shm,
                    cached=bool(cached),
                    rbid=record.rbid,
                )
            )
            return
        self._release_encodings(record, crashed=False, pid=None)
        exc = _decode_exception(payload)
        pid = self._worker_pid(record.worker)
        self._record_failure(record, pid, f"raised: {exc!r}", exc, "error")

    def _record_failure(
        self,
        record: _CallRecord,
        pid: int | None,
        outcome: str,
        exc: BaseException | None,
        reason: str,
    ) -> None:
        """Mark one failed attempt; schedule a retry or declare poison."""
        attempt = record.attempt_next
        record.attempts.append((attempt, pid, outcome))
        if len(record.attempts) > self.policy.max_retries:
            cause = exc if exc is not None else RuntimeFailure(outcome)
            raise OperatorError(
                record.pending.spec.name,
                cause,
                node_id=record.pending.node_id,
                attempts=tuple(record.attempts),
                worker_pid=pid,
                label=record.pending.spec.label,
            ) from cause
        backoff = (
            self.policy.backoff * (2 ** (attempt - 1))
            if self.policy.backoff
            else 0.0
        )
        self.stats.fires_retried += 1
        bus = self.bus
        if bus is not None and bus.wants(FireRetried):
            bus.emit(
                FireRetried(
                    bus.now(),
                    record.pending.spec.name,
                    record.call_id,
                    record.pending.node_id,
                    attempt + 1,
                    reason,
                    backoff,
                )
            )
        record.worker = -1
        record.deadline = None
        if backoff > 0.0:
            self._delayed.append((time.monotonic() + backoff, record))
        else:
            self._staged.append(record)

    # -- faults ----------------------------------------------------------
    def _worker_pid(self, worker: int) -> int | None:
        if 0 <= worker < len(self.pool.processes):
            p = self.pool.processes[worker]
            return p.pid if p is not None else None
        return None

    def _kill_worker(self, worker: int) -> None:
        """Put a worker down and wait for it: nothing may be reclaimed
        from a process that can still write a reply."""
        process = self.pool.processes[worker]
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _handle_crash(
        self,
        worker: int,
        reason: str = "worker crashed",
        kind: str = "crash",
    ) -> None:
        """A worker died: salvage, reclaim, re-fire, respawn."""
        process = self.pool.processes[worker]
        if process is None or process.is_alive():
            return  # stale handle (already respawned this pump round)
        pid = process.pid
        exitcode = process.exitcode
        # Salvage results the worker completed before dying — before
        # anything below reclaims: a salvaged result is decoded out of
        # segments that are still lent to its own call.
        conn = self.pool.conns[worker]
        try:
            while conn is not None and conn.poll(0):
                message = conn.recv()
                if message is not None:
                    self._absorb(message)
        except (EOFError, OSError):
            pass
        lost_ids = [
            cid
            for cid in sorted(self._worker_calls[worker])
            if cid in self._assigned
        ]
        bus = self.bus
        if bus is not None and bus.wants(WorkerCrashed):
            # Emitted while the lost calls are still in ``_assigned``: a
            # flight recorder triggered by this event snapshots the
            # supervisor, and the dump must show the in-flight fires the
            # dead worker held.
            bus.emit(
                WorkerCrashed(
                    bus.now(), worker, pid or 0, exitcode, len(lost_ids)
                )
            )
        lost = [self._assigned.pop(cid) for cid in lost_ids]
        self._worker_calls[worker].clear()
        if self.residency is not None:
            # The cache died with the process: purge residency before
            # any re-fire so retries never ship refs into a dead (or
            # freshly respawned, hence empty) cache.
            self.residency.drop_worker(worker)
        if self.pool.respawns >= self.policy.max_respawns:
            # Put the lost records back so drain_in_flight can recover
            # them for the degradation path.
            self._staged.extend(lost)
            raise PoolIrrecoverableError(
                f"worker {worker} (pid {pid}) died with exit code "
                f"{exitcode} and the respawn budget is exhausted",
                respawns=self.pool.respawns,
            )
        self.pool.respawn(worker)
        if bus is not None and bus.wants(WorkerRespawned):
            bus.emit(
                WorkerRespawned(
                    bus.now(),
                    worker,
                    self.pool.processes[worker].pid or 0,
                    self.pool.respawns,
                )
            )
        # Deterministic re-fire: the worker held serialized copies only,
        # so the master-side pending is pristine and safe to re-dispatch.
        for record in lost:
            self._release_encodings(record, crashed=True, pid=pid)
            self._record_failure(record, pid, reason, None, kind)

    def _check_timeouts(self) -> None:
        if self.policy.timeout is None or not self._assigned:
            return
        now = time.monotonic()
        hung: dict[int, list[_CallRecord]] = {}
        for record in self._assigned.values():
            if record.deadline is not None and now > record.deadline:
                hung.setdefault(record.worker, []).append(record)
        bus = self.bus
        for worker, records in hung.items():
            if bus is not None and bus.wants(FireTimedOut):
                for record in records:
                    bus.emit(
                        FireTimedOut(
                            bus.now(),
                            record.pending.spec.name,
                            record.call_id,
                            worker,
                            self.policy.timeout,
                        )
                    )
            self._kill_worker(worker)
            timeout = self.policy.timeout
            self._handle_crash(
                worker,
                reason=f"timed out after {timeout}s",
                kind="timeout",
            )

    def _promote_delayed(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        due = [r for t, r in self._delayed if t <= now]
        self._delayed = [(t, r) for t, r in self._delayed if t > now]
        self._staged.extend(due)


def run_with_retries(
    spec: Any,
    args: tuple[Any, ...],
    policy: FaultPolicy | None,
    injector: Any = None,
    *,
    node_id: int = -1,
    on_retry: Callable[[int, BaseException], None] | None = None,
    failed: Exception | None = None,
) -> Any:
    """Execute one operator body in-process under the fault policy.

    The shared retry loop for the sequential and threaded executors and
    the process executor's inline path.  An installed fault injector is
    consulted *before* the body, so anything it raises is retryable for
    every operator; a real body exception is retried only when the
    operator declares no in-place writes (``spec.modifies`` empty — a
    failed mutating body may have left its argument half-written, and
    in-process there is no serialization boundary to hide that).

    ``failed`` is what attempt 1 raised when the caller already ran the
    body once, unwrapped, on its happy path: the loop continues from
    there with the same attempt numbering, backoff and error report.
    """
    max_retries = policy.max_retries if policy is not None else 0
    backoff = policy.backoff if policy is not None else 0.0
    attempts: list[tuple[int, int | None, str]] = []
    attempt = 0
    while True:
        attempt += 1
        pre_body = failed is None
        try:
            if failed is not None:
                first, failed = failed, None
                raise first
            if injector is not None:
                injector.on_call(spec.name)
            pre_body = False
            return spec.fn(*args)
        except Exception as exc:  # noqa: BLE001 - policy decides
            attempts.append((attempt, None, f"raised: {exc!r}"))
            retryable = pre_body or not spec.modifies
            if not retryable or attempt > max_retries:
                raise OperatorError(
                    spec.name,
                    exc,
                    node_id=node_id,
                    attempts=tuple(attempts) if len(attempts) > 1 else (),
                    label=spec.label,
                ) from exc
            if on_retry is not None:
                on_retry(attempt, exc)
            if backoff:
                time.sleep(backoff * (2 ** (attempt - 1)))
