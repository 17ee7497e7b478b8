"""The shared discrete-event network state.

One :class:`Network` is shared by all ranks of an SPMD run.  It owns:

* per-destination mailboxes with (source, tag) matching and per-channel FIFO
  ordering (deterministic regardless of execution interleaving),
* per-rank egress/ingress link availability for the LogGP-style occupancy
  model (see :mod:`repro.comm.model`),
* per-rank traffic counters (words/messages sent and received) used by the
  volume benchmarks and the Table 1 / Theorem 3.1 checks,
* an optional message trace for congestion analysis,
* an abort flag so one failing rank unblocks every other rank.

Execution modes
---------------

The network serves two runners (see :mod:`repro.comm.launcher`):

* **cooperative** (default): a scheduler (:class:`repro.comm.engine.
  CoopEngine`) attaches itself as ``net._sched``.  Exactly one rank executes
  at any time and switches happen only at blocking points, so every network
  operation runs single-threaded: the hot path takes **no locks**, uses no
  condition variables and never polls.  A blocked receive hands control to
  the scheduler, which resumes the rank when a matching message is posted.
  Immutable payloads and the audited ``sendrecv`` path travel zero-copy;
  ``isend`` buffers are write-locked via the loan registry
  (:meth:`take_loan` / :meth:`release_loans`) until the single
  ownership-transfer snapshot at delivery or seal (see
  :mod:`repro.comm.communicator`).
* **threaded** (``runner="threads"`` fallback): one free-running OS thread
  per rank; all state is guarded by ``_lock`` and blocked receivers park on
  per-destination condition variables (with a timeout so an abort is never
  missed).  Payloads are defensively deep-copied at post time.

Simulated time is schedule-independent in both modes: egress links are
booked in sender program order and ingress links in receiver program order,
so clocks, traffic counters and results are identical across runners.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CommError, RankFailedError, SimulatedRankCrash
from .faults import FaultPlan, FaultState, _window_factor
from .message import Message, TraceRecord
from .model import NetworkModel
from .payload import freeze as _freeze


@dataclass
class TrafficStats:
    """Immutable snapshot of per-rank traffic counters."""

    words_sent: np.ndarray
    words_recv: np.ndarray
    msgs_sent: np.ndarray
    msgs_recv: np.ndarray

    @property
    def total_words(self) -> int:
        return int(self.words_sent.sum())

    @property
    def max_words_recv(self) -> int:
        return int(self.words_recv.max())

    def __sub__(self, other: "TrafficStats") -> "TrafficStats":
        return TrafficStats(
            self.words_sent - other.words_sent,
            self.words_recv - other.words_recv,
            self.msgs_sent - other.msgs_sent,
            self.msgs_recv - other.msgs_recv,
        )


class Network:
    """Shared state of the simulated machine for ``nranks`` ranks."""

    #: polling interval for blocked receivers to notice an abort
    #: (threaded runner only; the cooperative runner never polls)
    _WAIT_TIMEOUT = 0.2

    def __init__(self, nranks: int, model: Optional[NetworkModel] = None, *,
                 trace: bool = False, faults: Optional[FaultPlan] = None,
                 sanitize: bool = False):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        #: the live slots in rank order: every slot until an elastic
        #: shrink replaces the tuple with the survivor group (see
        #: :meth:`_finish_shrink`).  A communicator that spans it can run
        #: its collectives as one engine rendezvous; per-slot state below
        #: is always indexed by slot, so world-level executors translate
        #: group rank ``r`` to ``world[r]``.
        self.world: Tuple[int, ...] = tuple(range(nranks))
        #: a declared death inside ``world`` (cleared by the shrink that
        #: removes it): the world's rendezvous can no longer complete
        self._world_dead = False
        self.model = model or NetworkModel()
        self._lock = threading.Lock()
        self._conds = [threading.Condition(self._lock) for _ in range(nranks)]
        # Per-destination mailboxes, keyed by channel (source, tag): pop is
        # an O(1) dict lookup + popleft, and per-channel FIFO (= sequence
        # order, since posts append in sender program order) is preserved
        # by construction.  Matching is always exact — there is no
        # ANY_SOURCE/ANY_TAG — so no cross-channel ordering is needed.
        self._queues: List[Dict[Tuple[int, int], Deque[Message]]] = [
            {} for _ in range(nranks)]
        # Scalar per-rank state lives in plain Python lists: indexed scalar
        # reads/writes dominate the per-message hot path and are ~10x
        # cheaper on lists than on numpy arrays (no scalar boxing).  All
        # external consumers only index these read-only; aggregate views
        # come from :meth:`stats` / :attr:`makespan`.
        self._seq: List[List[int]] = [[0] * nranks for _ in range(nranks)]
        self.egress_free: List[float] = [0.0] * nranks
        self.ingress_free: List[float] = [0.0] * nranks
        self.clocks: List[float] = [0.0] * nranks
        self.words_sent: List[int] = [0] * nranks
        self.words_recv: List[int] = [0] * nranks
        self.msgs_sent: List[int] = [0] * nranks
        self.msgs_recv: List[int] = [0] * nranks
        self.trace_enabled = trace
        self.trace: List[TraceRecord] = []
        #: collective-algorithm provenance (auditable sweeps): keyed by
        #: ``(collective, concrete_algorithm, selection_mode)`` with
        #: ``{"calls", "words"}`` totals; recorded once per collective call
        #: (rank 0) by the dispatchers in :mod:`repro.comm.collectives`
        self.algorithm_log: Dict[Tuple[str, str, str], Dict[str, int]] = {}
        #: this run's schedules keyed on message sizes (see
        #: :func:`repro.comm.fused.compiled`), built and freed with it
        self.schedules: Dict[tuple, Any] = {}
        self._abort_exc: Optional[BaseException] = None
        #: cooperative scheduler, attached by the engine for the duration of
        #: a run; ``None`` means threaded (locked) mode
        self._sched = None
        #: lockstep rank-batching state of the section in progress (see
        #: :mod:`repro.train.rankbatch`); the engine drops it at section end
        self._rank_batch_state = None
        #: send-buffer loan registry (cooperative zero-copy mode):
        #: id(arr) -> [arr, refcount]; arrays are write-locked while loaned
        self._loans: Dict[int, list] = {}
        #: runtime sanitizer mode (see repro.comm.launcher): loan-window
        #: writability is verified at release, received threads-mode
        #: snapshots are write-locked, and the launcher audits mailboxes
        #: and replays under a perturbed schedule on success
        self.sanitize = bool(sanitize)
        #: human-readable loan-protocol violations collected while
        #: ``sanitize`` is on (raised by the launcher at section end)
        self._sanitize_violations: List[str] = []
        #: compiled fault plan; None keeps every hot path byte-identical to
        #: the fault-free simulator (see repro.comm.faults)
        self.fault_plan = faults
        self.faults: Optional[FaultState] = (
            faults.compile(nranks) if faults is not None else None)
        # --- fail-stop / elastic-recovery bookkeeping -----------------
        #: slot -> SimulatedRankCrash of every declared-dead rank
        self._dead: Dict[int, SimulatedRankCrash] = {}
        #: simulated time by which every declared death is detectable
        self._detect_time = 0.0
        #: survivors currently unwinding with a RankFailedError (they may
        #: still recover by entering shrink); peers blocked on them detect
        self._failstop: set[int] = set()
        #: ranks whose program has returned (or failed) to the launcher
        self._exited: set[int] = set()
        #: survivors parked at the elastic shrink barrier
        self._shrink_parked: set[int] = set()
        self._shrink_epoch = 0
        self._shrink_result: tuple[int, ...] = ()
        self._shrink_cond = threading.Condition(self._lock)

    @property
    def cooperative(self) -> bool:
        """True while a cooperative scheduler drives this network."""
        return self._sched is not None

    # ------------------------------------------------------------------
    # Posting and matching
    # ------------------------------------------------------------------
    def post(self, src: int, dst: int, tag: int, payload: Any,
             nwords_: int, sender_clock: float) -> tuple[Message, float]:
        """Book the egress link, enqueue the message, and return it together
        with the simulated time at which the sender's buffer is free."""
        if not 0 <= dst < self.nranks:
            raise CommError(f"invalid destination rank {dst}")
        if self._sched is not None:  # single-threaded: lock-free
            return self._post_impl(src, dst, tag, payload, nwords_,
                                   sender_clock)
        with self._lock:
            return self._post_impl(src, dst, tag, payload, nwords_,
                                   sender_clock)

    def _post_impl(self, src: int, dst: int, tag: int, payload: Any,
                   nwords_: int, sender_clock: float) -> tuple[Message, float]:
        if self._abort_exc is not None:
            self._check_abort()
        m = self.model
        beta = m.beta
        if self.faults is not None:
            self._crash_check(src)
            if self.faults.link_faulty[src]:
                beta *= self.faults.egress_factor(
                    src, max(self.egress_free[src], sender_clock))
        t_start = self.egress_free[src]
        if sender_clock > t_start:
            t_start = sender_clock
        t_end_tx = t_start + beta * nwords_
        self.egress_free[src] = t_end_tx
        row = self._seq[src]
        msg = Message(src, dst, tag, row[dst], payload, nwords_,
                      t_start, t_start + m.alpha)
        row[dst] += 1
        self.words_sent[src] += nwords_
        self.msgs_sent[src] += 1
        mailbox = self._queues[dst]
        key = (src, tag)
        chan = mailbox.get(key)
        if chan is None:
            chan = mailbox[key] = deque()
        chan.append(msg)
        if self._sched is not None:
            self._sched.on_post(msg)
        else:
            self._conds[dst].notify_all()
        return msg, t_end_tx + m.o_send

    def try_match(self, dst: int, source: int, tag: int) -> Optional[Message]:
        """Pop the earliest-sequence matching message, or return None.

        Under the cooperative runner a miss *yields the token* before
        reporting None, so ``while not req.test(): ...`` polling loops give
        the prospective sender a chance to run instead of livelocking.
        """
        if self._sched is not None:
            return self._sched.try_match(dst, source, tag)
        with self._lock:
            self._check_abort()
            if self.faults is not None:
                self._crash_check(dst)
            msg = self._pop_match(dst, source, tag)
            if msg is None and self._dead and source in self._failed_peers():
                raise self._fail_detect(dst)
            return msg

    def match_blocking(self, dst: int, source: int, tag: int) -> Message:
        """Block until a matching message arrives, then pop it.

        Cooperative mode hands control to the scheduler (the rank is resumed
        exactly when a matching message is posted); threaded mode parks on
        the destination's condition variable.
        """
        if self._sched is not None:
            return self._sched.match_blocking(dst, source, tag)
        cond = self._conds[dst]
        with cond:
            while True:
                self._check_abort()
                if self.faults is not None:
                    self._crash_check(dst)
                msg = self._pop_match(dst, source, tag)
                if msg is not None:
                    return msg
                if self._dead and source in self._failed_peers():
                    raise self._fail_detect(dst)
                cond.wait(self._WAIT_TIMEOUT)

    def _pop_match(self, dst: int, source: int,
                   tag: int) -> Optional[Message]:
        chan = self._queues[dst].get((source, tag))
        if chan:
            return chan.popleft()
        return None

    # ------------------------------------------------------------------
    # Delivery: ingress booking, in receiver program order
    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> float:
        """Book the ingress link for a matched message; returns its
        completion time in simulated seconds."""
        if self._sched is not None:
            return self._deliver_impl(msg)
        with self._lock:
            return self._deliver_impl(msg)

    def _deliver_impl(self, msg: Message) -> float:
        dst = msg.dst
        t_done = self.ingress_free[dst]
        if msg.t_first > t_done:
            t_done = msg.t_first
        beta = self.model.beta
        if self.faults is not None and self.faults.link_faulty[dst]:
            beta *= self.faults.ingress_factor(dst, t_done)
        t_done += beta * msg.nwords
        self.ingress_free[dst] = t_done
        msg.t_done = t_done
        self.words_recv[dst] += msg.nwords
        self.msgs_recv[dst] += 1
        if msg.loans:
            # End of the loan: the receiver takes ownership of a private
            # snapshot.  Copying here (instead of at post time) means a
            # message whose sender waited first is copied exactly once at
            # the seal, and the sender may legally reuse its buffer after
            # wait() without ever aliasing what the receiver holds.
            msg.payload = _freeze(msg.payload, readonly=True)
            self.release_loans(msg)
        if self.trace_enabled:
            self.trace.append(TraceRecord(
                msg.src, dst, msg.tag, msg.nwords,
                msg.t_start_tx, msg.t_first, t_done))
        return t_done

    # ------------------------------------------------------------------
    # Send-buffer loans (cooperative zero-copy mode)
    # ------------------------------------------------------------------
    # A sender's array is "on loan" from isend until the message is
    # delivered (or sealed by an early wait): the array is write-locked so
    # a contract-violating mutation raises instead of corrupting the
    # receiver (mutation through a pre-existing writable alias is the one
    # undetectable exception — numpy flags are per-object).  Loans are
    # refcounted because the same buffer may back several in-flight
    # messages; the engine drains unfinished loans at section end.
    def take_loan(self, arr: np.ndarray) -> int:
        """Write-lock ``arr`` for the duration of a message flight; returns
        the registry key to store on the message."""
        key = id(arr)
        entry = self._loans.get(key)
        if entry is None:
            self._loans[key] = [arr, 1]
            arr.setflags(write=False)
        else:
            entry[1] += 1
        return key

    def release_loans(self, msg: Message) -> None:
        """Return the loaned buffers of ``msg`` to their owner."""
        for key in msg.loans:
            entry = self._loans.get(key)
            if entry is None:  # pragma: no cover - defensive
                continue
            if self.sanitize and entry[0].flags.writeable:
                # take_loan() write-locked this array; finding it writable
                # at release means someone re-enabled writes mid-loan
                # (a setflags bypass of the ownership contract).
                arr = entry[0]
                self._sanitize_violations.append(
                    f"array(shape={arr.shape}, dtype={arr.dtype}) backing "
                    f"message {msg.src}->{msg.dst} tag={msg.tag} "
                    f"seq={msg.seq} was made writable during its loan "
                    f"window")
            entry[1] -= 1
            if entry[1] == 0:
                del self._loans[key]
                entry[0].setflags(write=True)
        msg.loans = ()

    # ------------------------------------------------------------------
    # Abort handling
    # ------------------------------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """Mark the run as failed; wakes all blocked receivers."""
        with self._lock:
            if self._abort_exc is None:
                self._abort_exc = exc
            for cond in self._conds:
                cond.notify_all()
            self._shrink_cond.notify_all()

    def _check_abort(self) -> None:
        if self._abort_exc is not None:
            raise CommError(
                f"SPMD run aborted by a peer rank: {self._abort_exc!r}")

    @property
    def aborted(self) -> bool:
        return self._abort_exc is not None

    # ------------------------------------------------------------------
    # Fail-stop faults and elastic shrink (see repro.comm.faults)
    # ------------------------------------------------------------------
    # A planned crash raises SimulatedRankCrash in the dying rank at a
    # deterministic program point and *declares* the death on the shared
    # state.  Survivors detect it only at blocking points — a receive
    # whose source can never answer raises RankFailedError with the
    # rank's clock charged to ``death_time + detect_timeout`` — so the
    # detection program point and clock are identical across runners.
    # Survivors that catch the error may re-join through :meth:`shrink`
    # (a barrier over the remaining ranks, ULFM ``MPI_Comm_shrink``
    # style); everyone else unwinds to the launcher.

    @property
    def dead_ranks(self) -> tuple:
        return tuple(sorted(self._dead))

    def revoke(self, rank: int, time: Optional[float] = None) -> None:
        """Externally declare ``rank`` dead (the ULFM ``comm_revoke``
        analog; fault plans use the same path internally).  The revoked
        rank is not interrupted — tests pair this with a program that
        returns right after revoking itself."""
        t = self.clocks[rank] if time is None else float(time)
        exc = SimulatedRankCrash(rank, t)
        if self._sched is not None:
            self._declare_dead(rank, exc)
        else:
            with self._lock:
                self._declare_dead(rank, exc)

    def _crash_check(self, rank: int) -> None:
        """Die if ``rank``'s clock has reached its planned crash time
        (callers gate on ``self.faults is not None``)."""
        # repro-lint: ignore[RL003] -- contract documented above: every
        # caller gates on `self.faults is not None` before dispatching here.
        if self.clocks[rank] >= self.faults.crash_time[rank]:
            raise self._crash_now(rank)

    def _crash_now(self, rank: int) -> SimulatedRankCrash:
        exc = SimulatedRankCrash(rank, self.clocks[rank])
        self._declare_dead(rank, exc)
        return exc

    def _crash_outside_lock(self, rank: int) -> SimulatedRankCrash:
        """Like :meth:`_crash_now`, for callers that do *not* hold the
        network lock (``SimComm.compute``/``maybe_crash`` run outside
        it under the threaded runner)."""
        if self._sched is None:
            with self._lock:
                return self._crash_now(rank)
        return self._crash_now(rank)

    def _declare_dead(self, rank: int, exc: SimulatedRankCrash) -> None:
        """Record a death; threads-mode callers hold (or are given) the
        lock, cooperative mode is single-threaded."""
        if rank in self._dead:
            return
        self._dead[rank] = exc
        if rank in self.world:
            self._world_dead = True
        timeout = self.faults.detect_timeout if self.faults is not None \
            else 0.0
        deadline = exc.time + timeout
        if deadline > self._detect_time:
            self._detect_time = deadline
        if self._sched is None:
            for cond in self._conds:
                cond.notify_all()
            self._shrink_cond.notify_all()

    def _failed_peers(self) -> set:
        """Ranks that will never post again: dead, unwinding with a
        detection error, exited, or parked at the shrink barrier."""
        return set(self._dead) | self._failstop | self._exited \
            | self._shrink_parked

    def _fail_detect(self, rank: int) -> RankFailedError:
        """Charge ``rank``'s detection latency, mark it fail-stopped (so
        peers blocked on *it* detect transitively) and build the error."""
        if self._detect_time > self.clocks[rank]:
            self.clocks[rank] = self._detect_time
        self._failstop.add(rank)
        if self._sched is None:
            for cond in self._conds:
                cond.notify_all()
            self._shrink_cond.notify_all()
        return RankFailedError(dict(self._dead))

    def _begin_section(self) -> None:
        """Reset per-section failure bookkeeping (a network may be reused
        across SPMD sections; declared deaths are permanent, the
        exited/fail-stopped sets are not)."""
        self._exited.clear()
        self._failstop.clear()
        self._shrink_parked.clear()

    def _on_rank_exit(self, rank: int) -> None:
        """A rank's program returned (or failed) to the launcher: it will
        never post again, and shrink barriers must stop counting it."""
        if self._sched is not None:
            self._exited.add(rank)
            return
        with self._lock:
            self._exited.add(rank)
            if self._dead:
                for cond in self._conds:
                    cond.notify_all()
            self._maybe_finish_shrink()
            self._shrink_cond.notify_all()

    def shrink(self, rank: int) -> tuple:
        """Elastic shrink barrier: park until every remaining live rank
        has joined, then return the sorted tuple of surviving slots.

        The completing arrival flushes all mailboxes (in-flight traffic
        of the interrupted iteration, including anything a rank posted
        before dying), releases their send-buffer loans, and synchronizes
        the group's clocks to ``max(group clocks, detection deadline)``
        — all deterministic, so the resumed world is bit-identical
        across runners.
        """
        if self._sched is not None:
            return self._sched.shrink(rank)
        with self._lock:
            epoch = self._shrink_epoch
            self._failstop.discard(rank)
            self._shrink_parked.add(rank)
            for cond in self._conds:
                cond.notify_all()
            if not self._maybe_finish_shrink():
                while self._shrink_epoch == epoch:
                    self._check_abort()
                    self._shrink_cond.wait(self._WAIT_TIMEOUT)
                    if self._shrink_epoch != epoch:
                        break
                    self._maybe_finish_shrink()
            return self._shrink_result

    def _maybe_finish_shrink(self) -> bool:
        parked = self._shrink_parked
        if not parked:
            return False
        gone = set(self._dead) | self._exited
        if len(parked) < self.nranks - len(gone):
            return False
        self._finish_shrink()
        return True

    def _finish_shrink(self) -> None:
        group = tuple(sorted(self._shrink_parked))
        self._flush_mailboxes()
        t_sync = self._detect_time
        for r in group:
            if self.clocks[r] > t_sync:
                t_sync = self.clocks[r]
        for r in group:
            self.clocks[r] = t_sync
        self._failstop.difference_update(group)
        self._shrink_parked.clear()
        self._shrink_result = group
        self.world = group
        self._world_dead = not self._dead.keys().isdisjoint(group)
        self._shrink_epoch += 1
        if self._sched is None:
            self._shrink_cond.notify_all()

    def _flush_mailboxes(self) -> None:
        """Drop every undelivered message (the interrupted iteration's
        traffic), returning any send-buffer loans."""
        for mailbox in self._queues:
            for chan in mailbox.values():
                for msg in chan:
                    if msg.loans:
                        self.release_loans(msg)
                chan.clear()

    def undelivered_messages(self) -> List[dict]:
        """Snapshot of every message still sitting in a mailbox, as dicts
        with keys ``src``/``dst``/``tag``/``seq``/``nwords`` in
        deterministic (dst, src, tag, seq) order.  The sanitizer's
        end-of-section audit turns a non-empty answer into a
        :class:`repro.errors.MailboxLeakError`."""
        out: List[dict] = []
        for dst, mailbox in enumerate(self._queues):
            for (src, tag) in sorted(mailbox):
                for msg in mailbox[(src, tag)]:
                    out.append({"src": src, "dst": dst, "tag": tag,
                                "seq": msg.seq, "nwords": msg.nwords})
        return out

    def _serialize_link(self, windows: list, free: float,
                        avail: np.ndarray, nwords: np.ndarray,
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Book a message batch on a link free at ``free`` that a plan
        slows in ``windows``: the fold of :meth:`_post_impl` (egress) or
        :meth:`_deliver_impl` (ingress) message by message, each factor
        evaluated at its booking's start.  The fused Ok-Topk
        split-and-reduce executor books its slow-link rows with it."""
        beta = self.model.beta
        starts, ends = [], []
        end = free
        for a, n in zip(avail.tolist(), nwords.tolist()):
            start = end if end > a else a
            end = start + beta * _window_factor(windows, start) * n
            starts.append(start)
            ends.append(end)
        return np.array(starts), np.array(ends)

    def save_rank_state(self, rank: int) -> tuple:
        """Snapshot ``rank``'s own clock, link occupancy and counters.

        Every one of these entries is mutated only by rank ``rank``'s own
        program actions (posts touch sender entries, deliveries receiver
        entries), so a rank may checkpoint/roll back its *own* slice at its
        own program points with no global quiesce: this is what lets
        :func:`repro.train.xi.measure_xi` roll back a diagnostic collective
        completely — each rank restores after its last receive, and no
        later delivery by a peer can touch the restored entries.
        """
        return (self.clocks[rank], self.egress_free[rank],
                self.ingress_free[rank], self.words_sent[rank],
                self.words_recv[rank], self.msgs_sent[rank],
                self.msgs_recv[rank])

    def restore_rank_state(self, rank: int, state: tuple) -> None:
        """Roll back the entries captured by :meth:`save_rank_state`."""
        (self.clocks[rank], self.egress_free[rank],
         self.ingress_free[rank], self.words_sent[rank],
         self.words_recv[rank], self.msgs_sent[rank],
         self.msgs_recv[rank]) = state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> TrafficStats:
        with self._lock:
            return TrafficStats(
                np.array(self.words_sent, dtype=np.int64),
                np.array(self.words_recv, dtype=np.int64),
                np.array(self.msgs_sent, dtype=np.int64),
                np.array(self.msgs_recv, dtype=np.int64))

    def reset_stats(self) -> None:
        with self._lock:
            n = self.nranks
            self.words_sent[:] = [0] * n
            self.words_recv[:] = [0] * n
            self.msgs_sent[:] = [0] * n
            self.msgs_recv[:] = [0] * n
            self.trace.clear()
            self.algorithm_log.clear()

    def note_algorithm(self, collective: str, algorithm: str, mode: str,
                       nwords_: int) -> None:
        """Record one collective call's (algorithm, selection-mode)
        provenance; callers invoke this from exactly one rank per call."""
        key = (collective, algorithm, mode)
        if self._sched is not None:  # single-threaded: lock-free
            entry = self.algorithm_log.get(key)
            if entry is None:
                self.algorithm_log[key] = {"calls": 1, "words": nwords_}
            else:
                entry["calls"] += 1
                entry["words"] += nwords_
            return
        with self._lock:
            entry = self.algorithm_log.get(key)
            if entry is None:
                self.algorithm_log[key] = {"calls": 1, "words": nwords_}
            else:
                entry["calls"] += 1
                entry["words"] += nwords_

    def algorithm_provenance(self) -> Dict[str, Dict[str, int]]:
        """JSON-able snapshot of :attr:`algorithm_log`:
        ``"collective/algorithm/mode" -> {"calls", "words"}``."""
        return {"/".join(key): dict(val)
                for key, val in sorted(self.algorithm_log.items())}

    @property
    def makespan(self) -> float:
        """Latest simulated clock across ranks."""
        return max(self.clocks)
