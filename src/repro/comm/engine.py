"""Deterministic cooperative SPMD engine (the default runner).

The seed simulator ran one free-running OS thread per rank, serialized on a
single network lock, and woke blocked receivers through condition variables
with a 0.2 s poll — so every message paid for lock contention, GIL thrash
and wake-up latency.  This engine replaces that with **cooperative
scheduling**: rank programs still look like ordinary blocking MPI code, but
control switches between ranks only at blocking points (an unmatched
``recv``/``waitall``), driven by a single logical thread of control.

Because ``greenlet``-style stackful coroutines are not available, each rank
continuation is carried by a *parked* OS thread: the thread exists only to
hold the rank's Python stack while it is suspended.  Execution is strictly
serialized — exactly one rank (or the launcher) holds the *token* at any
time, and hand-offs are direct (blocking rank → next runnable rank) with no
scheduler bounce in between.  Consequences:

* the network hot path is single-threaded: no locks, no condition
  variables, no polling (see :mod:`repro.comm.network`);
* immutable payloads and the audited ``sendrecv`` path travel zero-copy,
  and ``isend`` buffers are protected by a write-lock loan ending in a
  single snapshot — see :mod:`repro.comm.communicator`;
* scheduling is deterministic: runnable ranks run in FIFO order, a rank
  blocked on ``(source, tag)`` is made runnable exactly when a matching
  message is posted, and simulated time is schedule-independent anyway
  (links are booked in program order), so results, traffic counters and
  makespans are bit-identical to the threaded runner;
* a global deadlock (every live rank blocked on a receive that can never
  match) is *detected* and reported as :class:`repro.errors.DeadlockError`
  instead of hanging.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Tuple

from typing import Optional

from ..errors import CommError, DeadlockError, RankFailedError, \
    SimulatedRankCrash
from .communicator import SimComm
from . import fused as _fused
from .message import Message
from .network import Network
from .payload import freeze as _freeze


class _Rendezvous:
    """State of one in-progress fused collective (engine-level
    macro-collective) of the network's current world; payloads and
    results are in group-rank order.  At most one exists at a time: every
    rank of the world participates in every collective, so a rank cannot
    reach rendezvous ``g + 1`` before generation ``g`` completed."""

    __slots__ = ("sig", "payloads", "results", "count")

    def __init__(self, sig: tuple, size: int):
        self.sig = sig
        self.payloads: list = [None] * size
        self.results: list = []
        self.count = 0


class CoopEngine:
    """One-shot cooperative scheduler for a single SPMD section."""

    def __init__(self, net: Network, nranks: int, *,
                 fused: Optional[bool] = None,
                 schedule_seed: Optional[int] = None):
        self.net = net
        self.nranks = nranks
        #: the fast path — every rendezvous: fused collectives, world
        #: executors and rank batching (see repro.comm.fused); resolved
        #: from REPRO_FUSED when not given explicitly
        self.fused = _fused.fusion_enabled() if fused is None else bool(fused)
        #: schedule-perturbation source (sanitizer race detector): when
        #: set, :meth:`_pop_ready` picks a seeded-random runnable rank
        #: instead of the FIFO head.  Simulated time is
        #: schedule-independent (links are booked in program order), so a
        #: correct program is bit-identical under any seed; a program
        #: whose outcome shifts is communicating through shared Python
        #: state instead of the network.
        self._sched_rng = (random.Random(schedule_seed)
                          if schedule_seed is not None else None)
        #: in-progress fused collective, if any
        self._rv: Optional[_Rendezvous] = None
        #: slots parked at the rendezvous (in arrival order)
        self._rv_parked: list[int] = []
        # Parking slots: raw locks are the cheapest wait/wake primitive in
        # CPython (a bare futex, ~3x cheaper than Event).  Each lock starts
        # acquired; "wake" = release, "park" = acquire.  The engine's
        # ready/waiting bookkeeping guarantees one wake per park, and a
        # wake-before-park simply makes the park fall through, so no
        # wakeups can be lost.
        self._resume = [threading.Lock() for _ in range(nranks)]
        for lock in self._resume:
            lock.acquire()
        self._main = threading.Lock()
        self._main.acquire()
        self._ready: deque[int] = deque()
        #: rank -> (source, tag) it is blocked on
        self._waiting: Dict[int, Tuple[int, int]] = {}
        #: ranks suspended at the elastic shrink barrier
        self._shrink_waiting: set[int] = set()

    # ------------------------------------------------------------------
    #

    def run(self, fn: Callable[..., Any], args: tuple, kwargs: dict,
            ) -> Tuple[List[Any], Dict[int, BaseException]]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank to completion.

        Returns per-rank results and the failure map (same attribution
        rules as the threaded runner: secondary ``CommError`` unwinds
        caused by an abort are suppressed unless they are the origin).
        """
        results: List[Any] = [None] * self.nranks
        failures: Dict[int, BaseException] = {}
        net = self.net
        if net._sched is not None:
            raise RuntimeError("network already driven by another engine")
        threads = [
            threading.Thread(
                target=self._rank_main,
                args=(rank, fn, args, kwargs, results, failures),
                daemon=True, name=f"coop-rank-{rank}")
            for rank in range(self.nranks)
        ]
        net._sched = self
        net._begin_section()
        try:
            for t in threads:
                t.start()
            # Hand the token to rank 0; ranks then pass it among themselves
            # and the launcher regains control only when all are done.
            self._ready.extend(range(self.nranks))
            self._hand_off()
            self._main.acquire()
        finally:
            self._close_section()
        for t in threads:
            t.join()
        return results, failures

    def _close_section(self) -> None:
        """Detach from the network when the SPMD section ends."""
        net = self.net
        net._sched = None
        self._drain_loans()
        # The lockstep executors' world state (stacked model, (P, n)
        # matrices, scratch) is only meaningful under a rendezvous engine:
        # dropping it here frees a finished world by reference count.
        net._rank_batch_state = None

    def _drain_loans(self) -> None:
        """End every outstanding loan when the SPMD section closes.

        A message that was posted but never received (legal under eager
        semantics) or orphaned by an abort would otherwise leave its
        sender's buffer read-only forever.  Undelivered loaned payloads are
        sealed first so a network reused for a later section still hands
        receivers data from before the loan ended."""
        net = self.net
        for mailbox in net._queues:
            for chan in mailbox.values():
                for msg in chan:
                    if msg.loans:
                        msg.payload = _freeze(msg.payload, readonly=True)
                        net.release_loans(msg)
        # Entries whose messages are gone (popped but never delivered when
        # an abort unwound the receiver): restore writability directly.
        for key in list(net._loans):
            arr, _count = net._loans.pop(key)
            if net.sanitize and arr.flags.writeable:
                net._sanitize_violations.append(
                    f"array(shape={arr.shape}, dtype={arr.dtype}) was "
                    f"made writable during its loan window (loan still "
                    f"open at section end)")
            arr.setflags(write=True)

    # ------------------------------------------------------------------
    # Network-facing hooks (called while a rank thread holds the token)
    # ------------------------------------------------------------------
    def on_post(self, msg: Message) -> None:
        """A message was appended to ``msg.dst``'s mailbox: make the
        destination runnable if this is what it was blocked on."""
        want = self._waiting.get(msg.dst)
        if want is not None and msg.matches(*want):
            del self._waiting[msg.dst]
            self._ready.append(msg.dst)

    def match_blocking(self, dst: int, source: int, tag: int) -> Message:
        """Pop the earliest matching message for ``dst``, suspending the
        rank until one is available."""
        net = self.net
        while True:
            net._check_abort()
            if net.faults is not None:
                net._crash_check(dst)
            msg = net._pop_match(dst, source, tag)
            if msg is not None:
                return msg
            if net._dead and source in net._failed_peers():
                raise net._fail_detect(dst)
            self._waiting[dst] = (source, tag)
            self._suspend(dst)

    def collective(self, slot: int, rank: int, sig: tuple, payload,
                   executor):
        """Run a fused collective: park the caller at the rendezvous until
        every rank of the network's current world has arrived, then
        execute once, centrally.

        The caller is rank ``rank`` of that world and runs on network slot
        ``slot`` (equal until an elastic shrink re-numbers the survivors):
        the rendezvous is sized by the world, payloads and results are
        indexed by group rank, parking and waking go by slot.  Callers
        gate on :func:`repro.comm.fused._available` — the communicator
        spans the current world and nothing planned can kill a
        participant before the rendezvous completes.

        ``sig`` is the collective's structural signature — it must be
        identical on every rank (same collective, entered in the same
        global order; SPMD programs satisfy this by construction, and a
        mismatch aborts the run instead of deadlocking rank by rank).
        ``payload`` carries the rank's data contribution and ``executor``
        (a module-level function, identical across ranks) receives
        ``(net, sig, payloads)`` and returns the per-rank results.

        The last arrival executes while holding the token, so the whole
        collective — schedule replay and the central reduction — runs
        as one uninterrupted dispatch; the parked ranks are then made
        runnable in rank order.  Aborts (including the deadlock detector,
        which treats rendezvous-parked ranks as blocked) wake parked
        ranks through :meth:`_hand_off`'s abort branch.
        """
        net = self.net
        net._check_abort()
        if net.faults is not None:
            net._crash_check(slot)
        if net._world_dead:
            # The rendezvous needs every rank of the world; a declared
            # death inside it means it can never complete.
            raise net._fail_detect(slot)
        rv = self._rv
        if rv is None:
            rv = self._rv = _Rendezvous(sig, len(net.world))
        elif rv.sig != sig:
            exc = CommError(
                f"fused collective mismatch: rank {rank} entered {sig[0]!r} "
                f"{sig!r} while other ranks are in {rv.sig!r} — all ranks "
                f"must run the same collectives in the same order")
            net.abort(exc)
            raise exc
        rv.payloads[rank] = payload
        rv.count += 1
        if rv.count < len(rv.payloads):
            self._rv_parked.append(slot)
            self._suspend(slot)
            net._check_abort()
            if not rv.results:
                # Woken by the revoke path, not by completion: a
                # participant died while we were parked.
                raise net._fail_detect(slot)
            return rv.results[rank]
        # Last arrival: run the whole collective as one fused dispatch.
        self._rv = None
        rv.results = executor(net, sig, rv.payloads)
        # Ready the parked participants in slot (= rank) order.
        self._ready.extend(sorted(self._rv_parked))
        self._rv_parked = []
        return rv.results[rank]

    def shrink(self, rank: int) -> tuple:
        """Engine side of :meth:`Network.shrink`: park ``rank`` at the
        barrier; the arrival (or exit event) that makes the barrier
        complete finishes the shrink and readies the parked ranks."""
        net = self.net
        net._failstop.discard(rank)
        net._shrink_parked.add(rank)
        epoch = net._shrink_epoch
        self._check_shrink()
        if net._shrink_epoch == epoch:
            self._shrink_waiting.add(rank)
            self._suspend(rank)
            net._check_abort()
        return net._shrink_result

    def _check_shrink(self) -> None:
        """Re-evaluate shrink-barrier completion (called at every park
        and rank-exit event)."""
        if self.net._maybe_finish_shrink():
            # A rendezvous of the old world that a death interrupted was
            # abandoned by its participants; the new world starts clean,
            # and so does its lockstep state (the P-1 world must not
            # allocate beside the P world's matrices and scratch).
            self._rv = None
            self.net._rank_batch_state = None
            woken = sorted(self._shrink_waiting)
            self._shrink_waiting.clear()
            self._ready.extend(woken)

    def try_match(self, dst: int, source: int, tag: int):
        """Non-blocking probe.  On a miss, yield the token once (requeue
        ``dst`` behind the currently runnable ranks) before answering, so
        busy-poll loops (``while not req.test()``) cannot starve the very
        rank that would post the matching message.

        When no other rank is runnable the probe simply answers None —
        never an abort: a miss is a legal answer, and a program may poll a
        bounded number of times and then move on (and thereby unblock its
        peers).  An *unbounded* poll of a receive that can never match
        spins, exactly as it does under the threaded runner; deadlock
        detection applies to blocked receives only, because only there can
        the engine prove nobody can make progress."""
        net = self.net
        net._check_abort()
        if net.faults is not None:
            net._crash_check(dst)
        msg = net._pop_match(dst, source, tag)
        if msg is None and net._dead and source in net._failed_peers():
            raise net._fail_detect(dst)
        if msg is not None or not self._ready:
            return msg
        self._ready.append(dst)
        self._suspend(dst)
        net._check_abort()
        return net._pop_match(dst, source, tag)

    # ------------------------------------------------------------------
    # Token passing
    # ------------------------------------------------------------------
    def _suspend(self, rank: int) -> None:
        """Give up the token and park until resumed."""
        self._hand_off()
        self._resume[rank].acquire()

    def _hand_off(self) -> None:
        """Pass the token to the next runnable rank.

        If nobody is runnable but ranks are still blocked, then (in
        priority order): under a declared death, wake the blocked ranks
        that can now prove their operation will never complete (ranks
        parked at a rendezvous of a world the death is inside of first —
        their unwind fail-stops them, which makes receives *from* them
        detectable — then receives whose source is a failed peer), one at
        a time, so each raises ``RankFailedError`` at its own blocking
        point; otherwise this is either the tail of
        an abort (wake one so it observes the abort and unwinds, which
        chains to the rest) or a genuine deadlock (declare it with the
        full parked-rank report, then unwind the same way).  With no live
        ranks left, control returns to the launcher.
        """
        if self._ready:
            self._resume[self._pop_ready()].release()
            return
        rank = self._next_blocked()
        if rank is not None:
            self._resume[rank].release()
            return
        self._main.release()

    def _pop_ready(self) -> int:
        """Take the next runnable rank: FIFO head normally, a
        seeded-random pick under schedule perturbation (the relative
        order of the ranks left behind is preserved)."""
        ready = self._ready
        rng = self._sched_rng
        if rng is not None and len(ready) > 1:
            i = rng.randrange(len(ready))
            ready.rotate(-i)
            rank = ready.popleft()
            ready.rotate(i)
            return rank
        return ready.popleft()

    def _next_blocked(self) -> Optional[int]:
        """Pick (and un-book) the next blocked rank to wake when nobody
        is runnable, following the priority order documented in
        :meth:`_hand_off`; ``None`` means no rank is blocked (the
        section is complete)."""
        if not (self._waiting or self._rv_parked or self._shrink_waiting):
            return None
        net = self.net
        if not net.aborted:
            if net._world_dead and self._rv_parked:
                rank = min(self._rv_parked)
                self._rv_parked.remove(rank)
                return rank
            if net._dead:
                failed = net._failed_peers()
                cand = [r for r, st in self._waiting.items()
                        if st[0] in failed]
                if cand:
                    rank = min(cand)
                    del self._waiting[rank]
                    return rank
                # Shrink completion is re-checked at every park and
                # exit event, so reaching here with only live-source
                # receives left is a genuine deadlock.
            self._declare_deadlock()
        if self._waiting:
            rank = min(self._waiting)
            del self._waiting[rank]
        elif self._rv_parked:
            rank = min(self._rv_parked)
            self._rv_parked.remove(rank)
        else:
            rank = min(self._shrink_waiting)
            self._shrink_waiting.remove(rank)
        return rank

    def _declare_deadlock(self) -> None:
        """Abort with a :class:`DeadlockError` reporting every parked
        rank: the operation it is blocked on (receive channel, collective
        signature, or the shrink barrier) and its simulated clock."""
        net = self.net
        clocks = net.clocks
        blocked: list[dict] = []
        parts: list[str] = []
        for r, (s, t) in sorted(self._waiting.items()):
            blocked.append({"rank": r, "op": "recv", "source": s,
                            "tag": t, "clock": clocks[r]})
            parts.append(f"rank {r} waiting on recv(source={s}, tag={t}) "
                         f"at t={clocks[r]:.3e}s")
        if self._rv_parked:
            sig = self._rv.sig if self._rv is not None else ("?",)
            for r in sorted(self._rv_parked):
                blocked.append({"rank": r, "op": "collective", "sig": sig,
                                "clock": clocks[r]})
                parts.append(
                    f"rank {r} parked at the {sig[0]!r} fused-collective "
                    f"rendezvous (sig={sig!r}) at t={clocks[r]:.3e}s")
        for r in sorted(self._shrink_waiting):
            blocked.append({"rank": r, "op": "shrink", "clock": clocks[r]})
            parts.append(f"rank {r} parked at the elastic shrink barrier "
                         f"at t={clocks[r]:.3e}s")
        msg = (f"all {len(blocked)} live rank(s) blocked on receives or "
               f"collective rendezvous that can never match: "
               + "; ".join(parts))
        if net._dead:
            msg += f" [dead ranks: {sorted(net._dead)}]"
        net.abort(DeadlockError(msg, blocked=blocked))

    # ------------------------------------------------------------------
    # Per-rank thread body
    # ------------------------------------------------------------------
    def _rank_main(self, rank: int, fn: Callable[..., Any], args: tuple,
                   kwargs: dict, results: List[Any],
                   failures: Dict[int, BaseException]) -> None:
        self._resume[rank].acquire()  # parked until first scheduled
        net = self.net
        comm = SimComm(net, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except SimulatedRankCrash as exc:
            # Planned fail-stop: no abort — survivors detect the death
            # through the revoke state and may recover elastically.
            failures[rank] = exc
        except RankFailedError as exc:
            # A survivor that chose not to (or could not) recover: no
            # abort either — the revoke bookkeeping keeps its peers
            # detecting/unwinding, and the launcher aggregates.
            failures[rank] = exc
        except CommError as exc:
            # Secondary failure caused by another rank's abort: record only
            # if we are the first (i.e. the genuine origin).
            if not net.aborted or not failures:
                failures[rank] = exc
            net.abort(exc)
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            failures[rank] = exc
            net.abort(exc)
        finally:
            try:
                net._on_rank_exit(rank)
                self._check_shrink()
                self._hand_off()
            except BaseException:  # pragma: no cover - invariant violated
                # Fail open: never leave the launcher parked forever.
                try:
                    self._main.release()
                except RuntimeError:
                    pass
                raise
