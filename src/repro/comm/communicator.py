"""Per-rank communicator: the mpi4py-flavoured API the algorithms program to.

Each SPMD rank owns one :class:`SimComm`.  Simulated time is tracked per rank
(``comm.clock``); point-to-point calls advance it according to the network
model, and :meth:`compute` charges local computation.  Blocking semantics are
*eager* (a send never blocks on the receiver), so algorithms written against
this API cannot deadlock through send-send cycles.

Payload ownership
-----------------

Under the **threaded** runner every mutable payload is deep-copied at post
time, so both sides may do anything with their buffers.  Under the
**cooperative** runner (the default) the send path avoids copies wherever
that cannot change observable behaviour:

* :class:`~repro.sparse.coo.COOVector` and other self-sizing immutable
  objects (the sparse-scheme hot path) pass through untouched — fully
  zero-copy (they already did under the threaded runner);
* :meth:`sendrecv` is an audited **zero-copy** fast path with *no* loan
  bookkeeping: payloads are read-only views.  Every collective in
  :mod:`repro.comm.collectives` consumes received arrays before its next
  blocking call and only ever writes sender regions whose in-flight
  messages are already delivered; callers of ``sendrecv`` outside the
  library must honour the same contract;
* for :meth:`isend` the sender's buffer is *on loan* while the message is
  in flight: it is write-locked, so mutating it mid-flight raises instead
  of corrupting the receiver.  (The lock lives on the array object, so a
  *pre-existing writable view* of the same buffer can still reach it —
  numpy cannot enumerate aliases.  Don't write through such aliases before
  ``wait()``; this is the one part of the contract that cannot be
  enforced.)  The loan ends with exactly one snapshot —
  at delivery (the receiver takes ownership of a private, read-only copy)
  or at :meth:`SendRequest.wait`/``test`` for a still-undelivered message.
  Either way, once ``wait`` returns the buffer is genuinely reusable (the
  MPI contract) and nothing the sender does afterwards can reach what the
  receiver holds;
* blocking :meth:`send` keeps eager-buffered semantics (the buffer is
  reusable the moment the call returns) and therefore snapshots at post.

Received ``ndarray`` payloads are never writable in cooperative mode — a
receiver that wants to mutate must ``copy()`` explicitly (enforced:
in-place mutation raises ``ValueError``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .message import Message, RecvRequest, Request, SendRequest
from .network import Network
from .payload import freeze as _freeze
from .payload import nwords as payload_nwords


def _view(obj: Any) -> Any:
    """Zero-copy payload: read-only views for arrays, pass-through for
    everything else (containers are rebuilt around the views).

    Objects exposing ``comm_nwords`` declare themselves immutable message
    payloads (``COOVector``) and pass through untouched — the hot path of
    every sparse scheme.
    """
    if obj is None or hasattr(obj, "comm_nwords"):
        return obj
    if isinstance(obj, np.ndarray):
        v = obj.view()
        v.setflags(write=False)
        return v
    if isinstance(obj, tuple):
        return tuple(_view(v) for v in obj)
    if isinstance(obj, list):
        return [_view(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _view(v) for k, v in obj.items()}
    return obj


def _root_base(obj: np.ndarray) -> Any:
    """The owning object at the bottom of ``obj``'s view chain.

    ``None`` when ``obj`` owns its data; otherwise the deepest ``.base``
    — usually an ndarray, but possibly a non-array buffer (``bytes``,
    ``memoryview``, ``mmap`` for ``np.frombuffer`` arrays), which callers
    must handle.
    """
    base = obj.base
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return base


def _view_with_loans(obj: Any, net: Network,
                     loans: List[int]) -> Any:
    """Like :func:`_view`, but write-locks loanable sender buffers.

    Only arrays that own their (writable) data are loaned — the write lock
    on a *view* object would not stop mutation through its base, so shared
    views fall back to a snapshot.  Already-read-only arrays need no
    protection at all, and neither do self-sizing immutable payloads
    (``comm_nwords`` protocol, e.g. ``COOVector``).
    """
    if obj is None or hasattr(obj, "comm_nwords"):
        return obj
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            # A buffer we already hold on loan for an earlier in-flight
            # message joins the loan, so the write lock survives until the
            # *last* message is delivered/sealed.
            entry = net._loans.get(id(obj))
            if entry is not None:
                entry[1] += 1
                loans.append(id(obj))
                v = obj.view()  # stays read-only after the loan is returned
                return v
            # The read-only flag of a *view* says nothing about its buffer:
            # walk to the owning array.  If that owner is on loan, this
            # flight joins the loan (the owner becomes writable again when
            # the last flight ends — the alias must stay protected until
            # then).  If the owner is writable, snapshot.  Only when the
            # owner itself is read-only (and not ours) is the buffer
            # genuinely immutable.
            base = _root_base(obj)
            if base is None:
                return obj
            if not isinstance(base, np.ndarray):
                # Non-array backing buffer (np.frombuffer): snapshot —
                # numpy flags cannot vouch for its immutability.
                return _freeze(obj, readonly=True)
            bentry = net._loans.get(id(base))
            if bentry is not None:
                bentry[1] += 1
                loans.append(id(base))
                return obj.view()
            if base.flags.writeable:
                return _freeze(obj, readonly=True)
            return obj
        if obj.base is not None:
            return _freeze(obj, readonly=True)
        loans.append(net.take_loan(obj))
        v = obj.view()
        v.setflags(write=False)
        return v
    if isinstance(obj, tuple):
        return tuple(_view_with_loans(v, net, loans) for v in obj)
    if isinstance(obj, list):
        return [_view_with_loans(v, net, loans) for v in obj]
    if isinstance(obj, dict):
        return {k: _view_with_loans(v, net, loans) for k, v in obj.items()}
    return obj


def send_snapshot(obj: Any, net: Network) -> Any:
    """Payload snapshot for a blocking (eager) ``send`` under the
    cooperative runner: what the receiver will hold.

    Mutable payloads are deep-copied read-only at post time (the buffer
    is reusable the moment ``send`` returns — the eager contract).  The
    PR-5 audit of the object-payload collectives (``bcast``,
    ``allgather_object``, ``gather``/``scatter``) showed the copy is
    avoidable for arrays that are already **read-only at post time**:
    nobody reachable through the posted view can write them, so they
    travel as zero-copy views, exactly like the immutable-payload
    (``comm_nwords``) fast path.  Two exclusions keep the audit honest:

    * an array (or the owner of its buffer) that is currently **on
      loan** to an in-flight ``isend`` is only temporarily read-only —
      it becomes writable again when the loan ends, so it is copied;
    * re-enabling writability by hand (``setflags(write=True)`` on an
      owning array you posted while read-only) and then mutating before
      delivery violates the reuse contract, same as writing through a
      pre-existing writable alias of a loaned ``isend`` buffer — numpy
      offers no deep immutability to enforce it.
    """
    if obj is None or hasattr(obj, "comm_nwords"):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            return _freeze(obj, readonly=True)
        base = _root_base(obj)
        if base is None:
            owner = obj
        elif isinstance(base, np.ndarray):
            if base.flags.writeable:
                # A read-only *view* of a writable buffer: the owner can
                # still mutate after the send returns — snapshot.
                return _freeze(obj, readonly=True)
            owner = base
        else:
            # Exotic backing buffer (bytes/memoryview/mmap): numpy flags
            # say nothing about its mutability — snapshot, as before.
            return _freeze(obj, readonly=True)
        if id(owner) in net._loans:
            # Read-only only while the loan lasts: snapshot.
            return _freeze(obj, readonly=True)
        return obj.view()
    if isinstance(obj, tuple):
        return tuple(send_snapshot(v, net) for v in obj)
    if isinstance(obj, list):
        return [send_snapshot(v, net) for v in obj]
    if isinstance(obj, dict):
        return {k: send_snapshot(v, net) for k, v in obj.items()}
    return _freeze(obj, readonly=True)


class AsyncRegion:
    """Issue-at-time context for NIC-progressed (non-blocking) operations.

    Code inside the region executes normally — messages book egress and
    ingress links at the rank's current simulated clock, so they contend
    with any other traffic — but on exit the rank's clock is rolled back
    to the region's entry time (``issue``), modeling an operation handed
    to the NIC while the rank's own timeline continues.  The region's
    completion time is kept in ``finish``; callers that must wait for the
    operation later advance the clock with
    ``comm._advance_clock(region.finish)``.

    This is the execution primitive of streaming sessions
    (:mod:`repro.allreduce.session`): a bucket's reduction is issued
    mid-backward at its release time and only :meth:`ReduceSession.finish`
    joins the outstanding completions.  On an exception the clock is left
    where it stopped (the abort path wants real times).
    """

    __slots__ = ("_comm", "issue", "finish")

    def __init__(self, comm: "SimComm"):
        self._comm = comm
        self.issue = 0.0
        self.finish = 0.0

    def __enter__(self) -> "AsyncRegion":
        self.issue = self._comm.clock
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish = self._comm.clock
        if exc_type is None:
            self._comm.rewind_clock(self.issue)
        return False


class SimComm:
    """Communicator bound to one rank of a :class:`Network`.

    ``group`` (elastic recovery only) restricts the communicator to an
    ordered subset of the network's physical rank ids ("slots"):
    ``rank``/``size`` and every peer argument are then *group-relative*,
    and all network operations translate through the group.  ``slot`` is
    the physical id (== ``rank`` for a full-world communicator) — it is
    what indexes per-rank network state such as ``net.words_recv``.
    """

    def __init__(self, network: Network, rank: int,
                 group: Optional[Tuple[int, ...]] = None):
        if group is None:
            if not 0 <= rank < network.nranks:
                raise ValueError(
                    f"rank {rank} out of range for P={network.nranks}")
            slot = rank
            size = network.nranks
        else:
            group = tuple(group)
            if not 0 <= rank < len(group):
                raise ValueError(
                    f"rank {rank} out of range for group of {len(group)}")
            slot = group[rank]
            size = len(group)
        self.net = network
        self.rank = rank
        self.size = size
        self.slot = slot
        #: the network slots this communicator spans, in rank order
        self.slots: Tuple[int, ...] = (
            tuple(range(size)) if group is None else group)
        #: the step last announced through :meth:`maybe_crash` (under a
        #: fault plan only, else None): the one an iteration-pinned crash
        #: is tested against, here and in the rendezvous gate
        #: (:func:`repro.comm.fused._available`)
        self.announced_step: Optional[int] = None
        self._phase_times: dict[str, float] = {}
        #: lockstep rank-batching handle, published by the trainer
        #: (see :mod:`repro.train.rankbatch`); None = per-rank execution
        self.rank_batch = None

    def _to_slot(self, r: int) -> int:
        """Translate a group-relative peer rank to its network slot."""
        return self.slots[r]

    # ------------------------------------------------------------------
    # Simulated clock
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        return float(self.net.clocks[self.slot])

    def _advance_clock(self, t: float) -> None:
        if t > self.net.clocks[self.slot]:
            self.net.clocks[self.slot] = t

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of local computation to this rank.

        Under a fault plan the charge is scaled by the rank's active
        straggler factor, and a charge that crosses the rank's planned
        crash time kills it on the spot (clock pinned at the crash time).
        """
        if seconds < 0:
            raise ValueError("compute time must be >= 0")
        net = self.net
        slot = self.slot
        f = net.faults
        if f is not None:
            t0 = net.clocks[slot]
            if f.straggler[slot]:
                seconds *= f.compute_factor(slot, t0)
            t1 = t0 + seconds
            ct = f.crash_time[slot]
            if t1 >= ct:
                net.clocks[slot] = ct if ct > t0 else t0
                raise net._crash_outside_lock(slot)
            net.clocks[slot] = t1
            return
        net.clocks[slot] += seconds

    def rewind_clock(self, t: float) -> None:
        """Set this rank's clock, allowing it to move *backwards*.

        Only two callers may do this, both modeling work that proceeds off
        the rank's critical path: :class:`AsyncRegion` (NIC-progressed
        communication) and the ξ-measurement rollback.  Link occupancy and
        traffic counters are never rewound here — a message posted after a
        rewind still queues behind everything already booked.
        """
        self.net.clocks[self.slot] = t

    def async_region(self) -> AsyncRegion:
        """Open an :class:`AsyncRegion` (see its docstring)."""
        return AsyncRegion(self)

    def compute_words(self, n: int) -> None:
        """Charge a local reduction over ``n`` words (gamma model)."""
        self.compute(self.net.model.gamma * max(0, n))

    def compute_scan(self, n: int) -> None:
        """Charge a linear scan/compaction over ``n`` words."""
        self.compute(self.net.model.scan_seconds(n))

    def compute_sort(self, n: int) -> None:
        """Charge an accelerator sort of ``n`` words (n log n scaling)."""
        self.compute(self.net.model.sort_seconds(n))

    def compute_topk(self, n: int, k: int) -> None:
        """Charge a GPU top-k selection over ``n`` words (the formula
        lives in :meth:`NetworkModel.topk_seconds`)."""
        self.compute(self.net.model.topk_seconds(n, k))

    def compute_flops(self, flops: float) -> None:
        """Charge ``flops`` floating point operations of model compute."""
        self.compute(self.net.model.flop_seconds(flops))

    # ------------------------------------------------------------------
    # Phase accounting (used for the paper's runtime breakdowns)
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Attribute simulated time elapsed in this block to ``name``."""
        start = self.clock
        try:
            yield
        finally:
            self._phase_times[name] = (
                self._phase_times.get(name, 0.0) + self.clock - start)

    def phase_times(self, reset: bool = False) -> dict[str, float]:
        out = dict(self._phase_times)
        if reset:
            self._phase_times.clear()
        return out

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, *,
             nwords: Optional[int] = None) -> None:
        """Blocking (eager) send; sender clock advances past egress
        serialization of the message.  The buffer is reusable on return."""
        size = payload_nwords(obj) if nwords is None else int(nwords)
        payload = (send_snapshot(obj, self.net) if self.net.cooperative
                   else _freeze(obj, readonly=self.net.sanitize))
        _, done = self.net.post(self.slot, self._to_slot(dest), tag,
                                payload, size, self.clock)
        self._advance_clock(done)

    def isend(self, obj: Any, dest: int, tag: int = 0, *,
              nwords: Optional[int] = None) -> SendRequest:
        """Non-blocking send; the egress slot is booked now (DMA-like) and
        ``wait()`` advances the clock to when the buffer is reusable.

        Cooperative mode ships a zero-copy view and puts the buffer on loan
        until delivery (see the module docstring)."""
        size = payload_nwords(obj) if nwords is None else int(nwords)
        loan_keys: List[int] = []
        if self.net.cooperative:
            payload = _view_with_loans(obj, self.net, loan_keys)
        else:
            # Sanitizer mode write-locks the receiver's copy so threads-
            # mode runs enforce the same received-arrays-are-read-only
            # contract the cooperative runner always enforces.
            payload = _freeze(obj, readonly=self.net.sanitize)
        msg, done = self.net.post(self.slot, self._to_slot(dest), tag,
                                  payload, size, self.clock)
        if loan_keys:
            msg.loans = tuple(loan_keys)
        self.compute(self.net.model.o_inject)
        return SendRequest(self, done, _message=msg)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from ``(source, tag)``."""
        msg = self._match_blocking(source, tag)
        self._deliver(msg)
        return msg.payload

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        return RecvRequest(self, source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: Optional[int] = None, *,
                 nwords: Optional[int] = None) -> Any:
        """Simultaneous exchange; the common building block of the dense
        collectives (recursive doubling/halving, ring steps).

        Audited zero-copy fast path under the cooperative runner: the
        outgoing payload is a plain read-only view with no loan bookkeeping.
        Callers must not mutate the region they passed until the matching
        receive on the peer has completed (all library collectives satisfy
        this; see the module docstring).
        """
        if recvtag is None:
            recvtag = sendtag
        size = payload_nwords(obj) if nwords is None else int(nwords)
        payload = _view(obj) if self.net.cooperative \
            else _freeze(obj, readonly=self.net.sanitize)
        _, done = self.net.post(self.slot, self._to_slot(dest), sendtag,
                                payload, size, self.clock)
        self.compute(self.net.model.o_inject)
        out = self.recv(source, recvtag)
        self._advance_clock(done)
        return out

    def waitall(self, requests: Sequence[Request]) -> List[Any]:
        """Complete a set of requests.

        Receives are matched first and their ingress slots are booked in
        order of simulated arrival (earliest first) so that the contention
        model is independent of the order the caller listed the requests.
        """
        recvs = [r for r in requests if isinstance(r, RecvRequest)
                 and not r.completed]
        msgs: List[tuple[Message, RecvRequest]] = []
        for r in recvs:
            msgs.append((self._match_blocking(r.source, r.tag), r))
        msgs.sort(key=lambda mr: (mr[0].t_first, mr[0].src, mr[0].seq))
        if msgs:
            # Ingress bookings in arrival order; the clock advances to the
            # last completion, which the link fold guarantees is the latest.
            deliver = self.net.deliver
            for msg, req in msgs:
                t_done = deliver(msg)
                req._message = msg
                req.completed = True
            self._advance_clock(t_done)
        results: List[Any] = []
        for r in requests:
            if isinstance(r, RecvRequest):
                results.append(r.wait())
            else:
                r.wait()
                results.append(None)
        return results

    # ------------------------------------------------------------------
    # Fused collectives (engine-level macro-collectives)
    # ------------------------------------------------------------------
    def fused_collective(self, sig: tuple, payload: Any, executor) -> Any:
        """Enter a fused collective rendezvous (cooperative engine only;
        callers gate on :func:`repro.comm.fused._available` first).

        Parks this rank until every rank of the current world has arrived
        with an identical ``sig``, lets the last arrival run
        ``executor(net, sig, payloads)`` — one central dispatch
        replacing the per-message round trips, ``payloads`` in group-rank
        order — and returns this rank's entry of the result list.
        See :mod:`repro.comm.fused` and
        :meth:`repro.comm.engine.CoopEngine.collective`.
        """
        return self.net._sched.collective(self.slot, self.rank, sig,
                                          payload, executor)

    # internal hooks used by RecvRequest/SendRequest ---------------------
    def _try_match(self, source: int, tag: int) -> Optional[Message]:
        return self.net.try_match(self.slot, self._to_slot(source), tag)

    def _match_blocking(self, source: int, tag: int) -> Message:
        return self.net.match_blocking(self.slot, self._to_slot(source), tag)

    def _deliver(self, msg: Message) -> None:
        t_done = self.net.deliver(msg)
        self._advance_clock(t_done)

    def _seal(self, msg: Message) -> None:
        """Snapshot a still-undelivered loaned payload so the sender's
        buffer becomes reusable (called by ``SendRequest.wait``)."""
        msg.payload = _freeze(msg.payload, readonly=True)
        self.net.release_loans(msg)

    # ------------------------------------------------------------------
    # Fault tolerance (see repro.comm.faults)
    # ------------------------------------------------------------------
    def maybe_crash(self, iteration: Optional[int] = None) -> None:
        """Announce step ``iteration`` (1-based) and fire this rank's
        iteration-pinned crash if the fault plan has one for it.  Called
        by the trainer and the serving loop at the top of every step; a
        no-op without a plan.  The announcement is what keeps the step a
        peer dies in off the world rendezvous
        (:func:`repro.comm.fused._available`): its survivors must detect
        the death per message.
        """
        f = self.net.faults
        if f is None or iteration is None:
            return
        self.announced_step = iteration
        slot = self.slot
        if f.crash_iter[slot] == iteration:
            raise self.net._crash_outside_lock(slot)

    def shrink(self) -> "SimComm":
        """Collective over all survivors: agree on the set of live ranks
        and return a new communicator over that shrunk, re-numbered world
        (the ULFM ``MPI_Comm_shrink`` analog).

        Every surviving rank must call this (typically from its
        ``RankFailedError`` handler).  On return the survivors' clocks are
        synchronized past the failure-detection bound and all in-flight
        messages from the old world have been discarded.
        """
        group = self.net.shrink(self.slot)
        return SimComm(self.net, group.index(self.slot), group=group)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def ranks(self) -> Iterable[int]:
        return range(self.size)

    def peers(self) -> Iterable[int]:
        return (r for r in range(self.size) if r != self.rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimComm(rank={self.rank}, size={self.size}, clock={self.clock:.3e})"
