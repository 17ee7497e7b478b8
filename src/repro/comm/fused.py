"""Fused collective fast path: schedule compilation + vectorized execution.

The per-message collectives in :mod:`repro.comm.collectives` are faithful
but interpreted: every round is a handful of Python-level ``isend``/``recv``
calls, each paying for payload wrapping, a ``Message`` object, mailbox
bookkeeping and — under the cooperative engine — a parked-thread hand-off
whenever a receive misses.  For a P-rank collective that is ``O(P log P)``
context switches per call, which dominates the simulator's wall-clock
(``perfbench``'s ``comm.engine`` layer).

This module removes that interpreter overhead without changing a single
simulated timestamp.  Every collective is split into:

* a pure **schedule compiler** — ``compile_*`` functions that, given
  ``(P, element count, words-per-element, algorithm)`` (plus per-rank
  payload sizes for the ``v`` collectives), emit the complete message
  schedule: per-round ``(src, dst, nwords, tag)`` including the
  non-power-of-two fold-in/fold-out ranks, Rabenseifner block slices,
  ring segments and Bruck dissemination hops, together with the local
  reduction charges.  Compilation never touches data and is cached per
  signature;
* a **fused executor** — :func:`replay` books the entire compiled
  schedule against the shared :class:`~repro.comm.network.Network` state
  in a few vectorized passes (one numpy expression per round phase,
  element-wise and therefore **bit-identical** to the scalar
  per-message fold), and the ``_data_*`` functions compute every rank's
  result centrally with stacked numpy — reproducing the exact
  floating-point association order of the per-message algorithms (the
  butterfly/halving trees and the ring fold are balanced‑tree /
  sequential folds of *commutative* ``np.add`` applications, so the
  vectorized pairings below are bit-equal; fusion is gated on
  ``op is np.add`` for exactly this reason).

Execution model (the engine side lives in :mod:`repro.comm.engine`): a
rank entering a fused collective parks at a **rendezvous**; when the last
rank of the current world arrives, that rank compiles (or re-uses) the
schedule, replays it, computes all results, and wakes everyone.  One
park/wake per rank per collective replaces one per blocked receive.

The rendezvous is one of the network's *current world* — every slot
until an elastic shrink, the survivor group afterwards
(``Network.world``).  Schedules are compiled for group ranks ``0..P-1``;
:func:`replay` gathers the world's clocks and link state by slot, books,
and scatters back, so a shrunk (and re-numbered, possibly
non-power-of-two) world replays the same cached schedules the full one
does.

Correctness of the central replay relies on two existing invariants:

* simulated time is *schedule independent* — egress links are booked in
  sender program order and ingress links in receiver program order, so
  the replay only has to process rounds in dependency order, not
  reproduce any particular thread interleaving;
* while all P ranks are inside the collective no other traffic can be
  *posted*, and everything posted earlier has already booked its egress
  slot (pending undelivered messages book ingress later, in receiver
  program order — after the collective's own receives, exactly as in the
  per-message run).  Fused collectives issued inside an
  :class:`~repro.comm.communicator.AsyncRegion` therefore contend with
  in-flight bucket traffic through the link-occupancy state alone, the
  same way ``serialize_batch`` bookings do.

Fault plans ride the same schedules.  A link slowdown is a per-message
multiplier on ``beta`` and a compute straggler a per-rank multiplier on
every charge the replay makes, both evaluated at the booking's own start
time — so :func:`replay` books each round with factor arrays that are 1.0
everywhere except on the plan's few faulty ranks (a factor of 1.0 is
bit-neutral; without a plan no factor is ever built).  What a plan still
sends to the reference path is the step a planned crash can fire in:
survivors must detect the death at their own blocking points, with their
own clocks and partial link bookings, which only the per-message run
produces.  The gate is one world predicate shared with rank batching
(:meth:`repro.comm.SimComm._rendezvous_safe`, used by :func:`_available`).

The per-message implementations remain the reference path (and the only
path for the threaded runner, traced networks, ``P = 1``, non-``add``
reduction ops, group communicators that are not the current world, and
the step a crash interrupts); ``REPRO_FUSED=0`` /
``run_spmd(..., fused=False)`` / ``repro-bench --no-fused`` force it
everywhere, giving a three-way bit-identity oracle (fused-coop ==
per-message-coop == threads) enforced by
``tests/test_fused_collectives.py`` — with and without plans.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .payload import nwords as payload_nwords

# ---------------------------------------------------------------------------
# Tag namespace for collectives (shared with repro.comm.collectives, which
# re-exports these names).  User point-to-point traffic should stay below
# _TAG_BASE so interleaved calls cannot mismatch.
# ---------------------------------------------------------------------------
_TAG_BASE = 1 << 20
TAG_BARRIER = _TAG_BASE + 1
TAG_BCAST = _TAG_BASE + 2
TAG_REDUCE = _TAG_BASE + 3
TAG_ALLREDUCE = _TAG_BASE + 4
TAG_RS = _TAG_BASE + 5
TAG_AG = _TAG_BASE + 6
TAG_AGV = _TAG_BASE + 7
TAG_A2A = _TAG_BASE + 8
TAG_GATHER = _TAG_BASE + 9
TAG_SCATTER = _TAG_BASE + 10
TAG_FOLD = _TAG_BASE + 11

#: sentinel returned by the ``fused_*`` entry points when the fast path is
#: unavailable (wrong runner, tracing, P=1, non-add op, fusion disabled, a
#: crash pending in the live world, a group that is not the world)
UNFUSED = object()

#: environment variable disabling the fused fast path ("0"/"false"/"off")
FUSED_ENV = "REPRO_FUSED"

#: profitability floor for the dense fused collectives (allreduce,
#: reduce-scatter/allgather ring, reduce): worlds smaller than this take
#: the per-message path instead (recorded in ``algorithm_log`` as mode
#: ``"unfused-small"``).  Simulated time is identical either way; the
#: floor is wall-clock-only.  Each engine reads it once, at construction
#: (:attr:`~repro.comm.engine.CoopEngine.fused_floors`).
#:
#: Why 4: ms of host time per ``collectives.allreduce`` call (default
#: ``bandwidth`` role, float32 payload), min-max over 14-21 alternating
#: runs of 200 calls, on a 2-vCPU Intel Xeon VM pinned to one core.
#: "fused" sets this floor to 0, "per-message" sets it above P:
#:
#:   P  words    fused        per-message
#:   2  16       0.046-0.077  0.042-0.069   tie
#:   2  4096     0.050-0.084  0.045-0.073   tie
#:   2  50 000   0.26-0.43    0.074-0.117   fused ~3x slower
#:   3  16       0.135-0.238  0.114-0.194   fused ~1.2x slower
#:   3  50 000   0.44-0.80    0.31-0.56     fused ~1.4x slower
#:   4  16       0.078-0.147  0.150-0.246   fused ~1.8x faster
#:   4  4096     0.086-0.162  0.171-0.281   fused ~1.8x faster
#:   4  50 000   0.53-0.85    0.30-0.46     fused ~1.8x slower
#:
#: Below 4 ranks fusion buys nothing at any payload; from 4 ranks it
#: wins on latency-bound payloads and loses on large dense ones.
#: Changing the gate (another floor, or a payload term) is its own
#: measured change: no perfbench workload runs below P = 4 or times
#: this per-call path at large payloads.  Each row came from
#: ``PYTHONPATH=src taskset -c 1 python ms.py`` with ``ms.py``::
#:
#:   import time, numpy as np
#:   from repro.comm import collectives, fused, run_spmd
#:   def ms(p, words, floor, reps=200):
#:       fused.FUSED_MIN_RANKS = floor
#:       x = np.ones(words, np.float32)
#:       def prog(comm):
#:           for _ in range(reps):
#:               collectives.allreduce(comm, x)
#:       run_spmd(p, prog)                       # warm-up
#:       t0 = time.perf_counter()
#:       run_spmd(p, prog)
#:       return (time.perf_counter() - t0) / reps * 1e3
#:   for p, words in ((2, 16), (2, 4096), (2, 50_000), (3, 16),
#:                    (3, 50_000), (4, 16), (4, 4096), (4, 50_000)):
#:       for floor in (0, p + 1) * 7:
#:           print(p, words, floor, ms(p, words, floor))
FUSED_MIN_RANKS = 4


def fusion_enabled() -> bool:
    """Whether the fused fast path is enabled for new engines (env gate)."""
    return os.environ.get(FUSED_ENV, "1").lower() not in (
        "0", "false", "off", "no")


def _below_floors(comm) -> bool:
    """Whether the world sits below the engine's profitability floor
    (callers checked :func:`_available`, so ``net._sched`` is the engine
    that resolved it)."""
    return comm.size < comm.net._sched.fused_floors


def fusable(comm) -> bool:
    """The whole gate of a dense fused collective: fast path
    :func:`_available` and the world above the floor.  For callers that
    fuse *around* the dense entry points (the serving step executor) and
    leave the skip provenance to the per-call path they fall back to."""
    return _available(comm) and not _below_floors(comm)


def _too_small(comm, collective: str, algorithm: str, nwords_: int) -> bool:
    """Profitability gate for the dense fused entry points.

    Fusion replaces ``O(P log P)`` per-message park/wake cycles with one
    rendezvous plus a vectorized replay — a win that has to amortize the
    rendezvous itself.  When the world is below
    :data:`FUSED_MIN_RANKS`, the per-message path is no slower in
    wall-clock terms (simulated results/clocks/counters are bit-identical
    either way), so the entry point returns :data:`UNFUSED` and the skip is
    recorded once per call in :attr:`Network.algorithm_log` under mode
    ``"unfused-small"`` — auditable next to the reference path's own
    ``forced``/``adaptive`` entries."""
    if not _below_floors(comm):
        return False
    if comm.rank == 0:  # once per collective call, not once per rank
        comm.net.note_algorithm(collective, algorithm, "unfused-small",
                                nwords_)
    return True


def _available(comm) -> bool:
    """Cheap gate: fused execution needs the cooperative engine (with
    fusion on), more than one rank, no message tracing (the reference
    path emits per-message ``TraceRecord``\\ s the replay does not) and a
    rendezvous that is certain to complete
    (:meth:`SimComm._rendezvous_safe`, the world predicate shared with
    rank batching): the communicator spans the network's current world —
    the full one, or the survivor group after an elastic shrink — with no
    death declared inside it and no planned crash that could fire before
    the world leaves the rendezvous.

    Link slowdowns and compute stragglers do *not* close the gate: they
    are per-message and per-rank multipliers the replay applies itself
    (see :func:`replay`).  What stays on the reference path is the step a
    planned crash fires in — survivors must detect the death at their own
    blocking points, with their own clocks and partial link bookings —
    and a hand-built group communicator that is not the current world."""
    net = comm.net
    sched = net._sched
    return (sched is not None and getattr(sched, "fused", False)
            and not net.trace_enabled and comm.size > 1
            and comm._rendezvous_safe())


# ---------------------------------------------------------------------------
# Schedule IR
# ---------------------------------------------------------------------------
#: round styles: _SENDRECV = post, +o_inject, recv (max), tail (max own
#: done), reduce; _ONEWAY = blocking posts (tail right after the post, per
#: sender program order), then recvs (max), then reduce.
_SENDRECV, _ONEWAY = 0, 1


class Round:
    """One dependency level of a compiled schedule.

    ``post``/``recv`` are index arrays into the schedule's message table.
    For ``_SENDRECV`` rounds they are aligned by actor: ``post[i]`` is the
    message actor ``i`` sends and ``recv[i]`` the one it receives.
    ``post_seq`` marks rounds whose posts share an egress link and must be
    folded sequentially with the blocking-send clock advance in between
    (scatter); ``recv_seq`` marks shared-ingress delivery fans (gather).
    ``reduce_words`` (aligned with ``recv``) charges the receiver's local
    reduction (``compute_words``) after the round; ``extra_seconds``
    (same alignment) charges absolute seconds after that — the slot for
    data-dependent selection costs (gtopk's per-level ``compute_topk``).
    """

    __slots__ = ("style", "post", "recv", "reduce_words", "post_seq",
                 "recv_seq", "extra_seconds")

    def __init__(self, style: int, post, recv, reduce_words=None,
                 post_seq: bool = False, recv_seq: bool = False,
                 extra_seconds=None):
        self.style = style
        self.post = post
        self.recv = recv
        self.reduce_words = reduce_words
        self.post_seq = post_seq
        self.recv_seq = recv_seq
        self.extra_seconds = extra_seconds


class Schedule:
    """A compiled collective: message table + rounds + per-rank totals."""

    __slots__ = ("p", "src", "dst", "nw", "nw_f", "tag", "rounds",
                 "words_sent", "words_recv", "msgs_sent", "msgs_recv")

    def __init__(self, p: int, src, dst, nw, tag, rounds):
        self.p = p
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.tag = np.asarray(tag, dtype=np.int64)
        self.rounds = tuple(rounds)
        self.msgs_sent = np.bincount(self.src, minlength=p).tolist()
        self.msgs_recv = np.bincount(self.dst, minlength=p).tolist()
        self._set_words(np.asarray(nw, dtype=np.int64))

    def _set_words(self, nw: np.ndarray) -> None:
        # every compiled message is delivered, so the totals are symmetric
        # sums over the table (Python ints, like the counter lists they
        # are added to; float64 sums of word counts are exact)
        self.nw = nw
        self.nw_f = nw.astype(np.float64)
        self.words_sent = np.bincount(self.src, self.nw_f, self.p).astype(
            np.int64).tolist()
        self.words_recv = np.bincount(self.dst, self.nw_f, self.p).astype(
            np.int64).tolist()

    def with_words(self, nw: np.ndarray) -> "Schedule":
        """This schedule's structure (message table, rounds) with the
        message sizes ``nw`` (int64, aligned with the message table)."""
        sched = object.__new__(Schedule)
        for name in ("p", "src", "dst", "tag", "rounds", "msgs_sent",
                     "msgs_recv"):
            setattr(sched, name, getattr(self, name))
        sched._set_words(nw)
        return sched

    @property
    def nmsgs(self) -> int:
        return int(self.src.size)

    def messages(self) -> List[Tuple[int, int, int, int]]:
        """The full message list as ``(src, dst, nwords, tag)`` tuples (in
        schedule order) — the property-test surface."""
        return list(zip(self.src.tolist(), self.dst.tolist(),
                        self.nw.tolist(), self.tag.tolist()))


class _Builder:
    """Accumulates the message table and rounds during compilation."""

    __slots__ = ("p", "src", "dst", "nw", "tag", "rounds")

    def __init__(self, p: int):
        self.p = p
        self.src: List[int] = []
        self.dst: List[int] = []
        self.nw: List[int] = []
        self.tag: List[int] = []
        self.rounds: List[Round] = []

    def msg(self, src: int, dst: int, nwords_: int, tag: int) -> int:
        i = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.nw.append(int(nwords_))
        self.tag.append(tag)
        return i

    def round(self, style: int, post: Sequence[int], recv: Sequence[int],
              reduce_words: Optional[Sequence[int]] = None,
              post_seq: bool = False, recv_seq: bool = False,
              extra_seconds: Optional[Sequence[float]] = None) -> None:
        self.rounds.append(Round(
            style,
            np.asarray(post, dtype=np.int64) if len(post) else None,
            np.asarray(recv, dtype=np.int64) if len(recv) else None,
            (np.asarray(reduce_words, dtype=np.float64)
             if reduce_words is not None else None),
            post_seq, recv_seq,
            (np.asarray(extra_seconds, dtype=np.float64)
             if extra_seconds is not None else None)))

    def build(self) -> Schedule:
        return Schedule(self.p, self.src, self.dst, self.nw, self.tag,
                        self.rounds)


# ---------------------------------------------------------------------------
# The vectorized executor
# ---------------------------------------------------------------------------
def replay(net, sched: Schedule) -> None:
    """Book a compiled schedule against the network's current world,
    bit-identically to the per-message run.

    Per round: all posts (egress bookings, element-wise ``max``/``+`` over
    the senders — identical IEEE operations to the scalar path), then all
    deliveries (ingress bookings in receiver program order), then the
    senders' completion advance and the receivers' reduction charges.
    Rounds that share a link across messages (linear gather/scatter) fall
    back to the exact scalar fold.  Clocks, link occupancy and the traffic
    counters end up exactly where ``P log P`` individual ``post``/
    ``deliver`` calls would have left them.

    The schedule addresses group ranks ``0..P-1``; the world's clocks and
    link state are gathered by slot on entry and scattered back on exit
    (the identity for a full world), so a shrunk world replays the same
    compiled schedules.  Under a fault plan every booking takes a
    per-message factor — egress ``beta * f(src, booking start)``, ingress
    ``beta * f(dst, booking start)``, and every compute charge
    (``o_inject``, the reductions, ``extra_seconds``) times the rank's
    straggler factor at its clock *before* the charge, exactly as
    ``Network._post_impl`` / ``_deliver_impl`` / ``SimComm.compute``
    evaluate them.  The factors are 1.0 except on the plan's few faulty
    ranks (:class:`~repro.comm.faults.RankWindows`), and multiplying by
    1.0 is bit-neutral, so this is one booking body for every world.
    """
    model = net.model
    beta = model.beta
    alpha = model.alpha
    o_send = model.o_send
    o_inject = model.o_inject
    gamma = model.gamma
    world = net.world
    clocks, eg, ing = _gather_links(net)
    # the plan's windows by group rank; None = every factor is 1.0
    egw = inw = cpw = None
    faults = net.faults
    if faults is not None:
        egw, inw, cpw = faults.by_rank(world)
    msrc, mdst, mnw = sched.src, sched.dst, sched.nw_f
    t_first = np.empty(sched.nmsgs, dtype=np.float64)
    done = np.empty(sched.nmsgs, dtype=np.float64)
    for rnd in sched.rounds:
        pi = rnd.post
        if pi is not None:
            if rnd.post_seq:
                # shared egress link: exact scalar fold, blocking-send
                # clock advance between posts (scatter's linear loop)
                for i in pi.tolist():
                    s = int(msrc[i])
                    ts = eg[s]
                    if clocks[s] > ts:
                        ts = clocks[s]
                    b = beta if egw is None else beta * egw.factor(s, ts)
                    te = ts + b * mnw[i]
                    eg[s] = te
                    t_first[i] = ts + alpha
                    dn = te + o_send
                    done[i] = dn
                    if dn > clocks[s]:
                        clocks[s] = dn
            else:
                src = msrc[pi]
                ts = np.maximum(eg[src], clocks[src])
                b = beta if egw is None else egw.scale(beta, src, ts)
                te = ts + b * mnw[pi]
                eg[src] = te
                t_first[pi] = ts + alpha
                dn = te + o_send
                done[pi] = dn
                if rnd.style == _SENDRECV:
                    if o_inject:
                        _charge(clocks, src, o_inject, cpw)
                else:
                    clocks[src] = np.maximum(clocks[src], dn)
        ri = rnd.recv
        if ri is not None:
            if rnd.recv_seq:
                # shared ingress link: exact scalar fold in program order
                for i in ri.tolist():
                    d = int(mdst[i])
                    td = ing[d]
                    if t_first[i] > td:
                        td = t_first[i]
                    b = beta if inw is None else beta * inw.factor(d, td)
                    td += b * mnw[i]
                    ing[d] = td
                    if td > clocks[d]:
                        clocks[d] = td
            else:
                dst = mdst[ri]
                td = np.maximum(ing[dst], t_first[ri])
                b = beta if inw is None else inw.scale(beta, dst, td)
                td += b * mnw[ri]
                ing[dst] = td
                clocks[dst] = np.maximum(clocks[dst], td)
        if rnd.style == _SENDRECV and pi is not None:
            src = msrc[pi]
            clocks[src] = np.maximum(clocks[src], done[pi])
        if rnd.reduce_words is not None:
            _charge(clocks, mdst[ri], gamma * rnd.reduce_words, cpw)
        if rnd.extra_seconds is not None:
            _charge(clocks, mdst[ri], rnd.extra_seconds, cpw)
    _scatter_links(net, clocks, eg, ing)
    for r, s in enumerate(world):
        net.words_sent[s] += sched.words_sent[r]
        net.words_recv[s] += sched.words_recv[r]
        net.msgs_sent[s] += sched.msgs_sent[r]
        net.msgs_recv[s] += sched.msgs_recv[r]


def _gather_links(net) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clocks and egress / ingress link-free times of the current world as
    float64 arrays in group-rank order (the identity for a full world)."""
    world = net.world
    full = len(world) == net.nranks
    return tuple(np.array(col if full else [col[s] for s in world],
                          dtype=np.float64)
                 for col in (net.clocks, net.egress_free, net.ingress_free))


def _scatter_links(net, clocks, eg, ing) -> None:
    """Write :func:`_gather_links`' arrays back to their slots."""
    world = net.world
    full = len(world) == net.nranks
    for col, arr in ((net.clocks, clocks), (net.egress_free, eg),
                     (net.ingress_free, ing)):
        if full:
            col[:] = arr.tolist()
        else:
            for s, v in zip(world, arr.tolist()):
                col[s] = v


def _charge(clocks: np.ndarray, ranks: np.ndarray, seconds, cpw) -> None:
    """``SimComm.compute`` for distinct ``ranks`` at once: each pays
    ``seconds`` (a scalar or an array aligned with ``ranks``) times its
    straggler factor at its clock before the charge (``cpw`` = the
    world's compute windows, ``None`` when it has none)."""
    clocks[ranks] += (seconds if cpw is None
                      else cpw.scale(seconds, ranks, clocks[ranks]))


# ---------------------------------------------------------------------------
# Fold helpers shared by the allreduce compilers (non-power-of-two P)
# ---------------------------------------------------------------------------
def _core_size(p: int) -> int:
    return 1 << (p.bit_length() - 1)


def _fold_real(newrank: int, p: int, m: int) -> int:
    rem = p - m
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def _emit_fold_in(b: _Builder, p: int, m: int, nw: int,
                  n_elems: int) -> None:
    rem = p - m
    if rem == 0:
        return
    post = [b.msg(2 * i, 2 * i + 1, nw, TAG_FOLD) for i in range(rem)]
    b.round(_ONEWAY, post, post, reduce_words=[n_elems] * rem)


def _emit_fold_out(b: _Builder, p: int, m: int, nw: int) -> None:
    rem = p - m
    if rem == 0:
        return
    post = [b.msg(2 * i + 1, 2 * i, nw, TAG_FOLD) for i in range(rem)]
    b.round(_ONEWAY, post, post)


# ---------------------------------------------------------------------------
# Schedule compilers (pure: P + sizes in, message schedule out)
# ---------------------------------------------------------------------------
@lru_cache(maxsize=1024)
def compile_allreduce(p: int, n: int, wpe: int, algo: str) -> Schedule:
    """Message schedule of a dense allreduce over ``n`` elements of
    ``wpe`` words each (``recursive_doubling`` | ``rabenseifner`` |
    ``ring``), including the fold-in/fold-out of the ``P - 2^floor(log2
    P)`` extra ranks."""
    if algo == "recursive_doubling":
        return _compile_allreduce_rd(p, n, wpe)
    if algo == "rabenseifner":
        return _compile_allreduce_rab(p, n, wpe)
    if algo == "ring":
        raise ValueError("ring allreduce compiles as reduce_scatter_ring "
                         "+ allgather_ring")
    raise ValueError(f"unknown dense allreduce algorithm {algo!r}")


def _compile_allreduce_rd(p: int, n: int, wpe: int) -> Schedule:
    b = _Builder(p)
    m = _core_size(p)
    nw = n * wpe
    _emit_fold_in(b, p, m, nw, n)
    d = 1
    while d < m:
        post = [b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m), nw,
                      TAG_ALLREDUCE) for x in range(m)]
        recv = [post[x ^ d] for x in range(m)]
        b.round(_SENDRECV, post, recv, reduce_words=[n] * m)
        d <<= 1
    _emit_fold_out(b, p, m, nw)
    return b.build()


def _compile_allreduce_rab(p: int, n: int, wpe: int) -> Schedule:
    b = _Builder(p)
    m = _core_size(p)
    nw = n * wpe
    _emit_fold_in(b, p, m, nw, n)
    # recursive-halving reduce-scatter: track each core rank's (lo, hi)
    lohi = [(0, n)] * m
    d = m >> 1
    while d >= 1:
        post = [0] * m
        for x in range(m):
            lo, hi = lohi[x]
            mid = lo + (hi - lo) // 2
            elems = (hi - mid) if x < (x ^ d) else (mid - lo)
            post[x] = b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m),
                            elems * wpe, TAG_RS)
        recv, reduce_w = [0] * m, [0] * m
        for x in range(m):
            lo, hi = lohi[x]
            mid = lo + (hi - lo) // 2
            lohi[x] = (lo, mid) if x < (x ^ d) else (mid, hi)
            recv[x] = post[x ^ d]
            reduce_w[x] = lohi[x][1] - lohi[x][0]
        b.round(_SENDRECV, post, recv, reduce_words=reduce_w)
        d >>= 1
    # recursive-doubling allgather
    d = 1
    while d < m:
        post = [b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m),
                      (lohi[x][1] - lohi[x][0]) * wpe, TAG_AG)
                for x in range(m)]
        recv = [post[x ^ d] for x in range(m)]
        b.round(_SENDRECV, post, recv)
        nxt = [0] * m
        for x in range(m):
            lo, hi = lohi[x]
            got = lohi[x ^ d][1] - lohi[x ^ d][0]
            nxt[x] = (lo - got, hi) if x & d else (lo, hi + got)
        lohi = nxt
        d <<= 1
    _emit_fold_out(b, p, m, nw)
    return b.build()


def _ring_block_lens(n: int, p: int) -> List[int]:
    bounds = np.linspace(0, n, p + 1).astype(np.int64)
    return [int(bounds[i + 1] - bounds[i]) for i in range(p)]


@lru_cache(maxsize=1024)
def compile_reduce_scatter_ring(p: int, n: int, wpe: int) -> Schedule:
    """Ring reduce-scatter: ``P - 1`` permutation steps over the
    near-equal contiguous blocks of :func:`_ring_block_lens`."""
    b = _Builder(p)
    lens = _ring_block_lens(n, p)
    for s in range(1, p):
        post = [b.msg(r, (r + 1) % p, lens[(r - s) % p] * wpe, TAG_RS)
                for r in range(p)]
        recv = [post[(r - 1) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv,
                reduce_words=[lens[(r - s - 1) % p] for r in range(p)])
    return b.build()


@lru_cache(maxsize=1024)
def compile_allgather_ring(p: int, n: int, wpe: int) -> Schedule:
    b = _Builder(p)
    lens = _ring_block_lens(n, p)
    for s in range(p - 1):
        post = [b.msg(r, (r + 1) % p, lens[(r - s) % p] * wpe, TAG_AG)
                for r in range(p)]
        recv = [post[(r - 1) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv)
    return b.build()


# The v collectives change sizes on almost every call (Ok-Topk's package
# exchanges), so their compilers cache the size-free structure per P — the
# message table, the rounds and where each message's words come from —
# and only fill in the words on a miss of the per-signature cache.
@lru_cache(maxsize=64)
def _allgatherv_template(p: int, tag: int) -> Tuple[Schedule, np.ndarray]:
    """Bruck dissemination at ``p`` ranks: the schedule with zero-word
    messages and its (messages x P) 0/1 block matrix (row ``i`` marks the
    ranks whose contributions message ``i`` carries)."""
    b = _Builder(p)
    blocks = []
    d = 1
    while d < p:
        count = min(d, p - d)
        post = []
        for r in range(p):
            post.append(b.msg(r, (r - d) % p, 0, tag))
            row = [0] * p
            for j in range(count):
                row[(r + j) % p] = 1
            blocks.append(row)
        recv = [post[(r + d) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv)
        d <<= 1
    return b.build(), np.array(blocks, dtype=np.int64).reshape(-1, p)


@lru_cache(maxsize=1024)
def compile_allgatherv(p: int, sizes: Tuple[int, ...],
                       tag: int = TAG_AGV) -> Schedule:
    """Bruck dissemination with per-rank contribution sizes (in words):
    the step at distance ``d`` ships each rank's first ``min(d, P - d)``
    held blocks (blocks of ranks ``r .. r+count-1``)."""
    sched, blocks = _allgatherv_template(p, tag)
    return sched.with_words(blocks @ np.array(sizes, dtype=np.int64))


@lru_cache(maxsize=64)
def _alltoallv_template(p: int) -> Tuple[Schedule, np.ndarray]:
    """Pairwise rotation at ``p`` ranks: the schedule with zero-word
    messages and, per message, its position in the row-major flattened
    (P x P) size matrix."""
    b = _Builder(p)
    cell = []
    for s in range(1, p):
        post = []
        for r in range(p):
            post.append(b.msg(r, (r + s) % p, 0, TAG_A2A))
            cell.append(r * p + (r + s) % p)
        recv = [post[(r - s) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv)
    return b.build(), np.array(cell, dtype=np.int64)


@lru_cache(maxsize=256)
def compile_alltoallv(p: int, rows: Tuple[Tuple[int, ...], ...]) -> Schedule:
    """Pairwise rotation: at step ``s`` rank ``r`` sends block
    ``(r+s) % P`` and receives from ``(r-s) % P``; ``rows[i][j]`` is the
    word size of rank ``i``'s block for rank ``j``."""
    sched, cell = _alltoallv_template(p)
    flat = np.fromiter(chain.from_iterable(rows), np.int64, p * p)
    return sched.with_words(flat[cell])


@lru_cache(maxsize=1024)
def compile_bcast(p: int, root: int, nw: int) -> Schedule:
    """Binomial broadcast, levels in descending mask order (a rank
    receives at its virtual rank's lowest set bit, then forwards)."""
    b = _Builder(p)
    top = 1
    while top < p:
        top <<= 1
    mask = top >> 1
    while mask >= 1:
        post, recv = [], []
        for v in range(0, p, 2 * mask):
            if v + mask < p:
                i = b.msg((v + root) % p, (v + mask + root) % p, nw,
                          TAG_BCAST)
                post.append(i)
                recv.append(i)
        b.round(_ONEWAY, post, recv)
        mask >>= 1
    return b.build()


@lru_cache(maxsize=1024)
def compile_reduce(p: int, root: int, n: int, wpe: int) -> Schedule:
    """Binomial reduction to ``root``, levels in ascending mask order."""
    b = _Builder(p)
    nw = n * wpe
    mask = 1
    while mask < p:
        post, recv, reduce_w = [], [], []
        for v in range(0, p, 2 * mask):
            if v + mask < p:
                i = b.msg((v + mask + root) % p, (v + root) % p, nw,
                          TAG_REDUCE)
                post.append(i)
                recv.append(i)
                reduce_w.append(n)
        b.round(_ONEWAY, post, recv, reduce_words=reduce_w)
        mask <<= 1
    return b.build()


@lru_cache(maxsize=256)
def compile_barrier(p: int) -> Schedule:
    """Dissemination barrier: ``ceil(log2 P)`` zero-word rounds, each a
    blocking send to ``r+d`` followed by a receive from ``r-d``."""
    b = _Builder(p)
    d = 1
    while d < p:
        post = [b.msg(r, (r + d) % p, 0, TAG_BARRIER) for r in range(p)]
        recv = [post[(r - d) % p] for r in range(p)]
        b.round(_ONEWAY, post, recv)
        d <<= 1
    return b.build()


@lru_cache(maxsize=512)
def compile_gather(p: int, root: int, sizes: Tuple[int, ...]) -> Schedule:
    """Linear gather: every non-root posts, the root's ingress link
    serializes the deliveries in ascending rank order."""
    b = _Builder(p)
    peers = [r for r in range(p) if r != root]
    post = [b.msg(r, root, sizes[r], TAG_GATHER) for r in peers]
    b.round(_ONEWAY, post, post, recv_seq=True)
    return b.build()


@lru_cache(maxsize=512)
def compile_scatter(p: int, root: int, sizes: Tuple[int, ...]) -> Schedule:
    """Linear scatter: the root's egress link serializes the blocking
    sends in ascending rank order."""
    b = _Builder(p)
    peers = [r for r in range(p) if r != root]
    post = [b.msg(root, r, sizes[r], TAG_SCATTER) for r in peers]
    b.round(_ONEWAY, post, post, post_seq=True)
    return b.build()


# ---------------------------------------------------------------------------
# Algorithm roles and size-adaptive selection
# ---------------------------------------------------------------------------
# The dense allreduce compilers above fall into two *roles* on the
# alpha-beta cost model: recursive doubling is latency-optimal (log2 P
# rounds, full vector each) and Rabenseifner/ring are bandwidth-optimal
# (2 n (P-1)/P words at 2 log2 P / 2(P-1) latency terms).  Which role wins
# is purely a function of the message size against the network's
# alpha/beta ratio — the same small-vs-large regime flip SparCML
# formalizes for sparse streams and that LLM serving stacks exercise per
# token ([batch, seq, hidden] message sizes choosing the kernel).  The
# helpers below give callers the explicit choice and the analytic
# crossover; :func:`repro.comm.collectives.allreduce` dispatches on them.

#: the latency-optimal dense allreduce: ``log2 P`` (+2 non-pow2 fold)
#: rounds, each shipping the full vector
LATENCY_OPTIMAL = "recursive_doubling"


def bandwidth_optimal(p: int) -> str:
    """The bandwidth-optimal dense allreduce at ``p`` ranks (the
    ``algo="bandwidth"`` default): Rabenseifner for powers of two, the
    bandwidth-equivalent ring otherwise (any P, no fold-in volume)."""
    return "rabenseifner" if p > 0 and (p & (p - 1)) == 0 else "ring"


def allreduce_alpha_beta_terms(p: int, algo: str) -> Tuple[float, float]:
    """Alpha/beta multipliers ``(A, B)`` of a dense allreduce:
    ``cost(n) ~= A * alpha + B * n * beta`` for ``n`` payload words.

    Matches the compiled schedules above, including the non-power-of-two
    fold-in/fold-out rounds (two extra full-vector hops for recursive
    doubling and Rabenseifner; the ring needs none)."""
    if p <= 1:
        return 0.0, 0.0
    m = 1 << (p.bit_length() - 1)
    logm = p.bit_length() - 1
    fold = 0.0 if m == p else 2.0  # fold-in + fold-out, full vector each
    if algo == "recursive_doubling":
        return logm + fold, logm + fold
    if algo == "rabenseifner":
        return 2.0 * logm + fold, 2.0 * (m - 1) / m + fold
    if algo == "ring":
        return 2.0 * (p - 1), 2.0 * (p - 1) / p
    raise ValueError(f"unknown dense allreduce algorithm {algo!r}")


def allreduce_analytic_seconds(p: int, nwords_: int, model,
                               algo: str) -> float:
    """Analytic alpha-beta cost of one dense allreduce of ``nwords_``
    words (no gamma/occupancy terms — the selection-relevant part)."""
    a, b = allreduce_alpha_beta_terms(p, algo)
    return a * model.alpha + b * nwords_ * model.beta


def allreduce_crossover_words(p: int, model) -> float:
    """Message size (words) at which the bandwidth-optimal schedule
    overtakes the latency-optimal one on ``model``'s alpha/beta
    constants; ``inf`` when it never does (P <= 2, where recursive
    doubling is also bandwidth-optimal, or ``beta == 0``)."""
    return _crossover_words(p, model.alpha, model.beta)


@lru_cache(maxsize=256)
def _crossover_words(p: int, alpha: float, beta: float) -> float:
    # ``adaptive`` asks per collective per rank; the answer only depends
    # on the world size and the two model constants
    a_l, b_l = allreduce_alpha_beta_terms(p, LATENCY_OPTIMAL)
    a_b, b_b = allreduce_alpha_beta_terms(p, bandwidth_optimal(p))
    d_beta = (b_l - b_b) * beta
    if d_beta <= 0.0:
        return float("inf")
    return (a_b - a_l) * alpha / d_beta


def select_allreduce_algorithm(p: int, nwords_: int, model) -> str:
    """Size-adaptive algorithm choice: the latency-optimal schedule below
    the alpha/beta crossover size, the bandwidth-optimal one at/above it
    (the ``algorithm="adaptive"`` dispatch of
    :func:`repro.comm.collectives.allreduce`)."""
    if nwords_ < allreduce_crossover_words(p, model):
        return LATENCY_OPTIMAL
    return bandwidth_optimal(p)


#: the concrete dense allreduce schedules
ALLREDUCE_ALGORITHMS = ("recursive_doubling", "rabenseifner", "ring")


def resolve_allreduce(algo: str, p: int, nwords_: int,
                      model) -> Tuple[str, str]:
    """Resolve an ``algorithm=`` role to ``(concrete schedule, selection
    mode)`` — the one place the roles are spelled out, shared by
    :func:`repro.comm.collectives.allreduce` and the serving step executor
    (:mod:`repro.serve.model`); the pair is what
    :attr:`Network.algorithm_log` records."""
    if algo == "adaptive":
        return select_allreduce_algorithm(p, nwords_, model), "adaptive"
    if algo == "latency":
        return LATENCY_OPTIMAL, "forced"
    if algo == "bandwidth":
        return bandwidth_optimal(p), "forced"
    if algo in ALLREDUCE_ALGORITHMS:
        return algo, "forced"
    raise ValueError(f"unknown dense allreduce algorithm {algo!r}")


# ---------------------------------------------------------------------------
# Central data computation (bit-identical association orders)
# ---------------------------------------------------------------------------
def _fold_stack(payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Stack the contributions in core (newrank) order, combining the
    fold-in pairs: row ``x < rem`` is ``a[2x+1] + a[2x]`` (the odd rank's
    ``op(acc, got)``), rows ``x >= rem`` pass through."""
    arr = (payloads if isinstance(payloads, np.ndarray)
           else np.stack([np.asarray(a) for a in payloads]))
    m = _core_size(p)
    rem = p - m
    if rem == 0:
        return arr
    folded = arr[1:2 * rem:2] + arr[0:2 * rem:2]
    return np.concatenate([folded, arr[2 * rem:]], axis=0)


def _sum_recursive_doubling(payloads: Sequence[np.ndarray],
                            p: int) -> np.ndarray:
    """The butterfly's balanced tree: adjacent newrank pairs combine at
    distance 1 first (every core rank ends with the same bits because
    each combine is a commutative ``op(acc, got)``)."""
    cur = _fold_stack(payloads, p)
    while cur.shape[0] > 1:
        cur = cur[0::2] + cur[1::2]
    return cur[0]


def _sum_rabenseifner(payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Recursive halving's tree: newranks pair at distance ``m/2`` first
    (per block the association is the same halving tree, so the whole
    vector folds in one pass per level)."""
    cur = _fold_stack(payloads, p)
    while cur.shape[0] > 1:
        h = cur.shape[0] // 2
        cur = cur[:h] + cur[h:]
    return cur[0]


def _sum_ring(payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """The ring's sequential fold: block ``b`` accumulates around the
    ring as ``op(a_b, op(a_{b-1}, ... op(a_{b+2}, a_{b+1})))``.

    Blocks are contiguous, so each block folds over plain slices — no
    full-width gather is ever materialized (the naive
    ``stack[(block_of + 1 + j) % p, col]`` formulation costs ``P``
    fancy-indexed passes over the whole vector and dominated the fused
    ring path at large ``n``)."""
    arrs = [np.asarray(a) for a in payloads]
    n = arrs[0].shape[0]
    lens = _ring_block_lens(n, p)
    out = np.empty_like(arrs[0])
    off = 0
    for b, ln in enumerate(lens):
        sl = slice(off, off + ln)
        off += ln
        partial = arrs[(b + 1) % p][sl]
        for j in range(1, p):
            partial = arrs[(b + 1 + j) % p][sl] + partial
        out[sl] = partial
    return out


#: bytes of one stacked column block of :func:`_sum_blocked`
_FOLD_BLOCK_BYTES = 1 << 18


def _sum_blocked(fold, payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """``fold(payloads, p)`` (a ``_sum_*`` tree above), one block of
    columns at a time.

    The trees are elementwise across ranks, so folding column blocks
    gives the same bits as folding whole vectors; what changes is that
    the ``(P, n)`` stack and its partial sums never exist at full width:
    the executing rank thread — a different one at every rendezvous —
    allocates nothing multi-MB for its malloc arena to keep.
    """
    first = payloads[0]
    step = max(1, _FOLD_BLOCK_BYTES // (p * first.itemsize))
    if first.ndim != 1 or first.size <= step:
        return fold(payloads, p)
    stacked = isinstance(payloads, np.ndarray)
    out = np.empty_like(first)
    for lo in range(0, first.size, step):
        hi = lo + step
        out[lo:hi] = fold(payloads[:, lo:hi] if stacked
                          else [a[lo:hi] for a in payloads], p)
    return out


def _sum_reduce_tree(payloads: Sequence[Any], p: int, root: int):
    """Binomial-tree association: at each mask level the surviving
    virtual rank folds its child subtree in (``op(acc, got)``)."""
    cur = {v: np.asarray(payloads[(root + v) % p]) for v in range(p)}
    mask = 1
    while mask < p:
        for v in range(0, p, 2 * mask):
            if v + mask < p:
                cur[v] = cur[v] + cur.pop(v + mask)
        mask <<= 1
    return cur[0]


# ---------------------------------------------------------------------------
# Payload views/snapshots matching the per-message delivery semantics
# ---------------------------------------------------------------------------
def _view(obj: Any) -> Any:
    """Read-only zero-copy view (the ``sendrecv`` delivery semantics):
    mirrors :func:`repro.comm.communicator._view`."""
    from .communicator import _view as cview
    return cview(obj)


def _recv_snapshot(obj: Any, net) -> Any:
    """What a blocking-``send`` receiver would hold: the payload snapshot
    taken at post time (zero-copy for immutable arrays — see
    :func:`repro.comm.communicator.send_snapshot`)."""
    from .communicator import send_snapshot
    return send_snapshot(obj, net)


# ---------------------------------------------------------------------------
# Fused entry points (called from repro.comm.collectives)
# ---------------------------------------------------------------------------
def _wpe(arr: np.ndarray) -> int:
    return max(1, arr.dtype.itemsize // 4)


def fused_allreduce(comm, arr: np.ndarray, op, algo: str):
    if op is not np.add or not _available(comm):
        return UNFUSED
    a = np.asarray(arr)
    if _too_small(comm, "allreduce", algo, a.size * _wpe(a)):
        return UNFUSED
    sig = ("allreduce", algo, a.size, _wpe(a), a.dtype.str)
    return comm.fused_collective(sig, a, _exec_allreduce)


def replay_allreduce(net, algo: str, payloads) -> np.ndarray:
    """Book one dense allreduce of the ``P`` equal-shape contributions
    ``payloads`` (a sequence of arrays or one stacked ``(P, n)`` array)
    against ``net`` — :func:`replay` of the cached compiled schedule(s) —
    and return their sum, folded in that schedule's own association order.
    The whole fused allreduce except the hand-out of results: shared by
    :func:`_exec_allreduce` and the serving step executor."""
    p = len(payloads)
    n, wpe = payloads[0].size, _wpe(payloads[0])
    if algo == "ring":
        replay(net, compile_reduce_scatter_ring(p, n, wpe))
        replay(net, compile_allgather_ring(p, n, wpe))
        return _sum_ring(payloads, p)
    replay(net, compile_allreduce(p, n, wpe, algo))
    return _sum_blocked(_sum_rabenseifner if algo == "rabenseifner"
                        else _sum_recursive_doubling, payloads, p)


def _exec_allreduce(net, sig, payloads):
    total = replay_allreduce(net, sig[1], payloads)
    return [np.array(total, copy=True) for _ in payloads]


def fused_reduce_scatter_ring(comm, arr: np.ndarray, op):
    if op is not np.add or not _available(comm):
        return UNFUSED
    a = np.asarray(arr)
    if _too_small(comm, "reduce_scatter_ring", "ring", a.size * _wpe(a)):
        return UNFUSED
    sig = ("reduce_scatter_ring", a.size, _wpe(a), a.dtype.str)
    return comm.fused_collective(sig, a, _exec_rs_ring)


def _exec_rs_ring(net, sig, payloads):
    _, n, wpe, _ = sig
    p = len(payloads)
    replay(net, compile_reduce_scatter_ring(p, n, wpe))
    partial = _sum_ring(payloads, p)
    bounds = np.linspace(0, n, p + 1).astype(np.int64)
    return [(partial[bounds[r]:bounds[r + 1]].copy(),
             slice(int(bounds[r]), int(bounds[r + 1])))
            for r in range(p)]


def fused_allgather_ring(comm, block: np.ndarray, n: int):
    if not _available(comm):
        return UNFUSED
    a = np.asarray(block)
    if _too_small(comm, "allgather_ring", "ring", int(n) * _wpe(a)):
        return UNFUSED
    sig = ("allgather_ring", int(n), _wpe(a), a.dtype.str)
    return comm.fused_collective(sig, a, _exec_ag_ring)


def _exec_ag_ring(net, sig, payloads):
    _, n, wpe, dts = sig
    p = len(payloads)
    replay(net, compile_allgather_ring(p, n, wpe))
    bounds = np.linspace(0, n, p + 1).astype(np.int64)
    full = np.empty(n, dtype=np.dtype(dts))
    for r in range(p):
        full[bounds[r]:bounds[r + 1]] = payloads[r]
    return [full.copy() for _ in range(p)]


def fused_allgatherv(comm, block: Any):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(
        ("allgatherv",), (block, payload_nwords(block)), _exec_allgatherv)


def _exec_allgatherv(net, sig, payloads):
    p = len(payloads)
    sizes = tuple(nw for _, nw in payloads)
    replay(net, compile_allgatherv(p, sizes))
    blocks = [b for b, _ in payloads]
    views = [_view(b) for b in blocks]
    return [[blocks[j] if j == r else views[j] for j in range(p)]
            for r in range(p)]


def fused_allgather_object(comm, obj: Any):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(
        ("allgather_object",), (obj, payload_nwords(obj)),
        _exec_allgatherv)


def fused_alltoallv(comm, blocks: Sequence[Any]):
    if not _available(comm):
        return UNFUSED
    row = tuple(payload_nwords(bl) for bl in blocks)
    return comm.fused_collective(("alltoallv",), (blocks, row),
                                 _exec_alltoallv)


def _exec_alltoallv(net, sig, payloads):
    p = len(payloads)
    rows = tuple(row for _, row in payloads)
    replay(net, compile_alltoallv(p, rows))
    out = []
    for r in range(p):
        out.append([payloads[j][0][r] if j == r
                    else _view(payloads[j][0][r]) for j in range(p)])
    return out


def fused_bcast(comm, obj: Any, root: int):
    if not _available(comm):
        return UNFUSED
    payload = obj if comm.rank == root else None
    return comm.fused_collective(("bcast", root), payload, _exec_bcast)


def _exec_bcast(net, sig, payloads):
    _, root = sig
    p = len(payloads)
    obj = payloads[root]
    replay(net, compile_bcast(p, root, payload_nwords(obj)))
    snap = _recv_snapshot(obj, net)
    return [obj if r == root else snap for r in range(p)]


def fused_reduce(comm, arr: np.ndarray, root: int, op):
    if op is not np.add or not _available(comm):
        return UNFUSED
    a = np.asarray(arr)
    if _too_small(comm, "reduce", "binomial_tree", a.size * _wpe(a)):
        return UNFUSED
    sig = ("reduce", root, a.size, _wpe(a), a.dtype.str)
    return comm.fused_collective(sig, a, _exec_reduce)


def _exec_reduce(net, sig, payloads):
    _, root, n, wpe, _ = sig
    p = len(payloads)
    replay(net, compile_reduce(p, root, n, wpe))
    total = _sum_reduce_tree(payloads, p, root)
    return [total if r == root else None for r in range(p)]


def fused_barrier(comm):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(("barrier",), None, _exec_barrier)


def _exec_barrier(net, sig, payloads):
    p = len(payloads)
    replay(net, compile_barrier(p))
    return [None] * p


def fused_gather(comm, obj: Any, root: int):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(("gather", root),
                                 (obj, payload_nwords(obj)), _exec_gather)


def _exec_gather(net, sig, payloads):
    _, root = sig
    p = len(payloads)
    sizes = tuple(nw for _, nw in payloads)
    replay(net, compile_gather(p, root, sizes))
    out = [payloads[j][0] if j == root
           else _recv_snapshot(payloads[j][0], net) for j in range(p)]
    return [out if r == root else None for r in range(p)]


def fused_scatter(comm, objs: Optional[Sequence[Any]], root: int):
    if not _available(comm):
        return UNFUSED
    if comm.rank == root:
        payload = (objs, tuple(payload_nwords(o) for o in objs))
    else:
        payload = None
    return comm.fused_collective(("scatter", root), payload, _exec_scatter)


def _exec_scatter(net, sig, payloads):
    _, root = sig
    p = len(payloads)
    objs, sizes = payloads[root]
    replay(net, compile_scatter(p, root, sizes))
    return [objs[r] if r == root else _recv_snapshot(objs[r], net)
            for r in range(p)]
