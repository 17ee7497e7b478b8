"""Fused collective fast path: schedule compilation + central execution.

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
  in one walk over its messages (the per-message path's own scalar
  ``max`` / ``+`` / ``*`` on Python floats, in its phase order, and
  therefore **bit-identical** to it), and the ``_sum_*`` functions
  compute every rank's result centrally — reproducing the exact
  floating-point association
  order of the per-message algorithms (the butterfly/halving trees and
  the ring fold are balanced-tree / sequential folds of *commutative*
  ``np.add`` applications, so the pairings below are bit-equal; fusion
  is gated on ``op is np.add`` for exactly this reason).  Like the
  collective it stands in for, a fold reads every rank's input in place
  and writes only fresh arrays: a dense allreduce folds once and every
  rank takes its own copy of that sum.

The fused path runs at every world size and payload: there is no
profitability floor, so P = 2 and 3 worlds take the same dense
executors as every other world.

Execution model (the engine side lives in :mod:`repro.comm.engine`): a
rank entering a fused collective parks at a **rendezvous**; when the last
rank of the current world arrives, that rank compiles (or re-uses) the
schedule, replays it, computes all results, and wakes everyone.  One
park/wake per rank per collective replaces one per blocked receive.

The rendezvous is one of the network's *current world* — every slot
until an elastic shrink, the survivor group afterwards
(``Network.world``).  Schedules are compiled for group ranks ``0..P-1``;
for a shrunk world :func:`replay` copies the world's clocks and link
state by slot, books, and writes them back, so a shrunk (and re-numbered,
possibly non-power-of-two) world replays the same cached schedules the
full one does.

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
time — so :func:`replay` looks a factor up only for a booking or charge
by one of the plan's few faulty ranks and books every other one with the
bare constants (without a plan no factor is ever looked up).  What a plan
still sends to the reference path is the step a planned crash can fire in:
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
from collections import namedtuple
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


def fusion_enabled() -> bool:
    """Whether the fused fast path is enabled for new engines (env gate)."""
    return os.environ.get(FUSED_ENV, "1").lower() not in (
        "0", "false", "off", "no")


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
#: done), charges; _ONEWAY = blocking posts (tail right after the post, per
#: sender program order), then recvs (max), then charges.
_SENDRECV, _ONEWAY = 0, 1

#: One dependency level of a compiled schedule, in the Python ints
#: :func:`replay` walks.  ``post`` is ``(message, sender)`` per post in post
#: order; ``recv`` is ``(position in post, message, receiver)`` per receive
#: in receive order — a round receives only messages it posts itself.  For
#: ``_SENDRECV`` rounds post ``i`` and receive ``i`` belong to one actor.
#: ``reduce`` charges each receiver its message's ``reduce_words``
#: (``compute_words``) after the round; ``extra`` then charges its
#: ``extra_seconds`` (gtopk's per-level ``compute_topk``).
Round = namedtuple("Round", "style post recv reduce extra")


@lru_cache(maxsize=512)
def _structure(p: int, src: Tuple[int, ...], dst: Tuple[int, ...],
               tag: Tuple[int, ...], specs: Tuple[tuple, ...]) -> tuple:
    """The size-free part of a schedule, built once: every schedule of one
    collective at one ``p`` (one root, one algorithm) shares its message
    table, rounds and message counts, whatever its sizes."""
    rounds = []
    for style, post, recv, reduce, extra in specs:
        at = {i: k for k, i in enumerate(post)}
        missing = [i for i in recv if i not in at]
        if missing:
            raise ValueError(f"round {len(rounds)} receives messages "
                             f"{missing} it does not post")
        rounds.append(Round(style, tuple((i, src[i]) for i in post),
                            tuple((at[i], i, dst[i]) for i in recv),
                            reduce, extra))
    src_a, dst_a = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    return (src_a, dst_a, np.array(tag, dtype=np.int64), tuple(rounds),
            np.bincount(src_a, minlength=p).tolist(),
            np.bincount(dst_a, minlength=p).tolist())


class Schedule:
    """A compiled collective: message table + rounds + per-rank totals.

    ``nw`` (int64 array) holds the message sizes and ``reduce_words`` /
    ``extra_seconds`` (lists, ``None`` when no round charges them) each
    receiver's charge for its message, all aligned with the message table;
    the rest is the shared structure of :func:`_structure`."""

    __slots__ = ("p", "src", "dst", "nw", "tag", "rounds", "reduce_words",
                 "extra_seconds", "words_sent", "words_recv", "msgs_sent",
                 "msgs_recv")

    def __init__(self, p: int, src, dst, nw, tag, specs,
                 reduce_words=None, extra_seconds=None):
        self.p = p
        (self.src, self.dst, self.tag, self.rounds, self.msgs_sent,
         self.msgs_recv) = _structure(p, tuple(src), tuple(dst), tuple(tag),
                                      tuple(specs))
        self.reduce_words = reduce_words
        self.extra_seconds = extra_seconds
        self._set_words(np.asarray(nw, dtype=np.int64))

    def _set_words(self, nw: np.ndarray) -> None:
        # every compiled message is delivered, so the totals are symmetric
        # sums over the table (Python ints, like the counter lists they
        # are added to; float64 sums of word counts are exact)
        self.nw = nw
        self.words_sent = np.bincount(self.src, nw, self.p).astype(
            np.int64).tolist()
        self.words_recv = np.bincount(self.dst, nw, self.p).astype(
            np.int64).tolist()

    def with_words(self, nw: np.ndarray) -> "Schedule":
        """This schedule's structure (message table, rounds, charges) with
        the message sizes ``nw`` (int64, aligned with the message
        table)."""
        sched = object.__new__(Schedule)
        for name in ("p", "src", "dst", "tag", "rounds", "reduce_words",
                     "extra_seconds", "msgs_sent", "msgs_recv"):
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

    __slots__ = ("p", "src", "dst", "nw", "tag", "rounds", "charges")

    def __init__(self, p: int):
        self.p = p
        self.src: List[int] = []
        self.dst: List[int] = []
        self.nw: List[int] = []
        self.tag: List[int] = []
        self.rounds: List[tuple] = []
        #: message -> its receiver's reduce words / extra seconds
        self.charges: Tuple[dict, dict] = ({}, {})

    def msg(self, src: int, dst: int, nwords_: int, tag: int) -> int:
        i = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.nw.append(int(nwords_))
        self.tag.append(tag)
        return i

    def round(self, style: int, post: Sequence[int], recv: Sequence[int],
              reduce_words: Optional[Sequence[int]] = None,
              extra_seconds: Optional[Sequence[float]] = None) -> None:
        """Append a round; ``reduce_words`` / ``extra_seconds`` are
        aligned with ``recv``."""
        self.rounds.append((style, tuple(post), tuple(recv),
                            bool(reduce_words), bool(extra_seconds)))
        for per_msg, values in zip(self.charges,
                                   (reduce_words, extra_seconds)):
            per_msg.update(zip(recv, values or ()))

    def build(self) -> Schedule:
        n = len(self.src)
        rw, ex = ([cast(per_msg.get(i, 0)) for i in range(n)]
                  if per_msg else None
                  for cast, per_msg in zip((int, float), self.charges))
        return Schedule(self.p, self.src, self.dst, self.nw, self.tag,
                        self.rounds, rw, ex)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
def replay(net, sched: Schedule) -> None:
    """Book a compiled schedule against the network's current world,
    bit-identically to the per-message run.

    Per round, one walk over its messages with the scalar arithmetic of
    ``Network._post_impl`` / ``_deliver_impl`` / ``SimComm.compute``: the
    posts in post order (egress booking, then ``o_inject`` for a
    ``sendrecv`` post or the blocking-send clock advance for a one-way
    one), the receives in receive order (ingress booking, clock ``max``),
    the ``sendrecv`` senders' completion advance, then the receivers'
    ``reduce_words`` and ``extra_seconds`` charges.  A link shared inside
    a round (a linear gather's root ingress, a scatter's root egress)
    therefore folds sequentially with no special case.

    The schedule addresses group ranks ``0..P-1``: a full world books
    straight into the network's lists, a shrunk one into copies taken by
    slot and written back.  Under a fault plan a booking or charge by one
    of the plan's faulty ranks (:class:`~repro.comm.faults.RankWindows`)
    takes its factor — egress ``beta * f(src, booking start)``, ingress
    ``beta * f(dst, booking start)``, a compute charge times the
    straggler factor at the clock *before* it — exactly as the
    per-message path evaluates them.
    """
    model = net.model
    beta = model.beta
    alpha = model.alpha
    o_send = model.o_send
    o_inject = model.o_inject
    gamma = model.gamma
    world = net.world
    full = len(world) == net.nranks
    if full:
        clocks, eg, ing = net.clocks, net.egress_free, net.ingress_free
    else:
        clocks, eg, ing = ([col[s] for s in world] for col in (
            net.clocks, net.egress_free, net.ingress_free))
    # the plan's windows by group rank; None = every factor is 1.0
    egw = inw = cpw = None
    faults = net.faults
    if faults is not None:
        egw, inw, cpw = faults.by_rank(world)
    nw = sched.nw.tolist()
    for style, post, recv, reduce, extra in sched.rounds:
        sendrecv = style == _SENDRECV
        t_first = []
        done = []
        for i, s in post:
            c = clocks[s]
            ts = eg[s]
            if c > ts:
                ts = c
            b = beta
            if egw is not None and egw.windows[s]:
                b = beta * egw.factor(s, ts)
            te = ts + b * nw[i]
            eg[s] = te
            t_first.append(ts + alpha)
            dn = te + o_send
            if sendrecv:
                done.append(dn)
                if o_inject:
                    clocks[s] = c + (
                        o_inject if cpw is None or not cpw.windows[s]
                        else o_inject * cpw.factor(s, c))
            elif dn > c:
                clocks[s] = dn
        for k, i, d in recv:
            td = ing[d]
            tf = t_first[k]
            if tf > td:
                td = tf
            b = beta
            if inw is not None and inw.windows[d]:
                b = beta * inw.factor(d, td)
            td += b * nw[i]
            ing[d] = td
            if td > clocks[d]:
                clocks[d] = td
        if sendrecv:
            for (_, s), dn in zip(post, done):
                if dn > clocks[s]:
                    clocks[s] = dn
        if reduce:
            _charge_receivers(clocks, recv, gamma, sched.reduce_words, cpw)
        if extra:
            _charge_receivers(clocks, recv, 1.0, sched.extra_seconds, cpw)
    if not full:
        for col, vals in ((net.clocks, clocks), (net.egress_free, eg),
                          (net.ingress_free, ing)):
            for s, v in zip(world, vals):
                col[s] = v
    for r, s in enumerate(world):
        net.words_sent[s] += sched.words_sent[r]
        net.words_recv[s] += sched.words_recv[r]
        net.msgs_sent[s] += sched.msgs_sent[r]
        net.msgs_recv[s] += sched.msgs_recv[r]


def _charge_receivers(clocks: list, recv: tuple, scale: float,
                      per_msg: list, cpw) -> None:
    """``SimComm.compute`` of ``scale * per_msg[message]`` seconds by each
    receiver of a round, in receive order, times its straggler factor at
    its clock before the charge (``cpw`` = the world's compute windows,
    ``None`` when it has none; a ``scale`` of 1.0 is bit-neutral)."""
    for _, i, d in recv:
        c = clocks[d]
        x = scale * per_msg[i]
        if cpw is not None and cpw.windows[d]:
            x = x * cpw.factor(d, c)
        clocks[d] = c + x


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
    b.round(_ONEWAY, post, post)
    return b.build()


@lru_cache(maxsize=512)
def compile_scatter(p: int, root: int, sizes: Tuple[int, ...]) -> Schedule:
    """Linear scatter: the root's egress link serializes the blocking
    sends in ascending rank order."""
    b = _Builder(p)
    peers = [r for r in range(p) if r != root]
    post = [b.msg(root, r, sizes[r], TAG_SCATTER) for r in peers]
    b.round(_ONEWAY, post, post)
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
def _sum_tree(payloads: Sequence[np.ndarray], p: int,
              halving: bool) -> np.ndarray:
    """The halving/doubling trees, folded pairwise straight from the
    per-rank rows (a sequence of arrays or the rows of one stacked
    ``(P, n)`` array; no row is ever written).

    Core (newrank) order first: fold-in pair ``x < rem`` holds
    ``a[2x+1] + a[2x]`` (the odd rank's ``op(acc, got)``), the other core
    ranks pass their own row through.  Each level then combines pairs —
    newranks ``i`` and ``i + m/2`` first for recursive halving
    (Rabenseifner), adjacent newranks first for the butterfly (recursive
    doubling).  Every combine is a commutative ``op(acc, got)``, so every
    core rank ends with these bits.  A combine adds into its left operand
    when this fold allocated it (``np.add(x, y, out=x)``) and into a fresh
    array otherwise (the first level, a pass-through row)."""
    rows = [np.asarray(a) for a in payloads]
    rem = p - _core_size(p)
    cur = [rows[2 * x + 1] + rows[2 * x] for x in range(rem)] + rows[2 * rem:]
    owned = rem  # cur[:owned] are this fold's own arrays
    while len(cur) > 1:
        h = len(cur) // 2
        step, lefts = (h, range(h)) if halving else (1, range(0, 2 * h, 2))
        cur = [np.add(cur[i], cur[i + step], out=cur[i]) if i < owned
               else cur[i] + cur[i + step] for i in lefts]
        owned = h
    return cur[0] if owned else cur[0].copy()


def _sum_ring(payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """The ring's sequential fold: block ``b`` accumulates around the
    ring as ``op(a_b, op(a_{b-1}, ... op(a_{b+2}, a_{b+1})))``, each
    block over plain slices of the rows straight into its slice of the
    result."""
    arrs = [np.asarray(a) for a in payloads]
    n = arrs[0].shape[0]
    out = np.empty_like(arrs[0])
    off = 0
    for b, ln in enumerate(_ring_block_lens(n, p)):
        sl = slice(off, off + ln)
        off += ln
        acc = out[sl]
        np.copyto(acc, arrs[(b + 1) % p][sl])
        for j in range(1, p):
            np.add(arrs[(b + 1 + j) % p][sl], acc, out=acc)
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
    sig = ("allreduce", algo, a.size, _wpe(a), a.dtype.str)
    # each rank copies the one shared sum as it resumes: private, writable
    # results made one at a time, not P of them in one burst that the
    # allocator hands back and faults in again on every call
    return comm.fused_collective(sig, a, _exec_allreduce).copy()


def replay_allreduce(net, algo: str, payloads) -> np.ndarray:
    """Book one dense allreduce of the ``P`` equal-shape contributions
    ``payloads`` (a sequence of arrays or one stacked ``(P, n)`` array)
    against ``net`` — :func:`replay` of the cached compiled schedule(s) —
    and return their sum, folded in that schedule's own association order
    into a fresh array (the contributions are only read).  The whole
    fused allreduce except the hand-out of results: shared by
    :func:`_exec_allreduce`, Ok-Topk's consensus and the serving step
    executor."""
    p = len(payloads)
    n, wpe = payloads[0].size, _wpe(payloads[0])
    if algo == "ring":
        replay(net, compile_reduce_scatter_ring(p, n, wpe))
        replay(net, compile_allgather_ring(p, n, wpe))
        return _sum_ring(payloads, p)
    replay(net, compile_allreduce(p, n, wpe, algo))
    return _sum_tree(payloads, p, halving=algo == "rabenseifner")


def _exec_allreduce(net, sig, payloads):
    return [replay_allreduce(net, sig[1], payloads)] * len(payloads)


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
