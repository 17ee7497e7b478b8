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
  reduction charges.  Every compiler has one form: a size-free
  **template** — the message table, the rounds and, for each message and
  each reduce charge, the contiguous run of a per-call block-length
  vector it carries — laid out once per P and algorithm or root and tag
  and cached per process, plus one :meth:`_Template.fill` that turns the
  call's block lengths into words and charges.  Compilation never
  touches data.  A filled schedule is memoized on the run's network
  (:func:`compiled`) and dropped with it;
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
possibly non-power-of-two) world replays the same schedules the full one
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
  same way per-message ``post`` / ``deliver`` bookings do.

Fault plans ride the same schedules.  A link slowdown is a per-message
multiplier on ``beta`` and a compute straggler a per-rank multiplier on
every charge the replay makes, both evaluated at the booking's own start
time — so :func:`replay` looks a factor up only for a booking or charge
by one of the plan's few faulty ranks and books every other one with the
bare constants (without a plan no factor is ever looked up).  What a plan
still sends to the reference path is the step a planned crash can fire in:
survivors must detect the death at their own blocking points, with their
own clocks and partial link bookings, which only the per-message run
produces.  The gate, :func:`_available`, is the one every rendezvous
shares, rank batching's included.

The per-message implementations remain the reference path (and the only
path for the threaded runner, traced networks, ``P = 1``, non-``add``
reduction ops, group communicators that are not the current world, and
the step a crash interrupts); ``REPRO_FUSED=0`` /
``run_spmd(..., fused=False)`` / ``repro-bench --no-fused`` force it
everywhere — per-message collectives and, because rank batching shares
the gate, per-rank compute — giving a three-way bit-identity oracle
(fused-coop == per-message-coop == threads) enforced by
``tests/test_fused_collectives.py`` — with and without plans.
"""

from __future__ import annotations

import math
import mmap
import os
from collections import namedtuple
from functools import lru_cache, partial
from itertools import accumulate, chain
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

# results are handed out as the per-message path delivers them: a
# ``sendrecv`` receiver holds a read-only view (``_view``), a blocking
# ``send``'s the snapshot taken at post time (``send_snapshot``)
from .communicator import _view, send_snapshot
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
    """The one rendezvous gate — of the fused collectives, of every
    scheme's world executor and of rank batching
    (:meth:`repro.train.rankbatch.RankBatch.engaged`).  It needs the
    cooperative engine with fusion on, more than one rank, no message
    tracing (the reference path emits per-message ``TraceRecord``\\ s
    the replay does not) and a rendezvous that is certain to complete: a
    communicator spanning the network's current world (the full one, or
    the survivor group after an elastic shrink — not a full-world
    communicator after a shrink, nor a hand-built subgroup), no declared
    death inside it, and no planned crash that could fire before the
    world leaves the rendezvous
    (:meth:`repro.comm.faults.FaultState.crash_free`; survivors must
    detect a death at their own blocking points, with their own clocks
    and partial link bookings).  Deterministic and rank-uniform: every
    input is network state or the step all ranks announced at the same
    program point.  Link slowdowns and compute stragglers do *not* close
    the gate: they are per-message and per-rank multipliers the replay
    applies itself (see :func:`replay`)."""
    net = comm.net
    sched = net._sched
    if (sched is None or not getattr(sched, "fused", False)
            or net.trace_enabled or comm.size <= 1
            or comm.slots != net.world or net._world_dead):
        return False
    f = net.faults
    return f is None or f.crash_free(net.world, comm.announced_step)


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
#: A ``reduce`` round charges each receiver its message's ``reduce_words``
#: (``compute_words``) after the round, then its ``extra_seconds`` when the
#: schedule has them (gtopk's per-level ``compute_topk``).
Round = namedtuple("Round", "style post recv reduce")


#: no block / the first one (the whole vector of a ``[n]`` block vector)
_NO_BLOCKS, _WHOLE = (0, 0), (0, 1)


class Schedule:
    """A compiled collective: its :class:`_Template`'s message table
    (``src``, ``dst``, ``tag``), rounds and message counts, shared by every
    schedule of it, and one call's sizes — ``nw`` (int64 array) and each
    receiver's ``reduce_words`` / ``extra_seconds`` (lists, ``None`` when
    none is charged) aligned with the table, and the per-rank word totals."""

    __slots__ = ("p", "src", "dst", "tag", "rounds", "msgs_sent",
                 "msgs_recv", "nw", "reduce_words", "extra_seconds",
                 "words_sent", "words_recv")

    def __init__(self, t: _Template, nw: np.ndarray, reduce_words,
                 extra_seconds):
        (self.p, self.src, self.dst, self.tag, self.rounds, self.msgs_sent,
         self.msgs_recv) = t[:7]
        self.nw = nw
        self.reduce_words = reduce_words
        self.extra_seconds = extra_seconds
        # every compiled message is delivered, so the totals are symmetric
        # sums over the table (Python ints, like the counter lists they
        # are added to; float64 sums of word counts are exact)
        self.words_sent = np.bincount(t.src, nw, t.p).astype(
            np.int64).tolist()
        self.words_recv = np.bincount(t.dst, nw, t.p).astype(
            np.int64).tolist()

    @property
    def nmsgs(self) -> int:
        return int(self.src.size)

    def messages(self) -> List[Tuple[int, int, int, int]]:
        """The full message list as ``(src, dst, nwords, tag)`` tuples (in
        schedule order) — the property-test surface."""
        return list(zip(self.src.tolist(), self.dst.tolist(),
                        self.nw.tolist(), self.tag.tolist()))


class _Template(namedtuple("_Template", "p src dst tag rounds msgs_sent "
                                        "msgs_recv runs")):
    """The size-free part of a schedule, fixed by P and the algorithm or
    root and tag: the message table, rounds and message counts, and
    ``runs``, the rows ``lo``, ``hi`` of the run of a per-call block-length
    vector each message carries (then the rows of its receiver's reduce
    charge, if a round reduces).  :meth:`fill` turns one vector into a
    :class:`Schedule`."""

    __slots__ = ()

    def fill(self, lens, wpe: int = 1, extra_seconds=None) -> Schedule:
        """The schedule of the block lengths ``lens`` (in elements): a
        message carries ``wpe`` words per element of its run, a reduce
        charge is its run's element count, and ``extra_seconds`` (aligned
        with the message table) are charged by the reducing rounds."""
        ends = np.fromiter(accumulate(lens, initial=0), np.int64,
                           len(lens) + 1)
        at = ends[self.runs]
        nw = (at[1] - at[0]) * wpe
        if len(at) == 2:            # no round reduces
            return Schedule(self, nw, None, None)
        return Schedule(self, nw, (at[3] - at[2]).tolist(), extra_seconds)


class _Builder:
    """Lays out a template: messages with the block run each carries,
    rounds with the run each receiver reduces.  :meth:`build` checks that
    a round receives only messages it posts itself."""

    __slots__ = ("p", "src", "dst", "tag", "runs", "rounds")

    def __init__(self, p: int):
        self.p = p
        self.src: List[int] = []
        self.dst: List[int] = []
        self.tag: List[int] = []
        #: per message ``(lo, hi)`` of its run + its receiver's charge's
        self.runs: List[Tuple[int, int, int, int]] = []
        self.rounds: List[tuple] = []

    def msg(self, src: int, dst: int, run: Tuple[int, int],
            tag: int) -> int:
        """Message ``src -> dst`` carrying blocks ``run = (lo, hi)``."""
        i = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.tag.append(tag)
        self.runs.append(run + _NO_BLOCKS)
        return i

    def round(self, style: int, post: Sequence[int], recv: Sequence[int],
              reduce: Optional[Sequence[Tuple[int, int]]] = None) -> None:
        """Append a round; ``reduce`` (aligned with ``recv``) holds the
        block run each receiver reduces."""
        for i, run in zip(recv, reduce or ()):
            self.runs[i] = self.runs[i][:2] + run
        self.rounds.append((style, tuple(post), tuple(recv), bool(reduce)))

    def build(self) -> _Template:
        src, dst = self.src, self.dst
        rounds = []
        for style, post, recv, reduce in self.rounds:
            at = {i: k for k, i in enumerate(post)}
            missing = [i for i in recv if i not in at]
            if missing:
                raise ValueError(f"round {len(rounds)} receives messages "
                                 f"{missing} it does not post")
            rounds.append(Round(style, tuple((i, src[i]) for i in post),
                                tuple((at[i], i, dst[i]) for i in recv),
                                reduce))
        src_a, dst_a = (np.array(a, dtype=np.int64) for a in (src, dst))
        runs = np.array(self.runs, dtype=np.int64).reshape(-1, 4)
        if not any(r.reduce for r in rounds):
            runs = runs[:, :2]
        return _Template(self.p, src_a, dst_a,
                         np.array(self.tag, dtype=np.int64), tuple(rounds),
                         np.bincount(src_a, minlength=self.p).tolist(),
                         np.bincount(dst_a, minlength=self.p).tolist(),
                         np.ascontiguousarray(runs.T))


@lru_cache(maxsize=512)
def _template(emit, p: int, *key) -> _Template:
    """The template ``emit(builder, p, *key)`` lays out: the one place a
    :class:`_Builder` runs, once per structure key (P and the emitter's
    algorithm, root or tag) — never per size."""
    b = _Builder(p)
    emit(b, p, *key)
    return b.build()


#: entries a run's schedule memo holds before it starts over: Ok-Topk's
#: package sizes change every iteration, and a long run must not keep all
#: of them
MEMO_ENTRIES = 1024


def compiled(net, compile_, *key):
    """``compile_(*key)``, compiled once per run: the one lookup of every
    schedule keyed on a message size or vector length (the ``compile_*``
    compilers below, the per-message ring's block slices).  A miss costs
    one :meth:`_Template.fill` of a cached template; the memo keeps the
    filled schedule, since serving and Ok-Topk hit it every step.  It is
    the run's network's (``net.schedules``), so a run never replays a
    schedule an earlier run compiled, and it is freed with the network.
    Under the threads runner two ranks may both miss one key: they
    compile equal values, and either may stay."""
    memo = net.schedules
    sched = memo.get((compile_, key))
    if sched is None:
        if len(memo) >= MEMO_ENTRIES:
            memo.clear()
        sched = memo[compile_, key] = compile_(*key)
    return sched


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
    extra = sched.extra_seconds
    for style, post, recv, reduce in sched.rounds:
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
            if extra is not None:
                _charge_receivers(clocks, recv, 1.0, extra, cpw)
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


def charge_world(net, charges) -> None:
    """:meth:`SimComm.compute` of ``charges[r]`` for every rank ``r`` of
    the current world, in one walk over ``net.clocks`` by slot: each
    charge is a ``(cost, words)`` pair, a :class:`NetworkModel` method
    and its argument, times the rank's straggler factor at its clock
    before the charge.  No crash check: the rendezvous gate rules a
    pending crash out."""
    clocks, model, faults = net.clocks, net.model, net.faults
    for s, pairs in zip(net.world, charges):
        for cost, words in pairs:
            sec = cost(model, words)
            if faults is not None and faults.straggler[s]:
                sec *= faults.compute_factor(s, clocks[s])
            clocks[s] += sec


# ---------------------------------------------------------------------------
# Template emitters (size-free: P + structure key in, messages and rounds
# with their block runs out; :func:`_template` runs each once per key)
# ---------------------------------------------------------------------------
def _core_size(p: int) -> int:
    return 1 << (p.bit_length() - 1)


def _fold_real(newrank: int, p: int, m: int) -> int:
    rem = p - m
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def _emit_fold(b: _Builder, p: int, m: int, whole: Tuple[int, int],
               out: bool) -> None:
    """The fold of the ``P - m`` extra ranks: rank ``2i`` ships its vector
    to ``2i + 1``, which reduces it, or (``out``) takes the result back."""
    rem = p - m
    if rem:
        post = [b.msg(2 * i + out, 2 * i + 1 - out, whole, TAG_FOLD)
                for i in range(rem)]
        b.round(_ONEWAY, post, post, reduce=None if out else [whole] * rem)


def _emit_rd(b: _Builder, p: int) -> None:
    """Recursive doubling over the core ranks, every message the whole
    vector (block lengths ``[n]``)."""
    m = _core_size(p)
    _emit_fold(b, p, m, _WHOLE, False)
    d = 1
    while d < m:
        post = [b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m), _WHOLE,
                      TAG_ALLREDUCE) for x in range(m)]
        recv = [post[x ^ d] for x in range(m)]
        b.round(_SENDRECV, post, recv, reduce=[_WHOLE] * m)
        d <<= 1
    _emit_fold(b, p, m, _WHOLE, True)


def _halving_leaves(n: int, m: int) -> List[int]:
    """The ``m`` (a power of two) leaves of recursively halving ``n``
    elements, in position order (an interval of ``L`` splits into its
    lower ``L // 2`` and upper ``L - L // 2``); core rank ``x`` ends
    Rabenseifner's reduce-scatter holding leaf ``x``."""
    lens = [n]
    while len(lens) < m:
        lens = [h for x in lens for h in (x >> 1, x - (x >> 1))]
    return lens


def _emit_rab(b: _Builder, p: int) -> None:
    """Rabenseifner in units of the halving leaves: recursive halving
    (a core rank ships the half of its run on its partner's side and
    reduces the other), then a recursive-doubling allgather of the runs."""
    m = _core_size(p)
    whole = (0, m)
    _emit_fold(b, p, m, whole, False)
    run = [whole] * m
    d = m >> 1
    while d >= 1:
        post, keep = [0] * m, [whole] * m
        for x in range(m):
            lo, hi = run[x]
            mid = (lo + hi) >> 1
            lower = x < (x ^ d)
            keep[x] = (lo, mid) if lower else (mid, hi)
            post[x] = b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m),
                            (mid, hi) if lower else (lo, mid), TAG_RS)
        run = keep
        b.round(_SENDRECV, post, [post[x ^ d] for x in range(m)],
                reduce=run)
        d >>= 1
    d = 1
    while d < m:
        post = [b.msg(_fold_real(x, p, m), _fold_real(x ^ d, p, m), run[x],
                      TAG_AG) for x in range(m)]
        b.round(_SENDRECV, post, [post[x ^ d] for x in range(m)])
        run = [(run[x ^ d][0], run[x][1]) if x & d
               else (run[x][0], run[x ^ d][1]) for x in range(m)]
        d <<= 1
    _emit_fold(b, p, m, whole, True)


def _emit_ring(b: _Builder, p: int, tag: int, reduce: bool) -> None:
    """``P - 1`` ring steps over the ``P`` blocks: at step ``s`` rank
    ``r`` ships block ``(r - s) % P`` to ``r + 1``.  The reduce-scatter
    (steps ``1 .. P-1``) reduces the block ``(r - s - 1) % P`` each rank
    receives; the allgather (steps ``0 .. P-2``) only forwards."""
    first = 1 if reduce else 0
    for s in range(first, first + p - 1):
        post = [b.msg(r, (r + 1) % p, _block((r - s) % p), tag)
                for r in range(p)]
        recv = [post[(r - 1) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv, reduce=[
            _block((r - s - 1) % p) for r in range(p)] if reduce else None)


def _emit_bruck(b: _Builder, p: int, tag: int) -> None:
    """Bruck dissemination: the step at distance ``d`` ships each rank
    ``r``'s first ``min(d, P - d)`` held blocks, those of ranks
    ``r .. r+count-1`` — one run of the sizes laid out twice over."""
    d = 1
    while d < p:
        count = min(d, p - d)
        post = [b.msg(r, (r - d) % p, (r, r + count), tag) for r in range(p)]
        recv = [post[(r + d) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv)
        d <<= 1


def _emit_pairwise(b: _Builder, p: int) -> None:
    """Pairwise rotation: at step ``s`` rank ``r`` sends block
    ``r * P + (r+s) % P`` of the flattened size matrix to ``(r+s) % P``."""
    for s in range(1, p):
        post = [b.msg(r, (r + s) % p, _block(r * p + (r + s) % p), TAG_A2A)
                for r in range(p)]
        recv = [post[(r - s) % p] for r in range(p)]
        b.round(_SENDRECV, post, recv)


def _binomial_levels(p: int) -> List[List[Tuple[int, int]]]:
    """The binomial tree over virtual ranks, leaves first: per mask level
    its ``(child, parent)`` pairs by parent — a reduction's message order
    (reversed, a broadcast's)."""
    levels = []
    mask = 1
    while mask < p:
        levels.append([(v + mask, v) for v in range(0, p - mask, 2 * mask)])
        mask <<= 1
    return levels


def _emit_bcast(b: _Builder, p: int, root: int) -> None:
    """Binomial broadcast (a rank receives at its virtual rank's lowest
    set bit, then forwards), every message the whole object."""
    for level in reversed(_binomial_levels(p)):
        post = [b.msg((v + root) % p, (c + root) % p, _WHOLE, TAG_BCAST)
                for c, v in level]
        b.round(_ONEWAY, post, post)


def _emit_reduce(b: _Builder, p: int, root: int, tag: int) -> None:
    """Binomial reduction to ``root``, levels in ascending mask order;
    message ``i`` carries (and its receiver reduces) block ``i``."""
    for level in _binomial_levels(p):
        post = [b.msg((c + root) % p, (v + root) % p, _block(i), tag)
                for i, (c, v) in enumerate(level, len(b.src))]
        b.round(_ONEWAY, post, post, reduce=[_block(i) for i in post])


def _emit_linear(b: _Builder, p: int, root: int, inward: bool) -> None:
    """A linear gather (``inward``: the root's ingress link serializes
    the deliveries in ascending rank order) or scatter (its egress link
    serializes the blocking sends); rank ``r``'s message is block ``r``."""
    post = [b.msg(r, root, _block(r), TAG_GATHER) if inward
            else b.msg(root, r, _block(r), TAG_SCATTER)
            for r in range(p) if r != root]
    b.round(_ONEWAY, post, post)


def _emit_barrier(b: _Builder, p: int) -> None:
    """Dissemination barrier: ``ceil(log2 P)`` zero-word rounds, each a
    blocking send to ``r+d`` followed by a receive from ``r-d``."""
    d = 1
    while d < p:
        post = [b.msg(r, (r + d) % p, _NO_BLOCKS, TAG_BARRIER)
                for r in range(p)]
        recv = [post[(r - d) % p] for r in range(p)]
        b.round(_ONEWAY, post, recv)
        d <<= 1


def _block(i: int) -> Tuple[int, int]:
    return i, i + 1


# ---------------------------------------------------------------------------
# Schedule compilers (pure: P + sizes in, message schedule out — one fill
# of a cached template; a caller looks every one up through
# :func:`compiled`)
# ---------------------------------------------------------------------------
def compile_allreduce(p: int, n: int, wpe: int, algo: str) -> Schedule:
    """Message schedule of a dense allreduce over ``n`` elements of
    ``wpe`` words each (``recursive_doubling`` | ``rabenseifner`` |
    ``ring``), including the fold-in/fold-out of the ``P - 2^floor(log2
    P)`` extra ranks."""
    if algo == "recursive_doubling":
        return _template(_emit_rd, p).fill((n,), wpe)
    if algo == "rabenseifner":
        return _template(_emit_rab, p).fill(
            _halving_leaves(n, _core_size(p)), wpe)
    if algo == "ring":
        raise ValueError("ring allreduce compiles as reduce_scatter_ring "
                         "+ allgather_ring")
    raise ValueError(f"unknown dense allreduce algorithm {algo!r}")


def _block_slices(n: int, p: int) -> Tuple[slice, ...]:
    """Contiguous near-equal partition of ``range(n)`` into ``p`` blocks,
    the ring collectives' blocks (the per-message ring looks it up per
    run through :func:`compiled`: every rank needs it on every call)."""
    bounds = np.linspace(0, n, p + 1).astype(np.int64).tolist()
    return tuple(map(slice, bounds[:-1], bounds[1:]))


def compile_reduce_scatter_ring(p: int, n: int, wpe: int) -> Schedule:
    """Ring reduce-scatter over the blocks of :func:`_block_slices`."""
    return _template(_emit_ring, p, TAG_RS, True).fill(
        [sl.stop - sl.start for sl in _block_slices(n, p)], wpe)


def compile_allgather_ring(p: int, n: int, wpe: int) -> Schedule:
    return _template(_emit_ring, p, TAG_AG, False).fill(
        [sl.stop - sl.start for sl in _block_slices(n, p)], wpe)


def compile_allgatherv(p: int, sizes: Tuple[int, ...],
                       tag: int = TAG_AGV) -> Schedule:
    """Bruck dissemination of per-rank contribution sizes (in words)."""
    return _template(_emit_bruck, p, tag).fill(tuple(sizes) * 2)


def compile_alltoallv(p: int, rows: Tuple[Tuple[int, ...], ...]) -> Schedule:
    """Pairwise rotation; ``rows[i][j]`` words from rank ``i`` to ``j``."""
    return _template(_emit_pairwise, p).fill(
        tuple(chain.from_iterable(rows)))


def compile_bcast(p: int, root: int, nw: int) -> Schedule:
    """Binomial broadcast of an ``nw``-word object."""
    return _template(_emit_bcast, p, root).fill((nw,))


def compile_reduce(p: int, root: int, n: int, wpe: int) -> Schedule:
    """Binomial reduction to ``root``, every message ``n`` elements."""
    return _template(_emit_reduce, p, root, TAG_REDUCE).fill(
        (n,) * (p - 1), wpe)


def compile_barrier(p: int) -> Schedule:
    return _template(_emit_barrier, p).fill(())


def compile_gather(p: int, root: int, sizes: Tuple[int, ...]) -> Schedule:
    """Linear gather of the per-rank sizes (in words) to ``root``."""
    return _template(_emit_linear, p, root, True).fill(sizes)


def compile_scatter(p: int, root: int, sizes: Tuple[int, ...]) -> Schedule:
    """Linear scatter of the per-rank sizes (in words) from ``root``."""
    return _template(_emit_linear, p, root, False).fill(sizes)


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
def _shared_base(rows: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The matrix whose consecutive rows ``rows`` already are, if any."""
    base = rows[0].base
    if (base is not None and base.ndim == 2
            and base.shape[0] == len(rows)
            and all(r.base is base
                    # whole rows only: a session bucket's prefix slice
                    # starts where its row does
                    and r.shape == base.shape[1:]
                    and r.strides == base.strides[1:]
                    and r.ctypes.data == base.ctypes.data + i * base.strides[0]
                    for i, r in enumerate(rows))):
        return base
    return None


def _mapped_zeros(shape, dtype) -> np.ndarray:
    """A zero-filled array on its own anonymous memory mapping.

    For world-sized ``(P, ...)`` matrices: they are allocated by whichever
    rank thread reaches a rendezvous last and dropped by another when the
    section closes.  Taken from malloc, each would land in a different
    per-thread arena, and an arena keeps its high-water mark — a process
    that runs section after section ends up holding one world per arena.
    A private mapping goes back to the OS the moment the array is dropped,
    whichever thread made it.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(nbytes, 1), access=mmap.ACCESS_COPY)
    return np.ndarray(shape, dtype=dtype, buffer=buf)


class _WorldState:
    """Per-network lockstep state shared by the executors: the stacked
    model, the double-buffered accumulate matrices (the new accumulator
    never overwrites the residual rows still pointing into the other),
    the rows handed out and the scratch of world-sized temporaries."""

    __slots__ = ("stacked", "bufs", "flip", "handed", "_scratch")

    def __init__(self):
        #: the world's :class:`~repro.nn.stacked.StackedModel`, if bound
        self.stacked = None
        self.bufs: List[Optional[np.ndarray]] = [None, None]
        self.flip = 0
        #: kind -> (the row views last handed out, their matrix)
        self.handed: dict = {}
        self._scratch: dict = {}

    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """The buffer ``name``, (re)allocated only when its shape or
        dtype changes (once per world size).  Contents are undefined on
        return; a buffer is valid until the next request for its name."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = self._scratch[name] = _mapped_zeros(shape, dtype)
        return buf

    def flat(self, name: str, size: int, dtype) -> np.ndarray:
        """The first ``size`` entries of the grow-only 1-D buffer ``name``
        (for temporaries whose length changes with every call): zeros
        when it is (re)allocated, undefined otherwise."""
        buf = self._scratch.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._scratch[name] = _mapped_zeros((size * 3 // 2,), dtype)
        return buf[:size]

    def hand_out(self, kind: str, matrix: np.ndarray) -> List[np.ndarray]:
        """``matrix``'s row views, remembered as the rows of ``kind``."""
        rows = list(matrix)
        self.handed[kind] = (rows, matrix)
        return rows

    def rows_of(self, rows: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """The matrix whose rows ``rows`` are, if any: known by identity
        when they were handed out, else by address (:func:`_shared_base`)."""
        for mine, matrix in self.handed.values():
            if len(mine) == len(rows) and all(
                    a is b for a, b in zip(rows, mine)):
                return matrix
        return _shared_base(rows)

    def stack(self, name: str, rows: Sequence[np.ndarray]) -> np.ndarray:
        """A ``(P, ...)`` matrix over per-rank arrays: zero-copy when they
        already are the consecutive rows of one matrix (:meth:`rows_of`),
        copied into scratch ``name`` otherwise."""
        base = self.rows_of(rows)
        if base is not None:
            return base
        return np.stack(rows, out=self.scratch(
            name, (len(rows),) + rows[0].shape, rows[0].dtype))


def _world_state(net) -> _WorldState:
    """``net``'s world state, made on first use: shared by the rank-batching
    executors (:mod:`repro.train.rankbatch`) and Ok-Topk's data kernel."""
    st = getattr(net, "_rank_batch_state", None)
    if st is None:
        st = net._rank_batch_state = _WorldState()
    return st


def _sum_tree(payloads, p: int, halving: bool) -> np.ndarray:
    """The halving/doubling trees, folded level by level over the rows of
    one ``(P, width)`` array: ``payloads`` itself, the matrix whose whole
    rows a sequence of arrays already is (:func:`_shared_base`), or else
    the sequence stacked.  No row of the caller's is ever written.

    Core (newrank) order first: fold-in pair ``x < rem`` holds
    ``a[2x+1] + a[2x]`` (the odd rank's ``op(acc, got)``), the other core
    ranks pass their own row through.  Each level then combines pairs in
    one add — newranks ``i`` and ``i + m/2`` for recursive halving
    (Rabenseifner, ``a[:h] + a[h:]``), adjacent newranks for the
    butterfly (recursive doubling, ``a[0::2] + a[1::2]``).  Every combine
    is a commutative ``op(acc, got)``, so every core rank ends with these
    bits.  A level adds in place into an array this fold made (the
    stacked copy, the fold-in's, an earlier level's) and into a fresh one
    otherwise; the last level's sum is a fresh row of its own, so the
    result holds no level's array alive."""
    a = payloads if isinstance(payloads, np.ndarray) else _shared_base(
        payloads)
    owned = a is None
    a = np.stack(payloads) if owned else a
    rem = p - _core_size(p)
    if rem:
        a, owned = np.concatenate((a[1:2 * rem:2] + a[:2 * rem:2],
                                   a[2 * rem:])), True
    while len(a) > 2:
        h = len(a) // 2
        x, y = (a[:h], a[h:]) if halving else (a[0::2], a[1::2])
        a, owned = np.add(x, y, out=x if owned else None), True
    return a[0] + a[1] if len(a) == 2 else a[0].copy()


def _sum_ring(payloads: Sequence[np.ndarray], p: int) -> np.ndarray:
    """The ring's sequential fold: block ``b`` accumulates around the
    ring as ``op(a_b, op(a_{b-1}, ... op(a_{b+2}, a_{b+1})))``, each
    block over plain slices of the rows straight into its slice of the
    result."""
    arrs = [np.asarray(a) for a in payloads]
    out = np.empty_like(arrs[0])
    for b, sl in enumerate(_block_slices(out.shape[0], p)):
        acc = out[sl]
        np.copyto(acc, arrs[(b + 1) % p][sl])
        for j in range(1, p):
            np.add(arrs[(b + 1 + j) % p][sl], acc, out=acc)
    return out


def _sum_reduce_tree(payloads: Sequence[Any], p: int, root: int):
    """Binomial-tree association (:func:`_binomial_levels`): at each
    level the parent virtual rank folds its child subtree in
    (``op(acc, got)``)."""
    cur = {v: np.asarray(payloads[(root + v) % p]) for v in range(p)}
    for level in _binomial_levels(p):
        for c, v in level:
            cur[v] = cur[v] + cur.pop(c)
    return cur[0]


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


def allreduce_plan(net, algo: str, p: int, n: int, wpe: int):
    """One dense allreduce of ``n`` elements of ``wpe`` words per rank:
    the schedule(s) the run compiled for it (:func:`compiled`; the ring's
    reduce-scatter and allgather) and its fold — ``fold(payloads)`` sums
    the ``P`` contributions (a sequence of arrays or one stacked
    ``(P, width)`` array, only read) in that schedule's association
    order into a fresh array.  A caller replays the schedules and folds:
    :func:`_exec_allreduce` once, the serving step executor once per
    layer, on rows narrower than the ``n`` words it books."""
    if algo == "ring":
        return ((compiled(net, compile_reduce_scatter_ring, p, n, wpe),
                 compiled(net, compile_allgather_ring, p, n, wpe)),
                partial(_sum_ring, p=p))
    return ((compiled(net, compile_allreduce, p, n, wpe, algo),),
            partial(_sum_tree, p=p, halving=algo == "rabenseifner"))


def _exec_allreduce(net, sig, payloads):
    _, algo, n, wpe, _ = sig
    scheds, fold = allreduce_plan(net, algo, len(payloads), n, wpe)
    for sched in scheds:
        replay(net, sched)
    return [fold(payloads)] * len(payloads)


def fused_allgatherv(comm, block: Any, head: str = "allgatherv"):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(
        (head,), (block, payload_nwords(block)), _exec_allgatherv)


def _exec_allgatherv(net, sig, payloads):
    p = len(payloads)
    sizes = tuple(nw for _, nw in payloads)
    replay(net, compiled(net, compile_allgatherv, p, sizes))
    blocks = [b for b, _ in payloads]
    views = [_view(b) for b in blocks]
    return [[blocks[j] if j == r else views[j] for j in range(p)]
            for r in range(p)]


def fused_alltoallv(comm, blocks: Sequence[Any]):
    if not _available(comm):
        return UNFUSED
    row = tuple(payload_nwords(bl) for bl in blocks)
    return comm.fused_collective(("alltoallv",), (blocks, row),
                                 _exec_alltoallv)


def _exec_alltoallv(net, sig, payloads):
    p = len(payloads)
    rows = tuple(row for _, row in payloads)
    replay(net, compiled(net, compile_alltoallv, p, rows))
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
    replay(net, compiled(net, compile_bcast, p, root, payload_nwords(obj)))
    snap = send_snapshot(obj, net)
    return [obj if r == root else snap for r in range(p)]


def fused_reduce(comm, arr: np.ndarray, root: int, op):
    if op is not np.add or not _available(comm):
        return UNFUSED
    a = np.asarray(arr)
    sig = ("reduce", root, a.size, _wpe(a), a.dtype.str)
    return comm.fused_collective(sig, a, _exec_rooted_reduce)


def _exec_rooted_reduce(net, sig, payloads):
    _, root, n, wpe, _ = sig
    p = len(payloads)
    replay(net, compiled(net, compile_reduce, p, root, n, wpe))
    total = _sum_reduce_tree(payloads, p, root)
    return [total if r == root else None for r in range(p)]


def fused_barrier(comm):
    if not _available(comm):
        return UNFUSED
    return comm.fused_collective(("barrier",), None, _exec_barrier)


def _exec_barrier(net, sig, payloads):
    p = len(payloads)
    replay(net, compiled(net, compile_barrier, p))
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
    replay(net, compiled(net, compile_gather, p, root, sizes))
    out = [payloads[j][0] if j == root
           else send_snapshot(payloads[j][0], net) for j in range(p)]
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
    replay(net, compiled(net, compile_scatter, p, root, sizes))
    return [objs[r] if r == root else send_snapshot(objs[r], net)
            for r in range(p)]
