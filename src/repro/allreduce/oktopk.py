"""Ok-Topk's O(k) sparse allreduce (Algorithm 1 and Section 3 of the paper).

Two phases per iteration:

1. **split and reduce** — the gradient space is partitioned into P regions
   (boundaries balanced over the local top-k coordinate distribution and
   agreed by consensus averaging every ``tau`` iterations); worker ``i``
   reduces region ``i``.  Messages follow a destination-rotation schedule
   and are grouped into buckets whose local reduction overlaps the next
   bucket's transfers (Figure 2).  Cost: ``(P-1) alpha + 2k (P-1)/P beta``.

2. **balance and allgatherv** — each worker selects the global top-k values
   inside its region with an estimated global threshold, packages them, and
   (only when the package sizes are skewed by more than ``balance_trigger``
   times the average) rebalances the packages with point-to-point moves
   before the final recursive-doubling/Bruck allgatherv.  Cost bounded by
   ``(P + 2 log P) alpha + 4k (P-1)/P beta``.

Thresholds: both the local and the global top-k thresholds are re-evaluated
exactly (sort-based) every ``tau_prime`` iterations and *reused* in between
(Section 3.1.3), making the per-iteration selection a single linear scan.

Total: less than ``6k (P-1)/P`` bandwidth — asymptotically optimal against
the ``2k (P-1)/P`` lower bound of Theorem 3.1.

Periodic state and bucketed sessions
------------------------------------

All periodic quantities — the reused local/global thresholds, the
consensus region boundaries, and the evaluation/repartition counters —
live in an :class:`OkTopkState`, and the scheme keeps **one per extent it
reduces**: the whole gradient ``[0, n)`` for the one-shot
:meth:`OkTopkAllreduce._reduce`, and one per bucket ``[lo, hi)`` of a
multi-bucket :class:`~repro.allreduce.session.ReduceSession`.  A session
bucket is a complete Ok-Topk instance on its slice (the bucket is this
repo's *block*, cf. SparDL's per-block top-k): with the plan's
proportional ``split_k`` budget ``k_b`` it runs the same driver as the
one-shot reduction against its own state, so

* the **local threshold** is the bucket's own ``k_b``-th magnitude,
  evaluated on the ``tau_prime`` schedule and reused in between — one
  linear scan per bucket per iteration, as Section 3.1.3 promises.  A
  selection-guard trip re-evaluates from the bucket's data and is
  **written back** to that bucket's state (its siblings never see it);
* the **global threshold** is estimated from the bucket's own reduced
  slice with budget ``k_b`` on the same schedule;
* the **region boundaries** partition ``[0, n_b)`` into P regions,
  balanced over the bucket's own selected coordinates and agreed by
  consensus every ``tau`` iterations from iteration 1 — every rank owns
  a share of every bucket, which is what keeps the split-and-reduce
  volume balanced (Section 3.1.1, Table 1).

Each funded bucket therefore pays its own periodic work at due
iterations (one sort, one (P+1)-word consensus allreduce, one allgatherv
of its reduced slice) and nothing but scans in between.  A gradient-layout
change discards every state together; :meth:`on_world_resize` re-keys
every one of them.  A one-bucket plan never reaches the bucket entry
(sessions delegate to the one-shot ``_reduce``, bit-identical by
construction).

Two drivers, one rendezvous per reduction
-----------------------------------------

Algorithm 1 is *one* sparse allreduce, and on the fast path it is one
engine dispatch.  Both entry points — :meth:`OkTopkAllreduce._reduce`
(one-shot) and :meth:`OkTopkAllreduce._reduce_bucket` (one session
bucket) — hand ``(acc, k, state)`` to
:meth:`OkTopkAllreduce._algorithm1`.  Where the engine rendezvous is
available (:func:`repro.comm.fused._available` — cooperative engine,
fusion on, no tracing, the communicator spans the current world and no
crash is pending in it) every rank parks once in
``comm.fused_collective(("oktopk_reduce", t, lo, hi, k))`` and the last
arrival runs :func:`_exec_reduce` for the whole world.  A multi-bucket
session goes one step further: :func:`_exec_reduce` is the scheme's
``world_bucket`` body, so the session parks every rank once per
iteration (``"reduce_session"``) and runs this body bucket by bucket on
every rank's :meth:`OkTopkAllreduce._bucket_lane`, pacers, async-region
clocks and merge included
(:func:`repro.allreduce.session._exec_session`).  For the whole
world, the body runs selection for every rank (stacked where the
accumulators are the rows of one matrix, :func:`_select_world`; handed on
rank-major, one ``cols`` / ``vals`` stream with per-rank offsets),
split-and-reduce as one array program over that stream
(:func:`_exec_split_reduce`: ``(P, m)`` bookings from compiled schedule
tables, one sort for all P regions), the global-threshold
selection, phase 2 booked from compiled schedules, and the periodic
tau / tau' work — consensus allreduce, exact global threshold — inline
where its (rank-uniform, data-independent) schedule fires.  Simulated
charges and phase deltas go through each rank's own communicator; the
data side (``u_t``) is assembled once and shared write-protected.

Everywhere else — the ``threads`` runner, ``fused=False``, tracing, the
step a planned crash fires in, ``P = 1`` — the per-rank methods below run
Algorithm 1 message by message.  They are the reference path and the
oracle of the identity suite
(``tests/test_fused_collectives.py::TestOkTopkWorldExecutor``), which is
why the executor mirrors them stage by stage instead of sharing their
code; what the two do share are the purely local halves
(:meth:`OkTopkAllreduce._select_local`, ``_proposal``,
``_adopt_boundaries``, ``_estimate_global_th``) and the ``package_codec``
hook ``oktopk_q`` plugs its quantizer into.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..comm import SimComm, collectives as coll
from ..comm import fused as _fused
from ..comm.payload import nwords as payload_nwords
from ..errors import ConfigError
from ..sparse import (
    COOVector,
    balanced_boundaries_local,
    combine_sum,
    equal_boundaries,
    exact_topk,
    intersect_sorted,
    kth_largest_abs,
    sanitize_boundaries,
    threshold_select,
)
from ..sparse.coo import INDEX_DTYPE, VALUE_DTYPE
from ..sparse.topk import batched_threshold_select
from .base import PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, GradientAllreduce
from .schedule import buckets, compile_split_reduce, make_steps
from .session import BucketView

_TAG_SR = (1 << 21) + 21      # split-and-reduce region pieces
_TAG_BAL = (1 << 21) + 22     # data-balancing moves


def _exec_split_reduce(net, ws, rotation, bucket_size, cols, vals, offsets,
                       boundaries):
    """Split-and-reduce for the whole world as one array program — the
    stage of :func:`_exec_reduce` that replaces
    :meth:`OkTopkAllreduce._split_and_reduce`; ``ws`` lends the buffers.

    The selections come rank-major (:func:`_select_world`): rank ``r``
    selected ``cols[offsets[r]:offsets[r + 1]]`` with those ``vals``.  No
    piece object and no message exists on the way.  ONE ``searchsorted``
    of every rank's boundaries in the global positions ``r * n + col``
    (ascending over the whole stream) gives the cut matrix, whose
    differences are the piece sizes :func:`_book_split_reduce` books the
    exchange from.  The P regions are reduced by ONE sort of
    ``col * P + order[owner, src]`` over the stream
    (:func:`_region_order`): an index's contributions come out adjacent
    and in its owner's reduction order (own piece, then request order —
    what ``combine_sum`` concatenates), ``reduceat`` accumulates them in
    float64 as the per-owner call does, one float32 cast follows, and the
    consensus boundaries cut the result into regions.

    Returns the reduced ``idx`` / ``val`` of all regions in index order
    and the region cuts (region ``r`` is ``idx[cuts[r]:cuts[r + 1]]``).
    """
    p = len(offsets) - 1
    tables, order = compile_split_reduce(p, rotation, bucket_size)
    bnd = np.array(boundaries, dtype=np.int64)
    n = int(bnd[0, -1])
    base = np.arange(p, dtype=np.int64) * n
    gpos = np.add(cols, np.repeat(base, np.diff(offsets)), dtype=np.int64)
    cut = gpos.searchsorted(bnd + base[:, None])      # cut[src, j]
    count = np.diff(cut)                    # count[src, owner]
    _book_split_reduce(net, ws, tables, count)

    total = cols.size
    key = np.multiply(cols, p, dtype=np.int64,
                      out=ws.flat("sr_key", total, np.int64))
    # entries run source by source, owners ascending within a source
    key += np.repeat(order.T.ravel(), count.ravel())
    perm = _region_order(key, n * p)
    all_idx = cols.take(perm, out=ws.flat("sr_idx_sorted", total,
                                          INDEX_DTYPE))
    all_val = vals.take(perm, out=ws.flat("sr_val_sorted", total,
                                          VALUE_DTYPE))
    first = np.empty(total, dtype=bool)     # of its index's run
    first[:1] = True
    np.not_equal(all_idx[1:], all_idx[:-1], out=first[1:])
    head = np.flatnonzero(first)
    idx = all_idx[head]
    val = np.add.reduceat(all_val, head,
                          dtype=np.float64).astype(VALUE_DTYPE)
    cuts = [0, *idx.searchsorted(bnd[0, 1:-1]).tolist(), idx.size]
    return idx, val, cuts


def _region_order(key: np.ndarray, span: int, bits: int = 63) -> np.ndarray:
    """The permutation that sorts ``key`` — unique, each in
    ``[0, span)``; clobbered.

    Packs ``key << b | position`` (``b`` bits hold any position) into one
    int64 and sorts the values, several times cheaper than ``argsort``;
    unique keys make both give the one ascending order.  Where the packed
    key would not fit in ``bits`` bits it falls back to ``argsort``.
    """
    b = key.size.bit_length()
    if span << b > 1 << bits:
        return key.argsort()
    key <<= b
    key |= np.arange(key.size)
    key.sort()
    key &= (1 << b) - 1
    return key


def _book_split_reduce(net, ws, tables, count):
    """Book the exchange of ``count[src, owner]``-entry pieces (2 wire
    words each) for the whole world: the reference path's exact booking
    sequence, a few operations on ``(P, m)`` matrices per bucket of
    :func:`~.schedule.compile_split_reduce`'s ``tables``.

    ``isend_batch`` is the sizes gathered from the piece-size matrix,
    ``isend_avail``'s chain as a row-wise ``cumsum``, all P egress links
    in one :meth:`NetworkModel.serialize_stacked` fold and one
    ``o_inject`` charge per post; ``waitall`` reads each ``t_first`` at
    the message's column of its sender's row, sorts the inbox by a
    row-wise ``lexsort`` on ``(t_first, src)`` (one message per source:
    the word count never breaks a tie), books the ingress links with the
    same fold and ends the send waits with the row's last egress booking
    (ends only grow).  The filler of ragged rows is zero-word messages
    available at ``-inf``, which no fold, charge or maximum can see.

    Under a plan the rows of a ``link_faulty`` slot are re-booked through
    :meth:`Network._serialize_link` (per-message factors; ``isend_avail``
    stays unscaled, as in ``post_batch``) and the ``o_inject`` / ``gamma``
    charges take the straggler factor at the rank's clock before each
    charge (:func:`_charge`, i.e. ``SimComm.compute``).
    """
    p = len(count)
    model = net.model
    alpha, o_send = model.alpha, model.o_send
    o_inject, gamma = model.o_inject, model.gamma
    world = net.world
    rows = np.arange(p)[:, None]
    nw = 2.0 * count
    clocks, eg, ing = _gather_links(net)
    cpw, slow = None, ()
    faults = net.faults
    if faults is not None:
        cpw = faults.by_rank(world)[2]
        slow = [(r, s) for r, s in enumerate(world) if faults.link_faulty[s]]
    links = ws.scratch("sr_links", (3, p, p), np.float64)   # rows: < p long
    prev = None
    for tb in tables:
        # posts: one batched egress booking per rank (isend_batch)
        avail, starts, ends = links[:, :, :tb.send_to.shape[1]]
        sent = nw[rows, tb.send_to]
        sent[tb.send_pad] = 0.0
        if o_inject:
            avail[:] = o_inject
            avail[:, 0] = clocks
            np.cumsum(avail, axis=1, out=avail)
        else:
            avail[:] = clocks[:, None]
        avail[tb.send_pad] = -np.inf
        model.serialize_stacked(eg, avail, sent, starts, ends)
        for r, s in slow:
            starts[r], ends[r] = net._serialize_link(True, s, eg[r],
                                                     avail[r], sent[r])
        eg = ends[:, -1].copy()
        t_first = starts[tb.recv_from, tb.recv_col] + alpha
        t_first[tb.recv_pad] = -np.inf
        got = sent[tb.recv_from, tb.recv_col]
        got[tb.recv_pad] = 0.0
        if o_inject:
            for pad in tb.send_pad.T:
                _charge(clocks, o_inject * ~pad, cpw)
        # overlap: reduce the previous bucket while this one flies
        if prev is not None:
            _charge(clocks, gamma * prev, cpw)
        # waitall: arrival-sorted batched delivery + send waits
        arrival = np.lexsort((tb.recv_from, t_first))
        t_first, got = t_first[rows, arrival], got[rows, arrival]
        m = arrival.shape[1]
        _, ends = model.serialize_stacked(ing, t_first, got,
                                          links[0, :, :m], links[1, :, :m])
        for r, s in slow:
            ends[r] = net._serialize_link(False, s, ing[r], t_first[r],
                                          got[r])[1]
        ing = ends[:, -1].copy()
        np.maximum(clocks, ing, out=clocks, where=~tb.recv_pad[:, 0])
        np.maximum(clocks, eg + o_send, out=clocks, where=~tb.send_pad[:, 0])
        prev = got.sum(axis=1)          # 2 * prev_words
    _charge(clocks, gamma * prev, cpw)
    _scatter_links(net, clocks, eg, ing)
    own = count.diagonal()
    for s, out_w, in_w in zip(world, (2 * (count.sum(axis=1) - own)).tolist(),
                              (2 * (count.sum(axis=0) - own)).tolist()):
        net.words_sent[s] += out_w
        net.words_recv[s] += in_w
        net.msgs_sent[s] += p - 1
        net.msgs_recv[s] += p - 1


def _gather_links(net) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clocks and egress / ingress link-free times of the current world as
    float64 arrays in group-rank order."""
    return tuple(np.array([col[s] for s in net.world], dtype=np.float64)
                 for col in (net.clocks, net.egress_free, net.ingress_free))


def _scatter_links(net, clocks, eg, ing) -> None:
    """Write :func:`_gather_links`' arrays back to their slots."""
    for col, arr in ((net.clocks, clocks), (net.egress_free, eg),
                     (net.ingress_free, ing)):
        for s, v in zip(net.world, arr.tolist()):
            col[s] = v


def _charge(clocks: np.ndarray, seconds, cpw) -> None:
    """``SimComm.compute`` for every rank of the world at once: rank ``r``
    pays ``seconds`` (a scalar or a per-rank array) times its straggler
    factor at its clock before the charge (``cpw`` = the world's compute
    windows, ``None`` when it has none; a clean rank's factor is 1.0)."""
    if cpw is not None:
        seconds = seconds * np.array([cpw.factor(r, t) for r, t in
                                      enumerate(clocks.tolist())])
    clocks += seconds


def _select_world(ws, comms, schemes, states, accs, t, k):
    """Local selection (Algorithm 1 lines 2-4) for every rank, handed
    back rank-major: ``(cols, vals, offsets)``, rank ``r``'s selection
    being ``cols[offsets[r]:offsets[r + 1]]`` with those values.

    Where the accumulators are the consecutive rows of one shared matrix
    (lockstep rank batching: they live in the world's accumulate buffer)
    the per-iteration selection is one stacked threshold scan
    (:func:`~repro.sparse.topk.batched_threshold_select`) and the periodic
    threshold re-evaluation is :func:`kth_largest_abs` row by row (the
    k-th value is unique, so the bits match the per-rank path's); compute
    charges (`compute_sort`/`compute_scan`) run through each rank's own
    communicator, so clocks and phase attribution match the serial path
    exactly.  Data-dependent divergence — the degenerate path
    (``local_th <= 0``: all-zero accumulator or ``k >= n``) and the
    selection-guard re-evaluation, which a NaN threshold always trips —
    is handled per rank with the scalar primitives and spliced in.
    Uneven shards after a shrink still stack: the world fwd/bwd runs per
    run of equal shards, into one gradient matrix.  Rows that do not
    stack without a copy (per-rank model math: the VGG and LSTM proxies
    or diverged replicas, the slices of a session bucket) run
    :meth:`OkTopkAllreduce._select_local` rank by rank and are
    concatenated — copying them into a stack first measured no faster
    and cost memory.  Nor does stacking a session bucket's column slices
    of the accumulate matrix pay (a strided ``_shared_base`` plus the
    batched selection on the ``(P, hi - lo)`` view): on the BERT proxy it
    made this function slower, 300 -> 350 us per bucket.
    """
    from ..train.rankbatch import _shared_base
    xs = _shared_base(accs)
    if xs is None:
        return _rank_major([ar._select_local(comm, st, acc, k, t)
                            for comm, ar, st, acc in zip(comms, schemes,
                                                         states, accs)])
    nranks, n = xs.shape
    entries = list(zip(comms, schemes, states))
    for r, (comm, ar, st) in enumerate(entries):
        if st.local_th is None or ar._due(t, ar.tau_prime):
            st.local_th = kth_largest_abs(xs[r], k)
            st.local_evaluations += 1
            comm.compute_sort(n)
        comm.compute_scan(n)
    cols, vals, offsets = batched_threshold_select(
        xs, [st.local_th for st in states],
        ws.scratch("select_mask", xs.shape, bool),
        ws.scratch("select_spare", (min(nranks, 4), n), bool))
    fixed = {}
    for r, (comm, ar, st) in enumerate(entries):
        if st.local_th <= 0.0:
            # Degenerate (all-zero accumulator or k >= n): exact
            # selection, no guard — same as the serial early return.
            fixed[r] = exact_topk(xs[r], k)
            continue
        nnz = offsets[r + 1] - offsets[r]
        g = ar.selection_guard
        if nnz > g * k or nnz * g < k:
            st.local_th = kth_largest_abs(xs[r], k)
            st.local_evaluations += 1
            st.guard_evaluations += 1
            comm.compute_sort(n)
            comm.compute_scan(n)
            fixed[r] = (threshold_select(xs[r], st.local_th)
                        if st.local_th > 0 else exact_topk(xs[r], k))
    if not fixed:
        return cols, vals, offsets
    return _rank_major([
        fixed[r] if r in fixed else COOVector(n, cols[lo:hi], vals[lo:hi])
        for r, (lo, hi) in enumerate(zip(offsets, offsets[1:]))])


def _rank_major(selected: List[COOVector]):
    """Per-rank selections as one rank-major ``(cols, vals, offsets)``."""
    return (np.concatenate([loc.indices for loc in selected]),
            np.concatenate([loc.values for loc in selected]),
            np.array([0, *accumulate(loc.nnz for loc in selected)]))


@contextmanager
def _world_phase(net, comms, name: str):
    """:meth:`SimComm.phase` for every rank of the world at once: each
    rank's clock delta over the block goes to its own phase table (same
    expression, so the accumulated floats match the per-rank contexts)."""
    clocks = net.clocks
    starts = [clocks[c.slot] for c in comms]
    yield
    for c, start in zip(comms, starts):
        times = c._phase_times
        times[name] = times.get(name, 0.0) + clocks[c.slot] - start


def _consensus_world(net, schemes, states, proposals, n: int) -> None:
    """:meth:`OkTopkAllreduce._consensus_boundaries` for the world: the
    (P+1)-element recursive-doubling allreduce booked inline, every rank
    adopting the same averaged boundaries."""
    summed = _fused.replay_allreduce(net, "recursive_doubling", proposals)
    for ar, st in zip(schemes, states):
        ar._adopt_boundaries(st, summed, len(schemes), n)


def _global_th_world(net, comms, schemes, states, merged, words,
                     k: int) -> None:
    """The exact global-threshold estimate for the world: the allgatherv
    of the reduced pieces (``words[r]`` wire words each; ``merged`` is
    their values in rank order) booked inline, then every rank's own sort
    charge and counter (:meth:`OkTopkAllreduce._estimate_global_th`)."""
    with _world_phase(net, comms, PHASE_COMM):
        _fused.replay(net, _fused.compile_allgatherv(len(comms),
                                                     tuple(words)))
    for comm, ar, st in zip(comms, schemes, states):
        ar._estimate_global_th(comm, st, merged, k)


def _exec_reduce(net, sig, lanes):
    """Algorithm 1 for the whole current world in one rendezvous — the
    fast path of :meth:`OkTopkAllreduce._algorithm1` (a one-shot
    reduction or one session bucket; the executor cannot tell them
    apart).

    ``lanes[r]`` is rank ``r``'s ``(comm, scheme, acc, k, state)``.  Stage
    by stage this is the per-rank driver: local selection for every rank,
    split-and-reduce against the consensus boundaries
    (:func:`_exec_split_reduce`), the global-threshold selection, then
    phase 2 booked directly from compiled schedules — the size exchange,
    the balancing moves exactly as :meth:`OkTopkAllreduce._rebalance`
    would ship them, the package allgatherv — and the periodic
    tau / tau' work (consensus allreduce, exact global threshold) inline
    where its schedule fires.  Every simulated charge goes through the
    rank's own communicator and every phase delta to its own phase
    table, every rank's :class:`OkTopkState` is updated exactly as the
    per-rank driver does it, and the bookings land on the same links at
    the same times (simulated time is schedule independent; see
    :mod:`repro.comm.fused`).

    The data side runs once.  Balancing moves whole runs of the
    rank-ordered package sequence, so with or without it the allgatherv
    delivers the concatenation of the selected region packages in rank
    order: ``u_t`` is assembled once and handed to all P ranks as the
    same write-protected arrays; the contributed indices (Algorithm 1
    line 14) are each rank's selection read through one membership mask
    of ``u_t``.
    """
    from ..train.rankbatch import _world_state
    ws = _world_state(net)
    t = sig[1]
    p = len(lanes)
    comms, schemes, accs, ks, states = zip(*lanes)
    # SPMD: one configuration, one budget, one extent
    lead, k = schemes[0], ks[0]
    n = accs[0].size

    # -- lines 2-4: local selection -------------------------------------
    with _world_phase(net, comms, PHASE_SPARSIFY):
        cols, vals, offsets = _select_world(ws, comms, schemes, states,
                                            accs, t, k)
    offsets = offsets.tolist()
    local = [cols[lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    # -- lines 5-8: boundaries, split and reduce ------------------------
    with _world_phase(net, comms, PHASE_COMM):
        if states[0].boundaries is None or lead._due(t, lead.tau):
            _consensus_world(
                net, schemes, states,
                [ar._proposal(mine, n, p)
                 for ar, mine in zip(schemes, local)], n)
        boundaries = [st.boundaries for st in states]
        for comm, mine in zip(comms, local):
            comm.compute_scan(mine.size)             # the split
        idx, val, rcuts = _exec_split_reduce(
            net, ws, lead.rotation, lead.bucket_size, cols, vals, offsets,
            boundaries)
    region = np.diff(rcuts)

    # -- lines 9-12: global threshold ------------------------------------
    if states[0].global_th is None or lead._due(t, lead.tau_prime):
        _global_th_world(net, comms, schemes, states, val,
                         (2 * region).tolist(), k)

    # -- line 13: balance and allgatherv ---------------------------------
    with _world_phase(net, comms, PHASE_COMM):
        # one masked pass: region r keeps |val| >= its rank's global
        # threshold (float32, as COOVector.select_threshold compares)
        global_ths = [st.global_th for st in states]
        keep = np.abs(val) >= np.repeat(
            np.array(global_ths, dtype=VALUE_DTYPE), region)
        for comm, gth, lo, hi in zip(comms, global_ths, rcuts, rcuts[1:]):
            if not gth > 0:
                keep[lo:hi] = True      # no threshold: the region ships whole
            comm.compute_scan(hi - lo)
        kept = np.flatnonzero(keep)
        sizes = np.diff(kept.searchsorted(rcuts)).tolist()
        _fused.replay(net, _fused.compile_allgatherv(p, (1,) * p))
        total = sum(sizes)
        balanced = (lead.data_balancing and total > 0
                    and max(sizes) > lead.balance_trigger * total / p)
        # cuts[r]:cuts[r+1] = the run of the rank-ordered package
        # sequence rank r holds when the allgatherv starts
        if balanced:
            rows, cuts = _rebalance_plan(sizes)
            _fused.replay(net, _fused.compile_alltoallv(p, rows))
            for st in states:
                st.balancing_triggered += 1
        else:
            cuts = list(accumulate(sizes, initial=0))
        u_idx, u_val = idx[kept], val[kept]
        if lead.package_codec is None:
            words = [2 * (hi - lo) for lo, hi in zip(cuts, cuts[1:])]
        else:
            # each rank encodes the package it holds after balancing
            wires, words = [], []
            for comm, ar, lo, hi in zip(comms, schemes, cuts, cuts[1:]):
                wires.append(ar.package_codec.encode(u_val[lo:hi]))
                comm.compute_scan(hi - lo)
                words.append(hi - lo + payload_nwords(wires[-1]))
            u_val = np.concatenate(
                [lead.package_codec.decode(w) for w in wires]
            ).astype(VALUE_DTYPE, copy=False)
        _fused.replay(net, _fused.compile_allgatherv(p, tuple(words)))

    # shared by all P ranks: nobody may write what everybody reads
    u_idx.setflags(write=False)
    u_val.setflags(write=False)
    u_t = COOVector(n, u_idx, u_val)
    # line 14: one membership mask for all ranks (all-False between calls)
    # read through the rank-major selections, split per rank
    member = ws.flat("member", n, bool)
    member[u_idx] = True
    hit = np.flatnonzero(member[cols])
    member[u_idx] = False
    got = cols[hit]
    ends = hit.searchsorted(offsets).tolist()
    contributed = [got[lo:hi] for lo, hi in zip(ends, ends[1:])]
    return [AllreduceResult(
        update=u_t,
        contributed_indices=mine_in_u,
        info={
            "k": k,
            "selected_local": mine.size,
            "selected_global": u_idx.size,
            "local_threshold": st.local_th,
            "global_threshold": gth,
            "balancing_triggered": balanced,
            "boundaries": bnd,
        }) for mine, mine_in_u, st, gth, bnd in zip(
            local, contributed, states, global_ths, boundaries)]


def _rebalance_plan(sizes: List[int]):
    """What :meth:`OkTopkAllreduce._rebalance` ships for these package
    sizes: the alltoallv word matrix (``rows[i][j]`` = wire words of the
    run rank ``i`` hands rank ``j``, COO pairs) and the near-equal target
    cuts of the rank-ordered package sequence each rank holds afterwards."""
    offsets, targets = _balance_cuts(sizes)
    overlap = (np.minimum(offsets[1:, None], targets[None, 1:])
               - np.maximum(offsets[:-1, None], targets[None, :-1]))
    rows = (2 * np.maximum(overlap, 0)).tolist()
    return tuple(map(tuple, rows)), targets.tolist()


def _balance_cuts(sizes):
    """The balancing policy: where each rank's package starts in the
    rank-ordered sequence of all packages (``offsets``) and the
    near-equal cuts it is rebalanced to (``targets``)."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    targets = np.linspace(0, offsets[-1], len(sizes) + 1).astype(np.int64)
    return offsets, targets


@dataclass
class OkTopkState:
    """Ok-Topk's periodic state over one extent of ``n`` words — the whole
    gradient (one-shot) or one session bucket.

    One instance per worker and extent; a gradient-layout change discards
    every state of the scheme together, so the cached thresholds, the
    consensus boundaries **and** the ablation counters always describe
    the same model (resetting only the thresholds used to leave stale
    counters behind).
    """

    n: int
    local_th: Optional[float] = None
    global_th: Optional[float] = None
    boundaries: Optional[np.ndarray] = None
    # ablation counters (Figure 4/6/7 instrumentation)
    local_evaluations: int = 0
    global_evaluations: int = 0
    repartitions: int = 0
    balancing_triggered: int = 0
    #: how many of ``local_evaluations`` were selection-guard trips (a
    #: stale threshold left ``[k/guard, guard*k]``)
    guard_evaluations: int = 0


class OkTopkAllreduce(GradientAllreduce):
    """The paper's scheme, with every optimization toggleable for ablations.

    Args:
        tau: space-repartition period (paper: 64).
        tau_prime: threshold re-evaluation period (paper: 32 or 128).
        balanced_partition: use the balanced split (False = naive equal).
        rotation: destination rotation in split-and-reduce (Figure 2b).
        bucket_size: messages per bucket in split-and-reduce (Figure 2c).
        data_balancing: enable the pre-allgatherv balancing step.
        balance_trigger: run balancing when ``max size > trigger * avg``
            (paper: 4).
        selection_guard: re-evaluate a stale threshold immediately when the
            selected count leaves ``[k/guard, guard*k]`` (implementation
            safeguard; the paper tolerates ~11% deviation, the guard only
            catches pathological drift).
    """

    # Bucketable: a session bucket is a complete Ok-Topk instance on its
    # slice, with its own OkTopkState (module docstring).
    name = "oktopk"
    bucketable = True
    #: value codec of the phase-2 packages (``encode(values)`` -> a
    #: self-sizing wire object, ``decode(wire)`` -> float32 values), or
    #: None to ship the float32 values themselves.  Both drivers — the
    #: per-rank :meth:`_balance_and_allgatherv` and the world executor —
    #: encode right before the allgatherv (one more scan) and decode what
    #: it delivers; ``oktopk_q`` plugs its quantizer in here.
    package_codec = None
    #: a streamed or analytic multi-bucket session on the fast path runs
    #: Algorithm 1 for the whole world, bucket by bucket, inside its one
    #: session rendezvous (:func:`repro.allreduce.session._exec_session`)
    world_bucket = staticmethod(_exec_reduce)

    def __init__(self, *, tau: int = 64, tau_prime: int = 32,
                 balanced_partition: bool = True, rotation: bool = True,
                 bucket_size: int = 8, data_balancing: bool = True,
                 balance_trigger: float = 4.0, selection_guard: float = 3.0,
                 **kwargs):
        super().__init__(**kwargs)
        if tau < 1 or tau_prime < 1:
            raise ValueError("tau and tau_prime must be >= 1")
        self.tau = tau
        self.tau_prime = tau_prime
        self.balanced_partition = balanced_partition
        self.rotation = rotation
        self.bucket_size = bucket_size
        self.data_balancing = data_balancing
        self.balance_trigger = balance_trigger
        self.selection_guard = selection_guard
        #: gradient length the states below belong to
        self._n: Optional[int] = None
        #: periodic state per reduced extent ``(lo, hi)``, created lazily
        self._states: Dict[tuple, OkTopkState] = {}

    # ------------------------------------------------------------------
    # Accessors over the state objects
    # ------------------------------------------------------------------
    @property
    def states(self) -> Dict[tuple, OkTopkState]:
        """Every extent's state, keyed ``(lo, hi)``."""
        return self._states

    @property
    def state(self) -> Optional[OkTopkState]:
        """The one-shot (whole-gradient) state."""
        return self._states.get((0, self._n))

    def _total(self, counter: str) -> int:
        """Everything this rank counted, over all of its extents."""
        return sum(getattr(st, counter) for st in self._states.values())

    @property
    def local_evaluations(self) -> int:
        return self._total("local_evaluations")

    @property
    def global_evaluations(self) -> int:
        return self._total("global_evaluations")

    @property
    def repartitions(self) -> int:
        return self._total("repartitions")

    @property
    def balancing_triggered(self) -> int:
        return self._total("balancing_triggered")

    @property
    def guard_evaluations(self) -> int:
        return self._total("guard_evaluations")

    @property
    def _local_th(self) -> Optional[float]:
        st = self.state
        return st.local_th if st else None

    # ------------------------------------------------------------------
    def _due(self, t: int, period: int) -> bool:
        """Is periodic work scheduled at iteration ``t``?

        Iterations are **1-based** (the contract of
        :meth:`GradientAllreduce.reduce` / :meth:`~GradientAllreduce.begin`):
        the schedule fires at ``t = 1, 1+period, 1+2*period, ...``.  A
        non-positive ``t`` would silently shift the whole tau/tau_prime
        schedule by a full period, so it is rejected here as well as at
        the public entry points.
        """
        if t < 1:
            raise ConfigError(
                f"Ok-Topk iterations are 1-based (the tau/tau_prime "
                f"schedules key off t - 1); got t={t}")
        return (t - 1) % period == 0

    def on_world_resize(self, size: int) -> None:
        """Re-key every extent's state to a shrunk world (elastic
        recovery).

        The consensus boundaries partition an extent over P ranks and the
        thresholds were estimated from P-way contributions, so both are
        dropped: clearing ``boundaries`` forces the next
        :meth:`_repartition` to re-run the consensus at the new size, and
        clearing the thresholds forces fresh estimates.  Ablation
        counters are cumulative across the resize and are kept.
        """
        for st in self._states.values():
            st.local_th = None
            st.global_th = None
            st.boundaries = None

    def _state_for(self, n: int, lo: int, hi: int) -> OkTopkState:
        """The state of extent ``[lo, hi)`` of an ``n``-word gradient."""
        if self._n != n:
            # Thresholds, boundaries and the ablation counters reset
            # *together*, for every extent: an instance reused across
            # models must not carry stale evaluation/repartition stats
            # into the new run.
            self._n, self._states = n, {}
        st = self._states.get((lo, hi))
        if st is None:
            st = self._states[(lo, hi)] = OkTopkState(hi - lo)
        return st

    # ------------------------------------------------------------------
    # Local selection (Algorithm 1 lines 2-4)
    # ------------------------------------------------------------------
    def _select_local(self, comm: SimComm, st: OkTopkState,
                      acc: np.ndarray, k: int, t: int) -> COOVector:
        """Threshold selection of one rank (the world executor stacks it
        across ranks where the accumulators share a matrix; see
        :func:`_select_world`)."""
        n = acc.size
        if st.local_th is None or self._due(t, self.tau_prime):
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            comm.compute_sort(n)
        comm.compute_scan(n)
        if st.local_th <= 0.0:
            # Degenerate (all-zero accumulator or k >= n): exact selection.
            return exact_topk(acc, k)
        local = threshold_select(acc, st.local_th)
        g = self.selection_guard
        if local.nnz > g * k or local.nnz * g < k:
            # Stale threshold drifted too far: re-evaluate immediately.
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            st.guard_evaluations += 1
            comm.compute_sort(n)
            comm.compute_scan(n)
            local = (threshold_select(acc, st.local_th)
                     if st.local_th > 0 else exact_topk(acc, k))
        return local

    # ------------------------------------------------------------------
    # Space repartition (Algorithm 1 lines 5-7)
    # ------------------------------------------------------------------
    def _adopt_boundaries(self, st: OkTopkState, summed: np.ndarray,
                          p: int, n: int) -> None:
        st.boundaries = sanitize_boundaries(summed / p, n)
        st.repartitions += 1

    def _proposal(self, indices: np.ndarray, n: int, p: int) -> np.ndarray:
        """This rank's boundary proposal from its selected coordinates."""
        if self.balanced_partition:
            return balanced_boundaries_local(indices, n, p)
        return equal_boundaries(n, p).astype(np.float64)

    def _repartition(self, comm: SimComm, st: OkTopkState,
                     local: COOVector, n: int, t: int) -> np.ndarray:
        """The consensus boundaries: proposals averaged across ranks
        (P+1-word allreduce) every ``tau`` iterations, reused between."""
        if st.boundaries is None or self._due(t, self.tau):
            summed = coll.allreduce_recursive_doubling(
                comm, self._proposal(local.indices, n, comm.size))
            self._adopt_boundaries(st, summed, comm.size, n)
        return st.boundaries

    # ------------------------------------------------------------------
    # Phase 1: split and reduce (Section 3.1.1)
    # ------------------------------------------------------------------
    def _split_and_reduce(self, comm: SimComm, local: COOVector,
                          boundaries: np.ndarray) -> COOVector:
        """The per-message exchange (reference path): rotation/naive
        schedule in buckets of ``bucket_size`` steps, batched egress
        posts, the previous bucket's reduction overlapped with this one's
        transfers.  :func:`_book_split_reduce` books the identical
        sequence for the whole world inside the fast path's executor."""
        p, r = comm.size, comm.rank
        pieces = local.split(boundaries)
        comm.compute_scan(local.nnz)
        reduced = pieces[r]
        if p == 1:
            return reduced
        steps = make_steps(r, p, self.rotation)
        # Simulated time is charged per bucket (the overlap model of
        # Figure 2c: the previous bucket's reduction hides behind the next
        # bucket's transfers, and only needs the piece sizes).  The actual
        # numpy reduction is batched into one combine_sum over all pieces —
        # a single sort/reduceat pass instead of a fold per bucket.
        pending: List[COOVector] = []
        prev_words = 0
        for bucket in buckets(steps, self.bucket_size):
            reqs = []
            sends = []
            for step in bucket:
                for src in step.recv_from:
                    reqs.append(comm.irecv(src, _TAG_SR))
                for dst in step.send_to:
                    sends.append((pieces[dst], dst, _TAG_SR))
            # One egress-booking pass for the whole bucket's fan-out
            # (bit-identical to per-message isend; see isend_batch).
            reqs.extend(comm.isend_batch(sends))
            # Overlap: reduce the previous bucket while this one flies.
            if prev_words:
                comm.compute_words(2 * prev_words)
            got = comm.waitall(reqs)
            arrived = [g for g in got if isinstance(g, COOVector)]
            pending.extend(arrived)
            prev_words = sum(v.nnz for v in arrived)
        if prev_words:
            comm.compute_words(2 * prev_words)
        if pending:
            reduced = combine_sum([reduced, *pending])
        return reduced

    # ------------------------------------------------------------------
    # Global threshold (Algorithm 1 lines 9-12)
    # ------------------------------------------------------------------
    def _estimate_global_th(self, comm: SimComm, st: OkTopkState,
                            merged_values: np.ndarray, k: int) -> float:
        """Store the ``k``-th magnitude of the gathered reduced values as
        the shared global threshold (0 when nothing was reduced); charges
        the sort and bumps the evaluation counter."""
        with comm.phase(PHASE_SPARSIFY):
            if merged_values.size:
                st.global_th = kth_largest_abs(
                    merged_values, min(k, merged_values.size))
            else:
                st.global_th = 0.0
            comm.compute_sort(merged_values.size)
        st.global_evaluations += 1
        return st.global_th

    def _global_threshold(self, comm: SimComm, st: OkTopkState,
                          reduced: COOVector, k: int, t: int) -> float:
        if st.global_th is not None and not self._due(t, self.tau_prime):
            return st.global_th
        with comm.phase(PHASE_COMM):
            all_reduced = coll.allgatherv_coo(comm, reduced)
        merged_values = np.concatenate(
            [v.values for v in all_reduced]) if all_reduced else np.empty(0)
        return self._estimate_global_th(comm, st, merged_values, k)

    # ------------------------------------------------------------------
    # Phase 2: balance and allgatherv (Section 3.1.2)
    # ------------------------------------------------------------------
    def _balance_and_allgatherv(self, comm: SimComm, st: OkTopkState,
                                reduced: COOVector, global_th: float,
                                ) -> tuple[COOVector, bool]:
        p = comm.size
        n = reduced.n
        # (1) global top-k selection inside my region + (2) packaging
        mine = (reduced.select_threshold(global_th) if global_th > 0
                else reduced)
        comm.compute_scan(reduced.nnz)
        if p == 1:
            return mine, False
        # (3) size exchange and optional data balancing
        sizes = coll.allgather_object(comm, mine.nnz)
        total = int(sum(sizes))
        balanced = False
        idx, val = mine.indices, mine.values
        if (self.data_balancing and total > 0
                and max(sizes) > self.balance_trigger * total / p):
            idx, val = self._rebalance(comm, idx, val, sizes)
            balanced = True
            st.balancing_triggered += 1
        # (4) allgatherv via dissemination; region order keeps global sort
        codec = self.package_codec
        if codec is not None:
            val = codec.encode(val)
            comm.compute_scan(idx.size)
        pieces = coll.allgatherv(comm, (idx, val))
        cat_idx = np.concatenate([pc[0] for pc in pieces])
        cat_val = np.concatenate([pc[1] if codec is None
                                  else codec.decode(pc[1]) for pc in pieces])
        out = COOVector(n, cat_idx.astype(INDEX_DTYPE),
                        cat_val.astype(VALUE_DTYPE))
        return out, balanced

    def _rebalance(self, comm: SimComm, idx: np.ndarray, val: np.ndarray,
                   sizes: List[int]) -> tuple[np.ndarray, np.ndarray]:
        """Even out package sizes with point-to-point moves.

        Every rank knows all package sizes, hence the global position range
        it holds and the near-equal target ranges; overlaps define the
        moves.  Source-rank order preserves the global (sorted) order.
        """
        p, r = comm.size, comm.rank
        offsets, targets = _balance_cuts(sizes)
        my_lo, my_hi = int(offsets[r]), int(offsets[r + 1])
        blocks = []
        for j in range(p):
            a = max(my_lo, int(targets[j]))
            b = min(my_hi, int(targets[j + 1]))
            if b > a:
                blocks.append((idx[a - my_lo:b - my_lo],
                               val[a - my_lo:b - my_lo]))
            else:
                blocks.append(None)
        got = coll.alltoallv(comm, blocks)
        kept = [g for g in got if g is not None]
        if not kept:
            return (np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
        return (np.concatenate([g[0] for g in kept]),
                np.concatenate([g[1] for g in kept]))

    # ------------------------------------------------------------------
    # Algorithm 1 driver
    # ------------------------------------------------------------------
    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        n = acc.size
        return self._algorithm1(comm, acc, t, self.resolve_k(n),
                                self._state_for(n, 0, n), 0)

    def _reduce_bucket(self, comm: SimComm, acc: np.ndarray, t: int, *,
                       k: Optional[int] = None,
                       view: Optional[BucketView] = None) -> AllreduceResult:
        """Run Algorithm 1 over one session bucket, on the bucket's own
        periodic state.

        ``view`` locates the bucket inside the full gradient (sessions
        always provide it, with the plan's budget ``k``); without one the
        slice is treated as a complete gradient.
        """
        comm, _, acc, k_b, st = self._bucket_lane(comm, acc, k, view)
        return self._algorithm1(comm, acc, t, k_b, st,
                                0 if view is None else view.lo)

    def _bucket_lane(self, comm: SimComm, acc: np.ndarray,
                     k: Optional[int], view: Optional[BucketView]) -> tuple:
        """This rank's lane of a bucket reduction: ``(comm, scheme, acc,
        k, state)`` with the budget clamped to the bucket and the
        bucket's own state — what :func:`_exec_reduce` takes per rank."""
        n_b = acc.size
        lo, n = (0, n_b) if view is None else (view.lo, view.n)
        k_b = self.resolve_k(n_b) if k is None else max(1, min(int(k), n_b))
        return comm, self, acc, k_b, self._state_for(n, lo, lo + n_b)

    def _algorithm1(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                    st: OkTopkState, lo: int) -> AllreduceResult:
        """Algorithm 1 over ``acc`` with budget ``k`` on state ``st``.

        Where the engine rendezvous is available (cooperative engine with
        fusion on, no tracing, a communicator spanning the current world
        with no crash pending in it — :func:`repro.comm.fused._available`)
        the whole reduction is ONE rendezvous whose executor
        (:func:`_exec_reduce`) runs it for every rank; ``lo`` only tells
        the extents of one iteration apart in its signature.  Everywhere
        else the per-rank, per-message stages below run — the reference
        path the identity suite compares the executor against."""
        n = acc.size
        if _fused._available(comm):
            return comm.fused_collective(("oktopk_reduce", t, lo, lo + n, k),
                                         (comm, self, acc, k, st),
                                         _exec_reduce)

        with comm.phase(PHASE_SPARSIFY):                 # lines 2-4
            local = self._select_local(comm, st, acc, k, t)
        with comm.phase(PHASE_COMM):                      # lines 5-7
            boundaries = self._repartition(comm, st, local, n, t)
            reduced = self._split_and_reduce(comm, local, boundaries)  # l.8
        global_th = self._global_threshold(comm, st, reduced, k, t)  # 9-12
        with comm.phase(PHASE_COMM):                      # line 13
            u_t, balanced = self._balance_and_allgatherv(
                comm, st, reduced, global_th)
        indexes = intersect_sorted(local.indices, u_t.indices)   # line 14

        return AllreduceResult(
            update=u_t,
            contributed_indices=indexes,
            info={
                "k": k,
                "selected_local": local.nnz,
                "selected_global": u_t.nnz,
                "local_threshold": st.local_th,
                "global_threshold": global_th,
                "balancing_triggered": balanced,
                "boundaries": boundaries,
            },
        )
