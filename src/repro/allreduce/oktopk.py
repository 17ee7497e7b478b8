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
reduces**: one per bucket ``[lo, hi)`` of a
:class:`~repro.allreduce.session.ReduceSession`, the whole gradient
``[0, n)`` being the one bucket of a one-shot ``reduce``.  A bucket is a
complete Ok-Topk instance on its slice (the bucket is this repo's
*block*, cf. SparDL's per-block top-k): with the plan's proportional
``split_k`` budget ``k_b`` it runs Algorithm 1 against its own state, so

* the **local threshold** is the bucket's own ``k_b``-th magnitude,
  evaluated on the ``tau_prime`` schedule and reused in between — one
  linear scan per bucket per iteration, as Section 3.1.3 promises (on
  the fast path one scan covers every bucket of every rank).  A
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
every one of them.

One world executor on the fast path: one kernel and one booking pass
--------------------------------------------------------------------

Where the engine rendezvous is available
(:func:`repro.comm.fused._available`) a session — one-shot or bucketed —
is one ``reduce_session`` rendezvous per iteration
(:func:`repro.allreduce.session._exec_session`) that calls the scheme's
``world_reduce`` (:func:`_world_session`) once for all of its buckets.
That stacks the accumulators into one ``(P, n)`` matrix (zero-copy for
the rows lockstep rank batching handed out) and calls :func:`stages`,
Algorithm 1's data side as one clock-free kernel over the funded
extents: one stacked selection scan (:func:`_select_world`), the
consensus sum where tau is due, split-and-reduce of every extent's
regions as one sort (:func:`_split_reduce`: a sparse reduction is a
merge of sorted index streams, as in SparCML), the global threshold
where tau' is due, the phase-2 keep mask, package sizes, balancing and
``package_codec`` round trip, ``u_t`` and every rank's contributed
indices, all in a frozen :class:`Stages` record that needs no network.
:func:`book` (the scheme's ``world_book``) is the only code that touches
a clock: per extent, in plan order between the session's pacers, it
replays the per-rank driver's charge sequence, each compute charge as
one walk over the world's slots (:func:`~repro.comm.fused.charge_world`,
clean or planned world) and split-and-reduce as a numpy fold
(:func:`_book_split_reduce`: a scalar walk gives the same bits but is
faster only up to P = 8, and the paper scales to P = 256).

Everywhere else — the ``threads`` runner, ``fused=False``, tracing, the
step a planned crash fires in, ``P = 1``, explicit ``push`` calls — each
bucket goes through :meth:`OkTopkAllreduce._reduce` to
:meth:`OkTopkAllreduce._algorithm1`, the per-rank driver, which runs
Algorithm 1 message by message: the reference path and the oracle of the
identity suites (``tests/test_oktopk_stages.py`` stage by stage,
``tests/test_fused_collectives.py::TestOkTopkWorldExecutor`` on results,
clocks and traffic).  The two share the purely local halves
(``_refresh_local_th`` / ``_recheck``, ``_proposal``,
``_adopt_boundaries``, :func:`_global_th`) and the ``package_codec``
hook ``oktopk_q`` plugs its quantizer into.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..comm import NetworkModel, SimComm, collectives as coll
from ..comm import fused as _fused
from ..comm.fused import _world_state, _WorldState, charge_world
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


def _split_reduce(ws, order, n, cols, vals, offsets, bounds):
    """Split-and-reduce for the whole world as one array program, data
    side only: :meth:`OkTopkAllreduce._split_and_reduce`'s reduction for
    every rank and every extent at once (``ws`` lends the buffers;
    :func:`_book_split_reduce` books the exchange from ``count``).

    The selections come rank-major (:func:`_select_world`): rank ``r``
    selected ``cols[offsets[r]:offsets[r + 1]]`` (ascending positions in
    ``[0, n)``) with those ``vals``.  ``bounds[src, e]`` are the ``P + 1``
    region cuts of extent ``e`` (ascending, disjoint extents) as rank
    ``src`` splits it.  No piece object and no message exists on the way.
    ONE ``searchsorted`` of every rank's cuts in the global positions
    ``src * n + col`` gives ``count[src, e, owner]``, the piece sizes.
    Every region of every extent is reduced by ONE sort of
    ``col * P + order[owner, src]`` (:func:`_region_order`; ``order`` from
    :func:`~.schedule.compile_split_reduce`): an index's contributions
    come out adjacent and in its owner's reduction order (own piece, then
    request order — what ``combine_sum`` concatenates), ``reduceat``
    accumulates them in float64 as the per-owner call does, and one
    float32 cast follows.

    Returns ``count``, the reduced ``idx`` / ``val`` of all regions in
    index order and the region cuts (region ``r`` of extent ``e`` is
    ``idx[cuts[e * P + r]:cuts[e * P + r + 1]]``).
    """
    p = len(offsets) - 1
    base = np.arange(p, dtype=np.int64) * n
    gpos = np.add(cols, np.repeat(base, np.diff(offsets)), dtype=np.int64)
    count = np.diff(gpos.searchsorted(bounds + base[:, None, None]))
    total = cols.size
    key = np.multiply(cols, p, dtype=np.int64,
                      out=ws.flat("sr_key", total, np.int64))
    # entries run source by source, extents and owners ascending within one
    key += np.repeat(np.broadcast_to(order.T[:, None], count.shape).ravel(),
                     count.ravel())
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
    cuts = [*idx.searchsorted(bounds[0, :, :-1].ravel()).tolist(), idx.size]
    return count, idx, val, cuts


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


def _book_split_reduce(net, tables, count):
    """Book the exchange of ``count[src, owner]``-entry pieces (2 wire
    words each) for the whole world: the reference path's exact booking
    sequence, a few operations on ``(P, m)`` matrices per bucket of
    :func:`~.schedule.compile_split_reduce`'s ``tables``.

    The ``isend`` loop is the sizes gathered from the piece-size matrix,
    posted column by column: a post is available at its sender's clock,
    which then pays the ``o_inject`` charge before the next post; all P
    egress links are booked in one :meth:`NetworkModel.serialize_stacked`
    fold.  ``waitall`` reads each ``t_first`` at the message's column of
    its sender's row, sorts the inbox by a row-wise ``lexsort`` on
    ``(t_first, src)`` (one message per source: the word count never
    breaks a tie), books the ingress links with the same fold and ends
    the send waits with the row's last egress booking (ends only grow).
    The filler of ragged rows is zero-word messages available at
    ``-inf``, which no fold, charge or maximum can see.

    Under a plan the rows of a ``link_faulty`` slot are re-booked through
    :meth:`Network._serialize_link` (per-message factors) and the
    ``o_inject`` / ``gamma`` charges take the straggler factor at the
    rank's clock before each charge (:func:`_charge`, i.e.
    ``SimComm.compute``), so a straggler's later posts start later, as
    its ``isend`` loop's do.
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
        slow = [(r, faults.egress[s], faults.ingress[s])
                for r, s in enumerate(world) if faults.link_faulty[s]]
    links = np.empty((3, p, p))     # rows: < p long
    prev = None
    for tb in tables:
        # posts: the isend loop, one column of every rank's row at a time
        avail, starts, ends = links[:, :, :tb.send_to.shape[1]]
        sent = nw[rows, tb.send_to]
        sent[tb.send_pad] = 0.0
        if o_inject:
            for j, pad in enumerate(tb.send_pad.T):
                avail[:, j] = clocks
                _charge(clocks, o_inject * ~pad, cpw)
        else:
            avail[:] = clocks[:, None]
        avail[tb.send_pad] = -np.inf
        model.serialize_stacked(eg, avail, sent, starts, ends)
        for r, windows, _ in slow:
            starts[r], ends[r] = net._serialize_link(windows, eg[r],
                                                     avail[r], sent[r])
        eg = ends[:, -1].copy()
        t_first = starts[tb.recv_from, tb.recv_col] + alpha
        t_first[tb.recv_pad] = -np.inf
        got = sent[tb.recv_from, tb.recv_col]
        got[tb.recv_pad] = 0.0
        # overlap: reduce the previous bucket while this one flies
        if prev is not None:
            _charge(clocks, gamma * prev, cpw)
        # waitall: deliveries in arrival order + send waits
        arrival = np.lexsort((tb.recv_from, t_first))
        t_first, got = t_first[rows, arrival], got[rows, arrival]
        m = arrival.shape[1]
        _, ends = model.serialize_stacked(ing, t_first, got,
                                          links[0, :, :m], links[1, :, :m])
        for r, _, windows in slow:
            ends[r] = net._serialize_link(windows, ing[r], t_first[r],
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


def _select_world(ws, scheme, xs, span, t):
    """Local selection (Algorithm 1 lines 2-4) of every rank (row of the
    ``(P, n)`` matrix ``xs``) in every extent ``(lo, hi, k, states)`` of
    ``span`` (ascending), handed back rank-major: ``(cols, vals,
    offsets, charges)``, rank ``r``'s selection in extent ``i`` being
    ``cols[offsets[r * E + i]:offsets[r * E + i + 1]]`` (positions in the
    whole row) with those values and ``charges[i][r]`` its compute
    charges in the order the per-rank selection makes them.

    The per-iteration selection of every extent is ONE stacked threshold
    scan over the matrix (:func:`~repro.sparse.topk.batched_threshold_select`,
    one threshold per rank and extent; a session's buckets are column
    extents of the rows).  The tau' re-evaluation is :func:`kth_largest_abs`
    per rank and extent (the k-th value is unique, so the bits match the
    per-rank path's) and the data-dependent divergence — the degenerate
    path (``local_th <= 0``: all-zero accumulator or ``k >= n``) and the
    selection-guard re-evaluation, which a NaN threshold always trips — is
    :meth:`OkTopkAllreduce._recheck` per rank and extent, spliced in.
    Stacking one bucket's column slice per call did not pay (300 -> 350
    us per bucket on the BERT proxy); one scan over every bucket's extent
    does.
    """
    p, m = len(xs), len(span)
    charges = [[None] * p for _ in span]
    ths = []
    for r, row in enumerate(xs):
        for i, (lo, hi, k, sts) in enumerate(span):
            charges[i][r] = scheme._refresh_local_th(sts[r], row[lo:hi], k, t)
            ths.append(sts[r].local_th)
    cols, vals, offsets = batched_threshold_select(
        xs, ths, ws.scratch("select_mask", xs.shape, bool),
        ws.scratch("select_spare", (min(p, 4), xs.shape[1]), bool),
        [x[:2] for x in span])
    ends = offsets.tolist()
    fixed = {}
    for r, row in enumerate(xs):
        for i, (lo, hi, k, sts) in enumerate(span):
            j = r * m + i
            sel = scheme._recheck(sts[r], row[lo:hi], k,
                                  ends[j + 1] - ends[j], charges[i][r])
            if sel is not None:
                fixed[j] = (sel.indices + lo, sel.values)
    if fixed:
        cols, vals, offsets = _rank_major(
            [fixed.get(j, (cols[a:b], vals[a:b]))
             for j, (a, b) in enumerate(zip(ends, ends[1:]))])
    return cols, vals, offsets, charges


def _rank_major(pieces):
    """``(cols, vals)`` pieces as one rank-major ``(cols, vals, offsets)``."""
    return (np.concatenate([c for c, _ in pieces]),
            np.concatenate([v for _, v in pieces]),
            np.array([0, *accumulate(c.size for c, _ in pieces)]))


def _pay(comm: SimComm, charges) -> None:
    """Book handed-back compute ``charges`` (``(cost, words)``: a
    :class:`NetworkModel` method and its argument) on ``comm``, in order."""
    for cost, words in charges:
        comm.compute(cost(comm.net.model, words))


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


@dataclass(frozen=True)
class Stages:
    """Every data stage of Algorithm 1 for the whole world over the funded
    extents of one reduction (:func:`stages`).  Per-extent fields are
    tuples in the order the extents were given; ``[e][r]`` is rank
    ``r``'s entry in extent ``e``.  ``infos[e][r]`` is rank ``r``'s
    reduction info: its local and global thresholds, selected count,
    boundaries and the balance decision.  Selections are positions in
    the rows; their values are the accumulator's."""

    guard_trips: tuple  #: [e][r] the selection guard re-evaluated
    charges: tuple      #: [e][r] selection charges, ``(cost, words)`` (:func:`_pay`)
    selection: tuple    #: rank-major ``(cols, offsets)``, :func:`_select_world`
    consensus: tuple    #: [e] ``(words, words per entry)`` if tau was due, else None
    count: tuple        #: [e] piece sizes ``count[src, owner]``
    reduced: tuple      #: [e] ``(idx, val)`` of the regions, owner by owner
    region: tuple       #: [e][r] entries of rank ``r``'s reduced region
    gathered: tuple     #: [e] how many values the tau' gather sorted, or None
    sizes: tuple        #: [e][r] package sizes before balancing
    rows: tuple         #: [e] balancing alltoallv word matrix, or None
    encoded: tuple      #: [e][r] values the package codec encoded, or ()
    words: tuple        #: [e][r] wire words of the package allgatherv
    infos: tuple        #: [e][r] reduction infos
    tables: tuple       #: split-and-reduce schedule of :func:`book`
    update: COOVector   #: ``u_t`` over all extents, shared write-protected
    contributed: tuple  #: [r] Algorithm 1 line 14


def stages(scheme, acc, extents, states, t: int, scratch=None) -> Stages:
    """Algorithm 1's data side for the whole world: ``acc`` is the ``(P,
    n)`` float32 matrix of every rank's accumulator (or its rows, stacked
    by :meth:`~repro.comm.fused._WorldState.stack`), ``extents`` the
    funded ``(lo, hi, k)`` (disjoint; codecs draw in this order) and
    ``states[e][r]`` rank ``r``'s :class:`OkTopkState` of extent ``e``,
    updated exactly as the per-rank driver updates it.  ``scheme`` is the
    scheme, or each rank's (a stochastic ``package_codec`` draws from the
    rank's own generator); ``scratch`` lends the world-sized temporaries
    (a :class:`~repro.comm.fused._WorldState`).  Reads no clock and
    needs no network: :func:`book` replays the charges.

    Balancing moves whole runs of the rank-ordered package sequence, so
    with or without it the allgatherv delivers the selected region
    packages in rank order: ``u_t`` over all extents, in index order, is
    built once.  A ``P = 1`` world ships its package as it is (no codec),
    as the per-rank driver does.
    """
    ws = _WorldState() if scratch is None else scratch
    acc = acc if isinstance(acc, np.ndarray) else ws.stack("oktopk_acc", acc)
    p, n = acc.shape
    schemes = scheme if isinstance(scheme, (list, tuple)) else [scheme] * p
    lead = schemes[0]           # SPMD: one configuration
    tables, order = compile_split_reduce(p, lead.rotation, lead.bucket_size)
    m = len(extents)
    span = sorted(range(m), key=lambda e: extents[e][0])
    guards = [[st.guard_evaluations for st in sts] for sts in states]

    # -- lines 2-4: local selection ----------------------------------------
    cols, vals, offsets, charges = _select_world(
        ws, lead, acc, [(*extents[e], states[e]) for e in span], t)
    nsel = np.diff(offsets).reshape(p, m)
    consensus, count, reduced, region, gathered = ([None] * m
                                                   for _ in range(5))

    # -- lines 5-7: consensus boundaries where tau is due ------------------
    for i, e in enumerate(span):
        lo, hi, _ = extents[e]
        if states[e][0].boundaries is None or lead._due(t, lead.tau):
            proposals = [lead._proposal(cols[offsets[r * m + i]:
                                             offsets[r * m + i + 1]] - lo,
                                        hi - lo, p) for r in range(p)]
            summed = _fused._sum_tree(proposals, p, halving=False)
            for st in states[e]:
                lead._adopt_boundaries(st, summed, p, hi - lo)
            consensus[e] = (summed.size, _fused._wpe(summed))

    # -- line 8: split and reduce --------------------------------------------
    bounds = np.array([[states[e][r].boundaries for e in span]
                       for r in range(p)], dtype=np.int64)
    bounds += np.array([extents[e][0] for e in span])[:, None]
    counts, idx, val, cuts = _split_reduce(ws, order, n, cols, vals,
                                           offsets[::m], bounds)
    sizes_all = np.diff(cuts).tolist()

    # -- lines 9-12: global threshold where tau' is due --------------------
    for i, e in enumerate(span):
        a, b = cuts[i * p], cuts[(i + 1) * p]
        count[e], reduced[e] = counts[:, i], (idx[a:b], val[a:b])
        region[e] = sizes_all[i * p:(i + 1) * p]
        if states[e][0].global_th is None or lead._due(t, lead.tau_prime):
            gth = _global_th(val[a:b], extents[e][2])
            for st in states[e]:
                st.global_th = gth
                st.global_evaluations += 1
            gathered[e] = b - a

    # -- line 13: balance and allgatherv -------------------------------------
    # one masked pass: a region keeps |val| >= its rank's global
    # threshold (float32, as COOVector.select_threshold compares)
    ths = [st.global_th for e in span for st in states[e]]
    keep = np.abs(val) >= np.repeat(np.array(ths, dtype=VALUE_DTYPE),
                                    sizes_all)
    for th, a, b in zip(ths, cuts, cuts[1:]):
        if not th > 0:
            keep[a:b] = True        # no threshold: the region ships whole
    kept = np.flatnonzero(keep)
    at = kept.searchsorted(cuts).tolist()   # the regions' runs of u_t
    u_idx, u_val = idx[kept], val[kept]
    codec = lead.package_codec if p > 1 else None
    sizes, rows, encoded, words, infos = ([None] * m for _ in range(5))
    packages = np.diff(at).tolist()
    for e in range(m):          # given order: each rank's codec draws in it
        i = span.index(e)
        base, sizes[e] = at[i * p], packages[i * p:(i + 1) * p]
        total = sum(sizes[e])
        balanced = (p > 1 and lead.data_balancing and total > 0
                    and max(sizes[e]) > lead.balance_trigger * total / p)
        # pk[r]:pk[r+1] = the run of the rank-ordered package sequence
        # rank r holds when the allgatherv starts
        if balanced:
            rows[e], pk = _rebalance_plan(sizes[e])
            for st in states[e]:
                st.balancing_triggered += 1
        else:
            pk = list(accumulate(sizes[e], initial=0))
        held = [b - a for a, b in zip(pk, pk[1:])]
        encoded[e], words[e] = (), tuple(2 * w for w in held)
        if codec is not None:
            # each rank encodes the package it holds after balancing
            wires = [ar.package_codec.encode(u_val[base + a:base + b])
                     for ar, a, b in zip(schemes, pk, pk[1:])]
            encoded[e] = held
            words[e] = tuple(w + payload_nwords(wire)
                             for w, wire in zip(held, wires))
            u_val[base:base + total] = np.concatenate(
                [codec.decode(wire) for wire in wires])
        infos[e] = tuple({
            "k": extents[e][2],
            "selected_local": mine,
            "selected_global": total,
            "local_threshold": st.local_th,
            "global_threshold": st.global_th,
            "balancing_triggered": balanced,
            "boundaries": st.boundaries,
        } for mine, st in zip(nsel[:, i].tolist(), states[e]))

    # shared by all P ranks: nobody may write what everybody reads
    u_idx.setflags(write=False)
    u_val.setflags(write=False)
    # line 14: one membership mask for all ranks (all-False between
    # calls) read through the rank-major selections, split per rank
    member = ws.flat("member", n, bool)
    member[u_idx] = True
    hit = np.flatnonzero(member[cols])
    member[u_idx] = False
    got = cols[hit]
    ends = hit.searchsorted(offsets[::m]).tolist()
    return Stages(
        guard_trips=tuple(tuple(st.guard_evaluations > g
                                for st, g in zip(sts, gs))
                          for sts, gs in zip(states, guards)),
        charges=tuple(charges[span.index(e)] for e in range(m)),
        selection=(cols, offsets), consensus=tuple(consensus),
        count=tuple(count), reduced=tuple(reduced), region=tuple(region),
        gathered=tuple(gathered), sizes=tuple(sizes), rows=tuple(rows),
        encoded=tuple(encoded), words=tuple(words), infos=tuple(infos),
        tables=tables, update=COOVector(n, u_idx, u_val),
        contributed=tuple(got[a:b] for a, b in zip(ends, ends[1:])))


def book(net, comms, stg: Stages, e: int) -> tuple:
    """Book extent ``e`` of ``stg`` for every rank of the current world
    (``comms[r]``'s phase table gets rank ``r``'s phase totals),
    replaying the per-rank driver's charge sequence: the selection
    charges, the split scan, split-and-reduce (:func:`_book_split_reduce`),
    the consensus / allgatherv / alltoallv replays and the package scans,
    each at the same times on the same links.  Returns each rank's info."""
    p, scan = len(comms), NetworkModel.scan_seconds

    def replay(compiler, *key):
        _fused.replay(net, _fused.compiled(net, compiler, p, *key))

    with _world_phase(net, comms, PHASE_SPARSIFY):
        charge_world(net, stg.charges[e])
    with _world_phase(net, comms, PHASE_COMM):
        if stg.consensus[e] is not None:
            replay(_fused.compile_allreduce, *stg.consensus[e],
                   "recursive_doubling")
        charge_world(net, [[(scan, info["selected_local"])]     # the split
                           for info in stg.infos[e]])
        _book_split_reduce(net, stg.tables, stg.count[e])
    if stg.gathered[e] is not None:
        with _world_phase(net, comms, PHASE_COMM):
            replay(_fused.compile_allgatherv,
                   tuple(2 * words for words in stg.region[e]))
        with _world_phase(net, comms, PHASE_SPARSIFY):
            charge_world(net, [[(NetworkModel.sort_seconds, stg.gathered[e])]] * p)
    with _world_phase(net, comms, PHASE_COMM):
        charge_world(net, [[(scan, words)] for words in stg.region[e]])
        replay(_fused.compile_allgatherv, (1,) * p)
        if stg.rows[e] is not None:
            replay(_fused.compile_alltoallv, stg.rows[e])
        charge_world(net, [[(scan, words)] for words in stg.encoded[e]])
        replay(_fused.compile_allgatherv, stg.words[e])
    return stg.infos[e]


def _world_session(net, t: int, lanes, extents) -> Stages:
    """The data side of a session (the scheme's ``world_reduce``):
    ``lanes[r]`` is rank ``r``'s ``(comm, scheme, acc)`` over the whole
    gradient and ``extents`` the funded buckets' ``(lo, hi, k)`` in plan
    order, each run on every rank's state of that bucket."""
    _, schemes, accs = zip(*lanes)
    n = accs[0].size
    return stages(schemes, accs, extents,
                  [[ar._state_for(n, lo, hi) for ar in schemes]
                   for lo, hi, _ in extents], t, _world_state(net))


def _global_th(reduced: np.ndarray, k: int) -> float:
    """The global threshold from the gathered reduced values: their
    ``k``-th magnitude (0 when nothing was reduced)."""
    if reduced.size:
        return kth_largest_abs(reduced, min(k, reduced.size))
    return 0.0


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

    name = "oktopk"
    #: value codec of the phase-2 packages (``encode(values)`` -> a
    #: self-sizing wire object, ``decode(wire)`` -> float32 values), or
    #: None to ship the float32 values themselves.  Both drivers — the
    #: per-rank :meth:`_balance_and_allgatherv` and the world executor —
    #: encode right before the allgatherv (one more scan) and decode what
    #: it delivers; ``oktopk_q`` plugs its quantizer in here.
    package_codec = None
    #: a session on the fast path — one-shot or bucketed, streamed or
    #: analytic — runs Algorithm 1 for the whole world over all of its
    #: buckets at once, inside its one session rendezvous
    #: (:func:`repro.allreduce.session._exec_session`)
    world_reduce = staticmethod(_world_session)
    world_book = staticmethod(book)

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
    def _select_local(self, st: OkTopkState, acc: np.ndarray, k: int,
                      t: int) -> Tuple[COOVector, list]:
        """Threshold selection of one rank (the reference path): the
        selection and its compute charges, handed back in order instead
        of charged as it scans (:func:`_pay` books them).  The world
        kernel runs the same two halves around one stacked scan
        (:func:`_select_world`)."""
        charges = self._refresh_local_th(st, acc, k, t)
        local = (None if st.local_th <= 0.0
                 else threshold_select(acc, st.local_th))
        fixed = self._recheck(st, acc, k, 0 if local is None else local.nnz,
                              charges)
        return (local if fixed is None else fixed), charges

    def _refresh_local_th(self, st: OkTopkState, acc: np.ndarray, k: int,
                          t: int) -> list:
        """Re-evaluate the local threshold where tau' is due (or none
        exists yet); returns the charges of the selection's first part:
        that sort, if any, and the scan."""
        charges = []
        if st.local_th is None or self._due(t, self.tau_prime):
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            charges.append((NetworkModel.sort_seconds, acc.size))
        charges.append((NetworkModel.scan_seconds, acc.size))
        return charges

    def _recheck(self, st: OkTopkState, acc: np.ndarray, k: int, nnz: int,
                 charges: list) -> Optional[COOVector]:
        """The selection that replaces a threshold scan which selected
        ``nnz`` entries, or None when the scan stands; appends the
        re-evaluation's charges."""
        if st.local_th <= 0.0:
            # Degenerate (all-zero accumulator or k >= n): exact selection.
            return exact_topk(acc, k)
        g = self.selection_guard
        if nnz > g * k or nnz * g < k:
            # Stale threshold drifted too far: re-evaluate immediately.
            st.local_th = kth_largest_abs(acc, k)
            st.local_evaluations += 1
            st.guard_evaluations += 1
            charges += [(NetworkModel.sort_seconds, acc.size),
                        (NetworkModel.scan_seconds, acc.size)]
            return (threshold_select(acc, st.local_th)
                    if st.local_th > 0 else exact_topk(acc, k))
        return None

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
        schedule in buckets of ``bucket_size`` steps, one ``isend`` per
        piece, the previous bucket's reduction overlapped with this one's
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
            for step in bucket:
                for src in step.recv_from:
                    reqs.append(comm.irecv(src, _TAG_SR))
                for dst in step.send_to:
                    reqs.append(comm.isend(pieces[dst], dst, _TAG_SR))
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
    def _global_threshold(self, comm: SimComm, st: OkTopkState,
                          reduced: COOVector, k: int, t: int) -> float:
        """The shared global threshold, re-evaluated where tau' is due:
        the ``k``-th magnitude of the gathered reduced values (0 when
        nothing was reduced), charged as their sort."""
        if st.global_th is None or self._due(t, self.tau_prime):
            with comm.phase(PHASE_COMM):
                gathered = coll.allgatherv_coo(comm, reduced)
            values = np.concatenate([v.values for v in gathered])
            st.global_th = _global_th(values, k)
            st.global_evaluations += 1
            with comm.phase(PHASE_SPARSIFY):
                comm.compute_sort(values.size)
        return st.global_th

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
    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                view: BucketView) -> AllreduceResult:
        """Run Algorithm 1 over one session bucket with the plan's budget
        ``k``, on the periodic state of the bucket ``view`` locates."""
        return self._algorithm1(comm, acc, t, k,
                                self._state_for(view.n, view.lo, view.hi))

    def _algorithm1(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                    st: OkTopkState) -> AllreduceResult:
        """Algorithm 1 over ``acc`` with budget ``k`` on state ``st``, per
        rank and per message — the reference path the identity suite
        compares the world executor (:func:`stages` + :func:`book`)
        against."""
        n = acc.size
        with comm.phase(PHASE_SPARSIFY):                 # lines 2-4
            local, charges = self._select_local(st, acc, k, t)
            _pay(comm, charges)
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
