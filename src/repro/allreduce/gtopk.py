"""gTopk sparse allreduce (Shi et al. 2019; Table 1 row 4).

A binomial reduction tree followed by a broadcast tree.  To fight fill-in,
the *receiving* node of every tree level re-selects the top-k of the
combined vector before passing it up — so the message size stays ``2k`` at
every level, giving ``4k log P`` total volume, at the price of an
approximation: contributions dropped at an inner level are lost even if
their index survives globally.

Matching the paper's measurement methodology (Section 5.4.1), the
hierarchical top-k re-selections inside the tree are charged to the
*communication* phase; only the initial local selection is charged to
sparsification.

Under the cooperative engine the whole reduction tree runs as one fused
macro-collective (see :mod:`repro.comm.fused`): every rank parks at the
rendezvous with its local top-k, the tree's merges/re-selections are
computed centrally in the exact per-message order, and the binomial
reduction's cached schedule template, filled with the evolving per-level
nnz, is booked in one replay — bit-identical results, counters and clocks,
under slowdown/straggler plans and on shrunk worlds too (the replay
applies the plan's factors to the bookings, the merge charges and the
per-level ``compute_topk`` seconds alike).
"""

from __future__ import annotations

import numpy as np

from ..comm import SimComm, collectives as coll
from ..comm import fused as _fused
from ..sparse import combine_sum, exact_topk, intersect_sorted
from .base import (PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, BucketView,
                   GradientAllreduce)

_TAG_REDUCE = (1 << 21) + 1


def _exec_gtopk_tree(net, sig, payloads):
    """Fused executor for the binomial combine-and-reselect tree: the
    tree of :func:`repro.comm.fused.compile_reduce` at root 0, in the same
    message order, under gtopk's own tag.

    Data first (the message sizes depend on it): at each level the parent
    merges its child's current vector (``combine_sum([current, got])``,
    same operand order as the per-message loop) and re-selects top-k.
    The tree's cached template is then filled with each message's nnz (two
    words an entry, ``COOVector.comm_nwords``) and replayed in one pass:
    blocking sends up the tree, the receiver charging
    ``compute_words(got.nnz)`` + ``compute_topk(merged.nnz, k)`` exactly
    as the reference loop does.
    """
    _, k = sig
    p = len(payloads)
    model = net.model
    cur = list(payloads)
    levels = [0] * p
    nnz, topk_seconds = [], []
    for level in _fused._binomial_levels(p):
        for src, r in level:
            got = cur[src]
            merged = combine_sum([cur[r], got])
            nnz.append(got.nnz)
            cur[r] = merged.topk(k)
            topk_seconds.append(model.topk_seconds(merged.nnz, k))
            levels[r] += 1
            cur[src] = None
    tree = _fused._template(_fused._emit_reduce, p, 0, _TAG_REDUCE)
    _fused.replay(net, tree.fill(nnz, 2, topk_seconds))
    # The trailing broadcast of the surviving top-k rides the same
    # rendezvous: replay its compiled schedule back to back (identical
    # message sequence to the reference's separate coll.bcast call) and
    # hand every rank the root's vector (COO payloads travel zero-copy).
    final = cur[0]
    _fused.replay(net, _fused.compiled(
        net, _fused.compile_bcast, p, 0, final.comm_nwords()))
    return [(final, levels[r]) for r in range(p)]


class GTopkAllreduce(GradientAllreduce):
    # Stateless tree reduction: sessions run one tree per bucket with the
    # bucket's proportional k share.
    name = "gtopk"

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                view: BucketView) -> AllreduceResult:
        p, r = comm.size, comm.rank
        with comm.phase(PHASE_SPARSIFY):
            local = exact_topk(acc, k)
            comm.compute_topk(acc.size, k)

        with comm.phase(PHASE_COMM):
            if _fused._available(comm):
                # Fused macro-collective: the whole tree *and* the
                # trailing broadcast in one engine dispatch.
                final, levels = comm.fused_collective(
                    ("gtopk_tree", k), local, _exec_gtopk_tree)
            else:
                # Binomial reduction tree with per-level top-k re-selection.
                current = local
                levels = 0
                mask = 1
                while mask < p:
                    if r & mask:
                        comm.send(current, r - mask, _TAG_REDUCE)
                        current = None
                        break
                    src = r | mask
                    if src < p:
                        got = comm.recv(src, _TAG_REDUCE)
                        merged = combine_sum([current, got])
                        comm.compute_words(got.nnz)
                        current = merged.topk(k)
                        comm.compute_topk(merged.nnz, k)
                        levels += 1
                    mask <<= 1
                # Broadcast tree of the surviving global top-k.
                final = coll.bcast(comm, current, root=0)

        contributed = intersect_sorted(local.indices, final.indices)
        return AllreduceResult(
            update=final,
            contributed_indices=contributed,
            info={"k": k, "selected": local.nnz, "output_nnz": final.nnz,
                  "tree_levels": levels},
        )
