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
computed centrally in the exact per-message order, and the compiled
message schedule (sizes taken from the evolving per-level nnz) is booked
in one replay — bit-identical results, counters and clocks,
under slowdown/straggler plans and on shrunk worlds too (the replay
applies the plan's factors to the bookings, the merge charges and the
per-level ``compute_topk`` seconds alike).
"""

from __future__ import annotations

import numpy as np

from ..comm import SimComm, collectives as coll
from ..comm import fused as _fused
from ..sparse import combine_sum, exact_topk, intersect_sorted
from .base import PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, GradientAllreduce

_TAG_REDUCE = (1 << 21) + 1


def _exec_gtopk_tree(net, sig, payloads):
    """Fused executor for the binomial combine-and-reselect tree.

    Data first (the per-level message sizes depend on it): at each mask
    level the surviving even virtual rank merges its partner's current
    vector (``combine_sum([current, got])``, same operand order as the
    per-message loop) and re-selects top-k.  The message schedule is then
    compiled from the recorded per-level sizes and replayed in one pass:
    blocking sends up the tree, the receiver charging
    ``compute_words(got.nnz)`` + ``compute_topk(merged.nnz, k)`` exactly
    as the reference loop does.
    """
    _, k = sig
    p = len(payloads)
    model = net.model
    cur = list(payloads)
    levels = [0] * p
    b = _fused._Builder(p)
    mask = 1
    while mask < p:
        post, recv, reduce_w, extra = [], [], [], []
        for r in range(0, p, 2 * mask):
            src = r | mask
            if src < p:
                got = cur[src]
                i = b.msg(src, r, got.comm_nwords(), _TAG_REDUCE)
                post.append(i)
                recv.append(i)
                merged = combine_sum([cur[r], got])
                reduce_w.append(got.nnz)
                cur[r] = merged.topk(k)
                extra.append(model.topk_seconds(merged.nnz, k))
                levels[r] += 1
                cur[src] = None
        b.round(_fused._ONEWAY, post, recv, reduce_words=reduce_w,
                extra_seconds=extra)
        mask <<= 1
    _fused.replay(net, b.build())
    # The trailing broadcast of the surviving top-k rides the same
    # rendezvous: replay its compiled schedule back to back (identical
    # message sequence to the reference's separate coll.bcast call) and
    # hand every rank the root's vector (COO payloads travel zero-copy).
    final = cur[0]
    _fused.replay(net, _fused.compiled(
        net, _fused.compile_bcast, p, 0, final.comm_nwords()))
    return [(final, levels[r]) for r in range(p)]


class GTopkAllreduce(GradientAllreduce):
    # Stateless tree reduction: sessions can run one tree per bucket with
    # the bucket's proportional k share (native bucketed path).
    name = "gtopk"
    bucketable = True

    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        p, r = comm.size, comm.rank
        k = self.resolve_k(acc.size)
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
