"""Top-k Dynamic Sparse Allreduce — SparCML's SSAR (Table 1 row 3).

Structure mirrors Rabenseifner's algorithm on *sparse* operands:

1. recursive-halving reduce-scatter on the index space: at every level the
   partners swap the half of their working set the other one keeps, and the
   union of supports grows (*fill-in*);
2. if a working segment's COO representation (``2 nnz`` words) outgrows its
   dense representation, the segment *switches to dense* on the fly — the
   "degrade to dense representations" behaviour described in Section 1,
   bounding the cost by the ``(2k + n)(P-1)/P`` end of the Table 1 interval;
3. an allgatherv of the P reduced segments (sparse or dense, whichever each
   rank ended up with).

Non-powers-of-two are handled with the standard fold (extras pre-combine
into a power-of-two core and receive the result at the end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..comm import SimComm, collectives as coll
from ..sparse import COOVector, combine_sum, exact_topk
from ..sparse.coo import INDEX_DTYPE, VALUE_DTYPE
from .base import (PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, BucketView,
                   GradientAllreduce)

_TAG_FOLD = (1 << 21) + 11
_TAG_HALVE = (1 << 21) + 12


@dataclass
class _Segment:
    """A working segment over index range [lo, hi): sparse or dense."""

    n: int
    lo: int
    hi: int
    coo: Optional[COOVector] = None       # absolute indices
    dense: Optional[np.ndarray] = None    # length hi - lo, offset lo

    @classmethod
    def from_coo(cls, vec: COOVector, lo: int, hi: int) -> "_Segment":
        return cls(vec.n, lo, hi, coo=vec.restrict(lo, hi))

    @property
    def is_dense(self) -> bool:
        return self.dense is not None

    def words(self) -> int:
        return (self.hi - self.lo) if self.is_dense else 2 * self.coo.nnz

    def payload(self):
        if self.is_dense:
            return ("d", self.lo, self.hi, self.dense)
        return ("s", self.lo, self.hi, self.coo.indices, self.coo.values)

    @classmethod
    def from_payload(cls, n: int, payload) -> "_Segment":
        kind, lo, hi = payload[0], payload[1], payload[2]
        if kind == "d":
            return cls(n, lo, hi, dense=payload[3])
        return cls(n, lo, hi,
                   coo=COOVector(n, payload[3], payload[4]))

    def half(self, lo: int, hi: int) -> "_Segment":
        if self.is_dense:
            return _Segment(self.n, lo, hi,
                            dense=self.dense[lo - self.lo:hi - self.lo])
        return _Segment(self.n, lo, hi, coo=self.coo.restrict(lo, hi))

    def add(self, other: "_Segment") -> "_Segment":
        """Sum two segments over the same range; dense wins."""
        assert (self.lo, self.hi) == (other.lo, other.hi)
        if self.is_dense or other.is_dense:
            out = self.to_dense_array() + other.to_dense_array()
            return _Segment(self.n, self.lo, self.hi, dense=out)
        return _Segment(self.n, self.lo, self.hi,
                        coo=combine_sum([self.coo, other.coo]))

    def to_dense_array(self) -> np.ndarray:
        if self.is_dense:
            return self.dense
        out = np.zeros(self.hi - self.lo, dtype=VALUE_DTYPE)
        out[self.coo.indices - self.lo] = self.coo.values
        return out

    def maybe_densify(self) -> "_Segment":
        """Switch representation when COO is no longer smaller."""
        if not self.is_dense and 2 * self.coo.nnz >= (self.hi - self.lo):
            return _Segment(self.n, self.lo, self.hi,
                            dense=self.to_dense_array())
        return self

    def to_coo(self) -> COOVector:
        if not self.is_dense:
            return self.coo
        nz = np.flatnonzero(self.dense)
        return COOVector(self.n, (nz + self.lo).astype(INDEX_DTYPE),
                         self.dense[nz])


class TopkDSAAllreduce(GradientAllreduce):
    # Recursive halving works on any index range, so sessions run the
    # SSAR exchange independently per bucket.
    name = "topkdsa"

    def __init__(self, *, allow_dense_switch: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.allow_dense_switch = allow_dense_switch

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                view: BucketView) -> AllreduceResult:
        p, r = comm.size, comm.rank
        n = acc.size
        with comm.phase(PHASE_SPARSIFY):
            local = exact_topk(acc, k)
            comm.compute_topk(n, k)

        switched = False
        with comm.phase(PHASE_COMM):
            m = 1 << (p.bit_length() - 1)
            rem = p - m
            working = local
            # ---- fold extras into the power-of-two core ---------------
            newrank: Optional[int]
            if rem and r < 2 * rem:
                if r % 2 == 0:
                    comm.send(working, r + 1, _TAG_FOLD)
                    newrank = None
                else:
                    got = comm.recv(r - 1, _TAG_FOLD)
                    working = combine_sum([working, got])
                    comm.compute_words(got.nnz)
                    newrank = r // 2
            else:
                newrank = (r - rem) if rem else r

            seg = _Segment.from_coo(working, 0, n)
            if newrank is not None:
                # ---- recursive halving on the index space -------------
                d = m >> 1
                lo, hi = 0, n
                while d >= 1:
                    partner_new = newrank ^ d
                    partner = (partner_new * 2 + 1 if partner_new < rem
                               else partner_new + rem)
                    mid = lo + (hi - lo) // 2
                    if newrank < partner_new:
                        send_half, keep = (mid, hi), (lo, mid)
                    else:
                        send_half, keep = (lo, mid), (mid, hi)
                    outgoing = seg.half(*send_half)
                    got = comm.sendrecv(outgoing.payload(), partner, partner,
                                        _TAG_HALVE)
                    kept = seg.half(*keep)
                    incoming = _Segment.from_payload(n, got)
                    seg = kept.add(incoming)
                    comm.compute_words(incoming.words())
                    if self.allow_dense_switch:
                        new_seg = seg.maybe_densify()
                        switched = switched or (new_seg.is_dense
                                                and not seg.is_dense)
                        seg = new_seg
                    lo, hi = keep
                    d >>= 1
            else:
                # folded-out even extras own an empty segment
                seg = _Segment(n, 0, 0, coo=COOVector.empty(n))

            # ---- allgather the reduced segments ------------------------
            pieces = coll.allgatherv_coo(comm, seg.payload())
            segments = [_Segment.from_payload(n, pl) for pl in pieces]
            total = combine_sum([s.to_coo() for s in segments])
            comm.compute_words(sum(s.words() for s in segments))

        return AllreduceResult(
            update=total,
            contributed_indices=local.indices,
            info={"k": k, "selected": local.nnz, "output_nnz": total.nnz,
                  "fill_in": total.nnz / max(1, k),
                  "switched_to_dense": switched},
        )
