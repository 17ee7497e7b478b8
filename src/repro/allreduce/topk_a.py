"""Top-k Allgather sparse allreduce (``TopkA``, Table 1 row 2).

Every worker selects its local top-k, allgathers the P sparse vectors, and
sums them locally.  Simple, no fill-in *during* the exchange, but the
receive volume is ``2k (P-1)`` per rank — proportional to P, hence not
scalable (the key negative result motivating Ok-Topk).

The output is the *sum of all local top-k contributions*; its support is
the union of the P supports, so the output density expands (Section 5.2
reports 13.2% / 34.5% from 1% / 2% local density).
"""

from __future__ import annotations

import numpy as np

from ..comm import SimComm, collectives as coll
from ..sparse import combine_sum, exact_topk
from .base import (PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, BucketView,
                   GradientAllreduce)


class TopkAAllreduce(GradientAllreduce):
    # Stateless and position-independent, so sessions run it per bucket:
    # each bucket allgathers its own top-k_b (k split proportional to
    # bucket length) and the union of bucket supports is the merged update.
    name = "topka"

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                view: BucketView) -> AllreduceResult:
        with comm.phase(PHASE_SPARSIFY):
            local = exact_topk(acc, k)
            comm.compute_topk(acc.size, k)
        with comm.phase(PHASE_COMM):
            gathered = coll.allgatherv_coo(comm, local)
            total = combine_sum(gathered)
            comm.compute_words(sum(v.nnz for v in gathered))
        return AllreduceResult(
            update=total,
            contributed_indices=local.indices,
            info={"k": k, "selected": local.nnz, "output_nnz": total.nnz,
                  "fill_in": total.nnz / max(1, k)},
        )
