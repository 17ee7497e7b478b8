"""Gaussian-k sparse allreduce (Shi et al. 2019; Table 1 row 5).

Same allgather exchange as TopkA, but the local selection uses a threshold
estimated from a Gaussian fit of the gradient values (percent-point
function) instead of an exact top-k — O(n) and GPU-friendly, but it
under-estimates k on real (lighter-tailed) distributions.

Following Section 5.4, the threshold is adaptively scaled until at least
``3k/4`` values are selected ("the threshold adjustment is also suggested
by [41], although it is difficult to be accurate"), so that time-to-accuracy
comparisons are fair.
"""

from __future__ import annotations

import numpy as np

from ..comm import SimComm, collectives as coll
from ..sparse import combine_sum, threshold_select
from ..sparse.threshold import gaussian_threshold
from .base import (PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, BucketView,
                   GradientAllreduce)


class GaussiankAllreduce(GradientAllreduce):
    # The Gaussian threshold fit is per-vector, so each session bucket
    # fits its own slice.
    name = "gaussiank"

    def __init__(self, *, adjust_min_fraction: float = 0.75,
                 adjust_shrink: float = 0.8, adjust_max_rounds: int = 32,
                 **kwargs):
        super().__init__(**kwargs)
        self.adjust_min_fraction = adjust_min_fraction
        self.adjust_shrink = adjust_shrink
        self.adjust_max_rounds = adjust_max_rounds

    def estimate_threshold(self, comm: SimComm, acc: np.ndarray,
                           k: int) -> tuple[float, int]:
        """Gaussian PPF estimate plus the paper's adjustment loop; returns
        the threshold and the number of adjustment rounds used."""
        if k < 1:
            # Zero-budget bucket (session k-split with k < nbuckets):
            # select nothing, like the top-k schemes do.
            return float("inf"), 0
        t = gaussian_threshold(acc, k)
        comm.compute_scan(2 * acc.size)  # mean/std pass + selection scan
        if t == 0.0:
            return t, 0
        mag = np.abs(acc)
        target = self.adjust_min_fraction * min(k, acc.size)
        rounds = 0
        while (np.count_nonzero(mag >= t) < target
               and rounds < self.adjust_max_rounds):
            t *= self.adjust_shrink
            rounds += 1
            comm.compute_scan(acc.size)  # each adjustment re-scans
        return t, rounds

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int, k: int,
                view: BucketView) -> AllreduceResult:
        with comm.phase(PHASE_SPARSIFY):
            threshold, rounds = self.estimate_threshold(comm, acc, k)
            local = threshold_select(acc, threshold)
            if local.nnz > 2 * k:  # degenerate underestimate of threshold
                local = local.topk(k)
        with comm.phase(PHASE_COMM):
            gathered = coll.allgatherv_coo(comm, local)
            total = combine_sum(gathered)
            comm.compute_words(sum(v.nnz for v in gathered))
        return AllreduceResult(
            update=total,
            contributed_indices=local.indices,
            info={"k": k, "selected": local.nnz, "threshold": threshold,
                  "adjust_rounds": rounds, "output_nnz": total.nnz},
        )
