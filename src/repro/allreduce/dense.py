"""Dense baselines: ``Dense`` and ``DenseOvlp`` (Section 5, Table 1 row 1).

``Dense`` performs a single allreduce on the full flat gradient with
Rabenseifner's algorithm — bandwidth-optimal ``2 n (P-1)/P``.  Under a
multi-bucket session each bucket is one dense allreduce over its slice
and its communication overlaps the backward compute still outstanding
when the bucket was pushed.

``DenseOvlp`` is dense + bucketing + overlap-from-start.  Over one bucket
(a one-shot ``reduce``, which the session delegates to ``_reduce``) it
groups the gradient into ``nbuckets`` equal buckets and fires one
allreduce per bucket (the bucketed execution is real — extra latency
terms and all); under a multi-bucket session, the session's bucket-fusion
policy *is* the bucketing and each bucket is a single dense allreduce.  Its
``overlap_from_start`` contract pins every bucket's ``release_frac`` to
0.0, so the trainer's generic timeline reproduces the legacy credit
``max(0, comm - f * compute)`` exactly (``result.overlappable = True``
signals the same on the one-shot path).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..comm import SimComm, collectives as coll
from .base import PHASE_COMM, AllreduceResult, GradientAllreduce


class DenseAllreduce(GradientAllreduce):
    """Single monolithic dense allreduce of the aggregated gradient."""

    name = "dense"
    sparse = False

    def __init__(self, *, algo: str = "bandwidth", **kwargs):
        super().__init__(**kwargs)
        self.algo = algo

    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        with comm.phase(PHASE_COMM):
            total = coll.allreduce(comm, acc, algo=self.algo)
        return AllreduceResult(update=total, contributed_indices=None)


class DenseOvlpAllreduce(DenseAllreduce):
    """Bucketed dense allreduce enabling communication/computation overlap."""

    name = "dense_ovlp"
    sparse = False
    overlap_from_start = True

    def __init__(self, *, nbuckets: int = 4, algo: str = "bandwidth",
                 **kwargs):
        super().__init__(algo=algo, **kwargs)
        if nbuckets < 1:
            raise ValueError("nbuckets must be >= 1")
        self.nbuckets = nbuckets

    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        n = acc.size
        nb = min(self.nbuckets, max(1, n))
        bounds = np.linspace(0, n, nb + 1).astype(np.int64)
        out = np.empty_like(acc)
        with comm.phase(PHASE_COMM):
            for b in range(nb):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                out[lo:hi] = coll.allreduce(comm, acc[lo:hi], algo=self.algo)
        return AllreduceResult(update=out, contributed_indices=None,
                               info={"nbuckets": nb}, overlappable=True)

    def _reduce_bucket(self, comm: SimComm, acc: np.ndarray, t: int, *,
                       k: Optional[int] = None,
                       view=None) -> AllreduceResult:
        # The session's bucket IS the overlap bucket: one allreduce per
        # bucket, no internal nbuckets sub-splitting (that would double
        # the latency terms vs the equivalent dense + bucketing config).
        with comm.phase(PHASE_COMM):
            total = coll.allreduce(comm, acc, algo=self.algo)
        return AllreduceResult(update=total, contributed_indices=None,
                               overlappable=True)
