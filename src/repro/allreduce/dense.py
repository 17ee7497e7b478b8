"""Dense baselines: ``Dense`` and ``DenseOvlp`` (Section 5, Table 1 row 1).

``Dense`` performs a single allreduce on the full flat gradient with
Rabenseifner's algorithm — bandwidth-optimal ``2 n (P-1)/P``.  Under a
multi-bucket session each bucket is one dense allreduce over its slice
and its communication overlaps the backward compute still outstanding
when the bucket was pushed.

``DenseOvlp`` is dense + bucketing + overlap-from-start, with one
branch in its bucket reduction: a bucket that is the whole gradient (the
one bucket of a one-shot ``reduce``) is grouped into ``nbuckets`` equal
pieces with one allreduce each (the bucketed execution is real — extra
latency terms and all); under a multi-bucket session the session's
bucket-fusion policy *is* the bucketing and each bucket is a single dense
allreduce.  Its ``overlap_from_start`` contract pins every bucket's
``release_frac`` to 0.0, so the trainer's generic timeline reproduces the
legacy credit ``max(0, comm - f * compute)`` exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..comm import SimComm, collectives as coll
from .base import PHASE_COMM, AllreduceResult, BucketView, GradientAllreduce


class DenseAllreduce(GradientAllreduce):
    """Single monolithic dense allreduce of the aggregated gradient."""

    name = "dense"
    sparse = False

    def __init__(self, *, algo: str = "bandwidth", **kwargs):
        super().__init__(**kwargs)
        self.algo = algo

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int,
                k: Optional[int], view: BucketView) -> AllreduceResult:
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

    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int,
                k: Optional[int], view: BucketView) -> AllreduceResult:
        # A bucket that is the whole gradient splits into ``nbuckets``
        # allreduces; a session bucket IS the overlap bucket (splitting
        # it again would double the latency terms of the equivalent
        # dense + bucketing config).
        n = acc.size
        nb = min(self.nbuckets, n) if n == view.n else 1
        bounds = np.linspace(0, n, nb + 1).astype(np.int64)
        out = np.empty_like(acc)
        with comm.phase(PHASE_COMM):
            for b in range(nb):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                out[lo:hi] = coll.allreduce(comm, acc[lo:hi], algo=self.algo)
        return AllreduceResult(update=out, contributed_indices=None,
                               info={"nbuckets": nb})
