"""Machine and network performance models.

The simulator charges time using the classic latency--bandwidth (alpha-beta)
cost model extended with per-NIC link occupancy (LogGP-style), which is the
model the paper states Table 1 in:

* sending a message of ``L`` words costs ``alpha + beta * L`` end to end,
* a rank's egress (injection) link serializes its outgoing messages at
  ``beta`` seconds/word, and its ingress link serializes incoming messages
  the same way -- this reproduces the *endpoint congestion* that motivates
  the destination-rotation optimization of Ok-Topk (Figure 2 of the paper).

Compute time (local reductions, top-k scans, forward/backward FLOPs) is
charged explicitly by the algorithms through :meth:`repro.comm.communicator.
SimComm.compute` using the ``gamma``/``flop_time`` constants here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

import numpy as np


@dataclass(frozen=True)
class NetworkModel:
    """Cost constants for the simulated machine.

    Attributes:
        alpha: wire latency per message, seconds.
        beta: transfer time per 4-byte word, seconds/word.
        gamma: local reduction cost per word (e.g. summing received sparse
            gradients), seconds/word.
        scan_time: per-word cost of a linear scan on the accelerator
            (threshold-based selection, compaction), seconds/word.
        sort_time: per-word-per-log-word cost of an accelerator sort, used
            for exact top-k threshold (re-)evaluation, seconds/word.
        flop_time: seconds per floating point operation for model
            forward/backward compute.
        o_send: CPU overhead charged to the sender per blocking send.
        o_inject: CPU overhead charged per non-blocking isend post.
    """

    alpha: float = 1.5e-6
    beta: float = 4.0e-10
    gamma: float = 2.0e-10
    scan_time: float = 1.0e-10
    sort_time: float = 2.5e-10
    flop_time: float = 4.0e-13
    o_send: float = 0.0
    o_inject: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "scan_time", "sort_time",
                     "flop_time", "o_send", "o_inject"):
            v = getattr(self, name)
            if not (0 <= v < inf):
                raise ValueError(
                    f"NetworkModel.{name} must be finite and >= 0, got {v}")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def aries(cls) -> "NetworkModel":
        """Cray Aries-like constants (Piz Daint): ~1.5us latency, ~10 GB/s
        effective per-node injection bandwidth."""
        return cls(alpha=1.5e-6, beta=4.0e-10)

    @classmethod
    def commodity(cls) -> "NetworkModel":
        """Commodity cloud Ethernet: ~25us latency, ~1.2 GB/s bandwidth.

        The paper predicts larger Ok-Topk speedups here (Section 6)."""
        return cls(alpha=2.5e-5, beta=3.2e-9)

    @classmethod
    def infiniband(cls) -> "NetworkModel":
        """HDR InfiniBand-like: ~1us latency, ~23 GB/s bandwidth."""
        return cls(alpha=1.0e-6, beta=1.7e-10)

    @classmethod
    def piz_daint_effective(cls) -> "NetworkModel":
        """*Effective* end-to-end constants of the paper's software stack
        (PyTorch tensors staged through host memory into Cray-MPICH, no
        GPUDirect): calibrated so the Dense bar of Figure 12 (~4.5 s for
        the 133.5M-parameter BERT allreduce on 256 nodes) is reproduced.
        Raw Aries link speed is ~40x higher; the gap is the measured
        software overhead the paper's absolute numbers include."""
        return cls(alpha=2.0e-5, beta=1.6e-8, sort_time=5.0e-10)

    def with_(self, **kwargs) -> "NetworkModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Analytic helpers (shared with repro.costmodel)
    # ------------------------------------------------------------------
    def ptp_cost(self, nwords: int) -> float:
        """Cost of a single uncontended point-to-point message."""
        return self.alpha + self.beta * float(nwords)

    def topk_seconds(self, n: int, k: int) -> float:
        """Seconds of a GPU top-k selection over ``n`` words.

        Modeled as ``sort_time * n * log2(k)`` — between the bitonic
        ``n log^2 k`` worst case and radix-select's ``n`` (torch.topk,
        the primitive the paper's baselines call, sits in this regime).
        The single source of the formula: charged through
        :meth:`repro.comm.communicator.SimComm.compute_topk` on the
        per-message path and by the fused gtopk tree executor.
        """
        n, k = max(0, n), max(2, k)
        return self.sort_time * n * np.log2(k)

    def isend_avail(self, sender_clock: float, n: int) -> np.ndarray:
        """Egress availability times of ``n`` back-to-back ``isend``
        posts: the sender's clock advances by ``o_inject`` per post, so
        message ``i`` becomes available after ``i`` charges (left-fold
        prefix sum, matching the scalar clock accumulation).  Shared by
        :meth:`repro.comm.network.Network.post_batch` and the fused
        Ok-Topk split-and-reduce executor."""
        if self.o_inject:
            seq = np.full(n, self.o_inject)
            seq[0] = sender_clock
            return seq.cumsum()
        return np.full(n, sender_clock)

    # ------------------------------------------------------------------
    # Batched link booking
    # ------------------------------------------------------------------
    def occupancy_scan(self, free: float, avail: np.ndarray,
                       nwords: np.ndarray) -> np.ndarray:
        """Closed-form link-occupancy scan over a message batch.

        A link that was free at ``free`` serializes messages that become
        available at ``avail[i]`` (sender clock for egress, ``t_first`` for
        ingress) and occupy it for ``beta * nwords[i]`` seconds each::

            end[i] = max(end[i-1], avail[i]) + beta * nwords[i]

        evaluated here without a Python-level fold: with the prefix sums
        ``c[i] = sum_{j<=i} beta*nwords[j]`` the recurrence collapses to
        ``end[i] = c[i] + max(free, max_{j<=i}(avail[j] - c[j-1]))``, one
        ``cumsum`` plus one ``maximum.accumulate``.

        Note the closed form re-associates the additions, so it can differ
        from the message-by-message fold in the final ulp.  The simulator's
        bit-reproducibility contract therefore books real messages through
        :meth:`serialize_batch` (which falls back to the exact fold outside
        its provably-identical fast paths) and keeps this form for batch
        sizing, analysis and cross-checks.
        """
        b = self.beta * np.asarray(nwords, dtype=np.float64)
        c = np.cumsum(b)
        slack = np.asarray(avail, dtype=np.float64) - (c - b)  # avail - c[i-1]
        return c + np.maximum(free, np.maximum.accumulate(slack))

    def serialize_batch(self, free: float, avail: np.ndarray,
                        nwords: np.ndarray,
                        ) -> "tuple[np.ndarray, np.ndarray]":
        """Book a message batch on one link, bit-identical to booking each
        message individually.  Returns ``(starts, ends)``.

        Two vectorized regimes reproduce the scalar fold exactly:

        * **saturated** — every message is already waiting when its
          predecessor ends; the recurrence is the left fold
          ``((free + b0) + b1) + ...``, which is exactly what ``np.cumsum``
          over ``[free, b0, b1, ...]`` computes;
        * **idle** — the link frees before each message becomes available;
          ``end[i] = avail[i] + b[i]`` independently.

        A batch that switches regimes mid-way falls back to the scalar
        fold (plain-float loop): the re-associated closed form
        (:meth:`occupancy_scan`) would drift in the last ulp, breaking the
        bit-identical-across-runners/makespan contract.  Start times are
        the fold's ``max(end[i-1], avail[i])`` selections (never re-derived
        as ``end - beta*nwords``, which would also drift).
        """
        b = self.beta * np.asarray(nwords, dtype=np.float64)
        n = b.size
        avail = np.asarray(avail, dtype=np.float64)
        if n == 0:
            return b, b
        # saturated fast path: prev_end[i] >= avail[i] for all i
        # (ndarray method calls skip the np.* dispatch wrappers — this
        # booking runs 64+ times per fused split-reduce dispatch)
        seq = np.empty(n + 1)
        seq[0] = free
        seq[1:] = b
        chain = seq.cumsum()            # chain[i] = end of message i-1
        if (avail <= chain[:-1]).all():
            return chain[:-1], chain[1:]
        # idle fast path: link free before every message becomes available
        ends = avail + b
        if avail[0] >= free and (n == 1 or (avail[1:] >= ends[:-1]).all()):
            return avail, ends
        # mixed regime: exact scalar fold over plain floats
        end = free
        starts = np.empty(n)
        out = np.empty(n)
        bl = b.tolist()
        al = avail.tolist()
        for i in range(n):
            a = al[i]
            if a > end:
                end = a
            starts[i] = end
            end += bl[i]
            out[i] = end
        return starts, out

    def serialize_stacked(self, free: np.ndarray, avail: np.ndarray,
                          nwords: np.ndarray, starts=None, ends=None,
                          ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`serialize_batch` on P links at once: row ``r`` of the
        ``(P, m)`` matrices is the batch of the link free at ``free[r]``;
        ``(starts, ends)`` land in the float64 buffers given, if any.
        The scalar fold runs column by column over all rows — per row the
        message-by-message operations all three regimes of
        :meth:`serialize_batch` reproduce, so bit-identical to P calls of
        it.  Pad ragged rows with ``nwords = 0``, ``avail = -inf``: such
        a message starts where the link stands and adds 0.0."""
        ends = np.multiply(self.beta, nwords, out=ends, dtype=np.float64)
        if starts is None:
            starts = np.empty_like(ends)
        end = free
        for a, s, e in zip(avail.T, starts.T, ends.T):
            np.maximum(end, a, out=s)
            end = np.add(s, e, out=e)
        return starts, ends
