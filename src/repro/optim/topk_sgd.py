"""Ok-Topk SGD — Algorithm 2 of the paper — and the error-feedback wrapper
for adaptive optimizers (the paper's BERT/Adam mode).

Algorithm 2 (per worker ``i``, iteration ``t``)::

    acc_t  = eps_{t-1} + alpha * G_{t-1}(w_{t-1})     # accumulate residuals
    u_t, indexes = Ok_sparse_allreduce(acc_t, t, k)
    eps_t  = acc_t ;  eps_t[indexes] = 0              # update residuals
    w_t    = w_{t-1} - u_t / P                        # apply model update

The residuals keep every gradient entry that did not contribute to the
global top-k so it can contribute later (error feedback); dense baselines
contribute everything and keep no residual.

Works with *any* :class:`repro.allreduce.GradientAllreduce` — that is how
the paper compares the six schemes under an identical optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..allreduce.base import AllreduceResult, GradientAllreduce
from ..allreduce.session import ParamLayout, run_session
from ..comm import SimComm
from ..sparse import COOVector
from .lr_schedules import LRSchedule, as_schedule


@dataclass
class StepInfo:
    """Diagnostics of one distributed optimizer step.

    ``residual_norm`` is evaluated lazily from a snapshot-free reference:
    the eager per-step ``np.linalg.norm`` over the full residual was pure
    overhead on the training hot path (nothing in the trainer consumes
    it).  Read it before the *next* ``step`` call mutates the residual.
    """

    t: int
    lr: float
    result: AllreduceResult
    _residual: Optional[np.ndarray] = None

    @property
    def residual_norm(self) -> float:
        if self._residual is None:
            return 0.0
        return float(np.linalg.norm(self._residual))

    @property
    def phase_times(self) -> Dict[str, float]:
        return self.result.phase_times


def _session_or_reduce(allreduce: GradientAllreduce, comm: SimComm,
                       acc: np.ndarray, t: int,
                       layout: Optional[ParamLayout],
                       bucket_size: Optional[int],
                       pacer=None) -> AllreduceResult:
    """Run the allreduce: session-based when a layout is configured
    (bit-identical to one-shot at the default ``bucket_size=None``).

    ``pacer`` (segment -> None) switches the session to streaming
    execution: it is invoked before each push to charge the backward
    compute the segment represents, and bucket reductions are issued on
    the simulated clock mid-backward (see :mod:`repro.allreduce.session`).
    """
    if layout is not None:
        return run_session(allreduce, comm, layout, t, acc,
                           bucket_size=bucket_size, pacer=pacer)
    return allreduce.reduce(comm, acc, t)


def _apply_update(params: np.ndarray, update, scale: float) -> None:
    """``params -= scale * update`` for sparse or dense updates."""
    if isinstance(update, COOVector):
        params[update.indices] -= (scale * update.values).astype(
            params.dtype, copy=False)
    else:
        params -= (scale * update).astype(params.dtype, copy=False)


class TopkSGD:
    """Algorithm 2: plain SGD with residual accumulation.

    Args:
        allreduce: the gradient reduction scheme (one instance per worker).
        lr: learning rate or schedule (the paper's ``alpha``).
        n: number of model parameters (residual buffer size).
        layout: when given, steps run through the session-based bucketed
            allreduce (``allreduce.begin`` + per-segment pushes in
            backward order) instead of the one-shot ``reduce``; with the
            default ``bucket_size=None`` the two are bit-identical.
        bucket_size: bucket-fusion threshold in words (see
            :mod:`repro.allreduce.session`).
    """

    def __init__(self, allreduce: GradientAllreduce, lr, n: int, *,
                 layout: Optional[ParamLayout] = None,
                 bucket_size: Optional[int] = None):
        self.allreduce = allreduce
        self.lr: LRSchedule = as_schedule(lr)
        self.residual = np.zeros(n, dtype=np.float32)
        self.t = 0
        self.layout = layout
        self.bucket_size = bucket_size

    def step(self, comm: SimComm, params: np.ndarray,
             grad: np.ndarray, *, pacer=None, rb=None) -> StepInfo:
        """One synchronous data-parallel step; mutates ``params``.

        ``pacer`` enables streaming sessions (see
        :func:`_session_or_reduce`); ``rb`` (a
        :class:`repro.train.rankbatch.RankBatch`) batches the residual
        accumulation across the world when lockstep execution is engaged
        — bit-identical to the per-rank expression."""
        self.t += 1
        lr = self.lr(self.t)
        acc = rb.accumulate(self.t, self.residual, lr, grad) \
            if rb is not None else None
        if acc is None:
            acc = self.residual + lr * grad.astype(np.float32, copy=False)
        result = _session_or_reduce(self.allreduce, comm, acc, self.t,
                                    self.layout, self.bucket_size,
                                    pacer=pacer)
        # residual update: keep what did not contribute
        self.residual = acc
        if result.contributed_indices is None:
            self.residual = np.zeros_like(acc)
        else:
            self.residual[result.contributed_indices] = 0.0
        _apply_update(params, result.update, 1.0 / comm.size)
        return StepInfo(t=self.t, lr=lr, result=result,
                        _residual=self.residual)


class SparseOptimWrapper:
    """Error-feedback sparsification around an inner (adaptive) optimizer.

    The paper's BERT mode: "sparse allreduce is conducted on the gradients
    and Adam optimizer is applied afterwards" (Section 5).  Residuals are
    accumulated on raw gradients; the inner optimizer consumes the averaged
    sparse update as its gradient estimate.
    """

    def __init__(self, allreduce: GradientAllreduce, inner: Any, n: int, *,
                 layout: Optional[ParamLayout] = None,
                 bucket_size: Optional[int] = None):
        self.allreduce = allreduce
        self.inner = inner
        self.residual = np.zeros(n, dtype=np.float32)
        self.t = 0
        self.layout = layout
        self.bucket_size = bucket_size

    def step(self, comm: SimComm, params: np.ndarray,
             grad: np.ndarray, *, pacer=None, rb=None) -> StepInfo:
        self.t += 1
        acc = rb.accumulate(self.t, self.residual, 1.0, grad) \
            if rb is not None else None
        if acc is None:
            acc = self.residual + grad.astype(np.float32, copy=False)
        result = _session_or_reduce(self.allreduce, comm, acc, self.t,
                                    self.layout, self.bucket_size,
                                    pacer=pacer)
        self.residual = acc
        if result.contributed_indices is None:
            self.residual = np.zeros_like(acc)
        else:
            self.residual[result.contributed_indices] = 0.0
        # one step for the whole world when rank-batched (every rank's
        # is identical; see repro.train.rankbatch), else this rank's own
        if rb is None or rb.apply(self.t, params, result,
                                  self.inner) is None:
            self.inner.step(params,
                            result.update_dense(params.size) / comm.size)
        lr = self.inner.lr(self.inner.t) if hasattr(self.inner, "lr") else 0.0
        return StepInfo(t=self.t, lr=float(lr), result=result,
                        _residual=self.residual)
