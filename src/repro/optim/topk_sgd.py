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
    """Diagnostics of one distributed optimizer step."""

    t: int
    lr: float
    result: AllreduceResult

    @property
    def phase_times(self) -> Dict[str, float]:
        return self.result.phase_times


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
        layout: the parameter segments each step's session fuses into
            buckets (:func:`repro.allreduce.run_session`); the default
            ``ParamLayout.single(n)`` with ``bucket_size=None`` is the
            one-shot ``reduce``.
        bucket_size: bucket-fusion threshold in words (see
            :mod:`repro.allreduce.session`).
    """

    #: the optimizer the averaged update feeds (:class:`SparseOptimWrapper`);
    #: ``None`` applies it as Algorithm 2's ``w -= u / P``
    inner: Any = None

    def __init__(self, allreduce: GradientAllreduce, lr, n: int, *,
                 layout: Optional[ParamLayout] = None,
                 bucket_size: Optional[int] = None):
        self.allreduce = allreduce
        self.lr: LRSchedule = as_schedule(lr)
        self.residual = np.zeros(n, dtype=np.float32)
        self.t = 0
        self.layout = ParamLayout.single(n) if layout is None else layout
        self.bucket_size = bucket_size

    def step(self, comm: SimComm, params: np.ndarray,
             grad: np.ndarray, *, pacer=None, rb=None) -> StepInfo:
        """One synchronous data-parallel step; mutates ``params``.

        ``pacer`` (a bucket's segments -> None) switches a session to
        streaming: it charges their backward compute before the bucket
        closes, and bucket reductions issue mid-backward on the clock (see
        :mod:`repro.allreduce.session`).  ``rb`` (a
        :class:`repro.train.rankbatch.RankBatch`) batches the residual
        accumulation and applies the update once for the world when
        lockstep execution is engaged — bit-identical to the per-rank
        expressions."""
        self.t += 1
        lr = self.lr(self.t)
        acc = rb.accumulate(self.t, self.residual, lr, grad) \
            if rb is not None else None
        if acc is None:
            acc = self.residual + lr * grad.astype(np.float32, copy=False)
        result = run_session(self.allreduce, comm, self.layout, self.t, acc,
                             bucket_size=self.bucket_size, pacer=pacer)
        # residual update: keep what did not contribute
        self.residual = acc
        if result.contributed_indices is None:
            self.residual = np.zeros_like(acc)
        else:
            self.residual[result.contributed_indices] = 0.0
        # one step for the whole world when rank-batched (see
        # repro.train.rankbatch), else this rank's own
        inner = self.inner
        own = rb.apply(self.t, params, result, inner) if rb else params
        if own is not None and inner is None:
            _apply_update(own, result.update, 1.0 / comm.size)
        elif own is not None:
            inner.step(own, result.update_dense(own.size) / comm.size)
        if inner is not None:
            lr = inner.lr(inner.t) if hasattr(inner, "lr") else 0.0
        return StepInfo(t=self.t, lr=float(lr), result=result)


class SparseOptimWrapper(TopkSGD):
    """Error-feedback sparsification around an inner (adaptive) optimizer.

    The paper's BERT mode: "sparse allreduce is conducted on the gradients
    and Adam optimizer is applied afterwards" (Section 5).  Residuals are
    accumulated on raw gradients (Algorithm 2 at ``alpha = 1``); the inner
    optimizer consumes the averaged sparse update as its gradient
    estimate.
    """

    def __init__(self, allreduce: GradientAllreduce, inner: Any, n: int, *,
                 layout: Optional[ParamLayout] = None,
                 bucket_size: Optional[int] = None):
        super().__init__(allreduce, 1.0, n, layout=layout,
                         bucket_size=bucket_size)
        self.inner = inner
