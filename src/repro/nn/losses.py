"""Losses: softmax cross-entropy for classification, sequence labelling
and masked language modelling (``ignore_index`` masks non-predicted
positions, as in BERT's MLM)."""

from __future__ import annotations

import numpy as np

from .module import Loss

IGNORE_INDEX = -100


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class SoftmaxCrossEntropy(Loss):
    """Mean cross entropy over valid targets.

    Accepts logits of shape (B, C) or (B, T, C) with integer targets of
    shape (B,) / (B, T); targets equal to ``ignore_index`` contribute
    neither loss nor gradient.
    """

    def __init__(self, ignore_index: int = IGNORE_INDEX):
        self.ignore_index = ignore_index

    def forward_backward(self, logits: np.ndarray,
                         targets: np.ndarray) -> tuple[float, np.ndarray]:
        orig_shape = logits.shape
        C = orig_shape[-1]
        flat = logits.reshape(-1, C)
        tgt = targets.reshape(-1)
        valid = tgt != self.ignore_index
        nvalid = int(valid.sum())
        if nvalid == 0:
            return 0.0, np.zeros(orig_shape, dtype=logits.dtype)
        logp = _log_softmax(flat[valid].astype(np.float64))
        rows = np.arange(nvalid)
        picked = tgt[valid].astype(np.int64)
        loss = float(-logp[rows, picked].mean())
        dflat = np.zeros_like(flat)
        probs = np.exp(logp)
        probs[rows, picked] -= 1.0
        dflat[valid] = (probs / nvalid).astype(logits.dtype)
        return loss, dflat.reshape(orig_shape)

    def forward_backward_stacked(
            self, logits: np.ndarray,
            targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank-stacked loss: ``logits`` has a leading (P, ...) rank axis.

        Bit-identical per rank slice to :meth:`forward_backward`: the
        softmax is row-independent, so it runs once over the valid rows of
        the whole world; each rank's loss is the mean of its own
        contiguous segment of them (the same values in the same order),
        and its gradient rows are divided by its own valid count.  A rank
        with no valid target gets a loss of 0.0 and a zero gradient.
        """
        nranks = logits.shape[0]
        C = logits.shape[-1]
        flat = logits.reshape(-1, C)
        tgt = targets.reshape(-1)
        valid = tgt != self.ignore_index
        counts = valid.reshape(nranks, -1).sum(axis=1)
        logp = _log_softmax(flat[valid].astype(np.float64))
        rows = np.arange(len(logp))
        picked = tgt[valid].astype(np.int64)
        nll = logp[rows, picked]
        if counts.all() and (counts == counts[0]).all():
            # equal segments (no mask): the same row reduction, one call
            losses = -nll.reshape(nranks, -1).mean(axis=1)
        else:
            losses = np.array([-seg.mean() if seg.size else 0.0 for seg
                               in np.split(nll, np.cumsum(counts)[:-1])])
        probs = np.exp(logp)
        probs[rows, picked] -= 1.0
        dflat = np.zeros_like(flat)
        dflat[valid] = (probs / counts.repeat(counts)[:, None]).astype(
            logits.dtype)
        return losses, dflat.reshape(logits.shape)
