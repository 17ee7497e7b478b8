"""Adam optimizer (Kingma & Ba 2014) on flat parameter vectors.

The paper's BERT runs use Adam with lr=2e-4, beta1=0.9, beta2=0.999, weight
decay 0.01 and linear lr decay; the sparse allreduce runs on the gradients
and Adam is applied afterwards (Section 5).

The step is allocation-free: it runs the textbook expression's ufuncs in
the textbook's order, each into one of two float32 scratch vectors held
by the instance (``out=``), so the result is bit-identical to::

    g = grad + weight_decay * params          # only with weight decay
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g ** 2
    params -= lr * (m / c1) / (sqrt(v / c2) + eps)

with ``c1 = 1 - beta1 ** t`` and ``c2 = 1 - beta2 ** t``.  A fresh n-sized
temporary per ufunc costs a round of page faults every step, which is
most of what the step costs at the BERT proxy's size.  The state and the
arithmetic are float32; the hyperparameters are Python floats, so they
never promote it.

Rank-batched training steps rank 0's instance once for the world and
binds every rank's state to its arrays (:mod:`repro.train.rankbatch`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lr_schedules import LRSchedule, as_schedule


class Adam:
    def __init__(self, lr=1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if not eps > 0.0:
            # a coordinate without gradient history has m = v = 0, and
            # its update would be 0 / (0 + eps)
            raise ValueError("eps must be > 0")
        self.lr: LRSchedule = as_schedule(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self.t = 0

    def _init_state(self, shape) -> None:
        self._m = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        self._scratch = np.empty((2,) + tuple(shape), dtype=np.float32)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        lr = float(self.lr(self.t))
        g = grad.astype(np.float32, copy=False)
        if self._m is None:
            self._init_state(params.shape)
        m, v = self._m, self._v
        s1, s2 = self._scratch
        if self.weight_decay:
            g = np.add(g, np.multiply(params, self.weight_decay, out=s1),
                       out=s1)
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=s2)
        v *= self.beta2
        s2 = np.square(g, out=s2)
        s2 *= 1 - self.beta2
        v += s2
        # g (possibly s1) is dead from here on
        mhat = np.divide(m, 1 - self.beta1 ** self.t, out=s1)
        vhat = np.divide(v, 1 - self.beta2 ** self.t, out=s2)
        mhat *= lr
        denom = np.sqrt(vhat, out=vhat)
        denom += self.eps
        mhat /= denom
        params -= mhat
