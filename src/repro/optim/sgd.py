"""Dense reference optimizers: SGD (with momentum) working on flat
parameter vectors in place."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lr_schedules import LRSchedule, as_schedule


class SGD:
    """Classic (momentum) SGD: ``w -= lr * (g + mu * v)``.

    Operates on flat float32 vectors; the distributed drivers own the
    division by P, so ``grad`` here is already the average (or the local
    gradient in single-worker use).
    """

    def __init__(self, lr=0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        self.lr: LRSchedule = as_schedule(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[np.ndarray] = None
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        lr = self.lr(self.t)
        g = grad
        if self.weight_decay:
            g = g + self.weight_decay * params
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity *= self.momentum
            self._velocity += g
            g = self._velocity
        params -= (lr * g).astype(params.dtype, copy=False)
