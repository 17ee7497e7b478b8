"""Elementwise activations with manual backprop."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .module import Module


class ReLU(Module):
    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(x.dtype, copy=False)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.where(self._mask, dy, 0.0).astype(dy.dtype, copy=False)


class GELU(Module):
    """tanh approximation of GELU (as used in BERT)."""

    _C = np.float32(np.sqrt(2.0 / np.pi))

    def __init__(self):
        super().__init__()
        self._x: Optional[np.ndarray] = None
        self._t: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._x = x
        # x * x * x, not x ** 3: float32 ``pow`` is slow for negative bases
        inner = self._C * (x + 0.044715 * (x * x * x))
        self._t = np.tanh(inner)
        return 0.5 * x * (1.0 + self._t)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, t = self._x, self._t
        dinner = self._C * (1.0 + 3 * 0.044715 * x ** 2)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return (dy * dgelu).astype(dy.dtype, copy=False)


class Tanh(Module):
    def __init__(self):
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * (1.0 - self._y ** 2)


class Sigmoid(Module):
    def __init__(self):
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._y * (1.0 - self._y)
