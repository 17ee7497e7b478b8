"""Normalization layers: BatchNorm2d (VGG) and LayerNorm (BERT)."""

from __future__ import annotations

import numpy as np

from .module import Module


class BatchNorm2d(Module):
    """Per-channel batch normalization over (B, H, W) with running stats."""

    def __init__(self, num_features: int, *, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.c = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = self.add_param(np.ones(num_features), "gamma")
        self.beta = self.add_param(np.zeros(num_features), "beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
        self._cache = (xhat, inv, x.shape) if training else None
        return (self.gamma.data[None, :, None, None] * xhat
                + self.beta.data[None, :, None, None])

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv, shape = self._cache
        B, C, H, W = shape
        m = B * H * W
        self.gamma.grad += (dy * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma.data[None, :, None, None]
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (dxhat - s1 / m - xhat * s2 / m) * inv[None, :, None, None]
        return dx.astype(dy.dtype, copy=False)


class LayerNorm(Module):
    """Normalization over the last dimension."""

    def __init__(self, dim: int, *, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = self.add_param(np.ones(dim), "gamma")
        self.beta = self.add_param(np.zeros(dim), "beta")
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # x.mean and x.var as numpy computes them, the mean taken once
        d = np.intp(x.shape[-1])
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        np.true_divide(mean, d, out=mean, casting="unsafe")
        xc = x - mean
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
        np.true_divide(var, d, out=var, casting="unsafe")
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv
        self._cache = (xhat, inv)
        return self.gamma.data * xhat + self.beta.data

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        d, ra = self.dim, self._rank_axes
        rows = dy.shape[:ra] + (-1, d)      # a rank axis stays apart
        self.gamma.grad += (dy * xhat).reshape(rows).sum(axis=ra)
        self.beta.grad += dy.reshape(rows).sum(axis=ra)
        dxhat = dy * self.gamma.data
        s1 = dxhat.sum(axis=-1, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
        return ((dxhat - s1 / d - xhat * s2 / d) * inv).astype(
            dy.dtype, copy=False)
