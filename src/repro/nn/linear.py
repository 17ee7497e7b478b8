"""Fully-connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .module import Module, kaiming_normal


class Linear(Module):
    """``y = x @ W^T + b`` over the last axis (supports (B, D) and
    (B, T, D) inputs, behind any leading rank axis: a gufunc matmul runs
    the identical 2-D GEMM per rank slice)."""

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.W = self.add_param(
            kaiming_normal(rng, (out_features, in_features), in_features), "W")
        self.b = self.add_param(np.zeros(out_features), "b") if bias else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._x = x
        y = x @ self.W.data.T
        if self.b is not None:
            y += self.b.data
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        ra = self._rank_axes
        x2 = x.reshape(x.shape[:ra] + (-1, self.in_features))
        dy2 = dy.reshape(dy.shape[:ra] + (-1, self.out_features))
        gW = self.W.grad
        if not ra:
            gW += dy2.T @ x2
        else:
            # Per-rank batch of one: the weight gradient is a pure outer
            # product — a broadcast multiply computes the identical single
            # product per element several times faster than the GEMM
            # (matmul's pathological K=1 case).
            outer = dy2.shape[1] == 1
            for r in range(len(gW)):
                # One rank slice at a time: the per-slice add hits the
                # contiguous fast path the whole-array strided += misses
                # (the rank axis strides across the shared gradient
                # matrix), and the product never exists as a world-sized
                # (P, out, in) temporary.
                gW[r] += (dy2[r].reshape(self.out_features, 1) * x2[r]
                          if outer else dy2[r].T @ x2[r])
        if self.b is not None:
            self.b.grad += dy2.sum(axis=ra)
        return (dy2 @ self.W.data).reshape(x.shape)
