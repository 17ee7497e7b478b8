"""Token / positional embeddings."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .module import Module


class Embedding(Module):
    """Lookup table: int ids (B, T) -> vectors (B, T, D)."""

    def __init__(self, vocab: int, dim: int, *,
                 rng: Optional[np.random.Generator] = None,
                 init_std: float = 0.02):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.vocab, self.dim = vocab, dim
        self.W = self.add_param(
            rng.normal(0, init_std, size=(vocab, dim)).astype(np.float32),
            "W")
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray, training: bool = True) -> np.ndarray:
        if ids.dtype.kind not in "iu":
            raise TypeError("Embedding expects integer ids")
        self._ids = ids
        return self.W.data[ids]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        ids = self._ids
        rows = ids.reshape(-1)
        if self._rank_axes:     # scatter into (rank, id)
            ranks = np.arange(ids.shape[0]).repeat(ids[0].size)
            rows = (ranks, rows)
        np.add.at(self.W.grad, rows, dy.reshape(-1, self.dim))
        return np.zeros(ids.shape + (0,), dtype=dy.dtype)  # no dx
