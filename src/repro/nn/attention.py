"""Multi-head self-attention and the pre-LN transformer encoder block."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activation import GELU
from .dropout import Dropout
from .linear import Linear
from .module import Module
from .norm import LayerNorm


def _softmax(x: np.ndarray) -> np.ndarray:
    # x.max(axis=-1) as a fold of halves (overlapping at an odd width): its
    # values, NaN included, at a fraction of a reduction's cost on short
    # rows; a sign-of-zero difference cannot reach exp(x - m)
    m = x
    while m.shape[-1] > 1:
        h = (m.shape[-1] + 1) // 2
        m = np.maximum(m[..., :h], m[..., -h:])
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


class MultiHeadSelfAttention(Module):
    """(B, T, D) -> (B, T, D) with ``heads`` parallel attention heads."""

    def __init__(self, dim: int, heads: int, *,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng(0)
        self.dim, self.heads = dim, heads
        self.dh = dim // heads
        self.qkv = self.add_module(Linear(dim, 3 * dim, rng=rng))
        self.proj = self.add_module(Linear(dim, dim, rng=rng))
        self._cache = None

    # Shapes below are written for (B, T, D); any leading axes (a rank
    # axis before B) ride along in ``lead``.
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        *lead, T, D = x.shape
        h, dh = self.heads, self.dh
        qkv = self.qkv.forward(x, training)           # (B, T, 3D)
        qkv = qkv.reshape(*lead, T, 3, h, dh)
        q, k, v = (qkv[..., i, :, :].swapaxes(-3, -2)  # (B, h, T, dh)
                   for i in range(3))
        # np.float32: a float64 numpy scalar would promote the scores (NEP 50)
        scores = (q @ k.swapaxes(-1, -2)) / np.float32(np.sqrt(dh))  # (B, h, T, T)
        attn = _softmax(scores)
        ctx = attn @ v                                 # (B, h, T, dh)
        out = ctx.swapaxes(-3, -2).reshape(*lead, T, D)
        self._cache = (q, k, v, attn)
        return self.proj.forward(out, training)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        q, k, v, attn = self._cache
        *lead, h, T, dh = q.shape
        D = self.dim
        dctx_flat = self.proj.backward(dy)             # (B, T, D)
        dctx = dctx_flat.reshape(*lead, T, h, dh).swapaxes(-3, -2)
        dattn = dctx @ v.swapaxes(-1, -2)              # (B, h, T, T)
        dv = attn.swapaxes(-1, -2) @ dctx
        # softmax backward: ds = attn * (dattn - sum(dattn*attn))
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.float32(np.sqrt(dh))
        dq = dscores @ k
        dk = dscores.swapaxes(-1, -2) @ q
        dqkv = np.stack([d.swapaxes(-3, -2) for d in (dq, dk, dv)],
                        axis=-3)                       # (B, T, 3, h, dh)
        return self.qkv.backward(dqkv.reshape(*lead, T, 3 * D))


class TransformerEncoderLayer(Module):
    """Pre-LN block: ``x + MHSA(LN(x))`` then ``x + MLP(LN(x))``."""

    def __init__(self, dim: int, heads: int, mlp_dim: int, *,
                 dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.ln1 = self.add_module(LayerNorm(dim))
        self.attn = self.add_module(MultiHeadSelfAttention(dim, heads, rng=rng))
        self.ln2 = self.add_module(LayerNorm(dim))
        self.fc1 = self.add_module(Linear(dim, mlp_dim, rng=rng))
        self.act = self.add_module(GELU())
        self.fc2 = self.add_module(Linear(mlp_dim, dim, rng=rng))
        self.drop = self.add_module(Dropout(dropout, rng=rng))

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        a = self.attn.forward(self.ln1.forward(x, training), training)
        x = x + a
        m = self.fc1.forward(self.ln2.forward(x, training), training)
        m = self.act.forward(m, training)
        m = self.drop.forward(m, training)
        m = self.fc2.forward(m, training)
        return x + m

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dm = self.fc2.backward(dy)
        dm = self.drop.backward(dm)
        dm = self.act.backward(dm)
        dm = self.fc1.backward(dm)
        dx = dy + self.ln2.backward(dm)
        da = self.attn.backward(dx)
        return dx + self.ln1.backward(da)
