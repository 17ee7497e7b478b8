"""BERT for masked-LM pre-training (Table 2 row 3: 133,547,324 parameters).

The paper's count is exactly BERT-base (vocab 30522, hidden 768, 12 layers,
12 heads, intermediate 3072, 512 positions, 2 token types) **plus** the
pooler, the NSP classifier and an *untied* MLM head:

    embeddings           23,837,184
    12 encoder layers    85,054,464
    pooler                  590,592
    NSP head                  1,538
    MLM head             24,063,546
    total               133,547,324   (= paper, exactly)

:func:`bert_base_param_count` reproduces that number analytically; the
runnable :class:`MiniBertLM` uses the same architecture at reduced scale
(pure-numpy training) with an MLM head only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..activation import GELU
from ..attention import TransformerEncoderLayer
from ..embedding import Embedding
from ..linear import Linear
from ..losses import SoftmaxCrossEntropy
from ..module import FlatModel, Module
from ..norm import LayerNorm

PAPER_BERT_PARAMS = 133_547_324


@dataclass(frozen=True)
class BertConfig:
    vocab: int = 30522
    hidden: int = 768
    layers: int = 12
    heads: int = 12
    intermediate: int = 3072
    max_seq: int = 512
    type_vocab: int = 2

    @classmethod
    def mini(cls) -> "BertConfig":
        """A numpy-trainable configuration for the proxy experiments."""
        return cls(vocab=1000, hidden=64, layers=2, heads=4,
                   intermediate=128, max_seq=64, type_vocab=2)


def bert_base_param_count(cfg: BertConfig = BertConfig()) -> int:
    """Analytic full-model count (embeddings + encoder + pooler + NSP +
    untied MLM head) — equals the paper's 133,547,324 at base config."""
    d, v = cfg.hidden, cfg.vocab
    emb = v * d + cfg.max_seq * d + cfg.type_vocab * d + 2 * d  # + LayerNorm
    layer = (
        3 * (d * d + d)            # Q, K, V
        + d * d + d                # attention output
        + 2 * (2 * d)              # two LayerNorms
        + d * cfg.intermediate + cfg.intermediate
        + cfg.intermediate * d + d
    )
    pooler = d * d + d
    nsp = d * 2 + 2
    mlm = (d * d + d) + 2 * d + (d * v + v)   # dense + LN + untied decoder
    return emb + cfg.layers * layer + pooler + nsp + mlm


class MiniBertLM(Module):
    """Runnable BERT-style masked language model.

    Token + position embeddings, ``layers`` pre-LN transformer blocks, and
    an MLM head (dense + GELU + LN + untied decoder).  Input: int token ids
    (B, T); output: logits (B, T, vocab).
    """

    def __init__(self, cfg: BertConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        d = cfg.hidden
        self.tok = self.add_module(Embedding(cfg.vocab, d, rng=rng))
        self.pos = self.add_module(Embedding(cfg.max_seq, d, rng=rng))
        self.emb_ln = self.add_module(LayerNorm(d))
        self.blocks = [
            self.add_module(TransformerEncoderLayer(
                d, cfg.heads, cfg.intermediate, rng=rng))
            for _ in range(cfg.layers)
        ]
        self.head_dense = self.add_module(Linear(d, d, rng=rng))
        self.head_act = self.add_module(GELU())
        self.head_ln = self.add_module(LayerNorm(d))
        self.decoder = self.add_module(Linear(d, cfg.vocab, rng=rng))
        self._T = None

    def forward(self, ids: np.ndarray, training: bool = True) -> np.ndarray:
        T = ids.shape[-1]
        if T > self.cfg.max_seq:
            raise ValueError(f"sequence length {T} > max_seq {self.cfg.max_seq}")
        self._T = T
        positions = np.broadcast_to(np.arange(T, dtype=np.int64), ids.shape)
        x = self.tok.forward(ids, training) + self.pos.forward(
            positions.copy(), training)
        x = self.emb_ln.forward(x, training)
        for blk in self.blocks:
            x = blk.forward(x, training)
        x = self.head_dense.forward(x, training)
        x = self.head_act.forward(x, training)
        x = self.head_ln.forward(x, training)
        return self.decoder.forward(x, training)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = self.decoder.backward(dy)
        dy = self.head_ln.backward(dy)
        dy = self.head_act.backward(dy)
        dy = self.head_dense.backward(dy)
        for blk in reversed(self.blocks):
            dy = blk.backward(dy)
        dy = self.emb_ln.backward(dy)
        self.pos.backward(dy)
        self.tok.backward(dy)
        return dy


def minibert_param_count(cfg: BertConfig) -> int:
    """Analytic count for the runnable :class:`MiniBertLM` architecture."""
    d, v = cfg.hidden, cfg.vocab
    emb = v * d + cfg.max_seq * d + 2 * d
    layer = (
        2 * (2 * d)                        # ln1, ln2
        + (d * 3 * d + 3 * d)              # fused qkv
        + d * d + d                        # attention projection
        + d * cfg.intermediate + cfg.intermediate
        + cfg.intermediate * d + d
    )
    head = (d * d + d) + 2 * d + (d * v + v)
    return emb + cfg.layers * layer + head


def bert_flops(cfg: BertConfig, seq_len: int) -> float:
    """Forward FLOPs per sequence (matmuls only)."""
    d, t = cfg.hidden, seq_len
    per_layer = (
        2.0 * t * d * 3 * d          # qkv
        + 2.0 * t * t * d            # scores
        + 2.0 * t * t * d            # context
        + 2.0 * t * d * d            # proj
        + 4.0 * t * d * cfg.intermediate
    )
    head = 2.0 * t * d * d + 2.0 * t * d * cfg.vocab
    return cfg.layers * per_layer + head


def make_bert_model(cfg: BertConfig | None = None, seq_len: int = 32,
                    seed: int = 0) -> FlatModel:
    cfg = cfg or BertConfig.mini()
    module = MiniBertLM(cfg, seed=seed)
    return FlatModel(module, SoftmaxCrossEntropy(ignore_index=-100),
                     flops_per_sample=bert_flops(cfg, seq_len))
