"""Linear value quantization for sparse gradient payloads.

Section 2 of the paper notes that gradient quantization is *orthogonal*
to sparsification and that SparCML studies the combination.  This module
provides that extension: the values of a COO payload are compressed to
``bits`` (4/8/16) with linear min-max quantization, optionally with
stochastic rounding (unbiased, the variant used by QSGD-style schemes),
shrinking the value half of the ``2k`` wire words to ``k * bits / 32``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SUPPORTED_BITS = (4, 8, 16)


@dataclass(frozen=True)
class QuantArray:
    """Quantized values: packed codes plus the dequantization range."""

    codes: np.ndarray          # uint8/uint16 (4-bit packed two per byte)
    lo: float
    hi: float
    bits: int
    count: int

    def comm_nwords(self) -> int:
        """Wire size in 4-byte words: packed codes + the two range floats."""
        return int(np.ceil(self.codes.nbytes / 4)) + 2


class LinearQuantizer:
    """Min-max linear quantizer with deterministic or stochastic rounding.

    Deterministic rounding bounds the per-value error by half a step;
    stochastic rounding makes the dequantized value an unbiased estimate
    (important for error-feedback training).
    """

    def __init__(self, bits: int, *, stochastic: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}")
        self.bits = bits
        self.stochastic = stochastic
        self.rng = rng or np.random.default_rng(0)
        self.levels = (1 << bits) - 1

    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray) -> QuantArray:
        v = np.asarray(values, dtype=np.float32)
        if v.size == 0:
            return QuantArray(np.empty(0, np.uint8), 0.0, 0.0,
                              self.bits, 0)
        lo = float(v.min())
        hi = float(v.max())
        if hi == lo:
            codes = np.zeros(v.size, dtype=np.uint8)
            return QuantArray(self._pack(codes), lo, hi, self.bits, v.size)
        if not self._float32_safe(lo, hi):
            v = v.astype(np.float64)
        scaled = (v - lo) * (self.levels / (hi - lo))
        if self.stochastic:
            floor = np.floor(scaled)
            frac = scaled - floor
            up = self.rng.random(v.size) < frac
            q = floor + up
        else:
            q = np.rint(scaled)
        q = np.clip(q, 0, self.levels)
        dtype = np.uint16 if self.bits == 16 else np.uint8
        return QuantArray(self._pack(q.astype(dtype)), lo, hi,
                          self.bits, v.size)

    def decode(self, qa: QuantArray) -> np.ndarray:
        if qa.count == 0:
            return np.empty(0, dtype=np.float32)
        codes = self._unpack(qa)
        if qa.hi == qa.lo:
            return np.full(qa.count, qa.lo, dtype=np.float32)
        step = (qa.hi - qa.lo) / self.levels
        dtype = np.float32 if self._float32_safe(qa.lo, qa.hi) else np.float64
        return (qa.lo + codes.astype(dtype) * step).astype(np.float32)

    # ------------------------------------------------------------------
    def _float32_safe(self, lo: float, hi: float) -> bool:
        """Whether ``v - lo`` and the scale ``levels / (hi - lo)`` are
        finite in float32 (where the codec computes) for every value in
        ``[lo, hi]``.  A range wider than float32's (``hi - lo``
        overflows) or a subnormal one (the scale overflows) computes in
        float64 instead; every other range keeps its float32 codes."""
        with np.errstate(over="ignore"):
            span = np.float32(hi) - np.float32(lo)
            scale = np.float32(self.levels / (hi - lo))
        return bool(np.isfinite(span) and np.isfinite(scale))

    def step_size(self, lo: float, hi: float) -> float:
        return (hi - lo) / self.levels if hi > lo else 0.0

    def _pack(self, codes: np.ndarray) -> np.ndarray:
        if self.bits != 4:
            return codes
        n = codes.size
        if n % 2:
            codes = np.concatenate([codes, np.zeros(1, codes.dtype)])
        return (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8)

    def _unpack(self, qa: QuantArray) -> np.ndarray:
        if self.bits != 4:
            return qa.codes
        low = qa.codes & 0x0F
        high = qa.codes >> 4
        out = np.empty(qa.codes.size * 2, dtype=np.uint8)
        out[0::2] = low
        out[1::2] = high
        return out[: qa.count]
