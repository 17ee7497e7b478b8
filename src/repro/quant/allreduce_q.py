"""Quantized variants of the sparse allreduce schemes.

* :class:`QuantizedTopkAAllreduce` ("topka_q") — SparCML's combination:
  local top-k, values quantized to ``bits``, allgatherv, dequantize + sum.
* :class:`QuantizedOkTopkAllreduce` ("oktopk_q") — Ok-Topk with quantized
  *phase-2* payloads (the balance-and-allgatherv values).  Phase 1 stays
  full precision: its partial sums feed the global threshold, and
  re-quantizing at every hop would compound errors; phase 2 ships the
  final values to everyone, which is where most of the volume is safe to
  compress.  This is the paper's "orthogonal technique" footnote turned
  into a working extension.
"""

from __future__ import annotations

import numpy as np

from ..allreduce.base import PHASE_COMM, PHASE_SPARSIFY, AllreduceResult, \
    GradientAllreduce
from ..allreduce.oktopk import OkTopkAllreduce
from ..comm import SimComm, collectives as coll
from ..sparse import combine_sum, exact_topk
from .codec import LinearQuantizer
from .sparse_q import dequantize_coo, quantize_coo


class QuantizedTopkAAllreduce(GradientAllreduce):
    """TopkA with quantized values (sparsification + quantization)."""

    name = "topka_q"

    def __init__(self, *, bits: int = 8, stochastic: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.quantizer = LinearQuantizer(bits, stochastic=stochastic)

    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        k = self.resolve_k(acc.size)
        with comm.phase(PHASE_SPARSIFY):
            local = exact_topk(acc, k)
            comm.compute_topk(acc.size, k)
            payload = quantize_coo(local, self.quantizer)
            comm.compute_scan(local.nnz)
        with comm.phase(PHASE_COMM):
            gathered = coll.allgatherv_coo(comm, payload)
            vecs = [dequantize_coo(p, self.quantizer) for p in gathered]
            total = combine_sum(vecs)
            comm.compute_words(sum(v.nnz for v in vecs))
        return AllreduceResult(
            update=total,
            contributed_indices=local.indices,
            info={"k": k, "selected": local.nnz, "output_nnz": total.nnz,
                  "bits": self.quantizer.bits,
                  "payload_words": payload.comm_nwords()},
        )


class QuantizedOkTopkAllreduce(OkTopkAllreduce):
    """Ok-Topk shipping quantized global top-k values in phase 2: the
    quantizer is the scheme's ``package_codec``, so the per-rank driver
    and the world executor both run the quantized Algorithm 1 (encode and
    one more scan before the allgatherv, decode after, packed-code word
    counts on the wire)."""

    name = "oktopk_q"

    def __init__(self, *, bits: int = 8, stochastic: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.quantizer = LinearQuantizer(bits, stochastic=stochastic)
        self.package_codec = self.quantizer
