"""Rank-stacked execution of identical SPMD models.

Data-parallel ranks run the *same* model graph on different data shards,
so the per-rank fwd/bwd calls are P independent invocations of identical
numpy kernels.  :class:`StackedModel` binds P :class:`FlatModel` replicas
onto one shared parameter vector and one ``(P, n)`` gradient matrix and
runs the whole world's fwd/bwd as one call of a *world module*: a copy of
rank 0's module whose inputs carry a leading rank axis.

There is one body per layer.  The world copy is marked ``_rank_axes = 1``
(:class:`~repro.nn.module.Module` defaults to 0) and its parameter
gradients are ``(P,) + shape`` views of the gradient matrix, so a layer
that reduces over batch axes (``Linear``, ``LayerNorm``, ``Embedding``)
keeps the rank axis apart; everything else is elementwise,
row-independent, or a gufunc that loops the identical 2-D kernel per rank
slice.  Each rank's slice of the result is therefore bit-identical to
what that rank's own ``loss_and_grad`` — the same code, without the rank
axis — would have produced.  :func:`supports_stacking` names the layer
types written that way; convolution, pooling, batch norm and the LSTM
stay per rank.

Weights: the SPMD invariant (identical init, identical allreduced
updates) makes every rank's parameters bit-equal, so every rank model's
``params_flat`` is one shared vector (``params``), which the world module
reads too.  The constructor verifies the invariant once at bind time and
refuses to bind diverged replicas; callers then run per-rank.  A fault
plan does not break the invariant (stragglers and slow links scale
simulated time, not the math), and neither does an elastic shrink: the
survivors are simply re-stacked as a (P-1)-rank world.

Ragged data does not make a world less SPMD.  When the shards stop
dividing the global batch (16 over 15 ranks gives shards of 1 and 2),
the world module runs once per contiguous run of ranks ``[lo, hi)`` with
equal input shapes: its gradient views are re-pointed at the rows
``gmat[lo:hi]``, and every layer and the loss take the leading size from
the data.

The shared vector and the gradient matrix live on their own memory
mappings (:func:`~repro.comm.fused._mapped_zeros`), not in the malloc
arena of whichever rank thread happened to build the world.
"""

from __future__ import annotations

import copy
from typing import Iterator, Sequence

import numpy as np

from ..comm.fused import _mapped_zeros
from .activation import GELU, ReLU, Sigmoid, Tanh
from .attention import MultiHeadSelfAttention, TransformerEncoderLayer
from .dropout import Dropout
from .embedding import Embedding
from .linear import Linear
from .losses import SoftmaxCrossEntropy
from .models.bert import MiniBertLM
from .module import DTYPE, FlatModel, Flatten, Module, Sequential
from .norm import LayerNorm

#: module types whose forward/backward accept a leading rank axis
_RANK_AXIS_MODULES = frozenset({
    Sequential, Flatten, Linear, ReLU, GELU, Tanh, Sigmoid, Dropout,
    LayerNorm, Embedding, MultiHeadSelfAttention, TransformerEncoderLayer,
    MiniBertLM})


def _modules(mod: Module) -> Iterator[Module]:
    yield mod
    for m in mod._modules:
        yield from _modules(m)


def supports_stacking(model) -> bool:
    """True when ``model`` is a FlatModel with a softmax cross-entropy loss
    whose every module accepts a rank axis (dropout only when inactive:
    its mask would be drawn for the world, not per rank)."""
    if not isinstance(model, FlatModel):
        return False
    if type(model.loss) is not SoftmaxCrossEntropy:
        return False
    return all(type(m) in _RANK_AXIS_MODULES
               and not (type(m) is Dropout and m.p != 0.0)
               for m in _modules(model.module))


class StackedModel:
    """P FlatModel replicas bound to one shared parameter vector and a
    shared (P, n) gradient matrix, run through one world module."""

    def __init__(self, models: Sequence[FlatModel]):
        self.models = list(models)
        m0 = self.models[0]
        nranks = len(self.models)
        n = m0.nparams
        # Check the SPMD invariant *before* rebinding so a rejected bind
        # leaves the models untouched.
        for m in self.models[1:]:
            if m.nparams != n:
                raise ValueError("stacked models must have equal nparams")
            if not np.array_equal(m.params_flat, m0.params_flat):
                raise ValueError("SPMD invariant violated: rank parameter "
                                 "vectors differ at bind time")
        self.params = _mapped_zeros((n,), DTYPE)
        self.params[:] = m0.params_flat
        self.gmat = _mapped_zeros((nranks, n), DTYPE)
        for r, m in enumerate(self.models):
            m.rebind_storage(self.params, self.gmat[r])
        params = m0.module.parameters()
        # The world module: parameter storage is re-pointed below, so the
        # copy skips it (the memo maps each array to a placeholder).
        self.world = copy.deepcopy(
            m0.module, {id(a): None for p in params for a in (p.data, p.grad)})
        self._segments = []
        ofs = 0
        for p, wp in zip(params, self.world.parameters()):
            wp.data = self.params[ofs:ofs + p.size].reshape(p.data.shape)
            self._segments.append((wp, slice(ofs, ofs + p.size)))
            ofs += p.size
        self._point_grads(0, nranks)
        for m in _modules(self.world):
            m._rank_axes = 1
        self.loss = m0.loss

    @property
    def nranks(self) -> int:
        return len(self.models)

    def _point_grads(self, lo: int, hi: int) -> None:
        """Point the world module's gradients at the rows ``[lo, hi)``."""
        for wp, sl in self._segments:
            # a valid strided view: each rank's segment is row-contiguous
            wp.grad = self.gmat[lo:hi, sl].reshape((hi - lo,) + wp.data.shape)
        self._run = (lo, hi)

    def loss_and_grad(self, xs: np.ndarray, ys: np.ndarray, lo: int = 0
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """World fwd/bwd over the run of ranks ``[lo, lo + R)``, whose
        inputs are rank-stacked ``(R, batch, ...)``.

        Returns ``(losses, grads)`` where ``losses`` is float64 ``(R,)``
        and ``grads`` the run's rows of the shared gradient matrix; row
        ``i`` of both is bit-identical to rank ``lo + i``'s
        ``FlatModel.loss_and_grad``.
        """
        hi = lo + len(xs)
        if self._run != (lo, hi):
            self._point_grads(lo, hi)
        grads = self.gmat[lo:hi]
        grads[...] = 0.0
        out = self.world.forward(xs, True)
        losses, dy = self.loss.forward_backward_stacked(out, ys)
        self.world.backward(dy)
        return losses, grads
