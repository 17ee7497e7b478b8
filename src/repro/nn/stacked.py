"""Rank-stacked execution of identical SPMD models.

Data-parallel ranks run the *same* model graph on different data shards,
so the per-rank fwd/bwd calls are P independent invocations of identical
numpy kernels.  :class:`StackedModel` binds P :class:`FlatModel` replicas
onto two shared ``(P, n)`` matrices (parameters and gradients) and runs
the whole world's fwd/bwd as single numpy calls with a rank-major leading
axis.  Every kernel used here is either elementwise, row-independent, or
a gufunc that loops the identical 2-D kernel per rank slice, so each
rank's slice of the result is bit-identical to what that rank's own
``loss_and_grad`` would have produced.

Weights: the SPMD invariant (identical init, identical allreduced
updates) makes every row of the parameter matrix bit-equal, so the
stacked forward reads rank 0's weight views.  The constructor verifies
the invariant once at bind time and refuses to bind diverged replicas;
callers then run per-rank.  A fault plan does not break the invariant
(stragglers and slow links scale simulated time, not the math), and
neither does an elastic shrink: the survivors hold identical parameters
and are simply re-stacked as a ``(P-1, n)`` world — only inputs that do
not stack (uneven shards once the global batch no longer divides) keep
the per-rank kernels, on the shared storage.

The ``(P, n)`` matrices live on their own memory mappings
(:func:`mapped_zeros`), not in the malloc arena of whichever rank thread
happened to build the world.
"""

from __future__ import annotations

import math
import mmap
from typing import List, Sequence

import numpy as np

from .losses import SoftmaxCrossEntropy
from .module import DTYPE, FlatModel, Module, Sequential


def mapped_zeros(shape, dtype) -> np.ndarray:
    """A zero-filled array on its own anonymous memory mapping.

    For world-sized ``(P, ...)`` matrices: they are allocated by whichever
    rank thread reaches a rendezvous last and dropped by another when the
    section closes.  Taken from malloc, each would land in a different
    per-thread arena, and an arena keeps its high-water mark — a process
    that runs section after section ends up holding one world per arena.
    A private mapping goes back to the OS the moment the array is dropped,
    whichever thread made it.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(nbytes, 1), access=mmap.ACCESS_COPY)
    return np.ndarray(shape, dtype=dtype, buffer=buf)


def _leaf_supported(layer: Module) -> bool:
    if layer._modules:
        return False
    return (hasattr(layer, "forward_stacked")
            or getattr(layer, "stacked_elementwise", False))


def supports_stacking(model) -> bool:
    """True when ``model`` is a FlatModel whose every layer (and loss) has
    a rank-stacked execution path."""
    if not isinstance(model, FlatModel):
        return False
    if type(model.loss) is not SoftmaxCrossEntropy:
        return False
    mod = model.module
    layers = mod.layers if isinstance(mod, Sequential) else [mod]
    return all(_leaf_supported(layer) for layer in layers)


class StackedModel:
    """P FlatModel replicas re-homed onto shared (P, n) matrices."""

    def __init__(self, models: Sequence[FlatModel]):
        self.models = list(models)
        m0 = self.models[0]
        nranks = len(self.models)
        n = m0.nparams
        self.pmat = mapped_zeros((nranks, n), DTYPE)
        self.gmat = mapped_zeros((nranks, n), DTYPE)
        for r, m in enumerate(self.models):
            if m.nparams != n:
                raise ValueError("stacked models must have equal nparams")
            self.pmat[r, :] = m.params_flat
        # Check the SPMD invariant *before* rebinding so a rejected bind
        # leaves the models untouched.
        if not all(np.array_equal(self.pmat[r], self.pmat[0])
                   for r in range(1, nranks)):
            raise ValueError("SPMD invariant violated: rank parameter "
                             "vectors differ at bind time")
        for r, m in enumerate(self.models):
            m.rebind_storage(self.pmat[r], self.gmat[r])
        mod = m0.module
        self.layers = mod.layers if isinstance(mod, Sequential) else [mod]
        self.loss = m0.loss
        # per-layer stacked gradient views: Gmat[:, seg] reshaped to
        # (P,) + param.shape — valid strided views because each rank's
        # segment is row-contiguous.
        self.layer_grads: List[List[np.ndarray]] = []
        ofs = 0
        for layer in self.layers:
            views = []
            for p in layer._params:
                sl = slice(ofs, ofs + p.size)
                views.append(self.gmat[:, sl].reshape((nranks,)
                                                      + p.data.shape))
                ofs += p.size
            self.layer_grads.append(views)
        if ofs != n:
            raise ValueError("stacked layer segments do not cover the "
                             "flat vector (nested modules?)")

    @property
    def nranks(self) -> int:
        return len(self.models)

    def loss_and_grad(self, xs: np.ndarray, ys: np.ndarray
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """World fwd/bwd over rank-stacked inputs ``(P, batch, ...)``.

        Returns ``(losses, gmat)`` where ``losses`` is float64 ``(P,)``
        and ``gmat`` the shared gradient matrix; row ``r`` of both is
        bit-identical to rank ``r``'s ``FlatModel.loss_and_grad``.
        """
        self.gmat[...] = 0.0
        x = xs
        for layer in self.layers:
            if getattr(layer, "stacked_elementwise", False):
                x = layer.forward(x, True)
            else:
                x = layer.forward_stacked(x)
        losses, dy = self.loss.forward_backward_stacked(x, ys)
        for layer, grads in zip(reversed(self.layers),
                                reversed(self.layer_grads)):
            if getattr(layer, "stacked_elementwise", False):
                dy = layer.backward(dy)
            else:
                dy = layer.backward_stacked(dy, grads)
        return losses, self.gmat
