"""Minimal neural-network module system with manual backpropagation.

Design rules (keep the math simple and the memory layout flat):

* every :class:`Module` implements ``forward(x, training)`` and
  ``backward(dy)``; ``backward`` *accumulates* into ``Parameter.grad``;
* parameters are float32; :class:`FlatModel` re-homes every parameter (and
  gradient) into one contiguous flat buffer so the distributed optimizers
  can treat the model as a single vector — mutating the flat vector mutates
  the layers' views and vice versa.

Dtype contract: parameters, activations and gradients are float32 end to
end (``tests/test_nn_dtype.py``).  Only the loss's softmax runs in float64,
inside the loss, by design; token ids are integers.  A float64 input (the
gradient checks) stays float64.  Under NumPy 2's promotion rules (NEP 50) a
numpy scalar such as ``np.sqrt(d)`` is float64 and promotes a float32 array
it touches, so layer math uses Python floats or ``np.float32`` constants.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

DTYPE = np.float32


class Parameter:
    """A learnable tensor with its gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class; subclasses register params/submodules as attributes.

    ``_rank_axes`` is 1 on a world copy made by
    :class:`repro.nn.stacked.StackedModel`: its inputs carry a leading
    rank axis and its gradients are ``(P,) + shape`` views, so a layer
    that reduces over batch axes keeps that one apart."""

    _rank_axes = 0

    def __init__(self):
        self._params: List[Parameter] = []
        self._modules: List["Module"] = []

    # registration ------------------------------------------------------
    def add_param(self, data: np.ndarray, name: str = "") -> Parameter:
        p = Parameter(data, name=f"{type(self).__name__}.{name}")
        self._params.append(p)
        return p

    def add_module(self, m: "Module") -> "Module":
        self._modules.append(m)
        return m

    def parameters(self) -> List[Parameter]:
        out = list(self._params)
        for m in self._modules:
            out.extend(m.parameters())
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # interface ----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training)


class Sequential(Module):
    """Chain of modules; backward runs in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        for layer in layers:
            self.add_module(layer)

    @property
    def layers(self) -> List[Module]:
        return self._modules

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self._modules:
            x = layer.forward(x, training)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self._modules):
            dy = layer.backward(dy)
        return dy


class Flatten(Module):
    """(B, ...) -> (B, prod(...)), behind any leading rank axis."""

    def __init__(self):
        super().__init__()
        self._shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[:self._rank_axes + 1] + (-1,))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------
def kaiming_normal(rng: np.random.Generator, shape: Sequence[int],
                   fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / max(1, fan_in))
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def xavier_uniform(rng: np.random.Generator, shape: Sequence[int],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / max(1, fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


# ---------------------------------------------------------------------------
# Flat view for distributed optimizers
# ---------------------------------------------------------------------------
class FlatModel:
    """Adapter: a module + loss as one flat parameter vector.

    Satisfies :class:`repro.train.TrainableModel`.  ``params_flat`` is the
    live storage of all layer weights (the optimizer mutates it in place).
    ``layout`` names each parameter's segment of the flat vector so the
    session-based allreduce (:meth:`repro.allreduce.GradientAllreduce.
    begin`) can consume per-layer gradients in backward order.
    """

    def __init__(self, module: Module, loss: "Loss",
                 flops_per_sample: float = 0.0):
        self.module = module
        self.loss = loss
        self._flops = float(flops_per_sample)
        params = module.parameters()
        n = sum(p.size for p in params)
        self._flat = np.empty(n, dtype=DTYPE)
        self._flat_grad = np.zeros(n, dtype=DTYPE)
        self._segment_names: List[str] = []
        self._segment_sizes: List[int] = []
        self._layout = None
        ofs = 0
        for i, p in enumerate(params):
            sl = slice(ofs, ofs + p.size)
            self._flat[sl] = p.data.ravel()
            p.data = self._flat[sl].reshape(p.data.shape)
            p.grad = self._flat_grad[sl].reshape(p.grad.shape)
            self._segment_names.append(p.name or f"param{i}")
            self._segment_sizes.append(p.size)
            ofs += p.size

    def rebind_storage(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Re-home the parameter/gradient storage onto caller-owned buffers.

        The caller is responsible for having copied the current parameter
        values into ``flat`` beforehand; ``grad`` contents are irrelevant
        (``loss_and_grad`` zeroes them).  Used by the rank-batched executor
        to bind every rank to the world's one parameter vector.
        """
        if flat.shape != self._flat.shape or grad.shape != self._flat_grad.shape:
            raise ValueError("rebind_storage: shape mismatch")
        self._flat = flat
        self._flat_grad = grad
        ofs = 0
        for p in self.module.parameters():
            sl = slice(ofs, ofs + p.size)
            p.data = flat[sl].reshape(p.data.shape)
            p.grad = grad[sl].reshape(p.grad.shape)
            ofs += p.size

    @property
    def layout(self):
        """The flat vector's named parameter segments (ParamLayout)."""
        if self._layout is None:
            from ..allreduce.session import ParamLayout
            self._layout = ParamLayout.from_sizes(self._segment_sizes,
                                                  self._segment_names)
        return self._layout

    # TrainableModel protocol -------------------------------------------
    @property
    def nparams(self) -> int:
        return self._flat.size

    @property
    def params_flat(self) -> np.ndarray:
        return self._flat

    @property
    def grad_flat(self) -> np.ndarray:
        return self._flat_grad

    def loss_and_grad(self, x: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray]:
        self._flat_grad[...] = 0.0
        out = self.module.forward(x, training=True)
        loss, dout = self.loss.forward_backward(out, y)
        self.module.backward(dout)
        return loss, self._flat_grad.copy()

    def train_flops(self, batch_size: int) -> float:
        # forward + backward ~ 3x forward cost
        return 3.0 * self._flops * batch_size

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.module.forward(x, training=False)

    def eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        out = self.module.forward(x, training=False)
        loss, _ = self.loss.forward_backward(out, y)
        return loss


class Loss:
    """Loss interface: returns (scalar loss, gradient wrt input)."""

    def forward_backward(self, out: np.ndarray,
                         y: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError
