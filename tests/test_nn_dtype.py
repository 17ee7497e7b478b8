"""The model dtype contract: every proxy computes in float32 end to end.

Every forward output and every returned input gradient of every module
instance, the loss gradient and the parameter gradients are float32, on
the per-rank path (``FlatModel.loss_and_grad``) and through the world
module (``StackedModel.loss_and_grad``, uneven runs included).  Only the
loss's softmax runs in float64, inside the loss.

The guard is against NumPy 2's promotion rules (NEP 50): a numpy scalar
such as ``np.sqrt(d)`` is float64 and no longer takes the array's dtype,
so one of them in layer math silently turns everything after it float64.
"""

import numpy as np
import pytest

from repro.bench.harness import bert_proxy, lstm_proxy, perf_proxy, vgg_proxy
from repro.nn.stacked import StackedModel

PROXIES = {"mlp": perf_proxy, "bert": bert_proxy, "vgg": vgg_proxy,
           "lstm": lstm_proxy}


def _tree(mod):
    yield mod
    for m in mod._modules:
        yield from _tree(m)


def _watch(module, loss, log):
    """Record ``(where, dtype)`` of every forward output and returned
    input gradient in ``module``'s tree, and of the loss gradient.

    The wrappers are instance attributes, so they shadow the class methods
    for the callers inside the tree; the world module of a
    :class:`StackedModel` is watched after it is built (a deep copy would
    carry wrappers bound to the original instances)."""
    def wrap(obj, name):
        inner = getattr(obj, name)
        where = f"{type(obj).__name__}.{name}"

        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            grad = out[1] if isinstance(out, tuple) else out  # (loss, dy)
            log.append((where, grad.dtype))
            return out
        setattr(obj, name, call)

    for m in _tree(module):
        wrap(m, "forward")
        wrap(m, "backward")
    wrap(loss, "forward_backward")
    wrap(loss, "forward_backward_stacked")


def _assert_float32(log, module, grads):
    assert log, "nothing was recorded"
    assert [(w, str(d)) for w, d in log if d != np.float32] == []
    seen = {w for w, _ in log}
    assert any(".forward_backward" in w for w in seen), "no loss gradient"
    for m in _tree(module):
        for name in ("forward", "backward"):
            assert f"{type(m).__name__}.{name}" in seen
    assert grads.dtype == np.float32
    assert all(p.grad.dtype == np.float32 for p in module.parameters())


def _batch(proxy, rows):
    train, _ = proxy.make_splits()
    return train.x[rows], train.y[rows]


@pytest.mark.parametrize("name", sorted(PROXIES))
def test_per_rank_fwd_bwd_is_float32(name):
    proxy = PROXIES[name]()
    model = proxy.make_model()
    log = []
    _watch(model.module, model.loss, log)
    _, grad = model.loss_and_grad(*_batch(proxy, np.arange(2)))
    _assert_float32(log, model.module, grad)


@pytest.mark.parametrize("name", ["mlp", "bert"])
def test_world_fwd_bwd_is_float32(name):
    """P = 3 as one world call, then an uneven split of the same world:
    rank 0 with three samples, ranks 1-2 with two (a run at ``lo = 1``)."""
    proxy = PROXIES[name]()
    world = StackedModel([proxy.make_model() for _ in range(3)])
    log = []
    _watch(world.world, world.loss, log)
    x, y = _batch(proxy, np.arange(6))
    _, grads = world.loss_and_grad(x.reshape((3, 2) + x.shape[1:]),
                                   y.reshape((3, 2) + y.shape[1:]))
    _assert_float32(log, world.world, grads)
    del log[:]
    world.loss_and_grad(x[None, :3], y[None, :3])
    x, y = _batch(proxy, np.arange(3, 7))
    _, grads = world.loss_and_grad(x.reshape((2, 2) + x.shape[1:]),
                                   y.reshape((2, 2) + y.shape[1:]), lo=1)
    _assert_float32(log, world.world, grads)
