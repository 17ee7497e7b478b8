"""Shared check for the ``rb_fwdbwd`` executor over ragged shards (used
with the ``world_fwdbwd`` fixture of ``conftest.py``)."""

from itertools import groupby
from types import SimpleNamespace

import numpy as np

from repro.train import rankbatch


def runs(keys):
    """Lengths of the maximal runs of equal consecutive ``keys``."""
    return [len(list(g)) for _, g in groupby(keys)]


def check_grouped_fwd_bwd(make_model, shards, world_fwdbwd, calls=2):
    """Run ``rb_fwdbwd``'s executor ``calls`` times over per-rank
    ``(x, y)`` shards: every rank's loss and gradient row must be
    bit-equal to its own ``loss_and_grad`` on a fresh replica (each call,
    so the runs' gradient rows are re-zeroed), and the world module must
    run once per run of equal shard shapes."""
    ref = [make_model().loss_and_grad(x, y) for x, y in shards]
    del world_fwdbwd[:]
    net = SimpleNamespace()
    payloads = [(make_model(), x, y) for x, y in shards]
    for _ in range(calls):
        out = rankbatch._exec_fwd_bwd(net, ("rb_fwdbwd", 1), payloads)
        gmat = net._rank_batch_state.stacked.gmat
        for r, ((loss, grad), (rl, rg)) in enumerate(zip(out, ref)):
            assert loss == rl, f"rank {r} loss"
            np.testing.assert_array_equal(grad, rg, err_msg=f"rank {r}")
            assert grad.base is gmat     # zero-copy into rb_accumulate
    assert world_fwdbwd == calls * runs([(x.shape, y.shape)
                                         for x, y in shards])
