"""Fixtures shared across the suite."""

from collections import namedtuple

import pytest

from repro.comm.communicator import SimComm

#: one ``SimComm.fused_collective`` call: the caller's rank and world size,
#: the signature head, and the step the caller last announced through
#: ``comm.maybe_crash(iteration=...)`` (None without a plan)
RendezvousEntry = namedtuple("RendezvousEntry", "rank head size step")


@pytest.fixture
def rendezvous_log(monkeypatch):
    """Every entry into the engine rendezvous, in call order — what lets a
    test tell the fast path from a silent fallback to the per-message
    reference path."""
    calls = []
    inner = SimComm.fused_collective

    def logged(self, sig, payload, executor):
        calls.append(RendezvousEntry(self.rank, sig[0], self.size,
                                     self.announced_step))
        return inner(self, sig, payload, executor)

    monkeypatch.setattr(SimComm, "fused_collective", logged)
    return calls


@pytest.fixture
def world_fwdbwd(monkeypatch):
    """The row count of every world fwd/bwd call, in call order; a
    per-rank ``FlatModel.loss_and_grad`` inside the ``rb_fwdbwd`` executor
    fails the test (the executor must stack ragged shards, not fall back)."""
    from repro.nn.module import FlatModel
    from repro.nn.stacked import StackedModel
    from repro.train import rankbatch

    sizes, inside = [], []
    world, per_rank = StackedModel.loss_and_grad, FlatModel.loss_and_grad
    executor = rankbatch._exec_fwd_bwd

    def world_call(self, xs, ys, lo=0):
        sizes.append(len(xs))
        return world(self, xs, ys, lo)

    def rank_call(self, x, y):
        assert not inside, "per-rank loss_and_grad inside rb_fwdbwd"
        return per_rank(self, x, y)

    def executor_call(net, sig, payloads):
        inside.append(sig)
        try:
            return executor(net, sig, payloads)
        finally:
            inside.pop()

    monkeypatch.setattr(StackedModel, "loss_and_grad", world_call)
    monkeypatch.setattr(FlatModel, "loss_and_grad", rank_call)
    monkeypatch.setattr(rankbatch, "_exec_fwd_bwd", executor_call)
    return sizes
