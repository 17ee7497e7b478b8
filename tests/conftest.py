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
