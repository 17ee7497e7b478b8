"""Simulated SPMD communication substrate (the paper's MPI layer).

Quick tour::

    from repro.comm import run_spmd, collectives

    def program(comm):
        import numpy as np
        x = np.full(4, comm.rank, dtype=np.float32)
        return collectives.allreduce(comm, x)

    res = run_spmd(8, program)
    res[0]            # reduced vector on rank 0
    res.makespan      # simulated completion time in seconds
    res.stats         # per-rank traffic counters (words/messages)

Execution model: programs run under the deterministic **cooperative**
engine by default (single-threaded hot path, zero-copy sends, deadlock
detection); pass ``runner="threads"`` (or set ``REPRO_SPMD_RUNNER``) for
the legacy thread-per-rank runner.  Results, traffic counters and simulated
makespans are identical under both — see :mod:`repro.comm.launcher`.

Collectives additionally run through the **fused fast path** on the
cooperative engine (whole collectives executed as single dispatches at
an engine rendezvous that book the compiled message schedule in one walk,
bit-identical to the per-message reference rounds); disable it with ``REPRO_FUSED=0``,
``run_spmd(..., fused=False)`` or ``repro-bench --no-fused`` — see
:mod:`repro.comm.fused`.
"""

from . import collectives
from .communicator import AsyncRegion, SimComm
from .engine import CoopEngine
from .faults import ComputeStraggler, FaultPlan, LinkSlowdown, RankCrash
from .fused import FUSED_ENV, fusion_enabled
from .launcher import RUNNER_ENV, SANITIZE_ENV, SpmdResult, \
    resolve_runner, run_spmd, sanitize_enabled
from .message import RecvRequest, Request, SendRequest
from .model import NetworkModel
from .network import Network, TrafficStats
from .payload import nwords

__all__ = [
    "collectives",
    "SimComm",
    "AsyncRegion",
    "SpmdResult",
    "run_spmd",
    "resolve_runner",
    "RUNNER_ENV",
    "SANITIZE_ENV",
    "sanitize_enabled",
    "FUSED_ENV",
    "fusion_enabled",
    "CoopEngine",
    "Request",
    "SendRequest",
    "RecvRequest",
    "NetworkModel",
    "Network",
    "TrafficStats",
    "nwords",
    "FaultPlan",
    "LinkSlowdown",
    "ComputeStraggler",
    "RankCrash",
]
