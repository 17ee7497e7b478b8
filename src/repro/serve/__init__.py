"""Inference serving over the simulated network (the "millions of users"
axis of ROADMAP open item 3).

The other production face of allreduce, next to synchronous training: a
tensor-parallel decode model whose per-layer partial sums run as
allreduces over the simulated network — one reduction per layer per
generated token — under live open-loop traffic.  Prefill messages are
large (bandwidth-bound), decode messages are small (latency-bound), which
is exactly the regime flip the size-adaptive allreduce selector
(``algorithm="adaptive"``) exploits.

Quick tour::

    from repro.serve import ServeConfig, simulate_serving

    report = simulate_serving(ServeConfig(p=4, rate=2000.0, n_requests=32))
    report.summary()          # p50/p99 TTFT / inter-token / latency, goodput
    report.algorithms         # which allreduce schedule served which sizes

Serving survives the whole PR-6 fault model under live traffic: pass
``simulate_serving(..., faults=FaultPlan(...))`` and slow links and
stragglers degrade the clock honestly while rank crashes trigger elastic
shrink-and-resume (checkpointed batcher state, consensus rollback, model
rebuild at P-1, deterministic re-enqueue with capped backoff).  Request
deadlines, timeout reaping and deadline-aware shedding ride the same
plan (an empty ``FaultPlan()`` turns them on); one serving loop serves
both, and a plan-less run skips the robustness work.

Runs are a pure function of ``(seed, config, plan)`` and bit-identical
across the ``coop`` and ``threads`` runners — see
:mod:`repro.serve.loop` for the decision-clock synchronization that keeps
batching deterministic at non-power-of-two P, and for the recovery
walkthrough.
"""

from .batcher import DynamicBatcher
from .loop import ServeConfig, simulate_serving, sweep_load
from .metrics import RequestRecord, ServeReport, percentile
from .model import TPDecodeModel, TPModelConfig
from .workload import Request, Workload

__all__ = [
    "DynamicBatcher",
    "Request",
    "RequestRecord",
    "ServeConfig",
    "ServeReport",
    "TPDecodeModel",
    "TPModelConfig",
    "Workload",
    "percentile",
    "simulate_serving",
    "sweep_load",
]
