"""The serving engine: open-loop arrivals -> dynamic batches -> TP steps.

One SPMD program runs on every rank of the tensor-parallel group.  Each
engine step is one of:

* **prefill** — admit a batch and push its summed prompt tokens through
  the model (one large, bandwidth-bound allreduce per layer), emitting
  every admitted request's first token;
* **decode** — push one token per active request (one small,
  latency-bound allreduce per layer);
* **idle jump** — no work pending: jump the simulated clock to the next
  admission time (a closed form over the open-loop arrivals).

A prefill or decode step is one call, ``t = model.step(tokens)``: it runs
the layers *and* the decision-clock sync below, and on the fused fast
path the whole of it is **one rendezvous per step** (the world-level
executor in :mod:`repro.serve.model`) instead of one per layer plus one
for the sync.  The per-layer loop is the reference path — threads
runner, ``fused=False``, tracing, a planned crash that can still fire in
the live world — with identical simulated results.  Slowdown/straggler
plans and shrunk worlds stay on the step executor.

Determinism contract
--------------------

The repo's core invariant — a run is a pure function of ``(seed,
config)``, bit-identical across the ``coop`` and ``threads``
runners — has one serving-specific hazard: after a dense allreduce at
non-power-of-two P, the per-rank simulated clocks legitimately *diverge*
(the fold-in/out ranks sit on different dependency chains), so admission
decisions keyed on a rank-local clock would differ across ranks and
deadlock the collectives.  The loop therefore synchronizes a **decision
clock as data** at every step boundary
(:func:`repro.serve.model.sync_decision_time`): an ``allgather`` of the
per-rank clocks whose max is the step's decision time on every rank.  All
admissions, token stamps and metrics use that shared value, so the
records are bit-identical on every rank (asserted by the driver) and
across runners; residual per-rank clock skew stays in the network, where
it belongs.

Fault tolerance
---------------

``simulate_serving(..., faults=FaultPlan)`` threads the PR-6 fault model
into the section: slow links and stragglers degrade the clock honestly,
and a ``RankCrash`` fail-stops a rank mid-traffic.  Survivors catch the
resulting :class:`~repro.errors.RankFailedError` at the decision-clock
synchronization points and run elastic recovery:

1. ``comm.shrink()`` — agree on the survivor set (ULFM-style), flush the
   dead world's messages, synchronize clocks past the detection bound;
2. **rollback consensus** — each survivor may have caught the failure a
   step apart (the dead rank's last eager sends can complete one
   survivor's collective but not another's), so survivors allgather their
   last completed step boundary and every rank rolls back to the
   *minimum* — a checkpoint of batcher queue, active set, token stamps
   and model carry taken at each boundary (only the last three are
   retained; the spread is bounded by the decision-clock sync, which
   requires a post from every rank);
3. **rebuild** :class:`~repro.serve.model.TPDecodeModel` at the shrunken
   world — gain tables re-derived by consensus from the replicated seed,
   flops re-sharded 1/(P-1), and the adaptive allreduce crossover
   re-computed for the new P by the selector itself;
4. **re-enqueue** — in-flight requests whose generated tokens died with
   the crash go back to the batcher with capped exponential backoff
   (seeded jitter, bounded retry budget); requests that exhaust the
   budget are shed.

Request-level robustness (deadlines, timeout reaping, deadline-aware
admission shedding) rides the same fault-aware loop.  The fault-free
path is dispatched by a single ``faults is not None`` test (RL003-checked
for this module) and stays byte-identical to a loop that has never heard
of faults.  A faulted run remains a pure function of ``(seed, config,
plan)``: recovery decisions only consume synchronized or consensus data,
so reports stay bit-identical across runners and fused/unfused paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..comm import collectives as coll
from ..comm.communicator import SimComm
from ..comm.faults import FaultPlan
from ..comm.launcher import run_spmd
from ..comm.model import NetworkModel
from ..errors import ConfigError, RankFailedError
from .batcher import DynamicBatcher
from .metrics import RequestRecord, ServeReport
from .model import TPDecodeModel, TPModelConfig, sync_decision_time
from .workload import Request, TokenSpec, Workload


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving run is a function of (besides the network)."""

    p: int = 4
    # --- workload (ignored when an explicit trace Workload is passed) ---
    rate: float = 2000.0          # offered load, requests per simulated s
    n_requests: int = 32
    prompt_tokens: TokenSpec = 64
    output_tokens: TokenSpec = 4
    # --- batcher ---
    max_batch_size: int = 8
    max_wait: float = 5e-4        # simulated seconds
    # --- model ---
    hidden: int = 256
    layers: int = 4
    ffn_mult: int = 4
    # --- collectives ---
    #: "adaptive" | "latency" | "bandwidth" | concrete name
    algorithm: str = "adaptive"
    seed: int = 0
    # --- request-level robustness (consulted by the fault-aware loop;
    # --- the plan-less fast path never reads them) ---
    #: completion SLO relative to arrival (simulated s); ``None`` = none.
    #: Per-request ``Request.deadline`` values override it.
    deadline: Optional[float] = None
    #: crash re-enqueues allowed per request before it is shed
    retry_budget: int = 2
    #: base / cap of the capped exponential retry backoff (simulated s)
    retry_backoff: float = 2e-4
    retry_backoff_cap: float = 2e-3

    @property
    def model_config(self) -> TPModelConfig:
        return TPModelConfig(hidden=self.hidden, layers=self.layers,
                             ffn_mult=self.ffn_mult)

    def workload(self) -> Workload:
        return Workload.poisson(
            self.n_requests, self.rate, prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens, seed=self.seed)


def _retry_release(cfg: ServeConfig, rid: int, attempt: int,
                   now: float) -> float:
    """Release time of retry ``attempt`` (1-based) for request ``rid``:
    capped exponential backoff with seeded jitter — a pure function of
    ``(cfg.seed, rid, attempt, now)``, identical on every rank."""
    delay = min(cfg.retry_backoff * (2.0 ** (attempt - 1)),
                cfg.retry_backoff_cap)
    jitter = np.random.default_rng(
        [cfg.seed & 0x7FFFFFFF, rid, attempt]).random()
    return now + delay * (1.0 + jitter)


def _rank_serve(comm: SimComm, cfg: ServeConfig, workload: Workload) -> Dict:
    faults = comm.net.faults
    if faults is not None:  # the plan-less fast path stays this one test
        return _rank_serve_faulted(comm, cfg, workload, faults)
    model = TPDecodeModel(cfg.model_config, comm,
                          algorithm=cfg.algorithm, seed=cfg.seed)
    batcher = DynamicBatcher(workload, cfg.max_batch_size, cfg.max_wait)
    admitted_at: Dict[int, float] = {}
    token_times: Dict[int, List[float]] = {}
    active: List[List] = []  # [request, tokens_emitted]
    prefill_batches = 0
    decode_steps = 0

    with comm.phase("serve"):
        t = sync_decision_time(comm)
        while True:
            batch = batcher.admit(t, cfg.max_batch_size - len(active),
                                  bool(active))
            if batch:
                for rq in batch:
                    admitted_at[rq.rid] = t
                t = model.step(sum(rq.prompt_tokens for rq in batch))
                prefill_batches += 1
                for rq in batch:
                    token_times[rq.rid] = [t]
                    if rq.output_tokens > 1:
                        active.append([rq, 1])
                continue
            if active:
                t = model.step(len(active))
                decode_steps += 1
                still: List[List] = []
                for rq, emitted in active:
                    emitted += 1
                    token_times[rq.rid].append(t)
                    if emitted < rq.output_tokens:
                        still.append([rq, emitted])
                active = still
                continue
            t_next = batcher.next_decision(t)
            if t_next is None:
                break
            comm._advance_clock(t_next)
            t = sync_decision_time(comm)

    records = [
        RequestRecord(rq.rid, rq.arrival, rq.prompt_tokens,
                      rq.output_tokens, admitted_at[rq.rid],
                      tuple(token_times[rq.rid]))
        for rq in workload.requests]
    return {
        "records": records,
        "checksum": model.checksum,
        "steps": {"prefill_batches": prefill_batches,
                  "decode_steps": decode_steps},
    }


def _rank_serve_faulted(comm: SimComm, cfg: ServeConfig,
                        workload: Workload, faults) -> Dict:
    """The fault-aware serving loop (see the module docstring's recovery
    walkthrough).  Same decision structure as :func:`_rank_serve`, plus
    per-boundary checkpoints, deadline/timeout/shed handling, and elastic
    shrink-and-resume on :class:`~repro.errors.RankFailedError`."""
    assert faults is not None  # dispatch contract; guards every deref below
    detect_timeout = faults.detect_timeout
    model = TPDecodeModel(cfg.model_config, comm,
                          algorithm=cfg.algorithm, seed=cfg.seed)
    batcher = DynamicBatcher(workload, cfg.max_batch_size, cfg.max_wait)
    admitted_at: Dict[int, float] = {}
    token_times: Dict[int, List[float]] = {}
    retries: Dict[int, int] = {}
    terminal: Dict[int, str] = {}       # rid -> "timeout" | "shed"
    active: List[List] = []             # [request, tokens_emitted]
    events: List[Dict] = []
    known_dead: set = set()
    prefill_batches = 0
    decode_steps = 0
    step_no = 0                         # decision-loop pass (1-based)

    def deadline_at(rq: Request) -> Optional[float]:
        return rq.deadline_at(cfg.deadline)

    def snap() -> Dict:
        """Checkpoint of everything a step boundary determines.  The
        model part is world-size independent, so it restores into a
        rebuilt post-shrink model."""
        return {
            "queue": batcher.snapshot(),
            "active": [list(pair) for pair in active],
            "token_times": {rid: list(ts)
                            for rid, ts in token_times.items()},
            "admitted_at": dict(admitted_at),
            "retries": dict(retries),
            "terminal": dict(terminal),
            "prefill_batches": prefill_batches,
            "decode_steps": decode_steps,
            "step_no": step_no,
            "model": model.snapshot(),
        }

    boundary = 0                        # completed stamping boundaries
    ckpts: Dict[int, Dict] = {0: snap()}
    failure: Optional[RankFailedError] = None
    t: Optional[float] = None

    def commit_boundary() -> None:
        nonlocal boundary
        boundary += 1
        ckpts[boundary] = snap()
        ckpts.pop(boundary - 3, None)
        # first stamp after a shrink closes that event's recovery window
        if events and "recovery_time" not in events[-1]:
            events[-1]["first_token"] = t
            events[-1]["recovery_time"] = t - events[-1]["detected"]

    while True:
        try:
            if failure is not None:
                exc, failure = failure, None
                new_failed = sorted(set(exc.failures) - known_dead)
                if not new_failed:
                    raise AssertionError(
                        "RankFailedError without fresh failures after "
                        "recovery") from exc
                detected = max(exc.failures[r].time
                               for r in new_failed) + detect_timeout
                old_size = comm.size
                comm = comm.shrink()
                # Rollback consensus: survivors may have caught the
                # failure one boundary apart; everyone resumes from the
                # minimum completed boundary.
                resume = min(coll.allgather_object(comm, boundary))
                s = ckpts[resume]
                batcher.restore(s["queue"])
                active = [list(pair) for pair in s["active"]]
                token_times = {rid: list(ts)
                               for rid, ts in s["token_times"].items()}
                admitted_at = dict(s["admitted_at"])
                retries = dict(s["retries"])
                terminal = dict(s["terminal"])
                prefill_batches = s["prefill_batches"]
                decode_steps = s["decode_steps"]
                step_no = s["step_no"]
                model = TPDecodeModel(cfg.model_config, comm,
                                      algorithm=cfg.algorithm,
                                      seed=cfg.seed)
                model.restore(s["model"])
                rollback = boundary - resume
                boundary = resume
                ckpts = {i: c for i, c in ckpts.items() if i <= resume}
                known_dead |= set(exc.failures)
                # Record the event before the post-shrink sync so a
                # cascading crash during recovery still leaves a trace.
                events.append({
                    "event": "shrink", "failed_ranks": new_failed,
                    "old_size": old_size, "new_size": comm.size,
                    "detected": detected, "rollback": rollback,
                })
                t = sync_decision_time(comm)
                # In-flight requests' tokens died with the crashed world:
                # deterministically re-enqueue (or shed at budget).
                requeued: List[int] = []
                dropped: List[int] = []
                for rq, _emitted in active:
                    attempt = retries.get(rq.rid, 0) + 1
                    retries[rq.rid] = attempt
                    token_times.pop(rq.rid, None)
                    admitted_at.pop(rq.rid, None)
                    if attempt > cfg.retry_budget:
                        terminal[rq.rid] = "shed"
                        dropped.append(rq.rid)
                    else:
                        batcher.requeue(
                            rq, _retry_release(cfg, rq.rid, attempt, t))
                        requeued.append(rq.rid)
                active = []
                events[-1].update(resumed=t, requeued=requeued,
                                  dropped=dropped)
            elif t is None:
                t = sync_decision_time(comm)
            step_no += 1
            comm.maybe_crash(iteration=step_no)
            # Timeout detection on the simulated clock: queued requests
            # whose completion deadline already passed are reaped here.
            for rq in batcher.expire(t, deadline_at):
                terminal[rq.rid] = "timeout"
            batch = batcher.admit(t, cfg.max_batch_size - len(active),
                                  bool(active))
            if batch:
                # Deadline-aware admission control: shed what even an
                # uncontended run at the current world size cannot finish
                # in time (post-shrink capacity raises this bound).
                kept: List[Request] = []
                for rq in batch:
                    dl = deadline_at(rq)
                    if dl is not None and t + model.min_service_seconds(
                            rq.prompt_tokens, rq.output_tokens) > dl:
                        terminal[rq.rid] = "shed"
                    else:
                        kept.append(rq)
                if not kept:
                    continue
                for rq in kept:
                    admitted_at[rq.rid] = t
                t = model.step(sum(rq.prompt_tokens for rq in kept))
                prefill_batches += 1
                for rq in kept:
                    token_times[rq.rid] = [t]
                    if rq.output_tokens > 1:
                        active.append([rq, 1])
                commit_boundary()
                continue
            if active:
                t = model.step(len(active))
                decode_steps += 1
                still: List[List] = []
                for rq, emitted in active:
                    emitted += 1
                    token_times[rq.rid].append(t)
                    if emitted < rq.output_tokens:
                        still.append([rq, emitted])
                active = still
                commit_boundary()
                continue
            t_next = batcher.next_decision(t)
            if t_next is None:
                break
            comm._advance_clock(t_next)
            t = sync_decision_time(comm)
        except RankFailedError as exc_:
            failure = exc_  # recover at the top of the next pass

    records = []
    for rq in workload.requests:
        records.append(RequestRecord(
            rq.rid, rq.arrival, rq.prompt_tokens, rq.output_tokens,
            admitted_at.get(rq.rid), tuple(token_times.get(rq.rid, ())),
            status=terminal.get(rq.rid, "ok"),
            retries=retries.get(rq.rid, 0),
            deadline=deadline_at(rq)))
    return {
        "records": records,
        "checksum": model.checksum,
        "steps": {"prefill_batches": prefill_batches,
                  "decode_steps": decode_steps},
        "events": events,
    }


def simulate_serving(cfg: ServeConfig, *,
                     workload: Optional[Workload] = None,
                     network: Optional[NetworkModel] = None,
                     runner: Optional[str] = None,
                     fused: Optional[bool] = None,
                     faults: Optional[FaultPlan] = None) -> ServeReport:
    """Run one serving simulation; a pure function of ``(cfg, workload,
    network, faults)`` — bit-identical across runners and fused/unfused
    paths.  Under a fault plan the run survives the whole PR-6 model:
    crashed ranks return no records and the report is assembled from the
    (bit-identical) survivors."""
    if cfg.p < 1:
        raise ConfigError(f"p must be >= 1, got {cfg.p}")
    wl = workload if workload is not None else cfg.workload()
    if len(wl) == 0:
        raise ConfigError("serving needs a non-empty workload")
    res = run_spmd(cfg.p, _rank_serve, cfg, wl, model=network,
                   runner=runner, fused=fused, faults=faults)
    survivors = res.survivors
    first = res[survivors[0]]
    for r in survivors[1:]:  # the loop's own cross-rank contract
        if res[r]["records"] != first["records"]:
            raise AssertionError(
                f"rank {r} serving records diverged from "
                f"rank {survivors[0]}")
    return ServeReport(
        p=cfg.p,
        algorithm=cfg.algorithm,
        requests=first["records"],
        makespan=res.makespan,
        checksum=first["checksum"],
        algorithms=res.network.algorithm_provenance(),
        steps=first["steps"],
        config={"rate": cfg.rate, "n_requests": cfg.n_requests,
                "max_batch_size": cfg.max_batch_size,
                "max_wait": cfg.max_wait, "hidden": cfg.hidden,
                "layers": cfg.layers, "seed": cfg.seed},
        faulted=faults is not None,
        events=list(first.get("events", ())),
    )


def sweep_load(cfg: ServeConfig, rates: Sequence[float], *,
               network: Optional[NetworkModel] = None,
               runner: Optional[str] = None,
               fused: Optional[bool] = None,
               faults: Optional[FaultPlan] = None) -> List[ServeReport]:
    """Goodput-vs-offered-load sweep: one serving run per rate (same seed
    and shapes, fresh network each — runs are independent)."""
    return [simulate_serving(replace(cfg, rate=float(rate)),
                             network=network, runner=runner, fused=fused,
                             faults=faults)
            for rate in rates]
