"""Isolated probes: median host time of direct calls into one layer at the
workload's own sizes (n, k, P / hidden, batch).  Each probe takes at least
``SAMPLES`` timed calls after a few untimed ones.  A probe that does not
apply to the workload class reports 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import sparse
from repro.allreduce import make_allreduce
from repro.bench.harness import proxy_network
from repro.comm import ComputeStraggler, FaultPlan, collectives, run_spmd
from repro.serve import DynamicBatcher, TPDecodeModel

try:                        # not part of the stable surface: may go away
    from repro.nn.stacked import StackedModel, supports_stacking
except ImportError:
    StackedModel = supports_stacking = None

SAMPLES = 30
WARM = 3


def _median_us(fn: Callable[[], object]) -> float:
    for _ in range(WARM):
        fn()
    out = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out) * 1e6


def _spmd_median_us(p: int, body: Callable, *, setup: Optional[Callable] = None,
                    faults: Optional[FaultPlan] = None, model=None) -> float:
    """Median host time between rank 0's consecutive completions of
    ``body(comm, state, i)`` run by all ``p`` ranks — on one CPU that is
    the time the whole world takes for one operation."""
    stamps: List[float] = []

    def worker(comm):
        state = setup(comm) if setup is not None else None
        collectives.barrier(comm)
        for i in range(WARM + SAMPLES + 1):
            if comm.rank == 0:
                stamps.append(time.perf_counter())
            body(comm, state, i)

    run_spmd(p, worker, faults=faults, model=model)
    gaps = np.diff(stamps[WARM:])
    return float(np.median(gaps)) * 1e6


def _gradient(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


def _noop_plan() -> FaultPlan:
    """A plan that changes nothing but, being a plan, forces the
    per-message reference path."""
    return FaultPlan(stragglers=(ComputeStraggler(rank=0, factor=1.0),))


def run_probes(wl, seed: int) -> Dict[str, float]:
    """The probes that apply to ``wl`` (the caller reports 0 for the
    others)."""
    p = wl.p
    if wl.kind == "train":
        out, words = _train_probes(wl, seed)
    else:
        out, words = _serve_probes(wl)

    # the engine and the network underneath, at this workload's P
    def pingpong(comm, _state, _i):     # two hand-offs per round trip
        if comm.rank == 0:
            comm.send(None, 1)
            comm.recv(1)
        else:
            comm.recv(0)
            comm.send(None, 0)

    out["comm.engine.handoff_us"] = _spmd_median_us(2, pingpong) / 2.0
    piece = sparse.COOVector.from_arrays(     # a small sparse message
        256, np.arange(0, 256, 8), np.ones(32, dtype=np.float32))

    def storm(comm, _state, i):
        reqs = [comm.isend(piece, d, tag=i) for d in comm.peers()]
        reqs += [comm.irecv(s, tag=i) for s in comm.peers()]
        comm.waitall(reqs)

    out["comm.network.p2p_us_per_msg"] = (
        _spmd_median_us(p, storm) / (p * (p - 1)))
    vec = _gradient(words, seed)

    def allreduce(comm, _state, _i):
        collectives.allreduce(comm, vec)

    out["comm.collectives.allreduce_us"] = _spmd_median_us(p, allreduce)
    out["comm.collectives.allreduce_faulted_us"] = _spmd_median_us(
        p, allreduce, faults=_noop_plan())
    out["comm.collectives.allgatherv_us"] = _spmd_median_us(
        p, lambda c, s, i: collectives.allgatherv(c, piece))
    return out


def _train_probes(wl, seed: int) -> Tuple[Dict[str, float], int]:
    """Model, selection and scheme probes; also returns the typical dense
    allreduce size of the workload (k words)."""
    out: Dict[str, float] = {}
    proxy, p = wl.proxy, wl.p
    train, _ = proxy.make_splits()
    per_rank = max(1, proxy.global_batch // p)
    x, y = train.x[:per_rank], train.y[:per_rank]
    model = proxy.make_model()
    n = model.nparams
    out["nn.fwdbwd_us"] = _median_us(lambda: model.loss_and_grad(x, y))
    if StackedModel is not None and supports_stacking(model):
        stacked = StackedModel([proxy.make_model() for _ in range(p)])
        xs, ys = np.stack([x] * p), np.stack([y] * p)
        out["nn.stacked_fwdbwd_us_per_rank"] = _median_us(
            lambda: stacked.loss_and_grad(xs, ys)) / p

    k = max(1, int(round(wl.density * n)))
    grad = _gradient(n, seed)
    out["sparse.topk_us"] = _median_us(lambda: sparse.exact_topk(grad, k))
    th = sparse.kth_largest_abs(grad, k)
    out["sparse.threshold_select_us"] = _median_us(
        lambda: sparse.threshold_select(grad, th))
    # what one rank folds in split-and-reduce: P pieces of its region
    pieces = [sparse.exact_topk(_gradient(n, seed + r), k).restrict(0, n // p)
              for r in range(p)]
    out["sparse.combine_sum_us"] = _median_us(
        lambda: sparse.combine_sum(pieces))

    def setup(comm):
        return (make_allreduce("oktopk", density=wl.density),
                _gradient(n, seed + comm.rank))

    out["allreduce.reduce_us"] = _spmd_median_us(
        p, lambda c, s, i: s[0].reduce(c, s[1], i + 1), setup=setup,
        model=proxy_network())
    if wl.bucket_size is not None:
        def host_ms(oneshot: bool) -> float:
            ts = []
            for _ in range(4):
                t0 = time.perf_counter()
                wl.run(wl.variants[0], oneshot=oneshot)
                ts.append(time.perf_counter() - t0)
            return statistics.median(ts[1:])
        out["allreduce.bucketed_vs_oneshot_host_ratio"] = (
            host_ms(False) / host_ms(True))
    return out, k


def _serve_probes(wl) -> Tuple[Dict[str, float], int]:
    """Batcher and decode-model probes; also returns the words of one full
    decode batch's allreduce."""
    out: Dict[str, float] = {}
    cfg = wl.cfg
    workload = wl.variants[0]

    def decisions():
        batcher = DynamicBatcher(workload, cfg.max_batch_size, cfg.max_wait)
        now, n = 0.0, 0
        while batcher.pending:
            now = batcher.next_decision(now)
            batcher.admit(now, cfg.max_batch_size, False)
            n += 1
        return n

    n_decisions = decisions()
    out["serve.batcher.decision_us"] = _median_us(decisions) / n_decisions
    out["serve.model.step_us"] = _spmd_median_us(
        cfg.p, lambda c, model, i: model.step(cfg.max_batch_size),
        setup=lambda c: TPDecodeModel(cfg.model_config, c,
                                      algorithm=cfg.algorithm))
    return out, cfg.hidden * cfg.max_batch_size

