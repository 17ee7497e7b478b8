#!/usr/bin/env python
"""Sanitizer + race-detector smoke (run_all.py --quick).

Three checks on the runtime sanitizer mode (``REPRO_SANITIZE=1`` /
``run_spmd(sanitize=True)``, see :mod:`repro.comm.launcher`):

* **transparency** — P=4 training (Ok-Topk), bucketed-stream Ok-Topk
  sessions, bucketed-stream training of the BERT proxy with its model
  math rank-batched, and tensor-parallel serving runs under the sanitizer
  are bit-identical to unsanitized runs (the sanitizer observes, it must
  not perturb);
* **schemes are race-free** — every shipped allreduce scheme (one-shot),
  the bucketed-stream ``oktopk`` / ``oktopk_q`` sessions and the
  rank-batched BERT training run pass the
  schedule-perturbation race detector: the section is replayed under a
  seeded ready-queue rotation and results/clocks/counters must not move —
  a world-level executor runs on whichever rank arrives last, so "the
  result does not depend on who that is" is exactly what it has to keep;
* **detection** — the race detector flags a deliberately order-sensitive
  rank program, the loan sanitizer flags a ``setflags(write=True)``
  bypass of the isend write-lock, and the replica check of the world
  optimizer step (``rb_apply``) flags one rank's parameter row perturbed
  between two rank-batched Adam steps.

The bucketed-stream sessions and the BERT run must also have run on the
session executor — one ``reduce_session`` rendezvous per rank and
iteration, no per-bucket ``oktopk_reduce`` — and the rank-batched BERT
run on its one-pass program — ONE stacked selection scan per iteration
over all buckets of the world, no per-rank ``_select_local`` — or the
transparency and race checks would be checking another path instead.

Everything is simulated time; the whole smoke takes a few seconds.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.allreduce import (PAPER_ORDER, OkTopkAllreduce,  # noqa: E402
                             ParamLayout, make_allreduce, run_session)
from repro.allreduce import oktopk  # noqa: E402
from repro.bench import bert_proxy, perf_proxy, train_scheme  # noqa: E402
from repro.bench.harness import proxy_network  # noqa: E402
from repro.comm import SANITIZE_ENV, SimComm, run_spmd  # noqa: E402
from repro.data import ShardedLoader  # noqa: E402
from repro.errors import (LoanViolationError,  # noqa: E402
                          ReplicaDivergenceError, ScheduleRaceError)
from repro.optim import Adam, SparseOptimWrapper  # noqa: E402
from repro.serve import ServeConfig, simulate_serving  # noqa: E402
from repro.train import Trainer, TrainerConfig  # noqa: E402
from repro.train.rankbatch import RankBatch  # noqa: E402

P = 4
N = 1024
SERVE_CFG = ServeConfig(p=P, rate=2000.0, n_requests=16, prompt_tokens=64,
                        output_tokens=6, max_batch_size=8, seed=0)


#: bucketed-stream sessions: 3 buckets of >= 256 words, Ok-Topk family
LAYOUT = ParamLayout.from_sizes([384, 128, 256, 160, 96])
SESSION_SCHEMES = ("oktopk", "oktopk_q")
#: iterations of each program that must run on the session executor
SESSION_ITERS = {**{f"{scheme} session": 3 for scheme in SESSION_SCHEMES},
                 "BERT": 2}


def _logged(entered: dict, label: str, run):
    """``run()``, counting in ``entered[label]`` the head of every
    rendezvous it enters (what the tests' ``rendezvous_log`` fixture
    records), its stacked Ok-Topk selection scans (``"stacked scan"``)
    and its per-rank ones (``"_select_local"``)."""
    heads = entered[label] = Counter()
    inner = SimComm.fused_collective
    scan, select_local = (oktopk.batched_threshold_select,
                          OkTopkAllreduce._select_local)

    def logged(self, sig, payload, executor):
        heads[sig[0]] += 1
        return inner(self, sig, payload, executor)

    def stacked(*args):
        heads["stacked scan"] += 1
        return scan(*args)

    def per_rank(self, *args):
        heads["_select_local"] += 1
        return select_local(self, *args)

    SimComm.fused_collective = logged
    oktopk.batched_threshold_select = stacked
    OkTopkAllreduce._select_local = per_rank
    try:
        return run()
    finally:
        SimComm.fused_collective = inner
        oktopk.batched_threshold_select = scan
        OkTopkAllreduce._select_local = select_local


def _train_and_serve(entered: dict) -> tuple:
    """The runs the sanitizer must not perturb; ``entered`` collects the
    rendezvous heads of the :data:`SESSION_ITERS` programs."""
    rec = train_scheme(perf_proxy(), "oktopk", P, 2, density=0.02, seed=0)
    rep = simulate_serving(SERVE_CFG)
    sessions = [[[o.tobytes() for o in outs]
                 for outs in _logged(entered, f"{scheme} session",
                                     lambda: run_spmd(P, _session_prog,
                                                      scheme).results)]
                for scheme in SESSION_SCHEMES]
    bert = _logged(entered, "BERT", lambda: run_spmd(
        P, _bert_prog, model=proxy_network()).results)
    return rec.records, rep.requests, rep.summary(), sessions, bert


def _off_the_session_executor(entered: dict) -> list:
    """The programs of :data:`SESSION_ITERS` that did not enter exactly
    one ``reduce_session`` per rank and iteration, or entered a
    per-bucket ``oktopk_reduce``; and the BERT run unless it made one
    stacked selection scan per iteration and no per-rank one."""
    off = [f"{label}: {dict(entered[label])}"
           for label, iters in SESSION_ITERS.items()
           if entered[label]["reduce_session"] != P * iters
           or entered[label]["oktopk_reduce"]]
    bert = entered["BERT"]
    if (bert["stacked scan"] != SESSION_ITERS["BERT"]
            or bert["_select_local"]):
        off.append(f"BERT not on the one-pass program: {dict(bert)}")
    return off


def _bert_prog(comm):
    """Two iterations of the BERT proxy, bucketed-stream Ok-Topk, with the
    model math and residual accumulation rank-batched."""
    proxy = bert_proxy()
    train, _ = proxy.make_splits()
    loader = ShardedLoader(train, proxy.global_batch, comm.rank, comm.size,
                           seed=0)
    cfg = TrainerConfig(iterations=2, scheme="oktopk", density=0.01,
                        bucket_size=4096, overlap_mode="stream",
                        lr=proxy.lr, mode=proxy.mode)
    trainer = Trainer(comm, proxy.make_model(), loader, cfg)
    rec = trainer.run()
    if not trainer.comm.rank_batch.engaged():
        raise RuntimeError("the BERT smoke run is not rank-batched")
    return rec.records, trainer.model.params_flat.tobytes()


def _scheme_prog(comm, scheme: str):
    kwargs = {} if scheme.startswith("dense") else {"density": 0.05}
    algo = make_allreduce(scheme, **kwargs)
    rng = np.random.default_rng(1234 + comm.rank)
    outs = []
    for t in (1, 2):
        acc = rng.standard_normal(N).astype(np.float32)
        res = algo.reduce(comm, acc, t)
        outs.append(res.update_dense(N).copy())
    return outs


def _session_prog(comm, scheme: str):
    """Bucketed, streamed sessions (one rendezvous per session on the fast
    path, running every bucket); ``tau = tau' = 2`` so the periodic work
    fires too."""
    algo = make_allreduce(scheme, density=0.05, tau=2, tau_prime=2)
    rng = np.random.default_rng(4321 + comm.rank)
    outs = []
    for t in (1, 2, 3):
        acc = rng.standard_normal(LAYOUT.n).astype(np.float32)
        res = run_session(algo, comm, LAYOUT, t, acc, bucket_size=256,
                          stream=True)
        if res.nbuckets != 3 or res.bucket_stats[0].info.get(
                "stream_fallback"):
            raise RuntimeError("the smoke session did not stream 3 buckets")
        outs.append(res.update_dense(LAYOUT.n).copy())
    return outs


def _racy_prog_maker():
    order: list = []

    def racy(comm):
        # Communicates through shared Python state: the returned order
        # depends on which rank is scheduled first.
        order.append(comm.rank)
        comm.send(np.arange(4, dtype=np.float32),
                  (comm.rank + 1) % comm.size)
        comm.recv((comm.rank - 1) % comm.size)
        return list(order)

    return racy


def _loan_violator(comm):
    buf = np.full(64, float(comm.rank), dtype=np.float32)
    if comm.rank == 0:
        req = comm.isend(buf, 1)
        buf.setflags(write=True)  # bypass the loan write-lock
        buf[0] = 999.0
        req.wait()
    elif comm.rank == 1:
        comm.recv(0)


def _diverged_replica(comm):
    """Rank-batched Adam steps (one ``rb_apply`` per step) with rank 1's
    parameter row perturbed before the third."""
    rb = comm.rank_batch = RankBatch(comm)
    opt = SparseOptimWrapper(make_allreduce("oktopk", density=0.05),
                             Adam(lr=0.01), N)
    w = np.zeros(N, dtype=np.float32)
    rng = np.random.default_rng(comm.rank)
    for t in (1, 2, 3):
        if t == 3 and comm.rank == 1:
            w[7] += 1e-3
        opt.step(comm, w, rng.standard_normal(N).astype(np.float32), rb=rb)


def main() -> int:
    # 1. sanitizer transparency on train + serve
    entered: dict = {}
    base = _train_and_serve(entered)
    off = _off_the_session_executor(entered)
    if off:
        print("FAIL: not run on the session executor (one reduce_session "
              "per rank and iteration) and its one-pass program: "
              + "; ".join(off))
        return 1
    print("session executor: bucketed-stream sessions and BERT enter one "
          "reduce_session rendezvous per rank and iteration; BERT selects "
          "with one stacked scan per iteration")
    os.environ[SANITIZE_ENV] = "1"
    try:
        # (the sanitizer replays each section: twice the rendezvous)
        sane = _train_and_serve({})
    finally:
        os.environ.pop(SANITIZE_ENV, None)
    if sane != base:
        print("FAIL: REPRO_SANITIZE=1 changed the train/serve outcome")
        return 1
    print(f"transparency: P={P} train + bucketed-stream sessions + "
          f"rank-batched BERT + serve bit-identical under REPRO_SANITIZE=1")

    # 2. every shipped scheme passes the race detector
    for scheme in PAPER_ORDER:
        try:
            run_spmd(P, _scheme_prog, scheme, sanitize=True)
        except ScheduleRaceError as exc:
            print(f"FAIL: scheme {scheme!r} flagged by the race "
                  f"detector: {exc}")
            return 1
        print(f"race detector: {scheme} clean under perturbed schedule")
    for scheme in SESSION_SCHEMES:
        try:
            run_spmd(P, _session_prog, scheme, sanitize=True)
        except ScheduleRaceError as exc:
            print(f"FAIL: bucketed-stream {scheme!r} session flagged by "
                  f"the race detector: {exc}")
            return 1
        print(f"race detector: {scheme} bucketed-stream session clean "
              f"under perturbed schedule")
    try:
        run_spmd(P, _bert_prog, model=proxy_network(), sanitize=True)
    except ScheduleRaceError as exc:
        print(f"FAIL: rank-batched BERT training flagged by the race "
              f"detector: {exc}")
        return 1
    print("race detector: rank-batched BERT bucketed-stream training clean "
          "under perturbed schedule")

    # 3. the detectors actually detect
    try:
        run_spmd(P, _racy_prog_maker(), sanitize=True)
        print("FAIL: order-sensitive program not flagged")
        return 1
    except ScheduleRaceError:
        print("race detector: order-sensitive program flagged")
    try:
        run_spmd(2, _loan_violator, sanitize=True)
        print("FAIL: loan-window write not flagged")
        return 1
    except LoanViolationError:
        print("loan sanitizer: setflags bypass flagged")
    try:
        run_spmd(P, _diverged_replica, sanitize=True)
        print("FAIL: diverged parameter replica not flagged")
        return 1
    except ReplicaDivergenceError as exc:
        if exc.rank != 1:
            print(f"FAIL: replica check named rank {exc.rank}, not 1")
            return 1
        print("replica check: perturbed parameter row flagged")

    print("sanitize smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
