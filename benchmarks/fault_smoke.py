#!/usr/bin/env python
"""Fast fault-injection smoke (part of ``run_all.py --quick``).

One P=8 elastic training run under a combined fault plan — a compute
straggler, a persistent slow link and an iteration-pinned crash — checked
for the properties the fault subsystem guarantees:

* the run survives the planned crash (shrinks 8 -> 7 and resumes),
* the same plan produces the bit-identical run on the fast path
  (fused rendezvous + rank batching), on the reference path of the same
  engine (``REPRO_FUSED=0``: per-message collectives, per-rank compute)
  and on the threaded runner,
* the fast-path leg really is one: it enters the engine rendezvous both
  before and after the shrink, and not once in the interrupted iteration —
  a plan no longer pushes a run onto the reference path, only the
  iteration a crash interrupts runs there,
* training keeps converging after the shrink (final loss < first loss).

All of it twice: on the proxy network, and on the proxy network with
per-post CPU overheads (``o_inject`` / ``o_send``), where the straggler
pays a scaled ``o_inject`` after each of its posts.

Exits non-zero on any violation.  Takes a few seconds.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import perf_proxy, train_scheme  # noqa: E402
from repro.bench.harness import proxy_network  # noqa: E402
from repro.comm import SimComm  # noqa: E402
from repro.comm.faults import (ComputeStraggler, FaultPlan,  # noqa: E402
                               LinkSlowdown, RankCrash)

ITERS = 8
P = 8
CRASH_ITER = 4

#: leg -> the execution-mode environment it runs under
LEGS = {
    "coop": {"REPRO_SPMD_RUNNER": "coop"},
    "coop-per-message": {"REPRO_SPMD_RUNNER": "coop", "REPRO_FUSED": "0"},
    "threads": {"REPRO_SPMD_RUNNER": "threads"},
}
MODE_ENV = ("REPRO_SPMD_RUNNER", "REPRO_FUSED")
#: every leg runs on each: the bare proxy network, and the same with
#: per-post CPU overheads that the straggler's factor scales (``o_inject``
#: near a piece's transfer time on the slow proxy link, so the scaled
#: charges reach the straggler's post starts)
NETWORKS = {
    "proxy": proxy_network(),
    "proxy + o_inject/o_send": proxy_network().with_(o_inject=2.5e-4,
                                                     o_send=5e-5),
}


def _log_rendezvous(entries: list) -> None:
    """Record every rendezvous entry as (world size, announced step)."""
    inner = SimComm.fused_collective

    def logged(self, sig, payload, executor):
        entries.append((self.size, self.announced_step))
        return inner(self, sig, payload, executor)

    SimComm.fused_collective = logged


def _check(name: str, network, plan: FaultPlan, entries: list) -> bool:
    """Run the three legs on ``network`` and check them; True when every
    property holds."""
    print(f"--- network: {name}")
    recs, entered = {}, {}
    for leg, env in LEGS.items():
        for key in MODE_ENV:
            os.environ.pop(key, None)
        os.environ.update(env)
        del entries[:]
        recs[leg] = train_scheme(
            perf_proxy(), "oktopk", P, ITERS, density=0.05,
            network=network, faults=plan, elastic=True)
        entered[leg] = list(entries)
    for key in MODE_ENV:
        os.environ.pop(key, None)

    ok = True
    for leg, rec in recs.items():
        events = rec.events
        losses = [r.loss for r in rec.records]
        survived = (len(rec.records) == ITERS and len(events) == 1
                    and events[0]["failed_ranks"] == [1]
                    and events[0]["new_size"] == P - 1)
        converged = losses[-1] < losses[0]
        print(f"{leg:17s}: iters={len(rec.records)} events={events} "
              f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
        if not survived:
            print(f"  FAIL({leg}): run did not survive the planned "
                  f"crash as expected")
            ok = False
        if not converged:
            print(f"  FAIL({leg}): loss did not decrease after the "
                  f"shrink")
            ok = False

    base = recs["coop"]
    for leg, rec in recs.items():
        same = ([r.loss for r in base.records] == [r.loss for r in rec.records]
                and [r.iteration_time for r in base.records]
                == [r.iteration_time for r in rec.records]
                and base.events == rec.events)
        if not same:
            print(f"FAIL: {leg} diverged from coop under the same fault "
                  f"plan")
            ok = False
    if ok:
        print("legs     : bit-identical under the fault plan")

    # step is None for an entry made before the first announced step
    before = sum(1 for size, step in entered["coop"]
                 if size == P and (step is None or step < CRASH_ITER))
    interrupted = sum(1 for size, step in entered["coop"]
                      if size == P and step is not None
                      and step >= CRASH_ITER)
    after = sum(1 for size, _ in entered["coop"] if size == P - 1)
    print(f"fast path: {before} rendezvous entries before the shrink, "
          f"{interrupted} in the interrupted iteration, {after} after")
    if not before or not after or interrupted:
        print("FAIL: the coop leg did not run on the fast path on both "
              "sides of the shrink (and only there)")
        ok = False
    for leg in ("coop-per-message", "threads"):
        if entered[leg]:
            print(f"FAIL: the {leg} leg entered the rendezvous")
            ok = False
    return ok


def main() -> int:
    plan = FaultPlan(
        links=[LinkSlowdown(rank=3, factor=4.0)],
        stragglers=[ComputeStraggler(rank=2, factor=4.0)],
        crashes=[RankCrash(rank=1, iteration=CRASH_ITER)],
    )
    entries: list = []
    _log_rendezvous(entries)
    ok = True
    for name, network in NETWORKS.items():
        ok &= _check(name, network, plan, entries)
    print("fault smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
