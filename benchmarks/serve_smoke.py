#!/usr/bin/env python
"""Post-merge serving smoke (run_all.py --quick): a P=4 tensor-parallel
serving run under open-loop Poisson traffic, checked for the subsystem's
two hard invariants:

* **determinism** — the report (request records, percentiles, goodput,
  checksum, algorithm provenance) is bit-identical across the ``coop``
  and ``threads`` runners and the fused/unfused collective paths, and an
  empty ``FaultPlan()`` (the loop's plan branches, no fault) admits and
  stamps every request exactly as the plan-less run in each of them —
  at P=4 and at a clean P=3, whose adaptive prefills take the ring;
* **adaptive selection** — the size-adaptive allreduce selector matches
  or beats both fixed algorithm choices on the mixed workload, and its
  provenance shows both the latency-optimal (decode) and
  bandwidth-optimal (prefill) schedules actually ran;
* **crash recovery** — a mid-run rank crash at P=4 shrinks the group to
  3 survivors, re-enqueues the in-flight requests and finishes them, with
  goodput on both sides of the failure and the full report still
  bit-identical across every runner x fused combination.

Everything is simulated time; the whole smoke takes a few seconds.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.comm.faults import FaultPlan, RankCrash  # noqa: E402
from repro.comm.fused import LATENCY_OPTIMAL  # noqa: E402
from repro.serve import ServeConfig, simulate_serving  # noqa: E402

CFG = ServeConfig(p=4, rate=2000.0, n_requests=24, prompt_tokens=96,
                  output_tokens=8, max_batch_size=8, seed=0)


def _signature(rep):
    return (rep.requests, rep.summary(), rep.steps, rep.events,
            rep.algorithms)


def _stamps(rep):
    return [(r.rid, r.admitted, r.token_times) for r in rep.requests]


def _determinism(cfg):
    """The report of ``cfg`` under coop/threads x fused/unfused, and with
    an empty plan; None (after a FAIL line) when any of them diverges."""
    base = None
    for runner in ("coop", "threads"):
        for fused in (True, False):
            rep = simulate_serving(cfg, runner=runner, fused=fused)
            sig = (rep.requests, rep.summary(), rep.steps, rep.algorithms)
            if base is None:
                base = sig
            elif sig != base:
                print(f"FAIL: P={cfg.p} serving report diverged under "
                      f"runner={runner} fused={fused}")
                return None
            # an empty plan takes the loop's plan branches without a
            # fault: it must admit and stamp exactly as the plan-less run
            planned = simulate_serving(cfg, runner=runner, fused=fused,
                                       faults=FaultPlan())
            if _stamps(planned) != _stamps(rep):
                print(f"FAIL: P={cfg.p} empty-plan admissions/stamps "
                      f"diverged from the plan-less run under "
                      f"runner={runner} fused={fused}")
                return None
    return base


def main() -> int:
    # P = 3 takes the ring for its prefills (adaptive, non-power-of-two):
    # the step executor's per-block rows at a real prefill size
    for cfg in (CFG, replace(CFG, p=3)):
        base = _determinism(cfg)
        if base is None:
            return 1
        if cfg.p == 3 and "allreduce/ring/adaptive" not in base[3]:
            print("FAIL: the P=3 prefills did not take the ring")
            return 1
        print(f"determinism P={cfg.p}: bit-identical across coop/threads "
              f"x fused/unfused, empty plan == no plan "
              f"(checksum {base[1]['checksum']:#x}, "
              f"{', '.join(sorted(base[3]))})")

    makespans = {}
    for alg in ("latency", "bandwidth", "adaptive"):
        makespans[alg] = simulate_serving(
            replace(CFG, algorithm=alg)).makespan
    print("makespans: " + "  ".join(
        f"{alg}={t * 1e3:.3f}ms" for alg, t in makespans.items()))
    if makespans["adaptive"] > makespans["latency"] or \
            makespans["adaptive"] > makespans["bandwidth"]:
        print("FAIL: adaptive selector lost to a fixed algorithm choice")
        return 1

    rep = simulate_serving(CFG)
    want = (f"allreduce/{LATENCY_OPTIMAL}/adaptive",
            "allreduce/rabenseifner/adaptive")
    missing = [k for k in want if k not in rep.algorithms]
    if missing:
        print(f"FAIL: expected adaptive schedules missing: {missing}")
        return 1

    # crash recovery under live traffic: kill a rank mid-decode of the
    # second admission cohort — the first cohort's completions are
    # already committed (goodput measurable on both sides) and the second
    # is in flight (its tokens die and must be re-enqueued)
    done = sorted(set(r.token_times[-1] for r in rep.requests))
    second = next(r for r in rep.requests
                  if r.token_times[0] > done[0] and len(r.token_times) >= 2)
    crash_t = 0.5 * (second.token_times[0] + second.token_times[1])
    plan = FaultPlan(crashes=[RankCrash(rank=1, time=crash_t)],
                     detect_timeout=1e-4)
    crash_base = None
    for runner in ("coop", "threads"):
        for fused in (True, False):
            crashed = simulate_serving(CFG, faults=plan,
                                       runner=runner, fused=fused)
            sig = _signature(crashed)
            if crash_base is None:
                crash_base = crashed
                base_sig = sig
            elif sig != base_sig:
                print(f"FAIL: crash-recovery report diverged under "
                      f"runner={runner} fused={fused}")
                return 1
    s = crash_base.summary()
    (ev,) = crash_base.events
    if (ev["old_size"], ev["new_size"]) != (4, 3) or not ev["requeued"]:
        print(f"FAIL: expected a 4 -> 3 shrink with re-enqueues, got {ev}")
        return 1
    if s["availability"] != 1.0 or s["goodput_tokens_per_s_pre"] <= 0 \
            or s["goodput_tokens_per_s_post"] <= 0:
        print(f"FAIL: crash recovery lost requests or goodput: "
              f"availability={s['availability']} "
              f"pre={s['goodput_tokens_per_s_pre']} "
              f"post={s['goodput_tokens_per_s_post']}")
        return 1
    print(f"crash recovery: rank 1 died at t={crash_t * 1e3:.3f}ms, "
          f"shrank 4 -> 3, {len(ev['requeued'])} re-enqueued, "
          f"availability 100%, recovery {s['recovery_time'] * 1e3:.3f}ms, "
          f"bit-identical across runners")

    print(rep.format_report())
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
