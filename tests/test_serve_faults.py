"""Fault-tolerant serving: survivable TP inference under live traffic.

The ISSUE-10 acceptance criteria, as tests:

* a P=4 serving run with a mid-run ``RankCrash`` completes — survivors
  shrink to 3, re-enqueued in-flight requests finish, goodput is positive
  on both sides of the failure — and the full report is bit-identical
  across the ``coop``/``threads`` runners and fused/unfused
  collective paths (crash recovery is a pure function of
  ``(seed, config, plan)``);
* request-level robustness: per-request deadlines, timeout reaping,
  deterministic retry with capped exponential backoff, and deadline-aware
  admission shedding are first-class terminal states with exact
  accounting in the report;
* transparency: ``faults=None`` never consults the robustness knobs and
  the report carries no degradation section.
"""

from dataclasses import replace

import pytest

from repro.comm.faults import (ComputeStraggler, FaultPlan, LinkSlowdown,
                               RankCrash)
from repro.serve import ServeConfig, simulate_serving
from repro.serve.loop import _retry_release

SMOKE = ServeConfig(p=4, rate=2000.0, n_requests=12, prompt_tokens=32,
                    output_tokens=3, max_batch_size=4, seed=0)

RUNNERS = ("coop", "threads")


def crash_at(time, rank=1, detect_timeout=1e-4):
    return FaultPlan(crashes=[RankCrash(rank=rank, time=time)],
                     detect_timeout=detect_timeout)


def signature(rep):
    """Everything semantically comparable across runners and fused
    paths, the whole provenance log included."""
    return (rep.requests, rep.summary(), rep.steps, rep.events,
            rep.makespan, rep.checksum, rep.algorithms)


class TestCrashRecovery:
    def clean(self):
        return simulate_serving(SMOKE)

    def test_crash_mid_decode_recovers(self):
        clean = self.clean()
        # crash mid-decode of a request admitted after a few others have
        # fully completed, so goodput is measurable on both sides
        done = sorted(r.token_times[-1] for r in clean.requests)
        rec = next(r for r in clean.requests
                   if len(r.token_times) >= 2 and r.token_times[0] > done[2])
        t = 0.5 * (rec.token_times[0] + rec.token_times[1])
        rep = simulate_serving(SMOKE, faults=crash_at(t))

        (ev,) = rep.events
        assert ev["event"] == "shrink"
        assert ev["failed_ranks"] == [1]
        assert (ev["old_size"], ev["new_size"]) == (4, 3)
        assert ev["requeued"]  # tokens in flight died with the old world
        s = rep.summary()
        # the re-enqueued requests finish: nothing shed, nothing timed out
        assert s["availability"] == 1.0
        assert s["completed"] == SMOKE.n_requests
        assert s["total_retries"] == len(ev["requeued"])
        assert s["recovery_time"] > 0
        # goodput on both sides of the failure
        assert s["goodput_tokens_per_s_pre"] > 0
        assert s["goodput_tokens_per_s_post"] > 0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_crash_mid_prefill_recovers(self):
        rec = self.clean().requests[0]
        t = 0.5 * (rec.admitted + rec.token_times[0])
        rep = simulate_serving(SMOKE, faults=crash_at(t, rank=2))

        (ev,) = rep.events
        assert ev["failed_ranks"] == [2]
        assert (ev["old_size"], ev["new_size"]) == (4, 3)
        assert rep.summary()["availability"] == 1.0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_cascading_double_crash(self):
        clean = self.clean()
        t1 = clean.requests[2].token_times[0]
        t2 = clean.requests[-1].token_times[-1]
        plan = FaultPlan(crashes=[RankCrash(rank=3, time=t1),
                                  RankCrash(rank=1, time=0.5 * (t1 + t2))],
                         detect_timeout=1e-4)
        rep = simulate_serving(SMOKE, faults=plan)

        assert [ev["new_size"] for ev in rep.events] == [3, 2]
        assert rep.summary()["availability"] == 1.0
        assert rep.generated_tokens == 3 * SMOKE.n_requests

    def test_shrink_to_lone_survivor(self):
        cfg = replace(SMOKE, p=2, n_requests=8)
        t = simulate_serving(cfg).requests[3].token_times[0]
        rep = simulate_serving(cfg, faults=crash_at(t, rank=0))

        (ev,) = rep.events
        assert (ev["old_size"], ev["new_size"]) == (2, 1)
        assert rep.summary()["availability"] == 1.0

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_bit_identical_across_runners_and_fused(self, runner, fused):
        rec = next(r for r in self.clean().requests
                   if len(r.token_times) >= 2)
        plan = crash_at(0.5 * (rec.token_times[0] + rec.token_times[1]))
        base = signature(simulate_serving(SMOKE, faults=plan))
        got = signature(simulate_serving(SMOKE, faults=plan,
                                         runner=runner, fused=fused))
        assert got == base, (runner, fused)


class TestRequestRobustness:
    def test_retry_release_is_pure_and_capped(self):
        cfg = SMOKE
        a = _retry_release(cfg, rid=7, attempt=1, now=1.0)
        assert a == _retry_release(cfg, rid=7, attempt=1, now=1.0)
        assert a != _retry_release(cfg, rid=8, attempt=1, now=1.0)
        assert a != _retry_release(replace(cfg, seed=9), 7, 1, 1.0)
        for attempt in range(1, 8):
            delay = _retry_release(cfg, 7, attempt, 0.0)
            # capped exponential with jitter in [0, 1): never more than
            # twice the cap, never less than the uncapped base step
            assert delay <= 2.0 * cfg.retry_backoff_cap
            assert delay >= min(cfg.retry_backoff * 2 ** (attempt - 1),
                                cfg.retry_backoff_cap)

    def test_crash_run_repeats_identically(self):
        t = simulate_serving(SMOKE).requests[4].token_times[0]
        a = simulate_serving(SMOKE, faults=crash_at(t))
        b = simulate_serving(SMOKE, faults=crash_at(t))
        assert signature(a) == signature(b)

    def test_shed_accounting(self):
        # max_wait=0 admits at arrival; the analytic service bound alone
        # exceeds the deadline, so every request is shed at admission.
        cfg = replace(SMOKE, n_requests=8, max_wait=0.0, deadline=5e-5)
        rep = simulate_serving(cfg, faults=FaultPlan())
        s = rep.summary()
        assert s["shed"] == 8
        assert s["completed"] == 0
        assert s["availability"] == 0.0
        assert all(r.status == "shed" and not r.token_times
                   for r in rep.requests)

    def test_timeout_reaping(self):
        # with the default max_wait the batcher holds requests queued past
        # a deadline this tight; they are reaped as timeouts, not errors
        cfg = replace(SMOKE, deadline=3e-5)
        rep = simulate_serving(cfg, faults=FaultPlan())
        s = rep.summary()
        assert s["timeout"] > 0
        timed_out = [r for r in rep.requests if r.status == "timeout"]
        assert timed_out and all(not r.token_times for r in timed_out)

    def test_straggler_and_slow_link_degrade_honestly(self):
        plan = FaultPlan(stragglers=[ComputeStraggler(rank=0, factor=40.0)],
                         links=[LinkSlowdown(rank=2, factor=20.0)])
        cfg = replace(SMOKE, deadline=2e-3)
        clean = simulate_serving(SMOKE, faults=FaultPlan())
        slow = simulate_serving(cfg, faults=plan)
        s = slow.summary()
        assert slow.makespan > clean.makespan
        assert s["availability"] < 1.0
        assert s["timeout"] > 0
        assert s["slo_attainment"] <= s["availability"]

    def test_retry_budget_exhaustion_sheds(self):
        clean = simulate_serving(SMOKE)
        t1 = clean.requests[2].token_times[0]
        plan = FaultPlan(crashes=[RankCrash(rank=3, time=t1),
                                  RankCrash(rank=2, time=t1 * 1.5),
                                  RankCrash(rank=1, time=t1 * 2.25)],
                         detect_timeout=1e-4)
        rep = simulate_serving(replace(SMOKE, retry_budget=1), faults=plan)
        dropped = [rid for ev in rep.events for rid in ev["dropped"]]
        if dropped:  # budget bites only if some request is hit twice
            assert rep.summary()["shed"] >= len(set(dropped))
            assert all(rep.requests[rid].status == "shed"
                       for rid in dropped)
        assert rep.summary()["availability"] < 1.0 or not dropped


class TestTransparency:
    def test_plan_less_run_ignores_robustness_knobs(self):
        # deadline/retry knobs are only consulted by the fault-aware loop;
        # without a plan the fast path must not even read them
        base = simulate_serving(SMOKE)
        knobs = simulate_serving(replace(SMOKE, deadline=1e-9,
                                         retry_budget=0,
                                         retry_backoff=1.0))
        assert base.requests == knobs.requests
        assert base.summary() == knobs.summary()
        assert base.checksum == knobs.checksum

    def test_plan_less_report_has_no_degradation_section(self):
        rep = simulate_serving(SMOKE)
        assert rep.faulted is False
        assert rep.events == []
        s = rep.summary()
        for key in ("availability", "slo_attainment", "recovery_time",
                    "shed", "timeout"):
            assert key not in s

    def test_explicit_none_matches_default(self):
        assert signature(simulate_serving(SMOKE)) == \
            signature(simulate_serving(SMOKE, faults=None))

    def test_empty_plan_reports_healthy_degradation_section(self):
        rep = simulate_serving(SMOKE, faults=FaultPlan())
        assert rep.faulted is True
        assert rep.events == []
        s = rep.summary()
        assert s["availability"] == 1.0
        assert s["slo_attainment"] == 1.0
        assert s["recovery_time"] == 0.0
        # same admissions and stamps as the plan-less fast path
        clean = simulate_serving(SMOKE)
        assert [(r.rid, r.admitted, r.token_times) for r in rep.requests] \
            == [(r.rid, r.admitted, r.token_times) for r in clean.requests]
