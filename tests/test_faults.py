"""Fault-plan subsystem: deterministic slowdowns, stragglers, crashes,
survivable collectives and elastic recovery (see repro.comm.faults)."""

import json

import numpy as np
import pytest

from repro.allreduce import ParamLayout, make_allreduce
from repro.comm import Network, collectives, run_spmd
from repro.comm.faults import (ComputeStraggler, FaultPlan, FaultState,
                               LinkSlowdown, RankCrash)
from repro.errors import (CommError, ConfigError, RankFailedError,
                          SimulatedRankCrash)

RUNNERS = ("coop", "threads")


def _allreduce_prog(comm, n=256, iters=2, compute=1e-5):
    rng = np.random.default_rng(comm.rank)
    x = rng.standard_normal(n).astype(np.float32)
    out = None
    for _ in range(iters):
        comm.compute(compute)
        out = collectives.allreduce(comm, x)
    return out


# ---------------------------------------------------------------------------
# Plan validation and (de)serialization
# ---------------------------------------------------------------------------
class TestPlanValidation:
    def test_slowdown_factor_must_be_positive(self):
        with pytest.raises(ConfigError, match="factor"):
            LinkSlowdown(rank=0, factor=0.0)

    def test_slowdown_direction_checked(self):
        with pytest.raises(ConfigError, match="direction"):
            LinkSlowdown(rank=0, factor=2.0, direction="sideways")

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            ComputeStraggler(rank=0, factor=2.0, t_start=1.0, t_end=1.0)

    def test_crash_needs_exactly_one_pin(self):
        with pytest.raises(ConfigError, match="exactly one"):
            RankCrash(rank=0)
        with pytest.raises(ConfigError, match="exactly one"):
            RankCrash(rank=0, time=1.0, iteration=2)

    def test_crash_iteration_is_one_based(self):
        with pytest.raises(ConfigError, match="1-based"):
            RankCrash(rank=0, iteration=0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"),
                                        -float("inf")])
    @pytest.mark.parametrize("make", [LinkSlowdown, ComputeStraggler])
    def test_non_finite_factor_rejected(self, make, factor):
        """NaN and inf pass a ``<= 0`` guard; a NaN slowdown would turn
        every clock it touches into NaN."""
        with pytest.raises(ConfigError, match="factor must be finite"):
            make(rank=0, factor=factor)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"),
                                         -float("inf")])
    def test_non_finite_detect_timeout_rejected(self, timeout):
        with pytest.raises(ConfigError, match="detect_timeout"):
            FaultPlan(detect_timeout=timeout)
        with pytest.raises(ConfigError, match="detect_timeout"):
            FaultPlan.from_dict({"detect_timeout": timeout})

    @pytest.mark.parametrize("time", [float("nan"), -float("inf")])
    def test_nan_or_negative_crash_time_rejected(self, time):
        with pytest.raises(ConfigError, match="crash time"):
            RankCrash(rank=0, time=time)

    @pytest.mark.parametrize("make", [LinkSlowdown, ComputeStraggler])
    def test_windows_stay_open_ended_but_not_nan(self, make):
        assert make(rank=0, factor=2.0).t_end == float("inf")
        with pytest.raises(ConfigError, match="window"):
            make(rank=0, factor=2.0, t_end=float("nan"))
        with pytest.raises(ConfigError, match="window"):
            make(rank=0, factor=2.0, t_start=float("nan"))

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan(crashes=[RankCrash(rank=1, time=0.0),
                               RankCrash(rank=1, iteration=3)])

    def test_compile_checks_rank_ranges(self):
        with pytest.raises(ConfigError, match="out of range"):
            FaultPlan(links=[LinkSlowdown(rank=4, factor=2.0)]).compile(4)
        with pytest.raises(ConfigError, match="out of range"):
            FaultPlan(crashes=[RankCrash(rank=-1, time=0.0)]).compile(4)

    def test_json_round_trip(self):
        plan = FaultPlan(
            links=[LinkSlowdown(rank=1, factor=4.0, direction="egress",
                                t_start=0.5, t_end=2.0),
                   LinkSlowdown(rank=0, factor=2.0)],
            stragglers=[ComputeStraggler(rank=2, factor=3.0)],
            crashes=[RankCrash(rank=3, iteration=7)],
            detect_timeout=5e-4, seed=11)
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan
        json.loads(plan.to_json())  # strict JSON (no inf leaked)

    def test_seeded_generators_are_reproducible(self):
        a = FaultPlan.straggler_skew(8, seed=3)
        assert a == FaultPlan.straggler_skew(8, seed=3)
        assert a != FaultPlan.straggler_skew(8, seed=4)
        assert a.stragglers[0].rank != a.links[0].rank
        j = FaultPlan.jittery(8, seed=5, windows=3)
        assert j == FaultPlan.jittery(8, seed=5, windows=3)
        assert len(j.links) == 3

    def test_window_factors_compose_multiplicatively(self):
        st = FaultPlan(
            stragglers=[ComputeStraggler(rank=0, factor=2.0),
                        ComputeStraggler(rank=0, factor=3.0,
                                         t_start=0.0, t_end=1.0)],
        ).compile(2)
        assert isinstance(st, FaultState)
        assert st.compute_factor(0, 0.5) == 6.0
        assert st.compute_factor(0, 2.0) == 2.0  # second window ended
        assert st.compute_factor(1, 0.5) == 1.0


# ---------------------------------------------------------------------------
# Determinism contracts
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_empty_plan_is_identical_to_no_plan(self):
        base = {r: run_spmd(4, _allreduce_prog, runner=r) for r in RUNNERS}
        empty = {r: run_spmd(4, _allreduce_prog, runner=r,
                             faults=FaultPlan()) for r in RUNNERS}
        for r in RUNNERS:
            assert empty[r].makespan == base[r].makespan
            np.testing.assert_array_equal(empty[r][0], base[r][0])
            np.testing.assert_array_equal(empty[r].stats.words_sent,
                                          base[r].stats.words_sent)

    def test_faulted_run_identical_across_runners(self):
        plan = FaultPlan.straggler_skew(4, seed=7)
        res = {r: run_spmd(4, _allreduce_prog, runner=r, faults=plan)
               for r in RUNNERS}
        a, b = (res[r] for r in RUNNERS)
        assert a.makespan == b.makespan
        assert list(a.network.clocks) == list(b.network.clocks)
        for x, y in zip(a.results, b.results):
            np.testing.assert_array_equal(x, y)

    def test_jittery_plan_identical_across_runners(self):
        plan = FaultPlan.jittery(4, seed=2, horizon=1e-4, windows=4,
                                 window_frac=0.3)
        res = {r: run_spmd(4, _allreduce_prog, runner=r, faults=plan)
               for r in RUNNERS}
        a, b = (res[r] for r in RUNNERS)
        assert a.makespan == b.makespan
        assert list(a.network.clocks) == list(b.network.clocks)


# ---------------------------------------------------------------------------
# Slowdown / straggler semantics
# ---------------------------------------------------------------------------
class TestSlowdowns:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_slow_link_increases_makespan(self, runner):
        clean = run_spmd(4, _allreduce_prog, runner=runner).makespan
        slow = run_spmd(
            4, _allreduce_prog, runner=runner,
            faults=FaultPlan(links=[LinkSlowdown(rank=1, factor=64.0)]),
        ).makespan
        assert slow > clean

    @pytest.mark.parametrize("direction", ["egress", "ingress", "both"])
    def test_directions_all_bite(self, direction):
        clean = run_spmd(4, _allreduce_prog).makespan
        plan = FaultPlan(links=[LinkSlowdown(rank=0, factor=64.0,
                                             direction=direction)])
        assert run_spmd(4, _allreduce_prog, faults=plan).makespan > clean

    def test_window_after_run_is_noop(self):
        clean = run_spmd(4, _allreduce_prog)
        plan = FaultPlan(links=[LinkSlowdown(rank=1, factor=64.0,
                                             t_start=1e6, t_end=1e7)])
        faulted = run_spmd(4, _allreduce_prog, faults=plan)
        assert faulted.makespan == clean.makespan

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_straggler_scales_compute_exactly(self, runner):
        def prog(comm):
            comm.compute(1e-3)
            return comm.clock

        plan = FaultPlan(stragglers=[ComputeStraggler(rank=1, factor=4.0)])
        res = run_spmd(2, prog, runner=runner, faults=plan)
        assert res[0] == pytest.approx(1e-3)
        assert res[1] == pytest.approx(4e-3)

    def test_straggler_window_edges(self):
        def prog(comm):
            comm.compute(1.0)   # inside window on rank 0 -> 2.0
            comm.compute(1.0)   # starts at 2.0, outside -> 1.0
            return comm.clock

        plan = FaultPlan(stragglers=[ComputeStraggler(
            rank=0, factor=2.0, t_start=0.0, t_end=2.0)])
        res = run_spmd(1, prog, faults=plan)
        assert res[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Crash detection: every scheme, one-shot and bucketed, P in {4, 16}
# ---------------------------------------------------------------------------
N = 512
VICTIM = 1


def _make_scheme(name):
    if name in ("dense", "dense_ovlp"):
        return make_allreduce(name)
    return make_allreduce(name, density=0.05)


def _split_layout(n, pieces=4):
    from repro.allreduce.session import ParamSegment
    step = n // pieces
    return ParamLayout([
        ParamSegment(i, f"seg{i}", i * step,
                     step if i < pieces - 1 else n - (pieces - 1) * step)
        for i in range(pieces)])


def _crash_prog(comm, scheme, bucket_size):
    ar = _make_scheme(scheme)
    rng = np.random.default_rng(comm.rank)
    acc = rng.standard_normal(N).astype(np.float32)
    layout = _split_layout(N)
    try:
        for t in range(1, 4):
            comm.compute(1e-6)
            if bucket_size is None:
                ar.reduce(comm, acc, t)
            else:
                sess = ar.begin(comm, layout, t, bucket_size=bucket_size)
                for seg in layout.push_order():
                    sess.push(seg, acc[seg.sl])
                sess.finish()
    except RankFailedError as e:
        return ("detected", comm.clock, e.failed_ranks)
    return ("finished", comm.clock, ())


SCHEMES = ("dense", "topka", "gtopk", "oktopk")


class TestCrashDetection:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bucket_size", [None, 64])
    def test_survivors_detect_named_dead_rank(self, runner, scheme,
                                              bucket_size):
        plan = FaultPlan(crashes=[RankCrash(rank=VICTIM, time=2e-6)])
        res = run_spmd(4, _crash_prog, scheme, bucket_size,
                       runner=runner, faults=plan)
        # the planned crash is not an error: survivors handled it, so the
        # launcher reports success with the dead rank in `crashed`
        assert set(res.crashed) == {VICTIM}
        assert res.results[VICTIM] is None
        death = res.crashed[VICTIM].time
        for r in (0, 2, 3):
            status, clock, failed = res.results[r]
            assert status == "detected"
            assert failed == (VICTIM,)
            # bounded detection latency: the survivor's clock is charged
            # past the death, by at most the configured detector timeout
            # beyond its own progress point
            assert clock >= death
        assert res.crashed[VICTIM].rank == VICTIM

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_detection_deterministic_across_runners(self, scheme):
        plan = FaultPlan(crashes=[RankCrash(rank=VICTIM, time=2e-6)])
        out = {r: run_spmd(4, _crash_prog, scheme, 64, runner=r,
                           faults=plan) for r in RUNNERS}
        a, b = (out[r] for r in RUNNERS)
        assert a.results == b.results
        assert list(a.network.clocks) == list(b.network.clocks)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_p16_mid_collective_crash(self, runner):
        plan = FaultPlan(crashes=[RankCrash(rank=5, time=2e-6)])
        res = run_spmd(16, _crash_prog, "oktopk", None,
                       runner=runner, faults=plan)
        assert set(res.crashed) == {5}
        for r in range(16):
            if r == 5:
                continue
            status, _, failed = res.results[r]
            assert status == "detected"
            assert failed == (5,)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_uncaught_detection_raises_merged_error(self, runner):
        def prog(comm):
            return _allreduce_prog(comm)

        plan = FaultPlan(crashes=[RankCrash(rank=2, time=2e-6)])
        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner=runner, faults=plan)
        # one merged error naming exactly the dead rank — survivors'
        # reports collapse instead of piling up as failures themselves
        assert ei.value.failed_ranks == (2,)
        assert isinstance(ei.value.failures[2], SimulatedRankCrash)
        assert "rank 2" in str(ei.value)

    def test_compute_crossing_pins_clock_at_crash_time(self):
        def prog(comm):
            try:
                comm.compute(1.0)
            except SimulatedRankCrash:
                return comm.clock
            return None

        plan = FaultPlan(crashes=[RankCrash(rank=0, time=0.25)])
        res = run_spmd(1, prog, faults=plan)
        assert res.crashed == {}  # caught inside the program
        assert res[0] == pytest.approx(0.25)

    def test_sends_to_dead_rank_are_black_holed(self):
        """Eager sends never raise on a dead destination (NIC semantics);
        only blocking points detect."""
        def prog(comm):
            if comm.rank == 1:
                comm.compute(0.0)  # first fault-checked point: dies here
                return "unreachable"
            comm.send(np.zeros(8, np.float32), dest=1)
            comm.send(np.zeros(8, np.float32), dest=1)
            return "sent"

        plan = FaultPlan(crashes=[RankCrash(rank=1, time=0.0)])
        res = run_spmd(2, prog, faults=plan)
        assert res.results[0] == "sent"
        assert set(res.crashed) == {1}


# ---------------------------------------------------------------------------
# Elastic shrink + resume
# ---------------------------------------------------------------------------
class TestElasticRecovery:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_shrink_returns_group_communicator(self, runner):
        def prog(comm):
            try:
                _allreduce_prog(comm, iters=8)
            except RankFailedError:
                sub = comm.shrink()
                x = np.full(4, 1.0, dtype=np.float32)
                out = collectives.allreduce(sub, x)
                return (sub.rank, sub.size, sub.slot, float(out[0]))
            return None

        plan = FaultPlan(crashes=[RankCrash(rank=1, time=3e-6)])
        res = run_spmd(4, prog, runner=runner, faults=plan)
        survivors = [res.results[r] for r in (0, 2, 3)]
        assert [s[2] for s in survivors] == [0, 2, 3]       # slots
        assert [s[0] for s in survivors] == [0, 1, 2]       # new ranks
        assert all(s[1] == 3 for s in survivors)            # new size
        assert all(s[3] == 3.0 for s in survivors)          # P-1 allreduce

    def test_trainer_elastic_recovery_rekeys_and_converges(self):
        from repro.bench.harness import (perf_proxy, proxy_network,
                                         train_scheme)

        proxy = perf_proxy()
        plan = FaultPlan(crashes=[RankCrash(rank=1, iteration=3)])
        rec = train_scheme(proxy, "oktopk", 4, 8, density=0.05,
                           network=proxy_network(), faults=plan,
                           elastic=True)
        assert len(rec.records) == 8
        assert len(rec.events) == 1
        ev = rec.events[0]
        assert ev["failed_ranks"] == [1]
        assert (ev["old_size"], ev["new_size"]) == (4, 3)
        losses = [r.loss for r in rec.records]
        assert losses[-1] < losses[0]  # the shrunk run keeps learning

    def test_trainer_state_rekeyed_to_smaller_world(self):
        """After recovery the Ok-Topk consensus boundaries must describe a
        P-1 partition and the data loader must cover the global batch with
        P-1 shards."""
        from repro.bench.harness import perf_proxy
        from repro.data import ShardedLoader
        from repro.train import Trainer, TrainerConfig

        proxy = perf_proxy()

        def worker(comm):
            train, _ = proxy.make_splits()
            model = proxy.make_model()
            loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                                   comm.size, seed=0)
            cfg = TrainerConfig(iterations=6, scheme="oktopk",
                                density=0.05, lr=proxy.lr, elastic=True)
            tr = Trainer(comm, model, loader, cfg)
            rec = tr.run()
            st = tr.allreduce.state
            return (rec.events, tr.comm.size, len(st.boundaries),
                    loader.size, loader.local_batch)

        plan = FaultPlan(crashes=[RankCrash(rank=2, iteration=2)])
        res = run_spmd(4, worker, faults=plan)
        for r in (0, 1, 3):
            events, size, nbounds, lsize, lbatch = res.results[r]
            assert size == 3
            assert nbounds == 4            # P-1 regions -> P edges
            assert lsize == 3
            assert lbatch in (5, 6)        # 16 rows over 3 survivors
            assert events[0]["new_size"] == 3

    def test_elastic_identical_across_runners(self):
        from repro.bench.harness import (perf_proxy, proxy_network,
                                         train_scheme)

        proxy = perf_proxy()
        plan = FaultPlan(crashes=[RankCrash(rank=0, iteration=4)])
        recs = {}
        for runner in RUNNERS:
            import os
            old = os.environ.get("REPRO_SPMD_RUNNER")
            os.environ["REPRO_SPMD_RUNNER"] = runner
            try:
                recs[runner] = train_scheme(
                    proxy, "topka", 4, 6, density=0.05,
                    network=proxy_network(), faults=plan, elastic=True)
            finally:
                if old is None:
                    del os.environ["REPRO_SPMD_RUNNER"]
                else:
                    os.environ["REPRO_SPMD_RUNNER"] = old
        a, b = (recs[r] for r in RUNNERS)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert [r.iteration_time for r in a.records] == \
            [r.iteration_time for r in b.records]
        assert a.events == b.events

    def test_reshard_validates(self):
        from repro.bench.harness import perf_proxy
        from repro.data import ShardedLoader

        train, _ = perf_proxy().make_splits()
        loader = ShardedLoader(train, 16, 0, 4, seed=0)
        loader.reshard(0, 3)
        assert loader.size == 3
        with pytest.raises(ConfigError):
            loader.reshard(3, 3)
        with pytest.raises(ConfigError):
            loader.reshard(0, 17)


# ---------------------------------------------------------------------------
# Launcher failure attribution (satellite: genuine-error aggregation)
# ---------------------------------------------------------------------------
class TestLauncherAttribution:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_multiple_genuine_errors_aggregate_in_rank_order(self, runner):
        def prog(comm):
            if comm.rank in (3, 1):
                raise ValueError(f"boom-{comm.rank}")
            return comm.recv(source=comm.rank + 1 if comm.rank == 0 else 3,
                             tag=9)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner=runner)
        failed = ei.value.failed_ranks
        # both genuine errors survive attribution, ascending rank order;
        # secondary CommErrors from the blocked ranks are suppressed
        assert set(failed) <= {1, 3} and len(failed) >= 1
        for r in failed:
            assert isinstance(ei.value.failures[r], ValueError)
        if failed == (1, 3):
            assert str(ei.value).index("boom-1") < str(ei.value).index(
                "boom-3")

    def test_coop_aggregates_both_genuine_errors(self):
        """The deterministic engine sees both raises (no abort race)."""
        def prog(comm):
            comm.compute(1e-6)
            if comm.rank in (1, 3):
                raise ValueError(f"boom-{comm.rank}")
            try:
                comm.recv(source=(comm.rank + 1) % 4, tag=9)
            except CommError:
                raise

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner="coop")
        genuine = {r: e for r, e in ei.value.failures.items()
                   if isinstance(e, ValueError)}
        assert 1 in genuine or 3 in genuine

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_commerror_fallback_when_no_genuine_failure(self, runner):
        """All failures CommError (none genuine, none a planned crash):
        the launcher must still raise, reporting those failures."""
        def prog(comm):
            if comm.rank == 0:
                raise CommError("synthetic comm failure")
            return comm.recv(source=0, tag=1)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner=runner)
        assert 0 in ei.value.failures
        assert "synthetic comm failure" in str(ei.value)

    def test_all_ranks_crashed_is_elastic_success(self):
        def prog(comm):
            comm.compute(1.0)
            return "unreachable"

        plan = FaultPlan(crashes=[RankCrash(rank=0, time=0.1),
                                  RankCrash(rank=1, time=0.2)])
        res = run_spmd(2, prog, faults=plan)
        assert set(res.crashed) == {0, 1}
        assert res.results == [None, None]

    def test_genuine_error_wins_over_crash_reports(self):
        """A real bug during a faulted run must surface as that bug, not
        be masked by the concurrent planned crash."""
        def prog(comm, n=256):
            if comm.rank == 3:
                comm.compute(1e-5)
                raise KeyError("real bug")
            return _allreduce_prog(comm)

        plan = FaultPlan(crashes=[RankCrash(rank=1, time=2e-6)])
        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, faults=plan)
        assert any(isinstance(e, KeyError)
                   for e in ei.value.failures.values())


# ---------------------------------------------------------------------------
# Revoke + fused rendezvous detection (cooperative engine)
# ---------------------------------------------------------------------------
class TestRevokeRendezvous:
    def test_rank_parked_at_rendezvous_detects_revoked_peer(self):
        """A rank already parked at a fused-collective rendezvous when a
        peer is declared dead must be woken with RankFailedError (the
        rendezvous can never complete)."""
        def prog(comm):
            x = np.ones(64, dtype=np.float32)
            if comm.rank == 0:
                # Block until rank 1 is parked at the rendezvous, then
                # die (revoke is the public ULFM test hook).
                comm.recv(source=1, tag=5)
                comm.net.revoke(0)
                return "revoked"
            if comm.rank == 1:
                comm.send(1.0, dest=0, tag=5)
            try:
                collectives.allreduce(comm, x)
            except RankFailedError as e:
                return ("detected", e.failed_ranks)
            return "finished"

        res = run_spmd(4, prog, runner="coop", fused=True)
        assert res.results[0] == "revoked"
        for r in (1, 2, 3):
            assert res.results[r] == ("detected", (0,))

    def test_network_revoke_requires_valid_rank(self):
        net = Network(4)
        net.revoke(2)
        assert net.dead_ranks == (2,)


# ---------------------------------------------------------------------------
# The rendezvous gate: which worlds may enter the engine rendezvous
# (fused._available, which RankBatch.engaged rides)
# ---------------------------------------------------------------------------
def _gates(comm):
    """(fused gate, rank-batch gate) of ``comm`` right now."""
    from repro.comm.fused import _available
    from repro.train.rankbatch import RankBatch
    return _available(comm), RankBatch(comm).engaged()


class TestFastPathGate:
    """Slowdowns and stragglers are factors on the compiled schedules, so
    a plan no longer closes the gate; what does is anything that could
    leave a rendezvous incomplete — a crash that can still fire in the
    live world, a death inside it, a communicator that is not it."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(stragglers=[ComputeStraggler(rank=1, factor=3.0)]),
        FaultPlan(links=[LinkSlowdown(rank=0, factor=2.0)]),
        FaultPlan.straggler_skew(4, seed=5),
        FaultPlan(crashes=[RankCrash(rank=1, iteration=10**6)]),
    ], ids=["straggler", "slow-link", "straggler-skew", "far-future-crash"])
    def test_open_under_plans_that_cannot_break_a_rendezvous(
            self, plan, rendezvous_log):
        def prog(comm):
            comm.maybe_crash(iteration=1)
            gates = _gates(comm)
            return gates, _allreduce_prog(comm, iters=3), comm.clock

        fast = run_spmd(4, prog, runner="coop", fused=True, faults=plan)
        assert [r[0] for r in fast.results] == [(True, True)] * 4
        assert {e.head for e in rendezvous_log} == {"allreduce"}
        del rendezvous_log[:]
        ref = run_spmd(4, prog, runner="coop", fused=False, faults=plan)
        assert not rendezvous_log
        assert [r[0] for r in ref.results] == [(False, False)] * 4
        for a, b in zip(fast.results, ref.results):
            np.testing.assert_array_equal(a[1], b[1])
            assert a[2] == b[2]
        assert list(fast.network.clocks) == list(ref.network.clocks)
        assert list(fast.network.egress_free) == \
            list(ref.network.egress_free)
        assert list(fast.network.ingress_free) == \
            list(ref.network.ingress_free)

    def test_closed_while_a_time_pinned_crash_is_pending(self,
                                                         rendezvous_log):
        """The crash time is never reached, but it could be: the world
        stays per message for as long as the slot is alive."""
        def prog(comm):
            return _gates(comm), _allreduce_prog(comm)

        plan = FaultPlan(crashes=[RankCrash(rank=2, time=1e9)])
        res = run_spmd(4, prog, runner="coop", fused=True, faults=plan)
        assert [r[0] for r in res.results] == [(False, False)] * 4
        assert not rendezvous_log
        assert res.crashed == {}

    def test_closed_in_the_step_a_crash_is_due(self):
        def prog(comm):
            seen = []
            for step in (1, 2, 3):
                comm.maybe_crash(iteration=step)
                seen.append(_gates(comm))
            return seen

        plan = FaultPlan(crashes=[RankCrash(rank=1, iteration=2)])
        res = run_spmd(4, prog, runner="coop", fused=True, faults=plan)
        assert set(res.crashed) == {1}
        # Rank 0 runs all three steps before rank 1 is even scheduled
        # (nothing here blocks): open in step 1, closed from the step the
        # crash is due in — rank 1 is still in the live world, about to
        # die.  Ranks 2 and 3 run after the death: closed throughout, a
        # slot of the live world is dead and nobody shrank.
        assert res.results[0] == [(True, True), (False, False),
                                  (False, False)]
        for r in (2, 3):
            assert res.results[r] == [(False, False)] * 3

    def test_closed_after_an_external_revoke(self, rendezvous_log):
        def prog(comm):
            if comm.rank == 0:      # runs first under coop: FIFO start
                comm.net.revoke(0)
                return None
            gates = _gates(comm)
            try:
                collectives.allreduce(comm, np.ones(8, np.float32))
            except RankFailedError as e:
                return gates, e.failed_ranks
            return gates, ()

        res = run_spmd(4, prog, runner="coop", fused=True)
        assert res.results[1:] == [((False, False), (0,))] * 3
        assert not rendezvous_log

    def test_closed_on_a_group_that_is_not_the_current_world(self):
        from repro.comm import SimComm

        def prog(comm):
            sub = SimComm(comm.net, comm.rank % 2,
                          group=(0, 1) if comm.rank < 2 else (2, 3))
            whole = SimComm(comm.net, comm.rank,
                            group=tuple(range(comm.size)))
            return _gates(sub), _gates(whole)

        res = run_spmd(4, prog, runner="coop", fused=True)
        assert res.results == [((False, False), (True, True))] * 4

    def test_shrink_moves_the_gate_to_the_survivor_world(self,
                                                         rendezvous_log):
        def prog(comm):
            try:
                _allreduce_prog(comm, iters=8)
            except RankFailedError:
                before = len(rendezvous_log)
                sub = comm.shrink()
                out = collectives.allreduce(
                    sub, np.full(4, 1.0, dtype=np.float32))
                return (_gates(comm), _gates(sub), float(out[0]),
                        len(rendezvous_log) > before)
            return None

        plan = FaultPlan(crashes=[RankCrash(rank=1, time=3e-6)])
        res = run_spmd(5, prog, runner="coop", fused=True, faults=plan)
        # nothing entered the rendezvous while the crash was pending;
        # the survivors' first collective after the shrink does
        assert [(e.size, e.head) for e in rendezvous_log] == \
            [(4, "allreduce")] * 4
        for r in (0, 2, 3, 4):
            assert res.results[r] == ((False, False), (True, True), 4.0,
                                      True)

