"""Native bucketed Ok-Topk sessions: every bucket is Algorithm 1 on its own
periodic state (threshold reuse, balanced regions and the volume bound per
bucket, degenerate buckets), one-bucket bit-identity with one-shot reduce,
stream-mode overlap wins, convergence parity, and the session/state bugfix
regressions (counter reset, 1-based iteration contract)."""

import numpy as np
import pytest

from repro.allreduce import (
    OkTopkState,
    ParamLayout,
    make_allreduce,
    run_session,
)
from repro.comm import NetworkModel, run_spmd
from repro.errors import ConfigError
from repro.sparse import COOVector

RUNNERS = ("coop", "threads")

#: layout mirroring a small multi-layer MLP (forward order; backward pushes
#: the reversed sequence, so the tail layers close the first buckets)
MLP_SIZES = [1536, 32, 1024, 32, 1024, 32, 320, 10]


def _layout(n=None):
    lay = ParamLayout.from_sizes(MLP_SIZES)
    assert n is None or lay.n == n
    return lay


N = sum(MLP_SIZES)  # 4010


def _acc(rank, t, n=N):
    rng = np.random.default_rng(1000 * rank + t)
    return rng.normal(size=n).astype(np.float32)


def _make(**kwargs):
    kwargs.setdefault("density", 0.05)
    kwargs.setdefault("tau", 2)
    kwargs.setdefault("tau_prime", 2)
    return make_allreduce("oktopk", **kwargs)


# ---------------------------------------------------------------------------
# One-bucket plans stay bit-identical to one-shot reduce (both runners)
# ---------------------------------------------------------------------------
def _run_mode(scheme, p, iters, mode, runner, bucket_size=None, stream=False):
    lay = _layout()

    def prog(comm):
        kwargs = {"density": 0.05, "tau": 2, "tau_prime": 2}
        if scheme == "oktopk_q":
            kwargs["stochastic"] = False
        algo = make_allreduce(scheme, **kwargs)
        outs = []
        for t in range(1, iters + 1):
            acc = _acc(comm.rank, t)
            if mode == "oneshot":
                res = algo.reduce(comm, acc, t)
            else:
                res = run_session(algo, comm, lay, t, acc,
                                  bucket_size=bucket_size, stream=stream)
            outs.append(res.update_dense(N).copy())
        return outs

    spmd = run_spmd(p, prog, runner=runner)
    clocks = [spmd.network.clocks[r] for r in range(p)]
    return spmd[0], spmd.stats, clocks


@pytest.mark.parametrize("scheme", ["oktopk", "oktopk_q"])
@pytest.mark.parametrize("stream", [False, True])
def test_one_bucket_plan_bit_identical_to_oneshot(scheme, stream):
    """The acceptance anchor: a one-bucket plan (bucket_size covers the
    whole layout) is the one-shot reduce — results, traffic counters and
    simulated makespans all match one-shot ``reduce`` bitwise, under both
    runners and regardless of stream mode."""
    p, iters = 4, 3
    ref, ref_stats, ref_clocks = _run_mode(scheme, p, iters,
                                           "oneshot", "coop")
    for runner in RUNNERS:
        got, stats, clocks = _run_mode(scheme, p, iters, "session", runner,
                                       bucket_size=10 * N, stream=stream)
        for t in range(iters):
            assert np.array_equal(ref[t], got[t]), (scheme, runner, t)
        assert np.array_equal(ref_stats.words_sent, stats.words_sent)
        assert np.array_equal(ref_stats.words_recv, stats.words_recv)
        assert np.array_equal(ref_stats.msgs_sent, stats.msgs_sent)
        assert clocks == ref_clocks, (scheme, runner)


def test_multi_bucket_identical_across_runners():
    """The bucketed path is runner-independent like everything
    else (results, traffic, makespans)."""
    p, iters = 4, 3
    base = None
    for runner in RUNNERS:
        got = _run_mode("oktopk", p, iters, "session", runner,
                        bucket_size=700)
        if base is None:
            base = got
        else:
            for t in range(iters):
                assert np.array_equal(base[0][t], got[0][t])
            assert np.array_equal(base[1].words_recv, got[1].words_recv)
            assert base[2] == got[2]


# ---------------------------------------------------------------------------
# Native multi-bucket semantics
# ---------------------------------------------------------------------------
class TestNativeBucketed:
    def test_all_ranks_agree_and_output_valid(self):
        p = 4
        lay = _layout()

        def prog(comm):
            algo = _make()
            outs = []
            for t in range(1, 4):
                res = run_session(algo, comm, lay, t, _acc(comm.rank, t),
                                  bucket_size=700)
                res.update.validate()
                assert isinstance(res.update, COOVector)
                assert res.nbuckets > 1
                outs.append(res.update_dense(N))
            return outs

        results = run_spmd(p, prog)
        for t in range(3):
            for r in range(1, p):
                assert np.array_equal(results[0][t], results[r][t])

    def test_bucket_k_budgets_split_from_global_k(self):
        p = 2
        lay = _layout()

        def prog(comm):
            algo = make_allreduce("oktopk", k=100, tau=2, tau_prime=2)
            return run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                               bucket_size=700)

        res = run_spmd(p, prog)[0]
        assert sum(res.info["bucket_k"]) == 100
        assert [st.k for st in res.bucket_stats] == res.info["bucket_k"]
        # proportional to bucket length (largest remainder)
        for st in res.bucket_stats:
            assert st.k == pytest.approx(100 * st.words / N, abs=1)

    def test_periodic_work_is_per_bucket_on_the_iteration_schedule(self):
        """Every funded bucket evaluates its own thresholds and boundaries
        exactly when the iteration schedule says so — and reuses them in
        between.  tau = tau' = 2 over 4 iterations with a 4-bucket plan:
        4 buckets x the due iterations t = 1 and t = 3, nothing extra."""
        p = 2
        lay = _layout()

        def prog(comm):
            algo = _make()
            for t in range(1, 5):
                res = run_session(algo, comm, lay, t, _acc(comm.rank, t),
                                  bucket_size=180)
                assert res.nbuckets == 4
            return (algo.local_evaluations, algo.global_evaluations,
                    algo.repartitions, algo.guard_evaluations,
                    sorted(algo.states), algo.state)

        local, glob, reparts, guards, extents, oneshot = run_spmd(p, prog)[0]
        assert (local, glob, reparts, guards) == (8, 8, 8, 0)
        # one state per bucket extent, none for the whole gradient
        assert len(extents) == 4 and extents[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(extents, extents[1:]))
        assert extents[-1][1] == N and oneshot is None

    def test_boundaries_partition_each_bucket(self):
        """Each bucket's consensus boundaries split ``[0, n_b)`` into P
        regions from iteration 1 on, and every rank owns a share of every
        bucket (no region swallows the slice)."""
        p = 4
        lay = _layout()

        def prog(comm):
            algo = _make()
            res = [run_session(algo, comm, lay, t, _acc(comm.rank, t),
                               bucket_size=700) for t in (1, 2)]
            return res, {ext: st.boundaries
                         for ext, st in algo.states.items()}

        (res1, res2), kept = run_spmd(p, prog)[0]
        for res in (res1, res2):
            assert len(res.bucket_stats) == len(kept) == 3
            for st in res.bucket_stats:
                bnd = st.info["boundaries"]
                assert bnd[0] == 0 and bnd[-1] == st.words
                assert len(bnd) == p + 1
                assert np.all(np.diff(bnd) > 0.1 * st.words / p)
        # tau = 2: iteration 2 reuses what iteration 1 agreed on, and that
        # is what the bucket's state holds
        for s1, s2 in zip(res1.bucket_stats, res2.bucket_stats):
            np.testing.assert_array_equal(s1.info["boundaries"],
                                          s2.info["boundaries"])
            np.testing.assert_array_equal(kept[(s1.lo, s1.hi)],
                                          s1.info["boundaries"])

    def test_zero_k_buckets_skipped(self):
        """k < nbuckets: unfunded buckets are skipped outright and the
        funded ones still produce a valid, rank-agreeing update."""
        p = 2
        lay = _layout()

        def prog(comm):
            algo = make_allreduce("oktopk", k=2, tau=2, tau_prime=2)
            return run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                               bucket_size=180)

        res = run_spmd(p, prog)[0]
        skipped = [st for st in res.bucket_stats if st.k == 0]
        assert skipped
        assert all(st.words_recv == 0 and st.comm_time == 0.0
                   for st in skipped)
        assert sum(res.info["bucket_k"]) == 2
        res.update.validate()

    def test_oktopk_q_native_buckets(self):
        """The quantized variant inherits the per-bucket driver (quantized
        phase-2 payloads per bucket)."""
        p = 2
        lay = _layout()

        def prog(comm):
            algo = make_allreduce("oktopk_q", density=0.05, tau=2,
                                  tau_prime=2, stochastic=False)
            res = run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                              bucket_size=700)
            res.update.validate()
            return res

        res = run_spmd(p, prog)[0]
        assert res.nbuckets > 1
        assert res.update.nnz > 0


# ---------------------------------------------------------------------------
# Bugfix regressions: state reset + 1-based iteration contract
# ---------------------------------------------------------------------------
class TestStateReset:
    def test_counters_reset_with_thresholds_on_size_change(self):
        """Regression: a gradient-size change used to reset thresholds and
        boundaries but leak the evaluation/repartition counters, so a
        scheme instance reused across models reported stale stats."""

        def prog(comm):
            algo = _make()
            for t in range(1, 4):
                algo.reduce(comm, _acc(comm.rank, t, 512), t)
            before = (algo.local_evaluations, algo.global_evaluations,
                      algo.repartitions)
            # new model size: the whole state object is discarded
            algo.reduce(comm, _acc(comm.rank, 1, 256), 1)
            after = (algo.local_evaluations, algo.global_evaluations,
                     algo.repartitions)
            return before, after, algo.state.n

        before, after, n = run_spmd(2, prog)[0]
        assert before == (2, 2, 2)   # tau = tau' = 2 over 3 iterations
        assert after == (1, 1, 1)    # fresh state: only the new run counts
        assert n == 256

    def test_state_object_replaced_not_mutated(self):
        def prog(comm):
            algo = _make()
            algo.reduce(comm, _acc(comm.rank, 1, 512), 1)
            st1 = algo.state
            algo.reduce(comm, _acc(comm.rank, 1, 256), 1)
            return st1, algo.state

        st1, st2 = run_spmd(1, prog)[0]
        assert isinstance(st1, OkTopkState) and isinstance(st2, OkTopkState)
        assert st1 is not st2
        assert (st1.n, st2.n) == (512, 256)
        # the old object still reports the run it belonged to
        assert st1.local_evaluations == 1

    def test_balancing_counter_lives_in_state(self):
        def prog(comm):
            algo = make_allreduce("oktopk", k=16, tau_prime=1,
                                  balanced_partition=False,
                                  balance_trigger=1.5)
            acc = np.zeros(512, dtype=np.float32)
            rng = np.random.default_rng(comm.rank)
            acc[: 512 // 8] = rng.normal(size=512 // 8) * 10
            algo.reduce(comm, acc, 1)
            return algo.balancing_triggered, algo.state.balancing_triggered

        triggered, via_state = run_spmd(4, prog)[0]
        assert triggered == via_state == 1


class TestGuardCounter:
    """``guard_evaluations``: how many threshold evaluations were guard
    trips rather than scheduled (ROADMAP item 6a's instrument)."""

    def test_one_shot_guard_trip_is_counted(self):
        def prog(comm):
            algo = _make(tau_prime=100)
            algo.reduce(comm, _acc(comm.rank, 1), 1)
            first = (algo.state.local_evaluations,
                     algo.state.guard_evaluations)
            # a 100x louder gradient: the reused threshold over-selects
            algo.reduce(comm, 100 * _acc(comm.rank, 2), 2)
            return first, (algo.state.local_evaluations,
                           algo.state.guard_evaluations)

        for runner in RUNNERS:
            first, second = run_spmd(2, prog, runner=runner)[0]
            assert first == (1, 0)
            assert second == (2, 1)

    def test_per_bucket_guard_trip_updates_only_that_bucket(self):
        lay = _layout()

        def prog(comm):
            algo = _make(tau_prime=100)
            run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                        bucket_size=700)
            before = {ext: st.local_th for ext, st in algo.states.items()}
            evals = algo.local_evaluations
            acc = _acc(comm.rank, 2)
            acc[:1536] *= 1000          # one layer dwarfs the others
            run_session(algo, comm, lay, 2, acc, bucket_size=700)
            after = {ext: st.local_th for ext, st in algo.states.items()}
            return (before, after, algo.local_evaluations - evals,
                    {ext: st.guard_evaluations
                     for ext, st in algo.states.items()},
                    algo.guard_evaluations)

        for runner in RUNNERS:
            before, after, evals, guards, total = run_spmd(
                2, prog, runner=runner)[0]
            loud = min(before)          # the bucket holding [0, 1536)
            assert loud[0] == 0 and loud[1] >= 1536 and len(before) == 3
            # the trip re-evaluated the loud bucket's threshold in place ...
            assert after[loud] > 100 * before[loud]
            assert guards[loud] == 1
            # ... and its siblings kept reusing theirs
            for ext in before:
                if ext != loud:
                    assert after[ext] == before[ext] and guards[ext] == 0
            assert evals == total == 1  # nothing was scheduled at t = 2


class TestIterationContract:
    def test_due_rejects_non_positive_t(self):
        algo = _make()
        with pytest.raises(ConfigError, match="1-based"):
            algo._due(0, 4)
        with pytest.raises(ConfigError):
            algo._due(-3, 4)
        assert algo._due(1, 4) and not algo._due(2, 4)

    @pytest.mark.parametrize("t", [0, -1])
    def test_reduce_rejects_non_positive_t(self, t):
        def prog(comm):
            algo = _make()
            with pytest.raises(ConfigError):
                algo.reduce(comm, _acc(comm.rank, 1), t)
            return True

        assert run_spmd(1, prog)[0]

    def test_begin_rejects_non_positive_t(self):
        def prog(comm):
            algo = _make()
            with pytest.raises(ConfigError):
                algo.begin(comm, _layout(), 0)
            return True

        assert run_spmd(1, prog)[0]

    def test_schedule_not_shifted_by_validation(self):
        """t=1 fires the schedule, t=period+1 fires it again (the bug was
        silent schedule shift for non-positive t — now impossible)."""
        algo = _make(tau_prime=4)
        assert algo._due(1, 4)
        assert not any(algo._due(t, 4) for t in (2, 3, 4))
        assert algo._due(5, 4)


# ---------------------------------------------------------------------------
# Trainer-level: stream overlap win + convergence parity (acceptance)
# ---------------------------------------------------------------------------
def _train_mlp(p, iters, bucket_size, mode, net, tau=4):
    from repro.data import ShardedLoader, make_cifar_like
    from repro.nn.activation import ReLU
    from repro.nn.linear import Linear
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.module import FlatModel, Flatten, Sequential
    from repro.train import Trainer, TrainerConfig

    def prog(comm):
        rng = np.random.default_rng(5)
        mod = Sequential(Flatten(),
                         Linear(48, 32, rng=rng), ReLU(),
                         Linear(32, 32, rng=rng), ReLU(),
                         Linear(32, 32, rng=rng), ReLU(),
                         Linear(32, 10, rng=rng))
        model = FlatModel(mod, SoftmaxCrossEntropy(),
                          flops_per_sample=2.0 * 48 * 32 * 3)
        train_d, _ = make_cifar_like(32, 8, image_size=4, noise=0.5, seed=0)
        loader = ShardedLoader(train_d, 8, comm.rank, comm.size, seed=1)
        cfg = TrainerConfig(iterations=iters, scheme="oktopk", lr=0.05,
                            density=0.05, bucket_size=bucket_size,
                            overlap_mode=mode,
                            scheme_kwargs={"tau": tau, "tau_prime": tau})
        return Trainer(comm, model, loader, cfg).run()

    return run_spmd(p, prog, model=net)[0]


#: comm-heavy: raw communication is the majority of the one-shot's visible
#: non-compute time, with enough backward to hide buckets behind
OVERLAP_NET = NetworkModel(alpha=5e-7, beta=5e-7, flop_time=2e-8)
#: strictly comm-bound: mean communication exceeds mean compute
COMM_BOUND_NET = NetworkModel(alpha=1e-7, beta=1e-6, flop_time=2e-8)


class TestStreamOverlap:
    def test_stream_strictly_faster_every_iteration(self):
        """Multi-bucket stream mode beats the one-shot baseline on every
        single iteration when there is backward compute to hide behind."""
        one = _train_mlp(4, 6, None, "analytic", OVERLAP_NET)
        stm = _train_mlp(4, 6, 700, "stream", OVERLAP_NET)
        assert all(r.nbuckets > 1 for r in stm.records)
        assert not any(r.stream_fallback for r in stm.records)
        for ro, rs in zip(one.records, stm.records):
            assert rs.iteration_time < ro.iteration_time
        assert stm.total_time < one.total_time

    def test_stream_total_win_comm_bound(self):
        """The acceptance scenario: strictly comm-bound network (mean comm
        > mean compute), multi-bucket stream iteration time strictly below
        the one-shot baseline in aggregate."""
        one = _train_mlp(4, 6, None, "analytic", COMM_BOUND_NET)
        stm = _train_mlp(4, 6, 180, "stream", COMM_BOUND_NET)
        bd = one.mean_breakdown(skip=1)
        assert bd["communication"] > bd["computation+io"]  # comm-bound
        assert all(r.nbuckets > 1 for r in stm.records)
        assert stm.total_time < one.total_time
        # results are overlap-mode-independent: same losses as the
        # analytic replay of the same bucketed execution
        ana = _train_mlp(4, 6, 180, "analytic", COMM_BOUND_NET)
        assert np.array_equal(stm.losses, ana.losses)

    def test_stream_runner_equivalence(self):
        import os
        recs = {}
        for runner in RUNNERS:
            os.environ["REPRO_SPMD_RUNNER"] = runner
            try:
                recs[runner] = _train_mlp(4, 4, 700, "stream", OVERLAP_NET)
            finally:
                os.environ.pop("REPRO_SPMD_RUNNER", None)
        a, b = recs["coop"], recs["threads"]
        assert np.array_equal(a.losses, b.losses)
        for ra, rb in zip(a.records, b.records):
            assert ra.iteration_time == rb.iteration_time
            assert ra.comm_time == rb.comm_time
            assert ra.words_recv == rb.words_recv


@pytest.mark.slow
class TestConvergenceParity:
    def test_perf_mlp_final_loss_within_noise_of_oneshot(self):
        """Acceptance: bucketed-stream Ok-Topk converges like one-shot
        Ok-Topk on the perf_mlp scenario (deterministic seeds, so the
        tolerance brackets algorithmic noise, not run-to-run noise)."""
        from repro.bench import perf_proxy, train_scheme
        from repro.bench.harness import proxy_network

        kw = {"tau": 4, "tau_prime": 4}
        one = train_scheme(perf_proxy(), "oktopk", 4, 12, density=0.02,
                           scheme_kwargs=kw, network=proxy_network())
        stm = train_scheme(perf_proxy(), "oktopk", 4, 12, density=0.02,
                           scheme_kwargs=kw, bucket_size=512,
                           overlap_mode="stream", network=proxy_network())
        assert np.isfinite(one.losses).all()
        assert np.isfinite(stm.losses).all()
        assert stm.records[-1].nbuckets > 1
        assert not any(r.stream_fallback for r in stm.records)
        # both runs converge well below their starting loss...
        assert one.losses[-1] < 0.3 * one.losses[0]
        assert stm.losses[-1] < 0.3 * stm.losses[0]
        # ...and end within noise of each other
        assert stm.losses[-1] == pytest.approx(one.losses[-1], rel=0.35)


# ---------------------------------------------------------------------------
# What the paper promises, per bucket
# ---------------------------------------------------------------------------
#: six layers -> six one-segment buckets; layer 2 is 100x louder
MIX_LAYOUT = ParamLayout.from_sizes([600, 400, 500, 300, 450, 350])
MIX_SCALE = np.ones(MIX_LAYOUT.n, dtype=np.float32)
MIX_SCALE[MIX_LAYOUT[2].sl] = 100.0


def _mix_acc(rank, t):
    rng = np.random.default_rng(1000 * rank + t)
    return rng.standard_normal(MIX_LAYOUT.n).astype(np.float32) * MIX_SCALE


class TestPerBucketPromises:
    def test_thresholds_are_reused_on_a_stationary_layer_mix(self):
        """Section 3.1.3 per bucket: with stationary statistics — however
        different from layer to layer — a bucket sorts at its tau'
        iterations and scans in between."""
        iters, nb = 40, len(MIX_LAYOUT)

        def prog(comm):
            algo = make_allreduce("oktopk", density=0.05, tau=64,
                                  tau_prime=32)
            for t in range(1, iters + 1):
                res = run_session(algo, comm, MIX_LAYOUT, t,
                                  _mix_acc(comm.rank, t), bucket_size=1)
                assert res.nbuckets == nb
            return algo.local_evaluations, algo.guard_evaluations

        for local, guards in run_spmd(4, prog).results:
            assert guards <= 0.10 * nb * iters
            assert local - guards == nb * 2       # t = 1 and t = 33

    @pytest.mark.parametrize("p", [3, 8])
    def test_volume_bound_and_balance_hold_per_bucket(self, p):
        """Table 1 per bucket: once the thresholds and boundaries exist,
        no rank receives more than ``6 k_b (P-1)/P`` words for a bucket —
        scaled by how far the reused thresholds over-select, plus the
        P-1 words of the package-size exchange — and uniform input never
        needs the balancing step."""
        iters = 6

        def prog(comm):
            algo = make_allreduce("oktopk", density=0.05, tau=64,
                                  tau_prime=64)
            stats = []
            for t in range(1, iters + 1):
                res = run_session(algo, comm, MIX_LAYOUT, t,
                                  _mix_acc(comm.rank, t), bucket_size=1)
                stats.append([(b.k, b.words_recv, b.selected,
                               b.info["selected_global"])
                              for b in res.bucket_stats])
            return stats, algo.balancing_triggered

        results = run_spmd(p, prog).results
        assert all(balancing == 0 for _, balancing in results)
        for t in range(1, iters):                 # skip iteration 1
            for b in range(len(MIX_LAYOUT)):
                per_rank = [stats[t][b] for stats, _ in results]
                k_b = per_rank[0][0]
                over = max(max(sel, glob) for _, _, sel, glob in per_rank)
                bound = 6 * k_b * (p - 1) / p * max(1.0, over / k_b) + p - 1
                assert max(recv for _, recv, _, _ in per_rank) <= bound, (t, b)
