"""Native bucketed Ok-Topk sessions: shared periodic state across buckets,
one-bucket bit-identity with one-shot reduce, stream-mode overlap wins,
convergence parity, and the session/state bugfix regressions (counter
reset, 1-based iteration contract)."""

import numpy as np
import pytest

from repro.allreduce import (
    BucketView,
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
    whole layout) delegates — results, traffic counters and simulated
    makespans all match one-shot ``reduce`` bitwise, under both runners
    and regardless of stream mode."""
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
    """The native bucketed path is runner-independent like everything
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

    def test_shared_state_not_thrashed_across_buckets(self):
        """The no-thrash regression at the heart of the tentpole: periodic
        evaluations happen on the iteration schedule, NOT once per bucket.
        tau = tau' = 2 over 4 iterations with a 4-bucket plan: one
        bootstrap plus re-estimates at t = 1 and t = 3 — never 4x that."""
        p = 2
        lay = _layout()

        def prog(comm):
            algo = _make()
            for t in range(1, 5):
                res = run_session(algo, comm, lay, t, _acc(comm.rank, t),
                                  bucket_size=180)
                assert res.nbuckets == 4
            return (algo.local_evaluations, algo.global_evaluations,
                    algo.repartitions)

        local, glob, reparts = run_spmd(p, prog)[0]
        # bootstrap (first bucket ever) + full-gradient refresh at t=1,3
        assert local == 3
        assert glob == 3
        # consensus repartition has no bootstrap (equal split needs none)
        assert reparts == 2

    def test_boundaries_keyed_to_full_gradient(self):
        """After the first consensus the shared boundaries span the full
        layout; each bucket's reported boundaries are the intersection
        with its extent."""
        p = 4
        lay = _layout()

        def prog(comm):
            algo = _make()
            res1 = run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                               bucket_size=700)
            res2 = run_session(algo, comm, lay, 2, _acc(comm.rank, 2),
                               bucket_size=700)
            return res1, res2, algo.state.boundaries

        res1, res2, full = run_spmd(p, prog)[0]
        assert full[0] == 0 and full[-1] == N and len(full) == p + 1
        for res in (res1, res2):
            for st in res.bucket_stats:
                bnd = st.info["boundaries"]
                assert bnd[0] == 0 and bnd[-1] == st.words
                assert len(bnd) == p + 1
                assert np.all(np.diff(bnd) >= 0)
        # iteration 1 ran on the equal-split bootstrap; its consensus
        # (computed at the last bucket) applies from iteration 2
        eq = np.linspace(0, N, p + 1).astype(np.int64)
        first = res1.bucket_stats[0]
        np.testing.assert_array_equal(
            first.info["boundaries"],
            np.clip(eq, first.lo, first.hi) - first.lo)

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
        """The quantized variant inherits the shared-state bucketed path
        (quantized phase-2 payloads per bucket)."""
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

    def test_per_bucket_guard_trips_are_counted_not_written_back(self):
        lay = _layout()

        def prog(comm):
            algo = _make(tau_prime=100)
            run_session(algo, comm, lay, 1, _acc(comm.rank, 1),
                        bucket_size=700)
            th = algo.state.local_th
            before = algo.state.local_evaluations
            acc = _acc(comm.rank, 2)
            acc[:1536] *= 1000          # one layer dwarfs the others
            res = run_session(algo, comm, lay, 2, acc, bucket_size=700)
            return (res.nbuckets, algo.state.local_evaluations - before,
                    algo.state.guard_evaluations, algo.state.local_th == th)

        for runner in RUNNERS:
            nbuckets, evals, guards, kept = run_spmd(2, prog,
                                                     runner=runner)[0]
            assert 0 < guards <= nbuckets
            assert evals == guards      # nothing was scheduled at t = 2
            assert kept                 # the shared threshold is untouched


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
# BucketView defaults
# ---------------------------------------------------------------------------
def test_reduce_bucket_standalone_without_view():
    """Calling _reduce_bucket without a session context treats the slice
    as a complete single-bucket gradient (synthetic BucketView)."""

    def prog(comm):
        algo = _make()
        res = algo._reduce_bucket(comm, _acc(comm.rank, 1, 256), 1)
        res.update.validate()
        return res

    res = run_spmd(2, prog)[0]
    assert res.update.n == 256
    assert res.info["k"] >= 1


def test_bucket_view_pushed_suffix():
    acc = np.arange(10, dtype=np.float32)
    view = BucketView(lo=4, hi=7, n=10, index=1, nbuckets=3, final=False,
                      acc=acc)
    np.testing.assert_array_equal(view.pushed, acc[4:])
