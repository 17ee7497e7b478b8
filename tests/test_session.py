"""Session-based bucketed allreduce: layout/fusion units, session vs
one-shot bit-identity (results, traffic, makespans) for every scheme under
both runners, native per-bucket paths, and the generic overlap timeline
(DenseOvlp legacy reproduction + comm-bound sparse overlap wins)."""

import numpy as np
import pytest

from repro.allreduce import (
    PAPER_ORDER,
    BucketStat,
    ParamLayout,
    make_allreduce,
    run_session,
    split_k,
    visible_comm_time,
)
from repro.comm import NetworkModel, run_spmd
from repro.errors import ConfigError
from repro.sparse import COOVector

RUNNERS = ("coop", "threads")

#: scheme name -> constructor kwargs beyond the k/density budget
SCHEME_KWARGS = {
    "oktopk": {"tau": 2, "tau_prime": 2},
    "oktopk_q": {"tau": 2, "tau_prime": 2, "stochastic": False},
    "topka_q": {"stochastic": False},
}
ALL_SCHEMES = PAPER_ORDER + ["topka_q", "oktopk_q"]


def _make(scheme, n, density=0.1):
    kwargs = dict(SCHEME_KWARGS.get(scheme, {}))
    if scheme not in ("dense", "dense_ovlp"):
        kwargs["density"] = density
    return make_allreduce(scheme, **kwargs)


def _layout(n):
    """An uneven multi-segment layout covering n words."""
    sizes = [n // 4, n // 8, n // 2 - n // 8, n - n // 4 - n // 2]
    return ParamLayout.from_sizes(sizes, ["head", "norm", "body", "tail"])


def _acc(rank, n, t):
    rng = np.random.default_rng(1000 * rank + t)
    return rng.normal(size=n).astype(np.float32)


# ---------------------------------------------------------------------------
# ParamLayout / fusion / split_k units
# ---------------------------------------------------------------------------
class TestParamLayout:
    def test_from_sizes_offsets_and_names(self):
        lay = ParamLayout.from_sizes([3, 5, 2], ["a", "b", "c"])
        assert lay.n == 10 and len(lay) == 3
        assert [s.offset for s in lay] == [0, 3, 8]
        assert [s.name for s in lay] == ["a", "b", "c"]
        assert lay[1].sl == slice(3, 8)

    def test_single(self):
        lay = ParamLayout.single(7)
        assert lay.n == 7 and len(lay) == 1

    def test_push_order_is_reverse(self):
        lay = ParamLayout.from_sizes([3, 5, 2])
        assert [s.index for s in lay.push_order()] == [2, 1, 0]

    def test_fuse_none_is_one_bucket(self):
        lay = ParamLayout.from_sizes([3, 5, 2])
        plan = lay.fuse(None)
        assert len(plan) == 1 and len(plan[0]) == 3

    def test_fuse_closes_at_threshold(self):
        lay = ParamLayout.from_sizes([30, 50, 20])
        plan = lay.fuse(40)
        # push order: 20, 50, 30 -> bucket [20+50], bucket [30]
        assert [[s.size for s in b] for b in plan] == [[20, 50], [30]]

    def test_fuse_tiny_bucket_is_per_segment(self):
        lay = ParamLayout.from_sizes([30, 50, 20])
        plan = lay.fuse(1)
        assert [[s.size for s in b] for b in plan] == [[20], [50], [30]]

    def test_bad_layout_rejected(self):
        from repro.allreduce import ParamSegment
        with pytest.raises(ConfigError):
            ParamLayout([ParamSegment(0, "a", 4, 3)])  # offset gap
        with pytest.raises(ConfigError):
            ParamLayout([])

    def test_fuse_bad_bucket_size(self):
        with pytest.raises(ConfigError):
            ParamLayout.single(8).fuse(0)


class TestSplitK:
    def test_sums_to_k_and_proportional(self):
        ks = split_k(100, [500, 300, 200])
        assert sum(ks) == 100
        assert ks == [50, 30, 20]

    def test_largest_remainder(self):
        ks = split_k(8, [3, 3, 4])
        assert sum(ks) == 8 and all(k >= 1 for k in ks)

    def test_each_at_least_one_when_k_allows(self):
        ks = split_k(4, [1000, 1, 1, 1])
        assert sum(ks) == 4 and min(ks) == 1

    def test_k_capped_at_total_length(self):
        assert sum(split_k(50, [10, 10])) == 20

    def test_deterministic(self):
        assert split_k(7, [33, 33, 34]) == split_k(7, [33, 33, 34])

    def test_k_less_than_nbuckets_leaves_zero_buckets(self):
        """When k < nbuckets some buckets legally get a zero budget
        (the session path must then skip them, never run them)."""
        ks = split_k(2, [10, 10, 10, 10])
        assert ks == [1, 1, 0, 0]

    def test_k_zero_gives_all_zero(self):
        assert split_k(0, [5, 5]) == [0, 0]

    def test_single_element_buckets(self):
        assert split_k(3, [1, 1, 1]) == [1, 1, 1]
        ks = split_k(2, [1, 1, 1])
        assert sum(ks) == 2 and set(ks) == {0, 1}

    def test_empty_lengths(self):
        assert split_k(5, []) == []

    # -- property-style sweeps over random budget/length configurations --

    @staticmethod
    def _random_cases(ncases=200, seed=1234):
        rng = np.random.default_rng(seed)
        for _ in range(ncases):
            nb = int(rng.integers(1, 12))
            lengths = [int(rng.integers(1, 500)) for _ in range(nb)]
            k = int(rng.integers(0, 2 * sum(lengths)))
            yield k, lengths

    def test_property_shares_sum_exactly_to_k(self):
        """sum(shares) == min(k, total) for any configuration — the global
        budget is never inflated or silently dropped."""
        for k, lengths in self._random_cases():
            ks = split_k(k, lengths)
            assert sum(ks) == min(k, sum(lengths)), (k, lengths, ks)
            assert all(s >= 0 for s in ks)
            assert all(s <= ln for s, ln in zip(ks, lengths)), \
                (k, lengths, ks)

    def test_property_every_bucket_funded_when_k_allows(self):
        """k >= nbuckets: the donor-steal loop lifts every zero share to
        one (mirroring resolve_k's floor of one selected element)."""
        for k, lengths in self._random_cases(seed=77):
            if k < len(lengths):
                continue
            ks = split_k(k, lengths)
            assert min(ks) >= 1, (k, lengths, ks)

    def test_property_remainder_ties_deterministic(self):
        """Equal-length buckets with a non-divisible budget: remainder
        ties break toward earlier buckets, identically on every call."""
        ks = split_k(7, [100, 100, 100, 100])
        assert ks == [2, 2, 2, 1]          # earlier buckets win the tie
        for k, lengths in self._random_cases(seed=9):
            assert split_k(k, lengths) == split_k(k, lengths)

    def test_property_k_above_total_clamps(self):
        """k > sum(lengths) clamps to the total: every element funded,
        no share exceeds its bucket length."""
        for _, lengths in self._random_cases(ncases=50, seed=5):
            total = sum(lengths)
            ks = split_k(total + 17, lengths)
            assert ks == list(lengths)


# ---------------------------------------------------------------------------
# Session vs one-shot: bit-identical results, traffic and makespans
# ---------------------------------------------------------------------------
def _run_mode(scheme, p, n, iters, mode, runner, bucket_size=None):
    """Run `iters` reductions; returns (dense updates, stats, clocks)."""
    lay = _layout(n)

    def prog(comm):
        algo = _make(scheme, n)
        outs = []
        for t in range(1, iters + 1):
            acc = _acc(comm.rank, n, t)
            if mode == "oneshot":
                res = algo.reduce(comm, acc, t)
            else:
                res = run_session(algo, comm, lay, t, acc,
                                  bucket_size=bucket_size)
            outs.append(res.update_dense(n).copy())
        return outs

    spmd = run_spmd(p, prog, runner=runner)
    clocks = [spmd.network.clocks[r] for r in range(p)]
    return spmd[0], spmd.stats, clocks


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_session_bit_identical_to_oneshot(scheme):
    """Default sessions (bucket_size=None) == one-shot reduce, bitwise."""
    p, n, iters = 4, 256, 3
    ref, ref_stats, ref_clocks = _run_mode(scheme, p, n, iters,
                                           "oneshot", "coop")
    for runner in RUNNERS:
        got, stats, clocks = _run_mode(scheme, p, n, iters,
                                       "session", runner)
        for t in range(iters):
            assert np.array_equal(ref[t], got[t]), (scheme, runner, t)
        assert np.array_equal(ref_stats.words_sent, stats.words_sent)
        assert np.array_equal(ref_stats.words_recv, stats.words_recv)
        assert np.array_equal(ref_stats.msgs_sent, stats.msgs_sent)
        assert clocks == ref_clocks, (scheme, runner)


@pytest.mark.parametrize("scheme", ["oktopk", "oktopk_q"])
def test_oktopk_single_bucket_plan_delegates(scheme):
    """Ok-Topk with a one-bucket plan (bucket_size >= n) is the one-shot
    reduce — bit-identical results, traffic and makespans."""
    p, n, iters = 4, 256, 3
    ref, ref_stats, ref_clocks = _run_mode(scheme, p, n, iters,
                                           "oneshot", "coop")
    got, stats, clocks = _run_mode(scheme, p, n, iters, "session",
                                   "coop", bucket_size=10 * n)
    for t in range(iters):
        assert np.array_equal(ref[t], got[t])
    assert np.array_equal(ref_stats.words_recv, stats.words_recv)
    assert clocks == ref_clocks


def test_bucketed_identical_across_runners():
    """The native multi-bucket path is runner-independent (results,
    traffic, makespans) like everything else in the simulator."""
    p, n, iters = 4, 256, 2
    base = None
    for runner in RUNNERS:
        got = _run_mode("topka", p, n, iters, "session", runner,
                        bucket_size=64)
        if base is None:
            base = got
        else:
            for t in range(iters):
                assert np.array_equal(base[0][t], got[0][t])
            assert np.array_equal(base[1].words_recv, got[1].words_recv)
            assert base[2] == got[2]


# ---------------------------------------------------------------------------
# Native per-bucket execution
# ---------------------------------------------------------------------------
class TestNativeBucketed:
    def test_dense_bucketed_matches_oneshot_sum(self):
        p, n = 4, 256
        lay = _layout(n)

        def prog(comm):
            acc = _acc(comm.rank, n, 1)
            res = run_session(make_allreduce("dense"), comm, lay, 1, acc,
                              bucket_size=64)
            return acc, res

        results = run_spmd(p, prog)
        total = np.sum([acc for acc, _ in results], axis=0)
        for _, res in results:
            assert res.contributed_indices is None
            assert res.nbuckets > 1
            np.testing.assert_allclose(res.update, total, rtol=1e-4,
                                       atol=1e-4)

    def test_topka_bucketed_k_split_and_sorted_output(self):
        p, n, k = 4, 256, 32
        lay = _layout(n)

        def prog(comm):
            algo = make_allreduce("topka", k=k)
            acc = _acc(comm.rank, n, 1)
            return run_session(algo, comm, lay, 1, acc, bucket_size=64)

        res = run_spmd(p, prog)[0]
        assert isinstance(res.update, COOVector)
        res.update.validate()          # sorted, in-range, right dtypes
        assert sum(res.info["bucket_k"]) == k
        assert res.info["selected"] == k        # each rank selects k total
        # contributed indices sorted ascending across bucket boundaries
        contrib = res.contributed_indices
        assert np.all(np.diff(contrib) > 0)
        stats = res.bucket_stats
        assert [st.k for st in stats] == res.info["bucket_k"]
        # push order: bucket offsets descend (backward emits tail first)
        assert [st.lo for st in stats] == sorted(
            (st.lo for st in stats), reverse=True)

    def test_release_fractions_monotone(self):
        p, n = 2, 256
        lay = _layout(n)

        def prog(comm):
            algo = make_allreduce("topka", density=0.1)
            return run_session(algo, comm, lay, 1, _acc(comm.rank, n, 1),
                               bucket_size=32)

        res = run_spmd(p, prog)[0]
        fracs = [st.release_frac for st in res.bucket_stats]
        assert all(0.0 < f <= 1.0 for f in fracs)
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_dense_ovlp_bucketed_matches_dense_traffic(self):
        """DenseOvlp under a session is exactly dense + bucketing on the
        wire; only its overlap contract (release 0.0) differs."""
        p, n = 4, 256

        def prog(comm, scheme):
            lay = _layout(n)
            algo = make_allreduce(scheme)
            return run_session(algo, comm, lay, 1, _acc(comm.rank, n, 1),
                               bucket_size=64)

        dense = run_spmd(p, prog, "dense")
        ovlp = run_spmd(p, prog, "dense_ovlp")
        assert np.array_equal(dense.stats.words_recv,
                              ovlp.stats.words_recv)
        assert [dense.network.clocks[r] for r in range(p)] == \
               [ovlp.network.clocks[r] for r in range(p)]
        np.testing.assert_array_equal(dense[0].update, ovlp[0].update)
        assert all(st.release_frac == 0.0
                   for st in ovlp[0].bucket_stats)
        assert all(st.release_frac > 0.0
                   for st in dense[0].bucket_stats)

    @pytest.mark.parametrize("scheme", ["topka", "topka_q", "gtopk",
                                        "gaussiank", "topkdsa"])
    def test_zero_k_buckets_skipped(self, scheme):
        """k < nbuckets leaves some buckets with a zero budget; the
        session must skip them outright — no scheme ever sees k=0
        (``resolve_k`` floors every real reduction at one element) and a
        skipped bucket produces no traffic."""
        p, n = 2, 256
        lay = _layout(n)

        def prog(comm):
            kwargs = dict(SCHEME_KWARGS.get(scheme, {}))
            algo = make_allreduce(scheme, k=1, **kwargs)
            seen_k = []
            orig = algo._reduce

            def probe(comm_, acc, t):
                seen_k.append(algo.resolve_k(acc.size))
                return orig(comm_, acc, t)

            algo._reduce = probe
            res = run_session(algo, comm, lay, 1, _acc(comm.rank, n, 1),
                              bucket_size=16)
            return res, seen_k

        res, seen_k = run_spmd(p, prog)[0]
        assert sum(res.info["bucket_k"]) == 1
        assert res.update.nnz >= 1
        assert seen_k and all(k >= 1 for k in seen_k)
        skipped = [st for st in res.bucket_stats if st.k == 0]
        assert skipped and all(
            st.comm_time == 0.0 and st.words_recv == 0
            and st.info.get("skipped_zero_k") for st in skipped)

    def test_zero_k_buckets_send_nothing(self):
        """A skipped bucket contributes zero messages: total traffic
        equals that of a session over only the funded buckets."""
        p, n = 2, 256
        lay = _layout(n)

        def prog(comm):
            algo = make_allreduce("topka", k=1)
            run_session(algo, comm, lay, 1, _acc(comm.rank, n, 1),
                        bucket_size=16)
            return None

        spmd = run_spmd(p, prog)
        # one funded bucket -> one allgatherv round trip per rank pair
        assert int(spmd.stats.msgs_sent.sum()) == p * (p - 1)

    def test_push_order_enforced(self):
        lay = ParamLayout.from_sizes([4, 4])

        def prog(comm):
            algo = make_allreduce("topka", k=2)
            sess = algo.begin(comm, lay, 1)
            with pytest.raises(ValueError):
                sess.push(lay[0], np.zeros(4, np.float32))  # forward order
            sess.push(lay[1], np.zeros(4, np.float32))
            with pytest.raises(ValueError):
                sess.finish()  # incomplete
            sess.push(lay[0], np.zeros(4, np.float32))
            return sess.finish()

        run_spmd(1, prog)


    def test_plan_is_derived_once_per_layout_and_budget(self):
        """Buckets, extents, closing positions, per-bucket k and release
        fractions never depend on the gradient: one immutable plan per
        ``(bucket_size, k, sparse)``, cached on the layout and shared by
        every rank and iteration."""
        n = 512
        lay = _layout(n)

        def prog(comm):
            algo = _make("topka", n)
            return [algo.begin(comm, lay, t, bucket_size=128)._plan
                    for t in (1, 2)]

        plans = [pl for rank in run_spmd(2, prog).results for pl in rank]
        assert all(pl is plans[0] for pl in plans)
        plan = plans[0]
        assert plan is lay.session_plan(128, 51, True)
        assert plan is not lay.session_plan(128, 50, True)
        assert plan is not lay.session_plan(64, 51, True)
        assert [len(b) for b in plan.buckets] == [1, 1, 2]
        assert plan.extents == ((384, 512), (192, 384), (0, 192))
        assert plan.closes == (0, 1, -1, 2)
        assert plan.release == (0.25, 0.625, 1.0)
        assert sum(plan.bucket_k) == 51
        assert lay.session_plan(128, n, False).bucket_k == (None,) * 3

    @pytest.mark.parametrize("scheme", ["topka", "oktopk", "dense_ovlp"])
    def test_run_session_equals_incremental_pushes(self, scheme):
        """``run_session`` walks the adopted accumulator without calling
        ``push``; feeding the same segments one validated push at a time
        must give the same bits, bucket stats and clocks."""
        n, p = 512, 3
        lay = _layout(n)

        def prog(comm, pushed):
            algo = _make(scheme, n)
            outs = []
            for t in (1, 2):
                acc = _acc(comm.rank, n, t)
                if pushed:
                    sess = algo.begin(comm, lay, t, bucket_size=128,
                                      stream=True)
                    for seg in lay.push_order():
                        comm.compute(1e-6)
                        sess.push(seg.index, acc[seg.sl].copy())
                    res = sess.finish()
                else:
                    res = run_session(algo, comm, lay, t, acc,
                                      bucket_size=128,
                                      pacer=lambda segs: [
                                          comm.compute(1e-6) for _ in segs])
                outs.append((res.update_dense(n).tobytes(),
                             res.phase_times, comm.clock,
                             [(b.lo, b.hi, b.k, b.release_frac, b.comm_time,
                               b.words_recv, b.info.get("t_issue"))
                              for b in res.bucket_stats]))
            return outs

        assert (run_spmd(p, prog, True).results
                == run_spmd(p, prog, False).results)


# ---------------------------------------------------------------------------
# Overlap timeline
# ---------------------------------------------------------------------------
def _stat(release, comm):
    return BucketStat(lo=0, hi=1, nsegments=1, release_frac=release,
                      comm_time=comm)


class TestVisibleCommTime:
    def test_single_full_release_no_credit(self):
        assert visible_comm_time([_stat(1.0, 5.0)], 2.0, 2 / 3, 5.0) == 5.0

    def test_release_zero_reproduces_legacy_credit(self):
        # comm-bound: visible = comm - f*compute
        f, c, comm = 2 / 3, 3.0, 10.0
        got = visible_comm_time([_stat(0.0, comm)], c, f, comm)
        assert got == pytest.approx(comm - f * c)
        # compute-bound: fully hidden
        assert visible_comm_time([_stat(0.0, 1.0)], 3.0, f, 1.0) == 0.0

    def test_multi_bucket_release_zero_equals_legacy_any_regime(self):
        f, c = 0.5, 4.0
        for comms in ([0.5, 0.5, 0.5], [3.0, 3.0], [0.1, 5.0]):
            stats = [_stat(0.0, x) for x in comms]
            got = visible_comm_time(stats, c, f, sum(comms))
            assert got == pytest.approx(max(0.0, sum(comms) - f * c))

    def test_unattributed_comm_never_overlapped(self):
        got = visible_comm_time([_stat(0.0, 1.0)], 10.0, 1.0, 4.0)
        assert got == pytest.approx(3.0)  # 1.0 hidden, 3.0 unattributed

    def test_progressive_releases_chain(self):
        # two buckets, second released mid-backward; serialized comms
        stats = [_stat(0.5, 2.0), _stat(1.0, 2.0)]
        c, f = 4.0, 1.0
        # T1 = 2.0, finish1 = 4.0; T2 = 4.0, finish2 = 6.0 -> visible 2.0
        assert visible_comm_time(stats, c, f, 4.0) == pytest.approx(2.0)

    def test_no_stats_passthrough(self):
        assert visible_comm_time(None, 1.0, 0.5, 7.0) == 7.0
        assert visible_comm_time([], 1.0, 0.5, 7.0) == 7.0

    def test_f_zero_nothing_overlaps(self):
        """f=0: every release is the end of compute; comm fully visible
        regardless of release fractions."""
        for stats in ([_stat(0.0, 2.0)],
                      [_stat(0.0, 1.0), _stat(0.5, 2.0), _stat(1.0, 0.5)]):
            total = sum(st.comm_time for st in stats)
            got = visible_comm_time(stats, 4.0, 0.0, total)
            assert got == pytest.approx(total)

    def test_f_one_release_zero_fully_hidden(self):
        """f=1 + release 0: comm hides behind the whole compute."""
        assert visible_comm_time([_stat(0.0, 3.0)], 4.0, 1.0, 3.0) == 0.0
        # and sticks out only past compute when longer
        assert visible_comm_time([_stat(0.0, 6.0)], 4.0, 1.0, 6.0) \
            == pytest.approx(2.0)

    def test_f_clamped_outside_unit_interval(self):
        lo = visible_comm_time([_stat(0.0, 2.0)], 4.0, -3.0, 2.0)
        assert lo == visible_comm_time([_stat(0.0, 2.0)], 4.0, 0.0, 2.0)
        hi = visible_comm_time([_stat(0.0, 2.0)], 4.0, 9.0, 2.0)
        assert hi == visible_comm_time([_stat(0.0, 2.0)], 4.0, 1.0, 2.0)

    def test_comm_not_attributed_to_any_bucket(self):
        """Communication beyond the bucket sum is charged unoverlapped,
        even when the buckets themselves hide completely."""
        stats = [_stat(0.0, 1.0), _stat(0.2, 0.5)]
        # buckets hidden (f=1, compute 10); 2.5 of 4.0 unattributed
        got = visible_comm_time(stats, 10.0, 1.0, 4.0)
        assert got == pytest.approx(4.0 - 1.5)

    def test_zero_compute(self):
        stats = [_stat(0.0, 1.0), _stat(1.0, 2.0)]
        assert visible_comm_time(stats, 0.0, 1.0, 3.0) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Trainer integration: generic overlap
# ---------------------------------------------------------------------------
def _train(scheme, p=2, iters=3, bucket_size=None, net=None, **cfg_kwargs):
    from repro.data import ShardedLoader, make_cifar_like
    from repro.nn.activation import ReLU
    from repro.nn.linear import Linear
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.module import FlatModel, Flatten, Sequential
    from repro.train import Trainer, TrainerConfig

    def prog(comm):
        rng = np.random.default_rng(5)
        # several equal-width layers -> meaningful bucket release times
        mod = Sequential(Flatten(),
                         Linear(48, 32, rng=rng), ReLU(),
                         Linear(32, 32, rng=rng), ReLU(),
                         Linear(32, 32, rng=rng), ReLU(),
                         Linear(32, 10, rng=rng))
        model = FlatModel(mod, SoftmaxCrossEntropy(),
                          flops_per_sample=2.0 * 48 * 32 * 3)
        train, _ = make_cifar_like(32, 8, image_size=4, noise=0.5, seed=0)
        loader = ShardedLoader(train, 8, comm.rank, comm.size, seed=1)
        cfg = TrainerConfig(iterations=iters, scheme=scheme, lr=0.05,
                            density=0.05, bucket_size=bucket_size,
                            **cfg_kwargs)
        return Trainer(comm, model, loader, cfg).run()

    return run_spmd(p, prog, model=net)[0]


COMM_BOUND_NET = NetworkModel(alpha=5e-6, beta=5e-7, flop_time=2e-10)


class TestTrainerOverlap:
    def test_flat_model_layout_segments(self):
        from repro.nn.linear import Linear
        from repro.nn.losses import SoftmaxCrossEntropy
        from repro.nn.module import FlatModel, Sequential

        rng = np.random.default_rng(0)
        fm = FlatModel(Sequential(Linear(4, 3, rng=rng),
                                  Linear(3, 2, rng=rng)),
                       SoftmaxCrossEntropy())
        lay = fm.layout
        assert lay.n == fm.nparams
        assert len(lay) == 4  # two weights + two biases
        assert all("Linear" in s.name for s in lay)

    def test_dense_one_shot_default_no_credit(self):
        rec = _train("dense", net=COMM_BOUND_NET)
        for r in rec.records:
            assert r.overlap_saved == 0.0
            assert r.iteration_time == pytest.approx(
                r.compute_time + r.sparsify_time + r.comm_time)

    def test_dense_ovlp_credit_matches_legacy_formula(self):
        """The generic timeline reproduces the legacy DenseOvlp special
        case exactly: visible comm = max(0, comm - f*compute)."""
        f = 0.7
        for bs in (None, 24):
            rec = _train("dense_ovlp", net=COMM_BOUND_NET, bucket_size=bs,
                         overlap_backward_fraction=f)
            for r in rec.records:
                legacy = (r.compute_time + r.sparsify_time
                          + max(0.0, r.comm_time - f * r.compute_time))
                assert r.iteration_time == pytest.approx(legacy, rel=1e-9)
                assert r.overlap_saved > 0.0

    def test_dense_ovlp_session_equals_dense_bucketed_traffic(self):
        """DenseOvlp == dense + bucketing: same comm volume per record."""
        a = _train("dense_ovlp", net=COMM_BOUND_NET, bucket_size=24)
        b = _train("dense", net=COMM_BOUND_NET, bucket_size=24)
        for ra, rb in zip(a.records, b.records):
            assert ra.words_recv == rb.words_recv
            assert ra.comm_time == pytest.approx(rb.comm_time)
            assert ra.nbuckets == rb.nbuckets > 1
            # ovlp overlaps from backward start -> at least as much hidden
            assert ra.overlap_saved >= rb.overlap_saved

    def test_comm_bound_sparse_gains_overlap_from_bucketing(self):
        """A comm-bound sparse configuration gets faster iterations from
        the generic overlap (the acceptance-criterion scenario)."""
        one_shot = _train("topka", net=COMM_BOUND_NET, bucket_size=None)
        bucketed = _train("topka", net=COMM_BOUND_NET, bucket_size=1100)
        assert all(r.nbuckets > 1 for r in bucketed.records)
        assert all(r.overlap_saved > 0.0 for r in bucketed.records)
        assert bucketed.total_time < one_shot.total_time
        assert np.isfinite(bucketed.losses).all()

    def test_sparse_one_shot_unchanged_by_session_path(self):
        """bucket_size=None through the trainer == the pre-session
        behavior: no credit, comm fully visible."""
        rec = _train("topka", net=COMM_BOUND_NET)
        for r in rec.records:
            assert r.nbuckets == 1
            assert r.overlap_saved == 0.0

    def test_words_recv_is_per_iteration(self):
        """Regression: the record must hold the per-iteration receive
        volume, not the cumulative network counter."""
        rec = _train("topka", net=COMM_BOUND_NET, iters=4, bucket_size=24)
        vols = [r.words_recv for r in rec.records]
        assert all(v > 0 for v in vols)
        # steady state: same schedule + same k every iteration -> the
        # per-iteration volume is flat; a cumulative counter would grow
        # ~linearly with t (max ~= iters * min)
        assert max(vols) < 2 * min(vols)
        assert vols[1] == vols[2] == vols[3]


#: effectively uncontended: compute dominates, bucket comm is tiny and
#: spaced far apart on the backward timeline
ZERO_CONTENTION_NET = NetworkModel(alpha=1e-7, beta=1e-9, flop_time=5e-9)


class TestStreamingOverlap:
    """--overlap-mode stream: bucket reductions on the simulated clock."""

    def test_bad_overlap_mode_rejected(self):
        from repro.train import TrainerConfig
        with pytest.raises(ConfigError):
            TrainerConfig(iterations=1, overlap_mode="magic")

    @pytest.mark.parametrize("scheme", ["topka", "dense"])
    def test_zero_contention_matches_analytic_replay(self, scheme):
        """With nothing to contend against, the streamed discrete-event
        timeline reproduces the analytic visible_comm_time replay."""
        an = _train(scheme, p=4, bucket_size=24, net=ZERO_CONTENTION_NET)
        st = _train(scheme, p=4, bucket_size=24, net=ZERO_CONTENTION_NET,
                    overlap_mode="stream")
        for ra, rs in zip(an.records, st.records):
            assert rs.nbuckets > 1
            assert rs.iteration_time == pytest.approx(ra.iteration_time,
                                                      rel=1e-12)
            # the recorded cross-check agrees with the measurement
            visible = rs.iteration_time - rs.compute_time - rs.sparsify_time
            assert visible == pytest.approx(rs.analytic_visible_comm,
                                            rel=1e-9, abs=1e-15)
            assert ra.analytic_visible_comm is None

    def test_comm_bound_stream_at_least_as_fast(self):
        """Comm-bound small-bucket topka at P=8 (the acceptance
        scenario): the streamed timeline pipelines the buckets at
        message granularity and beats the serial analytic replay.  (Not
        a universal law — interleaved multi-round collectives can also
        suffer head-of-line blocking; see the session module doc.)"""
        an = _train("topka", p=8, bucket_size=24, net=COMM_BOUND_NET)
        st = _train("topka", p=8, bucket_size=24, net=COMM_BOUND_NET,
                    overlap_mode="stream")
        for ra, rs in zip(an.records, st.records):
            assert rs.iteration_time <= ra.iteration_time * (1 + 1e-12)
            # results and traffic are mode-independent
            assert rs.loss == ra.loss
            assert rs.words_recv == ra.words_recv
            assert rs.nbuckets == ra.nbuckets > 1
        assert st.total_time < an.total_time

    def test_stream_results_bit_identical_to_analytic(self):
        """Overlap modes only re-time communication; updates, losses and
        wire traffic are unchanged."""
        an = _train("gtopk", p=4, bucket_size=24, net=COMM_BOUND_NET)
        st = _train("gtopk", p=4, bucket_size=24, net=COMM_BOUND_NET,
                    overlap_mode="stream")
        assert np.array_equal(an.losses, st.losses)
        for ra, rs in zip(an.records, st.records):
            assert ra.words_recv == rs.words_recv
            assert ra.selected == rs.selected

    @pytest.mark.parametrize("scheme", ["topka", "oktopk"])
    def test_stream_one_bucket_degenerates_to_analytic(self, scheme):
        """bucket_size=None: the one bucket needs the full gradient,
        delegated (topka) or native (oktopk), so streaming changes
        nothing (release 1.0) and every record says it fell back."""
        an = _train(scheme, p=2, net=COMM_BOUND_NET)
        st = _train(scheme, p=2, net=COMM_BOUND_NET,
                    overlap_mode="stream")
        for ra, rs in zip(an.records, st.records):
            assert rs.iteration_time == pytest.approx(ra.iteration_time,
                                                      rel=1e-12)
            assert rs.overlap_saved == 0.0
        assert all(r.stream_fallback for r in st.records)
        assert not any(r.stream_fallback for r in an.records)

    def test_stream_oktopk_native_buckets(self):
        """oktopk streams natively: multi-bucket plans issue on the clock
        (no delegating fallback, no fallback flags)."""
        rec = _train("oktopk", p=2, bucket_size=64, net=COMM_BOUND_NET,
                     overlap_mode="stream",
                     scheme_kwargs={"tau": 2, "tau_prime": 2})
        assert np.isfinite(rec.losses).all()
        assert all(r.nbuckets > 1 for r in rec.records)
        assert not any(r.stream_fallback for r in rec.records)

    @pytest.mark.parametrize("scheme", ["topka", "oktopk"])
    def test_stream_fallback_recorded_for_one_bucket_plan(self, scheme):
        """stream=True over a one-bucket plan is recorded: the bucket
        carries info["stream_fallback"], delegated (topka) or native
        (oktopk, on the world executor at P = 2)."""
        n = 256
        lay = _layout(n)

        def prog(comm):
            algo = make_allreduce(scheme, density=0.1)
            return [run_session(algo, comm, lay, t, _acc(comm.rank, n, t),
                                stream=True) for t in (1, 2)]

        for r in run_spmd(2, prog)[0]:
            assert len(r.bucket_stats) == 1
            assert r.bucket_stats[0].info.get("stream_fallback")

    def test_stream_fallback_surfaces_in_iteration_records(self):
        """The trainer mirrors the session fallback flag into
        IterationRecord.stream_fallback (benchmark readers must be able
        to tell analytic timings from streamed ones)."""
        rec = _train("topka", p=2, net=COMM_BOUND_NET,
                     overlap_mode="stream")
        assert all(r.stream_fallback for r in rec.records)
        assert all(r.nbuckets == 1 for r in rec.records)
        # analytic mode never sets the flag
        rec_an = _train("topka", p=2, bucket_size=64, net=COMM_BOUND_NET)
        assert not any(r.stream_fallback for r in rec_an.records)

    @pytest.mark.parametrize("scheme", ["topka", "dense"])
    def test_stream_runner_equivalence(self, scheme):
        """Streamed timelines are schedule-independent like everything
        else: both runners agree bit-for-bit."""
        import os
        recs = {}
        for runner in ("coop", "threads"):
            os.environ["REPRO_SPMD_RUNNER"] = runner
            try:
                recs[runner] = _train(scheme, p=4, bucket_size=24,
                                      net=COMM_BOUND_NET,
                                      overlap_mode="stream")
            finally:
                os.environ.pop("REPRO_SPMD_RUNNER", None)
        a, b = recs["coop"], recs["threads"]
        assert np.array_equal(a.losses, b.losses)
        for ra, rb in zip(a.records, b.records):
            assert ra.iteration_time == rb.iteration_time
            assert ra.comm_time == rb.comm_time
            assert ra.words_recv == rb.words_recv

    def test_stream_bucket_issue_times_on_backward_timeline(self):
        """Each bucket is issued exactly at its analytic release time
        ``T_b = compute * (1 - f * (1 - release_frac_b))`` when the
        trainer's pacer drives the pushes, and finish() leaves the clock
        past every bucket's comm-finish."""
        from repro.train.trainer import _BackwardPacer

        p, n, compute, f = 2, 256, 1e-3, 0.5
        lay = _layout(n)

        def prog(comm):
            algo = make_allreduce("topka", density=0.1)
            clock0 = comm.clock
            pacer = _BackwardPacer(comm, compute, f, lay.n)
            res = run_session(algo, comm, lay, 1, _acc(comm.rank, n, 1),
                              bucket_size=32, pacer=pacer)
            return clock0, comm.clock, res

        clock0, end, res = run_spmd(p, prog)[0]
        stats = res.bucket_stats
        assert len(stats) > 1
        for st in stats:
            expect = clock0 + compute * (1.0 - f * (1.0 - st.release_frac))
            assert st.info["t_issue"] == pytest.approx(expect, rel=1e-12)
            assert st.info["t_comm_finish"] >= st.info["t_issue"]
        # finish() waited for the last outstanding bucket and charged the
        # deferred selection cost on top
        sparsify = sum(st.sparsify_time for st in stats)
        latest = max(st.info["t_comm_finish"] for st in stats)
        assert end == pytest.approx(
            max(clock0 + compute, latest) + sparsify, rel=1e-12)


# ---------------------------------------------------------------------------
# CLI smoke for the new flags
# ---------------------------------------------------------------------------
class TestCliBucketed:
    def test_train_bucket_size_and_k(self, capsys):
        from repro.cli import main
        assert main(["train", "--workload", "perf_mlp", "--scheme",
                     "topka", "--workers", "2", "--iters", "3",
                     "--k", "256", "--bucket-size", "512"]) == 0
        out = capsys.readouterr().out
        assert "k=256" in out
        assert "buckets" in out

    def test_train_perf_mlp_default(self, capsys):
        from repro.cli import main
        assert main(["train", "--workload", "perf_mlp", "--workers", "2",
                     "--iters", "2"]) == 0
        assert "final loss" in capsys.readouterr().out

    def test_train_overlap_mode_stream(self, capsys):
        from repro.cli import main
        assert main(["train", "--workload", "perf_mlp", "--scheme",
                     "topka", "--workers", "2", "--iters", "2",
                     "--k", "64", "--bucket-size", "700",
                     "--overlap-mode", "stream"]) == 0
        out = capsys.readouterr().out
        assert "overlap=stream" in out
        assert "buckets" in out
