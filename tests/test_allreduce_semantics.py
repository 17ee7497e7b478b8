"""Semantic correctness of the six allreduce schemes against references.

Reference semantics (Section 3.1):

* Dense / DenseOvlp: exact sum over workers.
* TopkA / Gaussiank / TopkDSA: sum over workers of the *locally selected*
  sparse gradients (no values lost; support is the union -> fill-in).
* gTopk: hierarchical approximation of Topk(sum of local top-k).
* Ok-Topk: Topk(sum_i Topk(G_i)) — exact when thresholds are re-evaluated
  every iteration (tau' = 1) and there are no magnitude ties.
"""

import numpy as np
import pytest

import repro.quant  # noqa: F401  (registers topka_q / oktopk_q)
from repro.allreduce import ALGORITHMS, make_allreduce
from repro.comm import run_spmd
from repro.sparse import COOVector, combine_sum, exact_topk

N = 512
K = 32


def grad(rank: int, t: int = 1, n: int = N, seed: int = 77) -> np.ndarray:
    rng = np.random.default_rng(seed + 1000 * t + rank)
    return rng.normal(size=n).astype(np.float32)


def run_scheme(name: str, p: int, t: int = 1, n: int = N, **kwargs):
    def prog(comm):
        algo = make_allreduce(name, **kwargs)
        return algo.reduce(comm, grad(comm.rank, t, n), t)

    return run_spmd(p, prog)


def local_topk_sum(p: int, k: int = K, t: int = 1, n: int = N) -> COOVector:
    return combine_sum([exact_topk(grad(r, t, n), k) for r in range(p)])


class TestDense:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["dense", "dense_ovlp"])
    def test_exact_sum(self, p, name):
        res = run_scheme(name, p)
        expect = np.sum([grad(r) for r in range(p)], axis=0)
        for r in range(p):
            np.testing.assert_allclose(res[r].update, expect,
                                       rtol=1e-4, atol=1e-5)
            assert res[r].contributed_indices is None

    def test_dense_ovlp_flag(self):
        """A one-shot DenseOvlp splits the whole gradient into its
        ``nbuckets`` allreduces: ``nbuckets`` times dense's messages."""
        res = run_scheme("dense_ovlp", 4, nbuckets=3)
        assert res[0].overlappable
        assert res[0].info["nbuckets"] == 3
        dense = run_scheme("dense", 4)
        assert dense.stats.msgs_sent.sum() > 0
        np.testing.assert_array_equal(res.stats.msgs_sent,
                                      3 * dense.stats.msgs_sent)


class TestTopkA:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_sum_of_local_topk(self, p):
        res = run_scheme("topka", p, k=K)
        expect = local_topk_sum(p)
        for r in range(p):
            got = res[r].update
            got.validate()
            np.testing.assert_allclose(got.to_dense(), expect.to_dense(),
                                       rtol=1e-4, atol=1e-5)

    def test_contributed_are_local_topk(self):
        res = run_scheme("topka", 4, k=K)
        for r in range(4):
            np.testing.assert_array_equal(
                res[r].contributed_indices, exact_topk(grad(r), K).indices)

    def test_fill_in_reported(self):
        res = run_scheme("topka", 8, k=K)
        assert res[0].info["fill_in"] > 1.0  # supports barely overlap


class TestTopkDSA:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_matches_sum_of_local_topk(self, p):
        res = run_scheme("topkdsa", p, k=K)
        expect = local_topk_sum(p)
        for r in range(p):
            got = res[r].update
            got.validate()
            np.testing.assert_allclose(got.to_dense(), expect.to_dense(),
                                       rtol=1e-4, atol=1e-5)

    def test_dense_switch_on_high_density(self):
        """With k*P comparable to n the working set must densify."""
        res = run_scheme("topkdsa", 8, n=256, k=64)
        assert any(res[r].info["switched_to_dense"] for r in range(8))
        # correctness preserved
        expect = combine_sum(
            [exact_topk(grad(r, 1, 256), 64) for r in range(8)])
        np.testing.assert_allclose(res[0].update.to_dense(),
                                   expect.to_dense(), rtol=1e-4, atol=1e-5)

    def test_switch_can_be_disabled(self):
        res = run_scheme("topkdsa", 8, n=256, k=64, allow_dense_switch=False)
        assert not any(res[r].info["switched_to_dense"] for r in range(8))


class TestGTopk:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_output_has_at_most_k_entries(self, p):
        res = run_scheme("gtopk", p, k=K)
        for r in range(p):
            assert res[r].update.nnz <= K
            res[r].update.validate()

    def test_all_ranks_agree(self):
        res = run_scheme("gtopk", 8, k=K)
        for r in range(1, 8):
            assert res[r].update == res[0].update

    def test_two_ranks_exact(self):
        """For P=2 the tree has one level: result is exactly
        Topk(topk(g0) + topk(g1))."""
        res = run_scheme("gtopk", 2, k=K)
        expect = local_topk_sum(2).topk(K)
        assert res[0].update == expect

    def test_contributed_subset_of_final(self):
        res = run_scheme("gtopk", 4, k=K)
        for r in range(4):
            c = res[r].contributed_indices
            assert np.isin(c, res[r].update.indices).all()
            assert np.isin(c, exact_topk(grad(r), K).indices).all()


class TestGaussiank:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_update_is_sum_of_contributions(self, p):
        res = run_scheme("gaussiank", p, k=K)
        expect = combine_sum([
            COOVector.from_dense(grad(r), res[r].contributed_indices)
            for r in range(p)])
        for r in range(p):
            np.testing.assert_allclose(res[r].update.to_dense(),
                                       expect.to_dense(),
                                       rtol=1e-4, atol=1e-5)

    def test_adjustment_reaches_three_quarters(self):
        res = run_scheme("gaussiank", 2, k=K)
        for r in range(2):
            assert res[r].info["selected"] >= 0.75 * K * 0.99


class TestOkTopk:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_exact_semantics_with_fresh_thresholds(self, p):
        """tau'=1: u_t == Topk(sum_i Topk(acc_i)) exactly (continuous data,
        no ties)."""
        res = run_scheme("oktopk", p, k=K, tau_prime=1)
        expect = local_topk_sum(p).topk(K)
        for r in range(p):
            got = res[r].update
            got.validate()
            assert got == expect

    def test_all_ranks_agree(self):
        res = run_scheme("oktopk", 8, k=K)
        for r in range(1, 8):
            assert res[r].update == res[0].update

    def test_contributed_is_intersection(self):
        res = run_scheme("oktopk", 4, k=K, tau_prime=1)
        for r in range(4):
            local = exact_topk(grad(r), K)
            expect = np.intersect1d(local.indices, res[r].update.indices,
                                    assume_unique=True)
            np.testing.assert_array_equal(res[r].contributed_indices, expect)

    @pytest.mark.parametrize("rotation", [True, False])
    @pytest.mark.parametrize("balanced", [True, False])
    def test_options_preserve_semantics(self, rotation, balanced):
        res = run_scheme("oktopk", 4, k=K, tau_prime=1, rotation=rotation,
                         balanced_partition=balanced)
        expect = local_topk_sum(4).topk(K)
        assert res[0].update == expect

    @pytest.mark.parametrize("bucket_size", [1, 2, 16])
    def test_bucket_size_preserves_semantics(self, bucket_size):
        res = run_scheme("oktopk", 5, k=K, tau_prime=1,
                         bucket_size=bucket_size)
        expect = local_topk_sum(5).topk(K)
        assert res[0].update == expect

    def test_data_balancing_preserves_semantics(self):
        """Force skew: one worker holds all top-k values."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=K, tau_prime=1,
                                  balanced_partition=False,
                                  balance_trigger=1.5)
            acc = np.zeros(N, dtype=np.float32)
            if True:  # every worker's top-k lives in region 0
                rng = np.random.default_rng(comm.rank)
                acc[:N // 8] = rng.normal(size=N // 8) * 10
            return algo.reduce(comm, acc, 1), algo.balancing_triggered

        res = run_spmd(8, prog)
        result0, triggered = res[0]
        assert triggered == 1
        # reference
        accs = []
        for r in range(8):
            acc = np.zeros(N, dtype=np.float32)
            rng = np.random.default_rng(r)
            acc[:N // 8] = rng.normal(size=N // 8) * 10
            accs.append(acc)
        expect = combine_sum([exact_topk(a, K) for a in accs]).topk(K)
        assert result0.update == expect

    def test_threshold_reuse_counts(self):
        """tau'=4 over 8 iterations: exactly 2 local re-evaluations."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=K, tau_prime=4, tau=4,
                                  selection_guard=100.0)
            for t in range(1, 9):
                algo.reduce(comm, grad(comm.rank, t), t)
            return algo.local_evaluations, algo.global_evaluations, \
                algo.repartitions

        res = run_spmd(2, prog)
        local_evals, global_evals, reparts = res[0]
        assert local_evals == 2
        assert global_evals == 2
        assert reparts == 2

    def test_zero_gradient_degenerates_gracefully(self):
        def prog(comm):
            algo = make_allreduce("oktopk", k=K)
            return algo.reduce(comm, np.zeros(N, dtype=np.float32), 1)

        res = run_spmd(4, prog)
        assert res[0].update.nnz <= K

    def test_approximate_semantics_with_reused_thresholds(self):
        """With tau'=8 and slowly-drifting gradients the selected counts
        stay near k (the Section 5.2 claim)."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=K, tau_prime=8)
            counts = []
            rng = np.random.default_rng(123 + comm.rank)
            scale = 1.0
            for t in range(1, 17):
                scale *= 0.995
                acc = (rng.normal(size=N) * scale).astype(np.float32)
                r = algo.reduce(comm, acc, t)
                counts.append(r.info["selected_local"])
            return counts

        res = run_spmd(4, prog)
        counts = np.array(res[0])
        assert np.all(counts >= K / 3)
        assert np.all(counts <= 3 * K)
        assert abs(np.mean(counts) - K) / K < 0.25


class TestOddWorkerCounts:
    """Non-power-of-two P for the tree/halving schemes."""

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_gtopk_odd_p(self, p):
        res = run_scheme("gtopk", p, k=K)
        for r in range(1, p):
            assert res[r].update == res[0].update
        assert res[0].update.nnz <= K

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_gaussiank_odd_p(self, p):
        res = run_scheme("gaussiank", p, k=K)
        expect = combine_sum([
            COOVector.from_dense(grad(r), res[r].contributed_indices)
            for r in range(p)])
        np.testing.assert_allclose(res[0].update.to_dense(),
                                   expect.to_dense(), rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("p", [3, 6, 7])
    def test_oktopk_odd_p_steady_state(self, p):
        """Multiple iterations at odd P (Bruck paths, rotation schedule)."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=K, tau_prime=2)
            outs = []
            for t in range(1, 5):
                outs.append(algo.reduce(comm, grad(comm.rank, t), t).update)
            return outs

        res = run_spmd(p, prog)
        for t in range(4):
            for r in range(1, p):
                assert res[r][t] == res[0][t]


def _reduce_any(name, acc):
    """``reduce`` of ``acc`` at iteration 1 by a fresh ``name`` scheme."""
    def prog(comm):
        algo = make_allreduce(name, **({} if name.startswith("dense")
                                       else {"density": 0.01}))
        try:
            return algo.reduce(comm, acc, 1)
        except ValueError as exc:
            return exc
    return prog


@pytest.mark.parametrize("fused", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_empty_gradient_reduces_to_an_empty_update(name, fused):
    """A zero-length accumulator has no one-segment layout to run its
    session over; ``reduce`` still hands back an empty update (and no
    contributed entry) for every registered scheme, on both paths."""
    prog = _reduce_any(name, np.zeros(0, np.float32))
    for res in run_spmd(2, prog, fused=fused):
        assert res.update_dense(0).shape == (0,)
        assert res.contributed_indices is None or \
            res.contributed_indices.size == 0


@pytest.mark.parametrize("fused", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_non_flat_empty_gradient_is_refused_as_non_flat(name, fused):
    """An empty ``(0, 0)`` accumulator is refused as any non-flat one is
    (``ValueError``), not as a broken one-segment layout."""
    prog = _reduce_any(name, np.zeros((0, 0), np.float32))
    for exc in run_spmd(2, prog, fused=fused):
        assert isinstance(exc, ValueError)
        assert str(exc) == "acc must be a flat gradient vector"
