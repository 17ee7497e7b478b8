"""Dense collectives vs. numpy references at power-of-two and odd P."""

import numpy as np
import pytest

from repro.comm import NetworkModel, collectives as coll, run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


def _rank_vector(rank: int, n: int = 64) -> np.ndarray:
    rng = np.random.default_rng(1000 + rank)
    return rng.normal(size=n).astype(np.float32)


def _expected_sum(p: int, n: int = 64) -> np.ndarray:
    return np.sum([_rank_vector(r, n) for r in range(p)], axis=0)


class TestBcast:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_bcast_matches_root_value(self, p, root):
        root = p - 1 if root == "last" else 0

        def prog(comm):
            obj = _rank_vector(comm.rank) if comm.rank == root else None
            return coll.bcast(comm, obj, root=root)

        res = run_spmd(p, prog)
        for r in range(p):
            np.testing.assert_array_equal(res[r], _rank_vector(root))


class TestReduce:
    @pytest.mark.parametrize("p", SIZES)
    def test_reduce_sum_to_root(self, p):
        def prog(comm):
            return coll.reduce(comm, _rank_vector(comm.rank), root=0)

        res = run_spmd(p, prog)
        np.testing.assert_allclose(res[0], _expected_sum(p), rtol=1e-4, atol=1e-5)
        assert all(res[r] is None for r in range(1, p))

    @pytest.mark.parametrize("p", [4, 5])
    def test_reduce_max(self, p):
        def prog(comm):
            return coll.reduce(comm, _rank_vector(comm.rank), root=0,
                               op=np.maximum)

        res = run_spmd(p, prog)
        expect = np.max([_rank_vector(r) for r in range(p)], axis=0)
        np.testing.assert_allclose(res[0], expect)


class TestAllreduce:
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("algo", ["recursive_doubling", "ring",
                                      "rabenseifner", "bandwidth"])
    def test_allreduce_sum(self, p, algo):
        def prog(comm):
            return coll.allreduce(comm, _rank_vector(comm.rank), algo=algo)

        res = run_spmd(p, prog)
        expect = _expected_sum(p)
        for r in range(p):
            np.testing.assert_allclose(res[r], expect, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 13, 63, 64, 65])
    def test_allreduce_odd_vector_lengths(self, n):
        def prog(comm):
            return coll.allreduce(comm, _rank_vector(comm.rank, n))

        res = run_spmd(8, prog)
        expect = _expected_sum(8, n)
        for r in range(8):
            np.testing.assert_allclose(res[r], expect, rtol=1e-4, atol=1e-5)

    def test_unknown_algo_raises(self):
        from repro.errors import RankFailedError

        def prog(comm):
            return coll.allreduce(comm, _rank_vector(0), algo="nope")

        with pytest.raises(RankFailedError):
            run_spmd(2, prog)

    def test_rabenseifner_bandwidth_optimal_volume(self):
        """Table 1 Dense row: about 2 n (P-1)/P words sent per rank."""
        p, n = 8, 4096

        def prog(comm):
            return coll.allreduce_rabenseifner(
                comm, _rank_vector(comm.rank, n))

        res = run_spmd(p, prog)
        per_rank_sent = res.stats.words_sent
        expect = 2 * n * (p - 1) / p
        assert np.all(per_rank_sent <= expect * 1.05 + 16)
        assert np.all(per_rank_sent >= expect * 0.95 - 16)

    def test_ring_latency_structure(self):
        """Ring allreduce makespan ~ 2(P-1)(alpha + beta n/P)."""
        p, n = 4, 4096
        model = NetworkModel(alpha=1e-4, beta=1e-8, gamma=0.0)

        def prog(comm):
            return coll.allreduce_ring(comm, np.zeros(n, dtype=np.float32))

        res = run_spmd(p, prog, model=model)
        expect = 2 * (p - 1) * (1e-4 + 1e-8 * n / p)
        assert res.makespan == pytest.approx(expect, rel=0.15)


class TestReduceScatterAllgather:
    @pytest.mark.parametrize("p", SIZES)
    def test_reduce_scatter_ring_blocks(self, p):
        n = 64

        def prog(comm):
            block, sl = coll.reduce_scatter_ring(comm, _rank_vector(comm.rank, n))
            return block, (sl.start, sl.stop)

        res = run_spmd(p, prog)
        expect = _expected_sum(p, n)
        covered = np.zeros(n, dtype=bool)
        for r in range(p):
            block, (lo, hi) = res[r]
            np.testing.assert_allclose(block, expect[lo:hi], rtol=1e-4, atol=1e-5)
            covered[lo:hi] = True
        assert covered.all()

    @pytest.mark.parametrize("p", SIZES)
    def test_ring_allgather_roundtrip(self, p):
        n = 64

        def prog(comm):
            block, _ = coll.reduce_scatter_ring(comm, _rank_vector(comm.rank, n))
            return coll.allgather_ring(comm, block, n)

        res = run_spmd(p, prog)
        expect = _expected_sum(p, n)
        for r in range(p):
            np.testing.assert_allclose(res[r], expect, rtol=1e-4, atol=1e-5)


class TestAllgatherv:
    @pytest.mark.parametrize("p", SIZES)
    def test_variable_blocks_everywhere(self, p):
        def prog(comm):
            block = np.full(comm.rank + 1, float(comm.rank), dtype=np.float32)
            return coll.allgatherv(comm, block)

        res = run_spmd(p, prog)
        for r in range(p):
            got = res[r]
            assert len(got) == p
            for owner in range(p):
                np.testing.assert_array_equal(
                    got[owner],
                    np.full(owner + 1, float(owner), dtype=np.float32))

    def test_allgather_concatenation(self):
        def prog(comm):
            return coll.allgather(comm, np.array([comm.rank], dtype=np.int32))

        res = run_spmd(5, prog)
        for r in range(5):
            np.testing.assert_array_equal(res[r], np.arange(5, dtype=np.int32))

    def test_allgather_object(self):
        def prog(comm):
            return coll.allgather_object(comm, {"rank": comm.rank})

        res = run_spmd(6, prog)
        assert res[3] == [{"rank": r} for r in range(6)]

    def test_receive_volume_is_total_minus_own(self):
        p, b = 8, 128

        def prog(comm):
            return coll.allgatherv(
                comm, np.zeros(b, dtype=np.float32))

        res = run_spmd(p, prog)
        # Each rank receives (p-1) foreign blocks exactly once plus tiny
        # control overhead (owner ids).
        recv = res.stats.words_recv
        assert np.all(recv >= (p - 1) * b)
        assert np.all(recv <= (p - 1) * b + p * 4)


class TestAlltoall:
    @pytest.mark.parametrize("p", SIZES)
    def test_personalized_exchange(self, p):
        def prog(comm):
            blocks = [np.array([comm.rank * 100 + j], dtype=np.int32)
                      for j in range(p)]
            return coll.alltoallv(comm, blocks)

        res = run_spmd(p, prog)
        for r in range(p):
            for src in range(p):
                np.testing.assert_array_equal(
                    res[r][src], np.array([src * 100 + r], dtype=np.int32))

    def test_wrong_block_count_raises(self):
        from repro.errors import RankFailedError

        def prog(comm):
            return coll.alltoallv(comm, [None])

        with pytest.raises(RankFailedError):
            run_spmd(3, prog)


class TestGatherScatter:
    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_gather(self, p):
        def prog(comm):
            return coll.gather(comm, comm.rank * 2, root=0)

        res = run_spmd(p, prog)
        assert res[0] == [r * 2 for r in range(p)]

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_scatter(self, p):
        def prog(comm):
            objs = [f"item{j}" for j in range(p)] if comm.rank == 0 else None
            return coll.scatter(comm, objs, root=0)

        res = run_spmd(p, prog)
        assert [res[r] for r in range(p)] == [f"item{r}" for r in range(p)]


class TestBarrier:
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_barrier_synchronizes_clocks(self, p):
        def prog(comm):
            # Rank 0 computes for a long time; after the barrier everyone's
            # clock must be at least that long.
            if comm.rank == 0:
                comm.compute(1.0)
            coll.barrier(comm)
            return comm.clock

        res = run_spmd(p, prog)
        assert all(c >= 1.0 for c in res.results)
