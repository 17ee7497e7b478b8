"""Exchange schedules: correctness of patterns and the congestion benefit
of destination rotation (Figure 2)."""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.allreduce.schedule import (buckets, compile_split_reduce,
                                      make_steps, naive_steps, rotated_steps)
from repro.comm import NetworkModel, run_spmd


class TestSchedules:
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_rotated_is_permutation_per_step(self, p):
        for s in range(p - 1):
            dsts = [rotated_steps(r, p)[s].send_to[0] for r in range(p)]
            assert sorted(dsts) == list(range(p))  # each step a permutation

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_rotated_send_recv_consistent(self, p):
        # if i sends to j at step s, then j receives from i at step s
        for r in range(p):
            for s, step in enumerate(rotated_steps(r, p)):
                dst = step.send_to[0]
                assert rotated_steps(dst, p)[s].recv_from == (r,)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_naive_converges_on_step_owner(self, p):
        for s in range(p):
            senders = [r for r in range(p)
                       if s in naive_steps(r, p)[s].send_to]
            assert sorted(senders) == [r for r in range(p) if r != s]
            assert naive_steps(s, p)[s].recv_from == tuple(
                r for r in range(p) if r != s)

    def test_every_pair_communicates_once(self):
        p = 8
        for rotation in (True, False):
            for r in range(p):
                sends = [d for st in make_steps(r, p, rotation)
                         for d in st.send_to]
                assert sorted(sends) == sorted(set(range(p)) - {r})

    def test_buckets_cover_all_steps(self):
        steps = rotated_steps(0, 16)
        got = [s for b in buckets(steps, 4) for s in b]
        assert got == list(steps)

    def test_bucket_size_validation(self):
        with pytest.raises(ValueError):
            list(buckets([], 0))


class TestCompiledTables:
    """``compile_split_reduce`` is the per-rank step lists, stacked."""

    @pytest.mark.parametrize("rotation", [True, False])
    @pytest.mark.parametrize("p,bucket_size", [(2, 1), (3, 2), (5, 8),
                                               (8, 3), (16, 8)])
    def test_tables_are_the_step_lists(self, p, bucket_size, rotation):
        tables, order = compile_split_reduce(p, rotation, bucket_size)
        per_rank = [list(buckets(make_steps(r, p, rotation), bucket_size))
                    for r in range(p)]
        assert len(tables) == len(per_rank[0])
        reduce_order = [[r] for r in range(p)]      # own piece first
        for bb, tb in enumerate(tables):
            assert max(tb.send_to.shape[1], tb.recv_from.shape[1]) < p
            for r in range(p):
                sends = [d for st in per_rank[r][bb] for d in st.send_to]
                recvs = [s for st in per_rank[r][bb] for s in st.recv_from]
                # real entries first, in program order; the rest is filler
                assert tb.send_to[r, :len(sends)].tolist() == sends
                assert tb.send_pad[r].tolist() == \
                    [i >= len(sends) for i in range(tb.send_to.shape[1])]
                assert tb.recv_from[r, :len(recvs)].tolist() == recvs
                assert tb.recv_pad[r].tolist() == \
                    [i >= len(recvs) for i in range(tb.recv_from.shape[1])]
                # every received message sits at its column of its
                # sender's row of the same bucket
                for j, src in enumerate(recvs):
                    assert tb.send_to[src, tb.recv_col[r, j]] == r
                    assert not tb.send_pad[src, tb.recv_col[r, j]]
                reduce_order[r].extend(recvs)
        for r in range(p):
            assert sorted(reduce_order[r]) == list(range(p))
            assert order[r, reduce_order[r]].tolist() == \
                list(range(p))

    def test_pure_cached_and_read_only(self):
        tables, order = compile_split_reduce(8, False, 2)
        assert compile_split_reduce(8, False, 2)[0] is tables
        with pytest.raises(ValueError, match="read-only"):
            order[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            tables[0].send_to[0, 0] = 1
        # the naive schedule is ragged, the rotated one is not
        assert any(tb.send_pad.any() for tb in tables)
        assert not any(tb.send_pad.any() or tb.recv_pad.any()
                       for tb in compile_split_reduce(8, True, 2)[0])

    def test_bucket_size_validation(self):
        with pytest.raises(ValueError):
            compile_split_reduce(4, True, 0)


class TestRotationCongestion:
    def _makespan(self, rotation: bool) -> float:
        p, n, k = 16, 8192, 256
        model = NetworkModel(alpha=1e-6, beta=1e-8, gamma=0.0)

        def prog(comm):
            algo = make_allreduce("oktopk", k=k, rotation=rotation,
                                  tau_prime=64)
            rng = np.random.default_rng(5 + comm.rank)
            acc = rng.normal(size=n).astype(np.float32)
            # steady-state iteration (no threshold allgatherv)
            algo.reduce(comm, acc, 1)
            start = comm.clock
            algo.reduce(comm, acc, 2)
            return comm.clock - start

        res = run_spmd(p, prog, model=model)
        return max(res.results)

    def test_rotation_reduces_endpoint_congestion(self):
        """Figure 2: the rotated schedule avoids ingress hot-spots, so the
        split-and-reduce phase completes faster."""
        t_naive = self._makespan(rotation=False)
        t_rot = self._makespan(rotation=True)
        assert t_rot < t_naive
