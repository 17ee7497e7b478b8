"""Unit tests for COO vectors and top-k selection."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import (
    COOVector,
    combine_sum,
    exact_topk,
    kth_largest_abs,
    threshold_select,
    topk_indices,
)


def _random_dense(n=200, seed=0):
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


class TestCOOVector:
    def test_empty(self):
        v = COOVector.empty(10)
        assert v.nnz == 0 and v.n == 10
        np.testing.assert_array_equal(v.to_dense(), np.zeros(10))

    def test_from_dense_roundtrip(self):
        dense = _random_dense()
        idx = np.array([3, 7, 100], dtype=np.int32)
        v = COOVector.from_dense(dense, idx)
        out = v.to_dense()
        np.testing.assert_array_equal(out[idx], dense[idx])
        mask = np.ones(dense.size, dtype=bool)
        mask[idx] = False
        assert np.all(out[mask] == 0)

    def test_from_arrays_sorts(self):
        v = COOVector.from_arrays(10, [5, 1, 9], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(v.indices, [1, 5, 9])
        np.testing.assert_array_equal(v.values, [2.0, 1.0, 3.0])

    def test_wire_size_is_2k(self):
        from repro.comm import nwords
        v = COOVector.from_arrays(100, [1, 2, 3], [1.0, 2.0, 3.0])
        assert v.comm_nwords() == 6
        assert nwords(v) == 6

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(SparseFormatError):
            COOVector.from_arrays(5, [0, 7], [1.0, 2.0])

    def test_validate_rejects_duplicates(self):
        with pytest.raises(SparseFormatError):
            COOVector.from_arrays(5, [2, 2], [1.0, 2.0])

    def test_combine_sums_overlaps(self):
        a = COOVector.from_arrays(10, [1, 3], [1.0, 2.0])
        b = COOVector.from_arrays(10, [3, 5], [10.0, 20.0])
        c = a.combine(b)
        np.testing.assert_array_equal(c.indices, [1, 3, 5])
        np.testing.assert_allclose(c.values, [1.0, 12.0, 20.0])

    def test_combine_sum_many_matches_dense(self):
        rng = np.random.default_rng(1)
        vecs = []
        dense_total = np.zeros(50, dtype=np.float64)
        for s in range(6):
            idx = rng.choice(50, size=8, replace=False)
            val = rng.normal(size=8).astype(np.float32)
            vecs.append(COOVector.from_arrays(50, idx, val))
            dense_total[np.sort(idx)] += val[np.argsort(idx, kind="stable")]
        got = combine_sum(vecs).to_dense()
        expect = np.zeros(50, dtype=np.float64)
        for v in vecs:
            expect[v.indices] += v.values
        np.testing.assert_allclose(got, expect, rtol=1e-5, atol=1e-6)

    def test_combine_sum_is_its_run_layout(self):
        """Twelve contributions to one index with cancelling magnitudes:
        the sum is ``reduceat`` over the run in appearance order, which
        at this length adds pairwise — a left-to-right sum differs."""
        run = np.array([1e20, 1, -1e20] + [1] * 7 + [3, 2], dtype=np.float32)
        got = combine_sum([COOVector.from_arrays(8, [5], [v]) for v in run])
        expect = np.add.reduceat(run, [0], dtype=np.float64)
        assert got.values.tobytes() == expect.astype(np.float32).tobytes()
        assert got.values[0] != sum(run.tolist())

    def test_combine_mismatched_length_raises(self):
        a = COOVector.empty(10)
        b = COOVector.empty(11)
        with pytest.raises(SparseFormatError):
            a.combine(b)

    def test_combine_sum_empty_list_raises(self):
        with pytest.raises(ValueError):
            combine_sum([])

    def test_scale(self):
        v = COOVector.from_arrays(4, [0, 2], [2.0, -4.0])
        s = v.scale(0.5)
        np.testing.assert_allclose(s.values, [1.0, -2.0])

    def test_restrict(self):
        v = COOVector.from_arrays(20, [2, 5, 9, 15], [1, 2, 3, 4])
        r = v.restrict(5, 15)
        np.testing.assert_array_equal(r.indices, [5, 9])

    def test_split_covers_all(self):
        v = COOVector.from_arrays(20, [0, 5, 9, 15, 19], [1, 2, 3, 4, 5])
        parts = v.split([0, 6, 12, 20])
        assert len(parts) == 3
        np.testing.assert_array_equal(parts[0].indices, [0, 5])
        np.testing.assert_array_equal(parts[1].indices, [9])
        np.testing.assert_array_equal(parts[2].indices, [15, 19])

    def test_topk_on_coo(self):
        v = COOVector.from_arrays(10, [1, 3, 5, 7], [0.1, -5.0, 2.0, -0.5])
        t = v.topk(2)
        np.testing.assert_array_equal(t.indices, [3, 5])

    def test_topk_k_larger_than_nnz(self):
        v = COOVector.from_arrays(10, [1], [1.0])
        assert v.topk(5) is v

    def test_select_threshold(self):
        v = COOVector.from_arrays(10, [1, 3, 5], [0.1, -5.0, 2.0])
        s = v.select_threshold(1.5)
        np.testing.assert_array_equal(s.indices, [3, 5])

    def test_scatter_add(self):
        v = COOVector.from_arrays(5, [1, 3], [1.0, 2.0])
        buf = np.ones(5, dtype=np.float32)
        v.scatter_add(buf)
        np.testing.assert_allclose(buf, [1, 2, 1, 3, 1])


class TestTopkSelection:
    def test_kth_largest_abs_simple(self):
        x = np.array([0.5, -3.0, 1.0, 2.0], dtype=np.float32)
        assert kth_largest_abs(x, 1) == 3.0
        assert kth_largest_abs(x, 2) == 2.0
        assert kth_largest_abs(x, 4) == 0.5

    def test_kth_largest_k_too_big_returns_zero(self):
        assert kth_largest_abs(np.ones(3, np.float32), 10) == 0.0

    def test_kth_largest_invalid_k(self):
        with pytest.raises(ValueError):
            kth_largest_abs(np.ones(3, np.float32), 0)

    def test_topk_indices_sorted_and_correct(self):
        x = _random_dense(500, seed=3)
        k = 50
        idx = topk_indices(x, k)
        assert idx.size == k
        assert np.all(np.diff(idx) > 0)
        threshold = kth_largest_abs(x, k)
        # every non-chosen element is <= threshold
        rest = np.abs(np.delete(x, idx))
        assert rest.max() <= threshold

    def test_topk_exact_count_with_ties(self):
        x = np.array([1.0, 1.0, 1.0, 1.0, 0.5], dtype=np.float32)
        idx = topk_indices(x, 2)
        assert idx.size == 2
        np.testing.assert_array_equal(idx, [0, 1])  # lowest-index ties win

    def test_topk_k_zero(self):
        assert topk_indices(_random_dense(), 0).size == 0

    def test_topk_k_equals_n(self):
        x = _random_dense(10)
        np.testing.assert_array_equal(topk_indices(x, 10), np.arange(10))

    def test_exact_topk_values_match_dense(self):
        x = _random_dense(300, seed=9)
        v = exact_topk(x, 30)
        np.testing.assert_array_equal(v.values, x[v.indices])

    def test_threshold_select_consistency(self):
        """threshold_select with the exact k-th threshold selects >= k."""
        x = _random_dense(400, seed=5)
        k = 40
        t = kth_largest_abs(x, k)
        v = threshold_select(x, t)
        assert v.nnz >= k
        assert np.abs(v.values).min() >= t
