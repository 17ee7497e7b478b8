"""Property-based tests (hypothesis) for the sparse primitives."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import (
    COOVector,
    combine_sum,
    exact_topk,
    kth_largest_abs,
    sanitize_boundaries,
    threshold_select,
    topk_indices,
    validate_boundaries,
)
from repro.sparse.topk import batched_threshold_select

floats32 = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                     allow_infinity=False, width=32)


def dense_vectors(min_size=1, max_size=200):
    return hnp.arrays(np.float32, st.integers(min_size, max_size),
                      elements=floats32)


def coo_vectors(n=64, max_nnz=32):
    @st.composite
    def _build(draw):
        nnz = draw(st.integers(0, min(max_nnz, n)))
        idx = draw(st.permutations(range(n)))[:nnz]
        vals = draw(st.lists(floats32, min_size=nnz, max_size=nnz))
        return COOVector.from_arrays(
            n, np.array(sorted(idx), dtype=np.int32),
            np.array([v for _, v in sorted(zip(idx, vals))],
                     dtype=np.float32), sort=False)
    return _build()


class TestTopkProperties:
    @given(dense_vectors(), st.integers(1, 250))
    @settings(max_examples=60, deadline=None)
    def test_topk_size_and_threshold(self, x, k):
        idx = topk_indices(x, k)
        assert idx.size == min(k, x.size)
        assert np.all(np.diff(idx) > 0)
        if 0 < k <= x.size:
            th = kth_largest_abs(x, k)
            # all selected are >= threshold, all excluded are <= threshold
            mag = np.abs(x)
            assert np.all(mag[idx] >= th)
            excluded = np.setdiff1d(np.arange(x.size), idx)
            if excluded.size:
                assert np.all(mag[excluded] <= th)

    @given(dense_vectors(), st.integers(1, 250))
    @settings(max_examples=40, deadline=None)
    def test_topk_idempotent(self, x, k):
        v = exact_topk(x, k)
        assert v.topk(k) == v

    @given(dense_vectors(min_size=2), st.integers(1, 100))
    @settings(max_examples=40, deadline=None)
    def test_topk_captures_max_mass(self, x, k):
        """No k-subset has more L1 mass than the top-k selection."""
        v = exact_topk(x, k)
        rng = np.random.default_rng(0)
        kk = min(k, x.size)
        mass = np.abs(v.values).astype(np.float64).sum()
        for _ in range(5):
            other = rng.choice(x.size, size=kk, replace=False)
            other_mass = np.abs(x[other]).astype(np.float64).sum()
            assert mass >= other_mass - 1e-3 - 1e-6 * abs(other_mass)

    @given(dense_vectors(), st.floats(0, 1e4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_threshold_select_is_filter(self, x, th):
        v = threshold_select(x, th)
        mask = np.abs(x) >= th
        assert v.nnz == int(mask.sum())
        np.testing.assert_array_equal(np.flatnonzero(mask), v.indices)


#: float32 corner values: NaN, infinities, signed zeros, the smallest
#: subnormal, a mid-range subnormal and the largest finite value
SPECIAL32 = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 1e-40,
             -1e-40, 3.4028235e38, -3.4028235e38]


@st.composite
def stacked_selections(draw):
    """``(xs, thresholds)``: a ``(P, n)`` float32 matrix with P * n not a
    multiple of 8 (the packed mask ends in padding) and one float32
    threshold per row — 0, negative, NaN, infinite, subnormal, any
    float32, or one of the row's magnitudes with exact ties planted at
    both signs."""
    p = draw(st.integers(1, 17).filter(lambda p: p % 8))
    n = draw(st.integers(1, 40).filter(lambda n: (p * n) % 8))
    elems = st.one_of(st.floats(width=32), st.sampled_from(SPECIAL32))
    xs = draw(hnp.arrays(np.float32, (p, n), elements=elems))
    ths = []
    for r in range(p):
        kind = draw(st.sampled_from(["tie", "special", "any"]))
        if kind == "tie":
            j, a, b = (draw(st.integers(0, n - 1)) for _ in range(3))
            th = abs(xs[r, j])
            xs[r, a], xs[r, b] = th, -th
        elif kind == "special":
            th = draw(st.sampled_from([0.0, -0.0, -1.5, *SPECIAL32]))
        else:
            th = draw(st.floats(width=32))
        ths.append(float(np.float32(th)))
    return xs, ths


class TestBatchedThresholdSelect:
    @given(stacked_selections(), st.integers(1, 5), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_threshold_select(self, case, h, seed):
        """Row ``r``'s slice of the rank-major result is
        :func:`threshold_select` of row ``r`` — same indices, same value
        bytes, same dtypes — with dirty mask and block buffers, and the
        input left as it was."""
        xs, ths = case
        before = xs.tobytes()
        rng = np.random.default_rng(seed)
        mask = rng.random(xs.shape) < 0.5
        spare = rng.random((h, xs.shape[1])) < 0.5
        cols, vals, offsets = batched_threshold_select(xs, ths, mask, spare)
        assert xs.tobytes() == before
        assert offsets[0] == 0 and offsets[-1] == cols.size == vals.size
        for r, th in enumerate(ths):
            ref = threshold_select(xs[r], th)
            got_c = cols[offsets[r]:offsets[r + 1]]
            got_v = vals[offsets[r]:offsets[r + 1]]
            assert got_c.dtype == ref.indices.dtype
            assert got_v.dtype == ref.values.dtype
            np.testing.assert_array_equal(got_c, ref.indices)
            assert got_v.tobytes() == ref.values.tobytes()

    @given(stacked_selections(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_extents_match_threshold_select(self, case, data):
        """With column ``extents`` (ascending, disjoint, gaps allowed) and
        one threshold per row and extent, piece ``(r, e)`` is
        :func:`threshold_select` of ``xs[r, lo:hi]`` shifted by ``lo``,
        and nothing outside every extent is selected."""
        xs, ths = case
        n = xs.shape[1]
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=2,
                                         max_size=8)))
        extents = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
        if not extents:
            extents = [(0, n)]
        per = np.array([np.roll(ths, e) for e in range(len(extents))]).T
        cols, vals, offsets = batched_threshold_select(xs, per,
                                                       extents=extents)
        assert offsets.size == len(ths) * len(extents) + 1
        assert offsets[0] == 0 and offsets[-1] == cols.size == vals.size
        for r in range(len(ths)):
            for e, (lo, hi) in enumerate(extents):
                i = r * len(extents) + e
                ref = threshold_select(xs[r, lo:hi], float(per[r, e]))
                np.testing.assert_array_equal(
                    cols[offsets[i]:offsets[i + 1]], ref.indices + lo)
                assert (vals[offsets[i]:offsets[i + 1]].tobytes()
                        == ref.values.tobytes())


class TestCOOAlgebra:
    @given(coo_vectors(), coo_vectors())
    @settings(max_examples=60, deadline=None)
    def test_combine_commutative(self, a, b):
        ab = a.combine(b).to_dense()
        ba = b.combine(a).to_dense()
        np.testing.assert_allclose(ab, ba, rtol=1e-5, atol=1e-3)

    @given(coo_vectors(), coo_vectors(), coo_vectors())
    @settings(max_examples=40, deadline=None)
    def test_combine_associative(self, a, b, c):
        left = a.combine(b).combine(c).to_dense().astype(np.float64)
        right = a.combine(b.combine(c)).to_dense().astype(np.float64)
        np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-2)

    @given(coo_vectors())
    @settings(max_examples=40, deadline=None)
    def test_combine_with_empty_is_identity(self, a):
        out = a.combine(COOVector.empty(a.n))
        assert out == a or np.allclose(out.to_dense(), a.to_dense())

    @given(coo_vectors())
    @settings(max_examples=40, deadline=None)
    def test_dense_roundtrip(self, a):
        dense = a.to_dense()
        back = COOVector.from_dense(dense, np.flatnonzero(dense))
        np.testing.assert_array_equal(back.to_dense(), dense)

    @given(coo_vectors(), st.integers(0, 64), st.integers(0, 64))
    @settings(max_examples=40, deadline=None)
    def test_restrict_range(self, a, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        r = a.restrict(lo, hi)
        assert np.all((r.indices >= lo) & (r.indices < hi))
        inside = (a.indices >= lo) & (a.indices < hi)
        assert r.nnz == int(inside.sum())

    @given(coo_vectors(), st.lists(st.integers(0, 64), min_size=1,
                                   max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_support(self, a, cuts):
        bounds = np.array([0] + sorted(cuts) + [a.n], dtype=np.int64)
        parts = a.split(bounds)
        assert len(parts) == len(bounds) - 1
        assert sum(p.nnz for p in parts) == a.nnz
        merged = combine_sum(parts) if parts else a
        np.testing.assert_allclose(merged.to_dense(), a.to_dense())


class TestBoundaryProperties:
    @given(hnp.arrays(np.float64, st.integers(2, 10),
                      elements=st.floats(-100, 300, allow_nan=False)),
           st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_sanitize_always_valid(self, raw, n):
        out = sanitize_boundaries(raw, n)
        validate_boundaries(out, n)
