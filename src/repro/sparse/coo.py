"""COO (coordinate) sparse gradient vectors.

The paper stores sparse gradients in COO format: ``k`` values plus ``k``
indexes, i.e. ``2k`` words on the wire (Section 2).  We use int32 indexes
and float32 values so the simulator's word accounting matches the paper's.

Invariants (checked by :meth:`COOVector.validate`):

* ``indices`` strictly increasing, within ``[0, n)``;
* ``indices`` int32, ``values`` float32, same length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import SparseFormatError

INDEX_DTYPE = np.int32
VALUE_DTYPE = np.float32


@dataclass(frozen=True)
class COOVector:
    """An immutable sparse vector of logical length ``n``."""

    n: int
    indices: np.ndarray
    values: np.ndarray

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n: int) -> "COOVector":
        return cls(n, np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))

    @classmethod
    def from_arrays(cls, n: int, indices: np.ndarray,
                    values: np.ndarray, *, sort: bool = True) -> "COOVector":
        """Build from possibly-unsorted (but duplicate-free) arrays."""
        idx = np.asarray(indices, dtype=INDEX_DTYPE)
        val = np.asarray(values, dtype=VALUE_DTYPE)
        if sort and idx.size > 1:
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
        vec = cls(int(n), idx, val)
        vec.validate()
        return vec

    @classmethod
    def from_dense(cls, dense: np.ndarray,
                   indices: np.ndarray) -> "COOVector":
        """Gather ``dense[indices]`` into a sparse vector."""
        idx = np.sort(np.asarray(indices, dtype=INDEX_DTYPE))
        return cls.from_arrays(dense.size, idx,
                               dense[idx].astype(VALUE_DTYPE), sort=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        return self.nnz / self.n if self.n else 0.0

    def comm_nwords(self) -> int:
        """Wire size: one word per value plus one per index (COO, 2k)."""
        return 2 * self.nnz

    def validate(self) -> None:
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise SparseFormatError("indices/values must be 1-D, same length")
        if self.indices.dtype != INDEX_DTYPE:
            raise SparseFormatError(f"indices must be {INDEX_DTYPE}")
        if self.values.dtype != VALUE_DTYPE:
            raise SparseFormatError(f"values must be {VALUE_DTYPE}")
        if self.nnz:
            if int(self.indices[0]) < 0 or int(self.indices[-1]) >= self.n:
                raise SparseFormatError("index out of range")
            if np.any(np.diff(self.indices) <= 0):
                raise SparseFormatError("indices must be strictly increasing")

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros(self.n, dtype=VALUE_DTYPE)
        out[self.indices] = self.values
        return out

    def scatter_add(self, dense: np.ndarray) -> None:
        """Add this vector into a dense buffer in place."""
        dense[self.indices] += self.values

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def combine(self, other: "COOVector") -> "COOVector":
        """Sparse sum of two vectors (union of supports)."""
        return combine_sum([self, other])

    def scale(self, factor: float) -> "COOVector":
        return COOVector(self.n, self.indices,
                         (self.values * VALUE_DTYPE(factor)))

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def topk(self, k: int) -> "COOVector":
        """Keep the ``k`` entries of largest magnitude (ties broken toward
        lower index, deterministically)."""
        if k >= self.nnz:
            return self
        if k <= 0:
            return COOVector.empty(self.n)
        mag = np.abs(self.values)
        # Partition, then break ties at the threshold by lowest index.
        kth = np.partition(mag, self.nnz - k)[self.nnz - k]
        strictly = mag > kth
        need = k - int(strictly.sum())
        sel = strictly.copy()
        if need > 0:
            at_kth = np.flatnonzero(mag == kth)
            sel[at_kth[:need]] = True
        pick = np.flatnonzero(sel)
        return COOVector(self.n, self.indices[pick], self.values[pick])

    def select_threshold(self, threshold: float) -> "COOVector":
        """Keep entries with ``|value| >= threshold``."""
        pick = np.abs(self.values) >= threshold
        return COOVector(self.n, self.indices[pick], self.values[pick])

    def restrict(self, lo: int, hi: int) -> "COOVector":
        """Entries with index in ``[lo, hi)`` (absolute indices kept)."""
        a = int(np.searchsorted(self.indices, lo, side="left"))
        b = int(np.searchsorted(self.indices, hi, side="left"))
        return COOVector(self.n, self.indices[a:b], self.values[a:b])

    def split(self, boundaries: Sequence[int]) -> list["COOVector"]:
        """Split by region boundaries (length P+1, ``boundaries[0] == 0``,
        ``boundaries[-1] == n``) into P region vectors.

        One ``searchsorted`` over the inner boundaries, then direct slicing
        (``np.split`` pays ~10x this in bookkeeping on small vectors)."""
        cuts = self.indices.searchsorted(np.asarray(boundaries[1:-1])).tolist()
        n, idx, val = self.n, self.indices, self.values
        lo = 0
        out = []
        for hi in cuts:
            out.append(COOVector(n, idx[lo:hi], val[lo:hi]))
            lo = hi
        out.append(COOVector(n, idx[lo:], val[lo:]))
        return out

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOVector):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"COOVector(n={self.n}, nnz={self.nnz})"


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two strictly-increasing index arrays.

    Equivalent to ``np.intersect1d(a, b, assume_unique=True)`` but exploits
    that COO index arrays are already sorted: one ``searchsorted`` instead
    of concatenate + sort.  This is Algorithm 1 line 14 (the contributed
    index set), executed every iteration on every rank.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=a.dtype)
    if a.size > b.size:  # probe the smaller array into the larger
        a, b = b, a
    pos = np.searchsorted(b, a)
    pos[pos == b.size] = b.size - 1
    return a[b[pos] == a]


def combine_sum(vectors: Iterable[COOVector]) -> COOVector:
    """Sparse sum of many COO vectors (duplicate indices accumulate).

    Vectorized as one stable ``argsort`` over the concatenated indices plus
    ``np.add.reduceat`` over the run boundaries.  Accumulation happens in
    **float64** (``reduceat``'s ``dtype`` argument) before the single final
    cast back to float32 — same precision as the historical
    ``bincount(weights=...astype(float64))`` path, but without materializing
    the float64 temporary or ``np.unique``'s inverse array.  The stable sort
    preserves appearance order within an index, but ``reduceat`` does not
    add a run left to right: runs of 8 or more entries are summed pairwise
    (the float64 run ``[1e20, 1, -1e20, 1 x7, 3, 1e-30]`` gives 0.0, a
    sequential sum 10.0).  What holds is that the same run layout — the
    same values, in the same order — gives the same bits, which is what
    the world executor's split-and-reduce relies on.

    This is the local reduction performed by the owner rank in
    split-and-reduce, and the source of the *fill-in* effect for
    TopkA/TopkDSA (union of supports grows).
    """
    vecs = [v for v in vectors]
    if not vecs:
        raise ValueError("combine_sum needs at least one vector")
    n = vecs[0].n
    for v in vecs:
        if v.n != n:
            raise SparseFormatError(
                f"mismatched logical lengths: {v.n} != {n}")
    live = [v for v in vecs if v.nnz]
    if not live:
        return COOVector.empty(n)
    if len(live) == 1:
        return live[0]
    all_idx = np.concatenate([v.indices for v in live])
    all_val = np.concatenate([v.values for v in live])
    order = np.argsort(all_idx, kind="stable")
    idx_sorted = all_idx[order]
    val_sorted = all_val[order]
    starts = np.empty(0, dtype=np.intp)
    if idx_sorted.size:
        boundary = np.empty(idx_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(idx_sorted[1:], idx_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
    sums = np.add.reduceat(val_sorted, starts, dtype=np.float64)
    return COOVector(n, idx_sorted[starts], sums.astype(VALUE_DTYPE))
