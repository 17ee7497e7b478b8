"""Top-k selection primitives on dense gradients.

The paper distinguishes (Section 3.1.3):

* *exact* top-k: sort-based, accurate but expensive on accelerators;
* *threshold* selection: a single linear scan ``|g| >= t``, cheap, used
  every iteration with a periodically re-evaluated threshold.

All selections are deterministic: ties at the threshold magnitude break
toward the lower index.
"""

from __future__ import annotations

import numpy as np

from .coo import COOVector, INDEX_DTYPE, VALUE_DTYPE


def kth_largest_abs(x: np.ndarray, k: int) -> float:
    """The k-th largest ``|x|`` — the paper's "accurate threshold".

    For ``k > x.size`` returns 0 (everything selected); ``k <= 0`` is an
    error because no finite threshold selects nothing in general.
    """
    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    n = x.size
    if k > n:
        return 0.0
    mag = np.abs(x).ravel()
    return float(np.partition(mag, n - k)[n - k])


def topk_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries, sorted ascending."""
    n = x.size
    if k <= 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if k >= n:
        return np.arange(n, dtype=INDEX_DTYPE)
    mag = np.abs(x).ravel()
    kth = np.partition(mag, n - k)[n - k]
    strictly = mag > kth
    need = k - int(strictly.sum())
    sel = strictly
    if need > 0:
        at_kth = np.flatnonzero(mag == kth)
        sel = strictly.copy()
        sel[at_kth[:need]] = True
    return np.flatnonzero(sel).astype(INDEX_DTYPE)


def exact_topk(x: np.ndarray, k: int) -> COOVector:
    """Exact top-k sparsification of a dense vector."""
    idx = topk_indices(x, k)
    # direct construction: indices are sorted/unique/in-range by build
    return COOVector(x.size, idx,
                     x.ravel()[idx].astype(VALUE_DTYPE, copy=False))


def threshold_indices(x: np.ndarray, threshold: float) -> np.ndarray:
    """Indices with ``|x| >= threshold`` (one linear scan)."""
    return np.flatnonzero(np.abs(x).ravel() >= threshold).astype(INDEX_DTYPE)


def threshold_select(x: np.ndarray, threshold: float) -> COOVector:
    """Threshold sparsification — Ok-Topk's per-iteration selection."""
    idx = threshold_indices(x, threshold)
    # direct construction: flatnonzero output is sorted/unique/in-range
    return COOVector(x.size, idx,
                     x.ravel()[idx].astype(VALUE_DTYPE, copy=False))


# ---------------------------------------------------------------------------
# Rank-batched selection: one pass over a (P, n) matrix whose rows are the
# per-rank vectors, handed back rank-major (one ``cols`` / ``vals`` pair and
# offsets per rank and column extent — a session's buckets) so that a sparse
# reduction can merge it as one stream.  Each piece is bit-identical to
# :func:`threshold_select` of that row's extent alone.  The mask is two
# float32 compares, ``x >= th`` or ``x <= -th`` (equal to ``|x| >= th``
# for every value and threshold, NaN, infinities, signed zeros and
# ``th <= 0`` included), built a few rows at a time so that no (P, n)
# magnitude matrix exists; the indices come from a
# two-level scan of the packed mask (its nonzero bytes, then the bits of
# only those), two to three times cheaper than ``flatnonzero`` over
# P * n bools at Ok-Topk's densities.  Both boolean buffers can be handed in
# (contents clobbered): the rendezvous executors pass per-world scratch.
# ---------------------------------------------------------------------------
def batched_threshold_select(xs: np.ndarray,
                             thresholds: "np.ndarray | list",
                             mask: "np.ndarray | None" = None,
                             spare: "np.ndarray | None" = None,
                             extents: "tuple | list" = None,
                             ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Row-wise :func:`threshold_select`, rank-major, per column extent.

    ``extents`` are ascending, disjoint column ranges ``(lo, hi)``
    (default: the whole row) and ``thresholds`` holds one threshold per
    row and extent, ``(P, E)`` (or ``(P,)`` for one extent).  Row ``r``
    selects inside extent ``e`` by ``thresholds[r, e]`` — bit-identical to
    :func:`threshold_select` of ``xs[r, lo:hi]`` — and nothing outside
    every extent.  Returns ``(cols, vals, offsets)``: row ``r``'s
    selection in extent ``e`` is ``cols[offsets[r * E + e]:offsets[r * E
    + e + 1]]`` (ascending positions in the row) with those values.
    ``mask`` is a boolean buffer shaped like ``xs``; ``spare`` a boolean
    ``(h, n)`` buffer whose row count ``h`` is the block height (default
    4).  The per-rank path compares float32 data against a Python float,
    which numpy evaluates as a float32 comparison (weak scalar promotion);
    to match it bit-for-bit the thresholds are cast to float32 first
    (negation is exact).
    """
    nranks, n = xs.shape
    if extents is None:
        extents = ((0, n),)
    ths = np.asarray(thresholds, dtype=xs.dtype).reshape(nranks, -1)
    if mask is None:
        mask = np.empty(xs.shape, dtype=bool)
    if spare is None:
        spare = np.empty((min(nranks, 4), n), dtype=bool)
    h = len(spare)
    gap = 0
    for e, (a, b) in enumerate(extents):
        mask[:, gap:a] = False
        gap = b
        for lo in range(0, nranks, h):
            x, th = xs[lo:lo + h, a:b], ths[lo:lo + h, e:e + 1]
            m = mask[lo:lo + h, a:b]
            s = spare[:len(m), :b - a]
            np.greater_equal(x, th, out=m)
            np.less_equal(x, -th, out=s)
            m |= s
    mask[:, gap:] = False
    packed = np.packbits(mask)          # zero padding selects nothing
    hot = np.flatnonzero(packed != 0)
    bits = np.flatnonzero(np.unpackbits(packed[hot]).view(bool))
    flat = (hot[bits >> 3] << 3) | (bits & 7)
    starts = np.arange(nranks)[:, None] * n + [a for a, _ in extents]
    offsets = flat.searchsorted(np.append(starts.ravel(), nranks * n))
    cols = flat - np.repeat(np.arange(nranks) * n,
                            np.diff(offsets[::len(extents)]))
    vals = xs.reshape(-1)[flat].astype(VALUE_DTYPE, copy=False)
    return cols.astype(INDEX_DTYPE), vals, offsets
