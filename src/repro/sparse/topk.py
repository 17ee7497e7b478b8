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
# Rank-batched variants: one numpy pass over a (P, n) matrix whose rows are
# the per-rank vectors.  Each row's result is bit-identical to the scalar
# function applied to that row alone (partition and comparisons are
# row-independent).  The (P, n) temporaries can be handed in (``mag`` like
# ``xs``, ``mask`` boolean, contents clobbered): the rendezvous executors
# pass per-world scratch so that no multi-MB array is allocated per call.
# ---------------------------------------------------------------------------
def batched_kth_largest_abs(xs: np.ndarray, k: int,
                            mag: "np.ndarray | None" = None) -> np.ndarray:
    """Row-wise :func:`kth_largest_abs` — one in-place partition of the
    magnitudes.

    Returns a float64 array of per-row thresholds.
    """
    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    nranks, n = xs.shape
    if k > n:
        return np.zeros(nranks, dtype=np.float64)
    mag = np.abs(xs, out=mag)
    mag.partition(n - k, axis=1)
    return mag[:, n - k].astype(np.float64)


def batched_threshold_select(xs: np.ndarray,
                             thresholds: "np.ndarray | list",
                             mag: "np.ndarray | None" = None,
                             mask: "np.ndarray | None" = None,
                             ) -> "list[COOVector]":
    """Row-wise :func:`threshold_select` — one mask + one ``nonzero`` pass.

    The per-rank path compares float32 data against a Python float, which
    numpy evaluates as a float32 comparison (weak scalar promotion); to
    match it bit-for-bit the batched comparison casts the thresholds to a
    float32 column first.
    """
    nranks, n = xs.shape
    ths = np.asarray(thresholds, dtype=xs.dtype).reshape(nranks, 1)
    mask = np.greater_equal(np.abs(xs, out=mag), ths, out=mask)
    # 1-D nonzero is several times faster than the 2-D path; recover the
    # per-row split points from the flat indices afterwards.
    flat = np.flatnonzero(mask)
    cols = (flat % n).astype(INDEX_DTYPE)
    vals = np.ascontiguousarray(xs).reshape(-1)[flat]
    starts = np.searchsorted(flat, np.arange(1, nranks) * n)
    # direct construction (no validate): per-row flat indices are sorted,
    # unique and in-range by construction; dtypes already canonical
    return [COOVector(n, c, v)
            for c, v in zip(np.split(cols, starts), np.split(vals, starts))]
