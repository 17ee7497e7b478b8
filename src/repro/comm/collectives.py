"""Dense collective operations built on simulated point-to-point messages.

These are faithful implementations of the textbook algorithms the paper's
cost model refers to (Chan et al. 2007, Thakur et al. 2005):

* ``bcast`` / ``reduce``: binomial trees, ``(log P) alpha + n beta`` per level.
* ``allreduce_recursive_doubling``: ``(log P)(alpha + n beta)``; non-powers of
  two handled with the standard fold of the ``P - 2^floor(log2 P)`` extras.
* ``allreduce_rabenseifner``: recursive-halving reduce-scatter followed by
  recursive-doubling allgather; ``2 log P alpha + 2 n (P-1)/P beta`` — the
  bandwidth-optimal "Dense" row of Table 1.
* ``allreduce_ring``: bandwidth-optimal for any P, ``2(P-1)`` latency terms.
* ``allgatherv_bruck``: dissemination allgather with variable block sizes,
  ``ceil(log P)`` steps and ``total - own`` receive volume; this is the
  building block of Ok-Topk's final phase.

All functions take the communicator as the first argument and are pure with
respect to their inputs (arrays are never mutated).

Fused fast path
---------------

Under the cooperative engine each collective first tries the **fused**
execution path (:mod:`repro.comm.fused`): the whole collective runs as one
engine-level macro-dispatch — a compiled message schedule booked in one
walk over its messages plus one central reduction in the schedule's own
association order — bit-identical to the per-message rounds below in
results, traffic counters and simulated makespans (a ring allreduce is
one such dispatch, not a reduce-scatter plus an allgather).  The
per-message implementations in this module remain the reference path
(threaded runner, traced networks, ``P = 1``, non-``add`` ops,
``REPRO_FUSED=0``, and — under a fault plan — the step a planned crash
can fire in; slowdowns, stragglers and shrunk worlds stay fused).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from . import fused as _fused
# Tag namespace for collectives (defined next to the schedule compiler,
# re-exported here for back-compat); user point-to-point traffic should
# stay below _TAG_BASE so interleaved calls cannot mismatch.
from .fused import (  # noqa: F401  (re-exported names)
    _TAG_BASE,
    TAG_A2A,
    TAG_AG,
    TAG_AGV,
    TAG_ALLREDUCE,
    TAG_BARRIER,
    TAG_BCAST,
    TAG_FOLD,
    TAG_GATHER,
    TAG_REDUCE,
    TAG_RS,
    TAG_SCATTER,
)
from .communicator import SimComm
from .payload import nwords as payload_nwords

_UNFUSED = _fused.UNFUSED


def _is_pow2(p: int) -> bool:
    return p > 0 and (p & (p - 1)) == 0


# ---------------------------------------------------------------------------
# Barrier (dissemination)
# ---------------------------------------------------------------------------
def barrier(comm: SimComm) -> None:
    """Dissemination barrier: ``ceil(log2 P)`` zero-byte rounds."""
    if _fused.fused_barrier(comm) is not _UNFUSED:
        return
    p, r = comm.size, comm.rank
    d = 1
    while d < p:
        comm.send(None, (r + d) % p, TAG_BARRIER)
        comm.recv((r - d) % p, TAG_BARRIER)
        d <<= 1
    # Align clocks: a barrier means nobody proceeds before the last arrival.
    # Each rank's clock already reflects its dependency chain; dissemination
    # provides the transitive synchronisation.


# ---------------------------------------------------------------------------
# Broadcast / Reduce (binomial trees)
# ---------------------------------------------------------------------------
def bcast(comm: SimComm, obj: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast; returns the object on every rank."""
    out = _fused.fused_bcast(comm, obj, root)
    if out is not _UNFUSED:
        return out
    p, r = comm.size, comm.rank
    vrank = (r - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            obj = comm.recv((r - mask) % p, TAG_BCAST)
            break
        mask <<= 1
    mask >>= 1
    while mask:
        if vrank + mask < p:
            comm.send(obj, (r + mask) % p, TAG_BCAST)
        mask >>= 1
    return obj


def reduce(comm: SimComm, arr: np.ndarray, root: int = 0,
           op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
           ) -> Optional[np.ndarray]:
    """Binomial-tree reduction; the result is returned on ``root`` only."""
    out = _fused.fused_reduce(comm, arr, root, op)
    if out is not _UNFUSED:
        return out
    p, r = comm.size, comm.rank
    vrank = (r - root) % p
    acc = np.array(arr, copy=True)
    mask = 1
    while mask < p:
        if vrank & mask:
            comm.send(acc, (r - mask) % p, TAG_REDUCE)
            return None
        src_v = vrank | mask
        if src_v < p:
            got = comm.recv((root + src_v) % p, TAG_REDUCE)
            acc = op(acc, got)
            comm.compute_words(acc.size)
        mask <<= 1
    return acc


# ---------------------------------------------------------------------------
# Allreduce: recursive doubling (any P)
# ---------------------------------------------------------------------------
def _fold_in(comm: SimComm, acc: np.ndarray, op) -> tuple[Optional[int], int]:
    """Non-power-of-two preprocessing: the first 2*rem ranks pair up so a
    power-of-two core remains.  Returns (newrank or None, core size)."""
    p, r = comm.size, comm.rank
    m = 1 << (p.bit_length() - 1)
    if _is_pow2(p):
        return r, p
    rem = p - m
    if r < 2 * rem:
        if r % 2 == 0:
            comm.send(acc, r + 1, TAG_FOLD)
            return None, m
        got = comm.recv(r - 1, TAG_FOLD)
        np.copyto(acc, op(acc, got))
        comm.compute_words(acc.size)
        return r // 2, m
    return r - rem, m


def _fold_real_rank(newrank: int, p: int, m: int) -> int:
    """Inverse of the fold mapping: core rank -> real rank."""
    rem = p - m
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def _fold_out(comm: SimComm, acc: np.ndarray) -> np.ndarray:
    """Send the final result back to the folded-out even ranks."""
    p, r = comm.size, comm.rank
    m = 1 << (p.bit_length() - 1)
    if _is_pow2(p):
        return acc
    rem = p - m
    if r < 2 * rem:
        if r % 2 == 0:
            return comm.recv(r + 1, TAG_FOLD)
        comm.send(acc, r - 1, TAG_FOLD)
    return acc


def allreduce_recursive_doubling(comm: SimComm, arr: np.ndarray,
                                 op=np.add) -> np.ndarray:
    """Recursive-doubling allreduce: ``log P`` exchange rounds of the full
    vector.  Latency-optimal; bandwidth ``(log P) n beta``."""
    out = _fused.fused_allreduce(comm, arr, op, "recursive_doubling")
    if out is not _UNFUSED:
        return out
    p = comm.size
    acc = np.array(arr, copy=True)
    if p == 1:
        return acc
    newrank, m = _fold_in(comm, acc, op)
    if newrank is not None:
        d = 1
        while d < m:
            partner_new = newrank ^ d
            partner = _fold_real_rank(partner_new, p, m)
            got = comm.sendrecv(acc, partner, partner, TAG_ALLREDUCE)
            acc = op(acc, got)
            comm.compute_words(acc.size)
            d <<= 1
    return _fold_out(comm, acc)


# ---------------------------------------------------------------------------
# Allreduce: Rabenseifner (reduce-scatter halving + allgather doubling)
# ---------------------------------------------------------------------------
def _rabenseifner_core(comm: SimComm, acc: np.ndarray, newrank: int, m: int,
                       op) -> np.ndarray:
    """Rabenseifner on the power-of-two core of size ``m``."""
    p = comm.size
    n = acc.size
    lo, hi = 0, n
    # --- recursive halving reduce-scatter -----------------------------
    d = m >> 1
    work = acc  # view bookkeeping done with explicit (lo, hi)
    while d >= 1:
        partner_new = newrank ^ d
        partner = _fold_real_rank(partner_new, p, m)
        mid = lo + (hi - lo) // 2
        if newrank < partner_new:
            send_slice, keep = (slice(mid, hi), (lo, mid))
        else:
            send_slice, keep = (slice(lo, mid), (mid, hi))
        got = comm.sendrecv(work[send_slice], partner, partner, TAG_RS)
        lo, hi = keep
        kept = work[lo:hi]
        np.copyto(kept, op(kept, got))
        comm.compute_words(hi - lo)
        d >>= 1
    # --- recursive doubling allgather ----------------------------------
    d = 1
    while d < m:
        partner_new = newrank ^ d
        partner = _fold_real_rank(partner_new, p, m)
        got = comm.sendrecv(work[lo:hi], partner, partner, TAG_AG)
        if newrank & d:  # partner's range precedes ours
            work[lo - got.size:lo] = got
            lo -= got.size
        else:
            work[hi:hi + got.size] = got
            hi += got.size
        d <<= 1
    assert lo == 0 and hi == n, "allgather phase must restore the full vector"
    return work


def allreduce_rabenseifner(comm: SimComm, arr: np.ndarray,
                           op=np.add) -> np.ndarray:
    """Rabenseifner's allreduce: bandwidth-optimal ``2 n (P-1)/P beta`` with
    ``2 log P`` latency terms.  This is the "Dense" row of Table 1."""
    out = _fused.fused_allreduce(comm, arr, op, "rabenseifner")
    if out is not _UNFUSED:
        return out
    p = comm.size
    acc = np.array(arr, copy=True)
    if p == 1:
        return acc
    newrank, m = _fold_in(comm, acc, op)
    if newrank is not None:
        acc = _rabenseifner_core(comm, acc, newrank, m, op)
    return _fold_out(comm, acc)


# ---------------------------------------------------------------------------
# Allreduce: ring (any P, bandwidth optimal)
# ---------------------------------------------------------------------------
def reduce_scatter_ring(comm: SimComm, arr: np.ndarray,
                        op=np.add) -> tuple[np.ndarray, slice]:
    """Ring reduce-scatter on near-equal contiguous blocks.

    Returns ``(reduced_block, block_slice)`` where ``block_slice`` is rank
    ``i``'s block ``i`` of the input.
    """
    p, r = comm.size, comm.rank
    work = np.array(arr, copy=True)
    slices = _fused.compiled(comm.net, _fused._block_slices, arr.size, p)
    if p == 1:
        return work, slices[0]
    # Virtual relabeling so rank i finishes owning real block i: virtual
    # block j corresponds to real block (j - 1) mod p.
    real_of = lambda j: (j - 1) % p  # noqa: E731 - tiny local mapping
    right, left = (r + 1) % p, (r - 1) % p
    for s in range(1, p):
        send_v = (r - s + 1) % p
        recv_v = (r - s) % p
        got = comm.sendrecv(work[slices[real_of(send_v)]], right, left, TAG_RS)
        tgt = work[slices[real_of(recv_v)]]
        np.copyto(tgt, op(tgt, got))
        comm.compute_words(tgt.size)
    mine = slices[r]
    return work[mine].copy(), mine


def allgather_ring(comm: SimComm, block: np.ndarray, n: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Ring allgather of per-rank contiguous blocks into a length-``n``
    vector partitioned like :func:`repro.comm.fused._block_slices`."""
    p, r = comm.size, comm.rank
    slices = _fused.compiled(comm.net, _fused._block_slices, n, p)
    result = np.zeros(n, dtype=block.dtype) if out is None else out
    result[slices[r]] = block
    if p == 1:
        return result
    right, left = (r + 1) % p, (r - 1) % p
    for s in range(p - 1):
        send_b = (r - s) % p
        recv_b = (r - s - 1) % p
        got = comm.sendrecv(result[slices[send_b]], right, left, TAG_AG)
        result[slices[recv_b]] = got
    return result


def allreduce_ring(comm: SimComm, arr: np.ndarray, op=np.add) -> np.ndarray:
    """Ring allreduce: ``2 n (P-1)/P beta`` bandwidth, ``2(P-1) alpha``."""
    out = _fused.fused_allreduce(comm, arr, op, "ring")
    if out is not _UNFUSED:
        return out
    block, _ = reduce_scatter_ring(comm, arr, op)
    return allgather_ring(comm, block, arr.size)


# Role aliases (see comm/fused.py "Algorithm roles"): the latency-optimal
# schedule and the per-P bandwidth-optimal one.
LATENCY_OPTIMAL = _fused.LATENCY_OPTIMAL
bandwidth_optimal = _fused.bandwidth_optimal
allreduce_crossover_words = _fused.allreduce_crossover_words
select_allreduce_algorithm = _fused.select_allreduce_algorithm

#: concrete schedule (``fused.ALLREDUCE_ALGORITHMS``) -> implementation
_ALLREDUCE_IMPLS: Dict[str, Callable[..., np.ndarray]] = {
    "recursive_doubling": allreduce_recursive_doubling,
    "rabenseifner": allreduce_rabenseifner,
    "ring": allreduce_ring,
}


def allreduce(comm: SimComm, arr: np.ndarray, op=np.add,
              algo: str = "bandwidth", *, algorithm: Optional[str] = None,
              ) -> np.ndarray:
    """Dense allreduce dispatch.

    ``algorithm`` (``algo`` is the positional alias) selects the schedule
    (resolved by :func:`repro.comm.fused.resolve_allreduce`):

    * ``"bandwidth"`` (default) — the bandwidth-optimal schedule at this
      P (the paper's Dense baseline): Rabenseifner for powers of two,
      ring otherwise.
    * ``"latency"`` — the latency-optimal schedule (recursive doubling).
    * ``"adaptive"`` — size-adaptive: the latency-optimal schedule below
      the network's alpha/beta crossover size, the bandwidth-optimal one
      at/above it (:func:`repro.comm.fused.select_allreduce_algorithm`).
    * a concrete name (``"recursive_doubling"``, ``"rabenseifner"``,
      ``"ring"``) — force that exact schedule.

    Every call records (collective, concrete algorithm, selection mode)
    provenance in :attr:`Network.algorithm_log` so sweeps are auditable.
    """
    if algorithm is not None:
        algo = algorithm
    words = payload_nwords(arr)
    concrete, mode = _fused.resolve_allreduce(algo, comm.size, words,
                                              comm.net.model)
    if comm.rank == 0:  # once per collective call, not once per rank
        comm.net.note_algorithm("allreduce", concrete, mode, words)
    return _ALLREDUCE_IMPLS[concrete](comm, arr, op)


# ---------------------------------------------------------------------------
# Allgather / allgatherv (Bruck dissemination, any P)
# ---------------------------------------------------------------------------
def allgatherv(comm: SimComm, block: np.ndarray) -> List[np.ndarray]:
    """Variable-size allgather: every rank contributes one array and
    receives the list of all P arrays (ordered by rank).

    Dissemination (Bruck) schedule: ``ceil(log2 P)`` steps; step with
    distance ``d`` ships the ``min(d, P - held)`` blocks held so far.  The
    per-rank receive volume is exactly ``total - own`` words, which on
    balanced data is the paper's ``2k (P-1)/P`` term for Ok-Topk's final
    allgatherv.
    """
    out = _fused.fused_allgatherv(comm, block)
    if out is not _UNFUSED:
        return out
    p, r = comm.size, comm.rank
    held: List[np.ndarray] = [block]  # held[j] = block of rank (r + j) % p
    # Each block's wire size is computed once on arrival and carried along;
    # re-sizing the forwarded prefix on every dissemination hop would walk
    # the same payloads O(log P) times.
    sizes: List[int] = [payload_nwords(block)]
    d = 1
    while d < p:
        count = min(d, p - len(held))
        dst = (r - d) % p
        src = (r + d) % p
        got = comm.sendrecv(held[:count], dst, src, TAG_AGV,
                            nwords=sum(sizes[:count]))
        held.extend(got)
        sizes.extend(payload_nwords(b) for b in got)
        d <<= 1
    assert len(held) == p
    # held[j] is rank (r+j)%p's block; reorder to rank order.
    return [held[(i - r) % p] for i in range(p)]


def allgather(comm: SimComm, block: np.ndarray) -> np.ndarray:
    """Equal-size allgather; returns the concatenation over ranks."""
    return np.concatenate(allgatherv(comm, block))


def allgatherv_coo(comm: SimComm, vec: Any) -> List[Any]:
    """Bruck allgatherv of one COO sparse vector per rank.

    The dissemination schedule is payload-agnostic; COO vectors are charged
    ``2 * nnz`` words each (values + indexes), so the measured volume is the
    paper's TopkA row: ``~2k(P-1)`` received per rank."""
    return allgatherv(comm, vec)


def allgather_object(comm: SimComm, obj: Any) -> List[Any]:
    """Allgather of small Python objects (sizes, flags); Bruck schedule."""
    out = _fused.fused_allgatherv(comm, obj, "allgather_object")
    if out is not _UNFUSED:
        return out
    p, r = comm.size, comm.rank
    held: List[Any] = [obj]
    d = 1
    while d < p:
        count = min(d, p - len(held))
        got = comm.sendrecv(held[:count], (r - d) % p, (r + d) % p, TAG_AGV)
        held.extend(got)
        d <<= 1
    return [held[(i - r) % p] for i in range(p)]


# ---------------------------------------------------------------------------
# Alltoall(v) (pairwise rotation, any P)
# ---------------------------------------------------------------------------
def alltoallv(comm: SimComm, blocks: Sequence[Any]) -> List[Any]:
    """Personalized exchange: ``blocks[j]`` goes to rank ``j``; returns the
    list of blocks received (indexed by source rank)."""
    p, r = comm.size, comm.rank
    if len(blocks) != p:
        raise ValueError(f"alltoallv needs exactly P={p} blocks")
    res = _fused.fused_alltoallv(comm, blocks)
    if res is not _UNFUSED:
        return res
    out: List[Any] = [None] * p
    out[r] = blocks[r]
    for s in range(1, p):
        dst = (r + s) % p
        src = (r - s) % p
        out[src] = comm.sendrecv(blocks[dst], dst, src, TAG_A2A)
    return out


# ---------------------------------------------------------------------------
# Gather / scatter (linear)
# ---------------------------------------------------------------------------
def gather(comm: SimComm, obj: Any, root: int = 0) -> Optional[List[Any]]:
    out = _fused.fused_gather(comm, obj, root)
    if out is not _UNFUSED:
        return out
    p, r = comm.size, comm.rank
    if r == root:
        out = [None] * p
        out[r] = obj
        for src in comm.peers():
            out[src] = comm.recv(src, TAG_GATHER)
        return out
    comm.send(obj, root, TAG_GATHER)
    return None


def scatter(comm: SimComm, objs: Optional[Sequence[Any]],
            root: int = 0) -> Any:
    p, r = comm.size, comm.rank
    if r == root and (objs is None or len(objs) != p):
        raise ValueError(f"scatter root needs exactly P={p} objects")
    out = _fused.fused_scatter(comm, objs, root)
    if out is not _UNFUSED:
        return out
    if r == root:
        for dst in comm.peers():
            comm.send(objs[dst], dst, TAG_SCATTER)
        return objs[r]
    return comm.recv(root, TAG_SCATTER)
