"""Communication schedules for split-and-reduce (Figure 2 of the paper).

Two patterns:

* *naive*: at step ``s`` every worker sends its region-``s`` piece to worker
  ``s`` — worker ``s``'s ingress link serializes ``P-1`` messages at once
  (endpoint congestion, Figure 2a);
* *rotated*: worker ``i`` sends to ``(i+s) mod P`` at step ``s`` — each step
  forms a permutation, so every ingress link sees exactly one message per
  step (Figure 2b).

Steps are grouped into *buckets* (Figure 2c): the messages of a bucket are
posted with non-blocking sends and their local reduction is overlapped with
the next bucket's transfers.

:func:`compile_split_reduce` stacks the per-rank step lists into ``(P, m)``
index tables — what Ok-Topk's world executor books a whole bucket from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Step:
    """One exchange step for a fixed rank."""

    send_to: Tuple[int, ...]
    recv_from: Tuple[int, ...]


@lru_cache(maxsize=4096)
def rotated_steps(rank: int, p: int) -> Tuple[Step, ...]:
    """Destination-rotation schedule: P-1 permutation steps."""
    return tuple(Step(send_to=((rank + s) % p,), recv_from=((rank - s) % p,))
                 for s in range(1, p))


@lru_cache(maxsize=4096)
def naive_steps(rank: int, p: int) -> Tuple[Step, ...]:
    """Hot-spot schedule: step ``s`` converges on worker ``s``."""
    steps = []
    for s in range(p):
        send = (s,) if s != rank else ()
        recv = tuple(r for r in range(p) if r != rank) if s == rank else ()
        steps.append(Step(send_to=send, recv_from=recv))
    return tuple(steps)


def make_steps(rank: int, p: int, rotation: bool) -> Tuple[Step, ...]:
    """Cached per ``(rank, p)``: recomputed every iteration otherwise."""
    return rotated_steps(rank, p) if rotation else naive_steps(rank, p)


def buckets(steps: Sequence[Step], bucket_size: int) -> Iterator[List[Step]]:
    """Group steps into buckets of at most ``bucket_size``."""
    if bucket_size < 1:
        raise ValueError("bucket_size must be >= 1")
    for i in range(0, len(steps), bucket_size):
        yield list(steps[i:i + bucket_size])


class BucketTables(NamedTuple):
    """One schedule bucket over all ranks: row ``r`` holds rank ``r``'s
    messages, real ones first.  The ``*_pad`` masks mark the filler of
    ragged rows (the naive schedule): it indexes like a real entry and is
    booked as a zero-word message available at ``-inf``."""

    send_to: np.ndarray     #: ``(P, m_send)`` destinations in post order
    send_pad: np.ndarray
    recv_from: np.ndarray   #: ``(P, m_recv)`` sources in request order
    recv_col: np.ndarray    #: column of each of them in its sender's row
    recv_pad: np.ndarray


@lru_cache(maxsize=64)
def compile_split_reduce(p: int, rotation: bool, bucket_size: int,
                         ) -> Tuple[Tuple[BucketTables, ...], np.ndarray]:
    """:func:`make_steps` + :func:`buckets` of every rank, stacked (pure):
    one :class:`BucketTables` per bucket, and ``order[owner, src]`` — the
    position of ``src``'s piece in the order the owner reduces its region
    (its own piece, then request order)."""
    per_rank = [list(buckets(make_steps(r, p, rotation), bucket_size))
                for r in range(p)]
    order = np.zeros((p, p), dtype=np.int64)
    seen = [1] * p
    out = []
    for bucket in zip(*per_rank):
        sends = [[d for step in steps for d in step.send_to]
                 for steps in bucket]
        recvs = [[s for step in steps for s in step.recv_from]
                 for steps in bucket]
        send_to = np.zeros((p, max(map(len, sends))), dtype=np.int64)
        recv_from = np.zeros((p, max(map(len, recvs))), dtype=np.int64)
        recv_col = np.zeros_like(recv_from)
        send_pad = np.ones(send_to.shape, dtype=bool)
        recv_pad = np.ones(recv_from.shape, dtype=bool)
        for r in range(p):
            send_to[r, :len(sends[r])] = sends[r]
            send_pad[r, :len(sends[r])] = False
            recv_from[r, :len(recvs[r])] = recvs[r]
            recv_pad[r, :len(recvs[r])] = False
            for j, src in enumerate(recvs[r]):
                # a message is received in the bucket that posts it
                recv_col[r, j] = sends[src].index(r)
                order[r, src] = seen[r]
                seen[r] += 1
        out.append(BucketTables(send_to, send_pad, recv_from, recv_col,
                                recv_pad))
    for arr in (order, *(a for tb in out for a in tb)):
        arr.setflags(write=False)
    return tuple(out), order
