"""Session-based bucketed allreduce: push per-layer gradients, reduce in
buckets, account communication/computation overlap generically.

The one-shot :meth:`GradientAllreduce.reduce` treats the gradient as a
single monolithic flat vector, which forces the whole backward pass to
finish before any communication starts.  Real systems (SparCML's
stream-fused collectives, bucketed sparse reducers) exchange gradients in
*layer buckets* as backpropagation produces them, so communication of the
late layers overlaps computation of the early ones.  This module provides
the pieces of that execution model:

* :class:`ParamLayout` — named, contiguous parameter segments of a flat
  model vector (:attr:`repro.nn.FlatModel.layout` builds one per layer
  parameter);
* bucket fusion — consecutive segments, in **push order** (reverse layout
  order: backward emits the last layer first), are fused into buckets of at
  least ``bucket_size`` words (``None`` = everything in one bucket);
* :func:`split_k` — the paper-order sparsification budget: the global ``k``
  is split across buckets proportionally to bucket length (largest
  remainder, deterministic);
* :class:`SessionPlan` — everything above that depends only on
  ``(layout, bucket_size, k, sparse)`` (buckets, extents, closing
  positions, per-bucket k, release fractions), derived once per layout;
* :class:`ReduceSession` — created by :meth:`GradientAllreduce.begin`
  (and by :meth:`GradientAllreduce.reduce`, which is a one-bucket session
  over the one-segment layout the scheme holds); accepts
  ``push(segment, grad)`` calls as backward emits per-layer gradients and
  runs the scheme when buckets complete.  Every plan, one bucket
  included, runs bucket by bucket: each bucket is reduced independently —
  eagerly, the moment its last segment is pushed — by the scheme's one
  reduction ``_reduce(comm, acc[lo:hi], t, k_b, view)`` with its
  proportional ``k`` share, and :meth:`ReduceSession.finish` merges the
  per-bucket results into one :class:`AllreduceResult`.  The
  :class:`BucketView` locates the bucket in the full gradient: Ok-Topk
  keys the bucket's own periodic state by it (see
  :mod:`repro.allreduce.oktopk`), and DenseOvlp splits a bucket that is
  the whole gradient into its ``nbuckets`` allreduces.  A one-bucket
  result carries its bucket's info (``k``, the selected counts, ...);

* :class:`BucketStat` / :func:`visible_comm_time` — the generic overlap
  timeline.  Every bucket records the fraction of the backward pass that
  had completed when it was pushed (``release_frac``); the trainer replays
  the buckets' communication against those release times to compute the
  communication that remains *visible* after overlapping with outstanding
  backward compute.  ``release_frac = 0.0`` (schemes declaring
  ``overlap_from_start``, i.e. DenseOvlp) reproduces the legacy trainer
  credit ``max(0, comm - f * compute)`` exactly; ``release_frac = 1.0``
  (a one-shot reduction, which needs the full gradient) yields no credit.

Streaming execution (``stream=True``)
-------------------------------------

The replay above is *accounting only*: on the simulated clock the bucket
reductions still run after the backward lump, so their messages never
contend with anything else during backward.  A session opened with
``stream=True`` instead runs each bucket reduction inside an
:class:`repro.comm.AsyncRegion` **at the rank's current simulated time**:
the caller's pacer charges backward compute segment by segment before
each bucket closes, so the clock *is* the bucket's release time, its
messages book egress/ingress links right there — contending against any
other traffic in flight — and the clock then rewinds to the backward
timeline (the NIC progresses the reduction off the critical path).
:meth:`ReduceSession.finish` joins the outstanding bucket completions
(``max`` over their comm-finish times) and only then charges the
selection (sparsification) cost, mirroring the analytic convention that
keeps sparsification serial.  Under zero contention — no foreign
traffic, buckets spaced wider than their communication — the streamed
timeline reproduces the analytic :func:`visible_comm_time` replay.
Under contention the two diverge in either direction: links pipeline at
message granularity (a bucket's first hop starts before its
predecessor's final delivery), but interleaved multi-round collectives
also suffer head-of-line blocking the analytic model cannot see.
Resolving that is the whole point of running the events.  Per-bucket
issue and comm-finish times land in ``BucketStat.info["t_issue"]`` /
``["t_comm_finish"]``.

One rendezvous per session on the fast path
-------------------------------------------

Every decision above except the clocks is SPMD, so where the engine
rendezvous is available (:func:`repro.comm.fused._available`) and the
scheme has world hooks (``GradientAllreduce.world_reduce`` and
``world_book``: Ok-Topk and ``oktopk_q``), :func:`run_session` makes
every rank enter **one** ``reduce_session`` rendezvous per session —
one-shot or bucketed, streamed or analytic — and :func:`_exec_session`
runs the session for the world: the data pass once over every funded
bucket (it reads no clock), then per bucket every rank's pacer, the
bucket's booking pass and the async region's clock rewind, then every
rank's :meth:`ReduceSession.finish` around the merged update the data
pass built once (shared write-protected).  Everywhere else — ``threads``,
tracing, ``fused=False``, the step a planned crash fires in, explicit
``push`` calls, every plan of the other schemes — each rank runs
:meth:`ReduceSession._run_bucket` per bucket, the reference path.  Both
call the pacer once per bucket with its segments and book the bucket
through the one :meth:`ReduceSession._record` from the rank's
:func:`_totals` before and after the reduction, so the stats, the async
clocks and the deferred selection cost cannot drift apart.

A one-bucket plan cannot stream (its one reduction needs the whole
gradient), so a session opened with ``stream=True`` over one bucket runs
it post-backward, as an analytic session does.  The fallback is
**recorded** so benchmark readers cannot misattribute analytic numbers to
streaming: the bucket's ``BucketStat.info["stream_fallback"]`` is set
(the trainer mirrors it into ``IterationRecord.stream_fallback``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..comm import fused as _fused
from ..errors import ConfigError
from ..sparse import COOVector
from ..sparse.coo import INDEX_DTYPE, VALUE_DTYPE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..comm import SimComm
    from .base import GradientAllreduce

PHASE_SPARSIFY = "sparsification"
PHASE_COMM = "communication"


# ---------------------------------------------------------------------------
# Parameter layouts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParamSegment:
    """One named contiguous slice of the flat parameter vector."""

    index: int      # position in layout (forward) order
    name: str
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size

    @property
    def sl(self) -> slice:
        return slice(self.offset, self.end)


class ParamLayout:
    """An ordered partition of a flat vector into named segments.

    Segment order is *layout* (forward) order: segment 0 starts at offset
    0.  Backward emits gradients in reverse layout order, which is the
    push order sessions expect.
    """

    def __init__(self, segments: Sequence[ParamSegment]):
        if not segments:
            raise ConfigError("ParamLayout needs at least one segment")
        ofs = 0
        for i, seg in enumerate(segments):
            if seg.index != i or seg.offset != ofs or seg.size < 1:
                raise ConfigError(
                    f"segment {i} ({seg.name!r}) breaks the contiguous "
                    f"layout at offset {ofs}")
            ofs = seg.end
        self.segments: tuple = tuple(segments)
        self.n = ofs
        #: session plans derived from this layout (see :meth:`session_plan`)
        self._plans: Dict[tuple, "SessionPlan"] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_sizes(cls, sizes: Sequence[int],
                   names: Optional[Sequence[str]] = None) -> "ParamLayout":
        names = (list(names) if names is not None
                 else [f"seg{i}" for i in range(len(sizes))])
        if len(names) != len(sizes):
            raise ConfigError("sizes and names must have the same length")
        segs, ofs = [], 0
        for i, (sz, nm) in enumerate(zip(sizes, names)):
            segs.append(ParamSegment(i, nm, ofs, int(sz)))
            ofs += int(sz)
        return cls(segs)

    @classmethod
    def single(cls, n: int, name: str = "flat") -> "ParamLayout":
        """The trivial layout: one segment covering everything."""
        return cls([ParamSegment(0, name, 0, int(n))])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __getitem__(self, i: int) -> ParamSegment:
        return self.segments[i]

    def push_order(self) -> List[ParamSegment]:
        """Segments in the order backward emits them (reverse layout)."""
        return list(reversed(self.segments))

    def fuse(self, bucket_size: Optional[int]) -> List[List[ParamSegment]]:
        """Fuse consecutive push-order segments into buckets.

        A bucket closes once it has accumulated at least ``bucket_size``
        words; ``None`` fuses everything into a single bucket.  Each
        bucket covers a contiguous range of the flat vector (consecutive
        push-order segments are adjacent).
        """
        order = self.push_order()
        if bucket_size is None:
            return [order]
        if bucket_size < 1:
            raise ConfigError(f"bucket_size must be >= 1, got {bucket_size}")
        buckets: List[List[ParamSegment]] = []
        cur: List[ParamSegment] = []
        words = 0
        for seg in order:
            cur.append(seg)
            words += seg.size
            if words >= bucket_size:
                buckets.append(cur)
                cur, words = [], 0
        if cur:
            buckets.append(cur)
        return buckets

    def session_plan(self, bucket_size: Optional[int], k_total: int,
                     sparse: bool) -> "SessionPlan":
        """The immutable :class:`SessionPlan` of a session over this
        layout, derived once per ``(bucket_size, k_total, sparse)`` —
        every rank opens one session per iteration on the same layout."""
        key = (bucket_size, k_total, sparse)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = SessionPlan.derive(
                self, bucket_size, k_total, sparse)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParamLayout(n={self.n}, segments={len(self.segments)})"


# ---------------------------------------------------------------------------
# k allocation across buckets
# ---------------------------------------------------------------------------
def split_k(k: int, lengths: Sequence[int]) -> List[int]:
    """Split a global top-k budget proportionally to bucket lengths.

    Largest-remainder rounding so the shares sum exactly to ``k``
    (deterministic: remainder ties break toward earlier buckets).  When
    ``k >= len(lengths)`` every bucket gets at least 1, mirroring
    ``resolve_k``'s floor of one selected element.
    """
    lens = np.asarray(lengths, dtype=np.float64)
    if lens.size == 0:
        return []
    total = float(lens.sum())
    k = min(int(k), int(total))
    quota = k * lens / total
    base = np.floor(quota).astype(np.int64)
    rem = k - int(base.sum())
    if rem > 0:
        frac_order = np.argsort(-(quota - base), kind="stable")
        base[frac_order[:rem]] += 1
    if k >= lens.size:
        # steal from the largest allocations to lift zeros to one
        for i in np.flatnonzero(base == 0):
            donor = int(np.argmax(base))
            if base[donor] <= 1:
                break
            base[donor] -= 1
            base[i] = 1
    return [int(b) for b in base]


@dataclass(frozen=True)
class SessionPlan:
    """What a session derives from ``(layout, bucket_size, k, sparse)``
    and never from the gradient: cached on the layout
    (:meth:`ParamLayout.session_plan`), shared by every rank and
    iteration; a :class:`ReduceSession` adds only its cursor and results.
    """

    #: fused buckets in push order, each a tuple of segments
    buckets: tuple
    #: flattened push order
    sequence: tuple
    #: ``closes[pos]`` = the bucket the push at ``pos`` completes, else -1
    closes: tuple
    #: ``(lo, hi)`` extent of each bucket in the flat vector
    extents: tuple
    #: fraction of the parameter mass pushed when each bucket completes
    release: tuple
    #: per-bucket top-k budget (``None`` entries for a dense scheme;
    #: zero-budget buckets never run)
    bucket_k: tuple

    @classmethod
    def derive(cls, layout: ParamLayout, bucket_size: Optional[int],
               k_total: int, sparse: bool) -> "SessionPlan":
        buckets = tuple(tuple(b) for b in layout.fuse(bucket_size))
        closes: List[int] = []
        release: List[float] = []
        emitted = 0
        for b, bucket in enumerate(buckets):
            closes += [-1] * (len(bucket) - 1) + [b]
            emitted += sum(seg.size for seg in bucket)
            release.append(emitted / layout.n)
        bucket_k = (split_k(k_total, [sum(s.size for s in b)
                                      for b in buckets])
                    if sparse else [None] * len(buckets))
        return cls(
            buckets=buckets,
            sequence=tuple(seg for bucket in buckets for seg in bucket),
            closes=tuple(closes),
            extents=tuple((min(s.offset for s in b), max(s.end for s in b))
                          for b in buckets),
            release=tuple(release), bucket_k=tuple(bucket_k))


# ---------------------------------------------------------------------------
# Bucket context handed to per-bucket reductions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BucketView:
    """Where a session bucket sits inside the full gradient: the slice
    ``[lo, hi)`` of an ``n``-word flat vector.

    Passed to :meth:`GradientAllreduce._reduce` alongside the bucket
    slice ``acc[lo:hi]``.  Stateless schemes ignore it; a scheme with
    periodic state keeps one state per extent and finds the bucket's
    through it (Ok-Topk: the bucket's own thresholds and region
    boundaries, reused across iterations).
    """

    lo: int
    hi: int
    n: int


# ---------------------------------------------------------------------------
# Per-bucket accounting
# ---------------------------------------------------------------------------
@dataclass
class BucketStat:
    """Per-bucket breakdown of one session, in push order.

    ``release_frac`` is the fraction of the backward pass (measured in
    parameter mass) already emitted when this bucket's reduction could
    start: 1.0 for a one-shot reduction (needs the full gradient), 0.0
    for schemes that declare their communication overlappable with the
    whole backward (DenseOvlp's legacy contract).
    """

    lo: int
    hi: int
    nsegments: int
    release_frac: float
    k: Optional[int] = None
    comm_time: float = 0.0
    sparsify_time: float = 0.0
    words_recv: int = 0
    selected: Optional[int] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def words(self) -> int:
        return self.hi - self.lo


@dataclass
class AllreduceResult:
    """Outcome of one gradient allreduce.

    Attributes:
        update: the reduced update, summed over workers; a :class:`COOVector`
            for sparse schemes or a dense ndarray for the dense baselines.
        contributed_indices: sorted indices of *local* ``acc`` entries that
            contributed to ``update`` (``None`` means "all of them", as for
            dense allreduce).
        phase_times: simulated seconds spent per phase
            (``sparsification`` / ``communication``) for the Figure 8/10/12
            breakdowns.
        info: algorithm-specific metrics (selected counts, fill-in, whether
            data balancing triggered, ...).
        overlappable: True when the communication can be overlapped with
            the whole backward pass: the scheme's ``overlap_from_start``
            (DenseOvlp), which sessions also turn into ``release_frac =
            0.0`` bucket stats for the trainer's generic timeline.
        bucket_stats: per-bucket breakdown in push order, filled in by the
            :class:`ReduceSession` that returned the result (one entry for
            a one-shot ``reduce``; ``None`` on a scheme's per-bucket
            results).
    """

    update: Union[COOVector, np.ndarray]
    contributed_indices: Optional[np.ndarray]
    phase_times: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    overlappable: bool = False
    bucket_stats: Optional[List[BucketStat]] = None

    def update_dense(self, n: int) -> np.ndarray:
        """The update as a dense vector of length ``n``."""
        if isinstance(self.update, COOVector):
            return self.update.to_dense()
        return self.update

    @property
    def comm_time(self) -> float:
        return self.phase_times.get(PHASE_COMM, 0.0)

    @property
    def sparsify_time(self) -> float:
        return self.phase_times.get(PHASE_SPARSIFY, 0.0)

    @property
    def nbuckets(self) -> int:
        return len(self.bucket_stats) if self.bucket_stats else 1


def visible_comm_time(bucket_stats: Optional[Sequence[BucketStat]],
                      compute_time: float, overlap_fraction: float,
                      total_comm_time: float) -> float:
    """Communication left visible after overlapping with backward compute.

    Replays the buckets' communication (serialized, one NIC) against their
    release times.  Bucket ``b`` becomes available once the backward work
    it still overlaps with is the outstanding remainder:
    ``T_b = compute * (1 - f * (1 - release_frac_b))`` where ``f`` is the
    overlappable fraction of compute (the trainer's
    ``overlap_backward_fraction``; forward compute never overlaps).  Its
    communication starts at ``max(T_b, previous bucket's finish)``; what
    extends past ``compute_time`` is visible.  Communication not
    attributed to any bucket is charged unoverlapped.

    Degenerate cases reproduce the legacy trainer exactly: a single bucket
    with ``release_frac = 1`` returns ``total_comm_time``; buckets all at
    ``release_frac = 0`` return ``max(0, comm - f * compute)``.
    """
    if not bucket_stats:
        return total_comm_time
    f = min(max(float(overlap_fraction), 0.0), 1.0)
    finish = 0.0
    accounted = 0.0
    for st in bucket_stats:
        frac = min(max(st.release_frac, 0.0), 1.0)
        release = compute_time * (1.0 - f * (1.0 - frac))
        finish = max(finish, release) + st.comm_time
        accounted += st.comm_time
    unattributed = max(0.0, total_comm_time - accounted)
    return max(0.0, finish - compute_time) + unattributed


# ---------------------------------------------------------------------------
# The session itself
# ---------------------------------------------------------------------------
class ReduceSession:
    """One bucketed gradient allreduce, fed by per-layer ``push`` calls.

    Created by :meth:`GradientAllreduce.begin`.  Pushes must arrive in
    push order (reverse layout order — the order backward emits layer
    gradients), each segment exactly once; :meth:`finish` returns the
    familiar :class:`AllreduceResult` with ``bucket_stats`` filled in.

    Execution is SPMD-deterministic: all ranks share the model layout, so
    they push the same segment sequence and the per-bucket collectives
    match up across ranks.
    """

    #: cursor into ``plan.sequence``
    _pos = 0
    #: allocated on first push (np.empty is enough: finish() requires
    #: every segment pushed, so every word is written before read);
    #: run_session adopts the caller's buffer instead and never pushes
    _acc: Optional[np.ndarray] = None
    _finished = False
    #: latest comm-finish time over async bucket reductions (stream)
    _outstanding = 0.0
    #: selection time deferred off the async regions, charged at finish
    _deferred_sparsify = 0.0

    def __init__(self, scheme: "GradientAllreduce", comm: "SimComm",
                 layout: ParamLayout, t: int, *,
                 bucket_size: Optional[int] = None, stream: bool = False):
        if t < 1:
            # 1-based iterations are a hard contract: periodic schemes
            # (Ok-Topk) key their tau/tau_prime schedules off t - 1.
            raise ConfigError(f"iteration t must be >= 1, got {t}")
        self.scheme = scheme
        self.comm = comm
        self.layout = layout
        self.t = t
        plan = self._plan = layout.session_plan(
            bucket_size, scheme.resolve_k(layout.n), bool(scheme.sparse))
        multi = len(plan.buckets) > 1
        #: stream=True over one bucket cannot stream: its one reduction
        #: runs post-backward, so the timings are analytic
        self.stream_fallback = bool(stream) and not multi
        self.stream = bool(stream) and multi
        self._partials: List[tuple] = []      # (lo, hi, AllreduceResult)
        self.bucket_stats: List[BucketStat] = []
        comm.phase_times(reset=True)

    # ------------------------------------------------------------------
    @property
    def nbuckets(self) -> int:
        return len(self._plan.buckets)

    def push(self, segment: Union[ParamSegment, int],
             grad: np.ndarray) -> None:
        """Feed one segment's accumulated gradient (backward order)."""
        if self._finished:
            raise RuntimeError("push() after finish()")
        if self._pos >= len(self._plan.sequence):
            raise ValueError("all segments already pushed")
        expect = self._plan.sequence[self._pos]
        seg = (self.layout[segment] if isinstance(segment, (int, np.integer))
               else segment)
        if seg.index != expect.index:
            raise ValueError(
                f"out-of-order push: got segment {seg.index} "
                f"({seg.name!r}), expected {expect.index} ({expect.name!r}) "
                f"— sessions consume reverse layout (backward) order")
        grad = np.asarray(grad, dtype=VALUE_DTYPE).ravel()
        if grad.size != seg.size:
            raise ValueError(
                f"segment {seg.name!r} expects {seg.size} words, "
                f"got {grad.size}")
        if self._acc is None:
            self._acc = np.empty(self.layout.n, dtype=VALUE_DTYPE)
        self._acc[seg.sl] = grad
        self._advance()

    def _advance(self) -> None:
        """Move the cursor past one pushed segment; the push that
        completes a bucket reduces it on the spot."""
        b = self._plan.closes[self._pos]
        self._pos += 1
        if b >= 0:
            self._run_bucket(b)

    def finish(self) -> AllreduceResult:
        """Complete the session; returns the merged AllreduceResult.

        In streaming mode this is where the rank *waits for outstanding
        buckets*: the clock joins the latest in-flight comm-finish time,
        then the deferred selection cost is charged (serial, mirroring
        the analytic timeline's convention).
        """
        if self._finished:
            raise RuntimeError("finish() called twice")
        if self._pos != len(self._plan.sequence):
            missing = [s.name for s in self._plan.sequence[self._pos:]]
            raise ValueError(f"session incomplete; missing {missing}")
        return self._conclude(self._merge())

    def _conclude(self, result: AllreduceResult) -> AllreduceResult:
        """The rank's side of :meth:`finish` once ``result`` exists."""
        self._finished = True
        if self.stream:
            self.comm._advance_clock(self._outstanding)
            if self._deferred_sparsify > 0.0:
                self.comm.compute(self._deferred_sparsify)
        if self.stream_fallback:
            self.bucket_stats[0].info["stream_fallback"] = True
        result.phase_times = self.comm.phase_times(reset=True)
        result.bucket_stats = self.bucket_stats
        return result

    # ------------------------------------------------------------------
    # Reduce each bucket eagerly as it completes
    # ------------------------------------------------------------------
    def _run_bucket(self, b: int) -> None:
        """Reduce bucket ``b`` on this rank alone — the reference path
        (the world executor, :func:`_exec_session`, runs every rank's)."""
        plan = self._plan
        k_b = plan.bucket_k[b]
        if k_b == 0:
            self._record(b)
            return
        comm = self.comm
        lo, hi = plan.extents[b]
        before = _totals(comm)
        view = BucketView(lo=lo, hi=hi, n=self.layout.n)
        # Streamed, the reduction is issued *now*, at the rank's
        # mid-backward clock: its messages book (and contend for) links at
        # this simulated time, while the rank's own timeline continues
        # backward.
        region = comm.async_region() if self.stream else nullcontext()
        with region:
            res = self.scheme._reduce(comm, self._acc[lo:hi], self.t, k_b,
                                      view)
        self._partials.append((lo, hi, res))
        self._record(b, res.info, before, _totals(comm),
                     (region.issue, region.finish) if self.stream else None)

    def _record(self, b: int, info: Optional[Dict[str, Any]] = None,
                before: tuple = (), after: tuple = (),
                span: Optional[tuple] = None) -> None:
        """Book bucket ``b``'s outcome — the reduction's ``info`` and its
        :func:`_totals` ``before`` and ``after`` it — as its
        :class:`BucketStat` and, streamed, its ``(issue, finish)`` clock
        ``span`` (the comm-finish to join at :meth:`finish`, the selection
        cost deferred to it).  ``info=None``: a zero-budget bucket."""
        plan = self._plan
        lo, hi = plan.extents[b]
        nseg = len(plan.buckets[b])
        release = 0.0 if self.scheme.overlap_from_start else plan.release[b]
        if info is None:
            # split_k legally hands out zero-budget buckets when
            # k < nbuckets, but resolve_k floors every reduction at one
            # selected element — a scheme must never see k=0.  The bucket
            # is skipped outright: nothing selected, nothing sent, nothing
            # merged (deterministic across ranks, which all compute the
            # same split).
            self.bucket_stats.append(BucketStat(
                lo=lo, hi=hi, nsegments=nseg, release_frac=release,
                k=0, selected=0, info={"k": 0, "selected": 0,
                                       "skipped_zero_k": True}))
            return
        sparsify_t = after[1] - before[1]
        if span is not None:
            # The bucket's selection cost is deferred to finish() (the
            # analytic timeline keeps sparsification serial), so the comm
            # pipeline is treated as finishing that much earlier.
            issue, finish = span
            comm_finish = finish - sparsify_t
            if comm_finish > self._outstanding:
                self._outstanding = comm_finish
            self._deferred_sparsify += sparsify_t
            info["t_issue"] = issue
            info["t_comm_finish"] = comm_finish
        self.bucket_stats.append(BucketStat(
            lo=lo, hi=hi, nsegments=nseg, release_frac=release,
            k=plan.bucket_k[b], comm_time=after[0] - before[0],
            sparsify_time=sparsify_t, words_recv=after[2] - before[2],
            selected=info.get("selected", info.get("selected_local")),
            info=info,
        ))

    def _merge(self) -> AllreduceResult:
        """This rank's merged result from its per-bucket partials (the
        reference path); a bucket that is the whole gradient is its own."""
        parts = sorted(self._partials, key=lambda p: p[0])
        if len(parts) == 1 and parts[0][1] - parts[0][0] == self.layout.n:
            res = parts[0][2]
            return self._result(res.update, res.contributed_indices)
        if any(res.contributed_indices is None for _, _, res in parts):
            contributed: Optional[np.ndarray] = None
        else:
            pieces = [res.contributed_indices.astype(INDEX_DTYPE)
                      + INDEX_DTYPE(lo)
                      for lo, _, res in parts
                      if res.contributed_indices.size]
            contributed = (np.concatenate(pieces) if pieces
                           else np.empty(0, INDEX_DTYPE))
        return self._result(self._merge_update(parts), contributed)

    def _result(self, update: Union[COOVector, np.ndarray],
                contributed: Optional[np.ndarray]) -> AllreduceResult:
        """This rank's session result around the merged ``update`` and its
        contributed indices; a one-bucket plan's carries its bucket's
        info."""
        stats = self.bucket_stats
        if len(stats) == 1:
            info = stats[0].info
        else:
            info = {"nbuckets": len(stats),
                    "bucket_k": list(self._plan.bucket_k)}
            selected = [st.selected for st in stats
                        if st.selected is not None]
            if selected:
                info["selected"] = int(sum(selected))
            if self.scheme.sparse and isinstance(update, COOVector):
                info["output_nnz"] = update.nnz
        return AllreduceResult(
            update=update, contributed_indices=contributed, info=info,
            overlappable=self.scheme.overlap_from_start)

    def _merge_update(self, parts: List[tuple]
                      ) -> Union[COOVector, np.ndarray]:
        """The per-bucket updates of ``parts`` (sorted by extent) as one
        update over the whole gradient."""
        sparse = all(isinstance(res.update, COOVector)
                     for _, _, res in parts)
        if not sparse and any(isinstance(res.update, COOVector)
                              for _, _, res in parts):
            # No scheme mixes representations across buckets, and merging
            # them would conflate "contributed everything" (dense) with
            # sparse error feedback — refuse rather than guess.
            raise TypeError(
                f"{type(self.scheme).__name__} returned mixed sparse/"
                "dense bucket updates; sessions require one representation")
        n = self.layout.n
        if sparse:
            idx = [(res.update.indices.astype(INDEX_DTYPE) + INDEX_DTYPE(lo))
                   for lo, _, res in parts if res.update.nnz]
            val = [res.update.values for lo, _, res in parts
                   if res.update.nnz]
            return COOVector(
                n,
                np.concatenate(idx) if idx else np.empty(0, INDEX_DTYPE),
                np.concatenate(val) if val else np.empty(0, VALUE_DTYPE))
        dense = np.zeros(n, dtype=VALUE_DTYPE)
        for lo, hi, res in parts:
            dense[lo:hi] = res.update
        return dense


# ---------------------------------------------------------------------------
# Convenience driver
# ---------------------------------------------------------------------------
def run_session(scheme: "GradientAllreduce", comm: "SimComm",
                layout: ParamLayout, t: int, acc: np.ndarray, *,
                bucket_size: Optional[int] = None,
                pacer: Optional[Any] = None,
                stream: Optional[bool] = None) -> AllreduceResult:
    """Push a full accumulator through a session in backward order.

    With the default ``bucket_size=None`` over a one-segment layout this
    is ``scheme.reduce(comm, acc, t)``; over a model's layout one bucket
    gives the same results, traffic counters and simulated makespans.

    ``pacer``, when given, is called once per bucket of the plan with the
    bucket's :class:`ParamSegment` tuple, in push order, just before the
    bucket closes; the trainer's (:class:`repro.train.trainer._BackwardPacer`)
    charges each segment's share of backward compute in turn, so the
    simulated clock tracks the backward timeline segment by segment.  A
    pacer implies streaming execution (bucket reductions issued on the
    clock mid-backward); pass ``stream`` explicitly to decouple the two.
    """
    acc = _flat_acc(acc)
    if acc.size != layout.n:
        raise ValueError(
            f"acc has {acc.size} words but layout covers {layout.n}")
    if stream is None:
        stream = pacer is not None
    session = ReduceSession(scheme, comm, layout, t,
                            bucket_size=bucket_size, stream=stream)
    # Adopt the already-assembled accumulator and advance the session
    # over its segments directly: every push would alias ``acc``, so
    # there is nothing to validate or copy (the schemes treat acc as
    # read-only).  Buckets close at the same positions; the pacer runs
    # once per bucket, before it closes.
    session._acc = acc
    plan = session._plan
    if scheme.world_reduce is not None and _fused._available(comm):
        return comm.fused_collective(
            ("reduce_session", t, layout.n, plan.bucket_k),
            (session, pacer), _exec_session)
    for bucket in plan.buckets:
        if pacer is not None:
            pacer(bucket)
        for _ in bucket:
            session._advance()
    return session.finish()


def _flat_acc(acc: np.ndarray) -> np.ndarray:
    """``acc`` as a contiguous float32 vector; anything but a flat vector
    raises ``ValueError``."""
    acc = np.ascontiguousarray(acc, dtype=VALUE_DTYPE)
    if acc.ndim != 1:
        raise ValueError("acc must be a flat gradient vector")
    return acc


def _totals(comm: "SimComm") -> tuple:
    """The rank's communication and sparsification phase totals and its
    received words, which :meth:`ReduceSession._record` differences."""
    times = comm._phase_times
    return (times.get(PHASE_COMM, 0.0), times.get(PHASE_SPARSIFY, 0.0),
            int(comm.net.words_recv[comm.slot]))


def _exec_session(net, sig, lanes):
    """A session of a scheme with world hooks for the whole current world
    in one rendezvous: :func:`run_session`'s loop and
    :meth:`ReduceSession.finish` for every rank, around those hooks.

    ``lanes[r]`` is rank ``r``'s ``(session, pacer)``.  The scheme's
    ``world_reduce`` runs the data side of every funded bucket at once
    (``sig[1]`` is the iteration; no clock is read).  Then, bucket by
    bucket: every rank's pacer with the bucket's segments and — a funded
    bucket only — the scheme's ``world_book``, each rank's clock and
    :func:`_totals` read before and after it, the clock rewound to its
    issue time when streaming (as :class:`~repro.comm.AsyncRegion`
    does), and the rank's own :meth:`ReduceSession._record`.  The merged
    update comes out of the data side once, the same write-protected
    arrays for all ranks.
    """
    sessions, pacers = zip(*lanes)
    lead = sessions[0]
    plan = lead._plan
    comms = [s.comm for s in sessions]
    funded = [b for b, k in enumerate(plan.bucket_k) if k]
    data = lead.scheme.world_reduce(
        net, sig[1], [(s.comm, s.scheme, s._acc) for s in sessions],
        [(*plan.extents[b], plan.bucket_k[b]) for b in funded])
    pacers = [pace for pace in pacers if pace is not None]
    clocks = net.clocks
    for b, bucket in enumerate(plan.buckets):
        for pace in pacers:
            pace(bucket)
        if not plan.bucket_k[b]:
            for s in sessions:
                s._record(b)
            continue
        before = [(clocks[c.slot], _totals(c)) for c in comms]
        infos = lead.scheme.world_book(net, comms, data, funded.index(b))
        for s, c, info, (t0, b0) in zip(sessions, comms, infos, before):
            span = None
            if s.stream:
                span = (t0, clocks[c.slot])
                clocks[c.slot] = t0
            s._record(b, info, b0, _totals(c), span)
    return [s._conclude(s._result(data.update, mine))
            for s, mine in zip(sessions, data.contributed)]
