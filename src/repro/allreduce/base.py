"""Common protocol for the paper's (sparse) gradient allreduce schemes.

Every algorithm implements :class:`GradientAllreduce._reduce` and gets two
public entry points:

* **one-shot** :meth:`GradientAllreduce.reduce`:

  - input: the local accumulated gradient ``acc`` (residuals + fresh
    gradient, Algorithm 2 line 4) as a dense float32 vector, plus the
    1-based training iteration ``t`` (several schemes key periodic work
    off ``t``);
  - output: an :class:`AllreduceResult` whose ``update`` holds the
    *summed* update across the P workers (the optimizer divides by P),
    and whose ``contributed_indices`` identify which local entries made
    it into the update and must therefore be cleared from the residual.

* **session-based** :meth:`GradientAllreduce.begin` (see
  :mod:`repro.allreduce.session`): returns a
  :class:`~repro.allreduce.session.ReduceSession` accepting
  ``push(segment, grad)`` calls as backward emits per-layer gradients
  (reverse layout order) and a ``finish()`` returning the same
  :class:`AllreduceResult` plus per-bucket breakdowns (``bucket_stats``).

Session execution semantics
---------------------------

Segments are fused into buckets by the configurable policy
(``bucket_size`` in words; a bucket closes once it holds at least that
many words).  With the default ``bucket_size=None`` every scheme runs
through the delegating adapter — the pushes are concatenated and the
one-shot ``_reduce`` runs at ``finish()`` — so sessions are **bit
identical** to ``reduce`` in results, traffic counters and simulated
makespans.  Schemes that declare ``bucketable = True`` additionally
support a native multi-bucket path: each bucket is reduced independently
(eagerly, when its last segment is pushed) with a top-k budget split
proportionally to bucket length (:func:`repro.allreduce.session.split_k`),
and the per-bucket results are merged.

Overlap accounting
------------------

Every bucket records ``release_frac`` — the fraction of the backward pass
(parameter mass) already emitted when its reduction started.  The trainer
replays bucket communication against those release times
(:func:`repro.allreduce.session.visible_comm_time`) to compute the
communication visible after overlap, generically for **all** schemes.
``overlap_from_start = True`` (DenseOvlp) pins ``release_frac`` to 0.0,
reproducing the legacy trainer credit ``max(0, comm - f * compute)``
exactly; a one-shot/delegated reduction reports ``release_frac = 1.0``
(it needs the full gradient) and gets no credit.

Algorithms are stateful per worker (cached thresholds, region boundaries),
so the trainer constructs one instance per rank via ``make_per_rank``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..comm import SimComm
from ..errors import ConfigError
from ..sparse import COOVector
from .session import (PHASE_COMM, PHASE_SPARSIFY, BucketStat, BucketView,
                      ParamLayout, ReduceSession)


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
            backpropagation (DenseOvlp); sessions translate it into
            ``release_frac = 0.0`` bucket stats and the trainer's generic
            timeline applies the credit.
        bucket_stats: per-bucket breakdown in push order when the result
            came from a :class:`~repro.allreduce.session.ReduceSession`
            (``None`` for a plain one-shot ``reduce``).
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


class GradientAllreduce(ABC):
    """Base class; concrete schemes override :meth:`_reduce`."""

    #: registry name, e.g. "oktopk"; set by subclasses
    name: str = "?"
    #: whether the scheme sparsifies (False for the dense baselines)
    sparse: bool = True
    #: whether the scheme supports the native per-bucket session path —
    #: either ``_reduce`` is stateless and position-independent (it is run
    #: on each bucket slice as if it were a full gradient vector), or the
    #: scheme overrides ``_reduce_bucket`` and keys its periodic state by
    #: the session's ``BucketView`` (Ok-Topk: one state per bucket)
    bucketable: bool = False
    #: True when the scheme's communication may overlap the *entire*
    #: backward pass (DenseOvlp's legacy contract); sessions report
    #: ``release_frac = 0.0`` for its buckets
    overlap_from_start: bool = False
    #: the world hooks of a native session on the fast path, or None:
    #: ``world_reduce(net, t, lanes, extents)`` runs the data side for
    #: every rank (``lanes[r]``: its ``(comm, scheme, acc)``) and funded
    #: bucket (``extents``: ``(lo, hi, k)`` in plan order) -> a record
    #: with the merged ``update`` and each rank's ``contributed`` indices;
    #: ``world_book(net, comms, record, e)`` books bucket ``extents[e]``
    #: for every rank -> each rank's info (Ok-Topk: ``oktopk.stages`` and
    #: ``oktopk.book``; see :func:`repro.allreduce.session._exec_session`)
    world_reduce = world_book = None

    def __init__(self, *, k: Optional[int] = None,
                 density: Optional[float] = None):
        if k is not None and k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if density is not None and not 0.0 < density <= 1.0:
            raise ConfigError(f"density must be in (0, 1], got {density}")
        if k is None and density is None and self.sparse:
            raise ConfigError(f"{type(self).__name__} needs k or density")
        self._k = k
        self._density = density
        self._k_override: Optional[int] = None

    def resolve_k(self, n: int) -> int:
        """The per-iteration k for a gradient of ``n`` components.

        A session's native bucketed path temporarily overrides this with
        the bucket's proportional share of the global budget (see
        :meth:`_reduce_bucket`).
        """
        if self._k_override is not None:
            return min(self._k_override, n)
        if self._k is not None:
            return min(self._k, n)
        if self._density is None:
            return n
        return max(1, int(round(self._density * n)))

    def on_world_resize(self, size: int) -> None:
        """The communicator shrank (elastic recovery): drop any cached
        per-world state keyed to the old P.  Stateless schemes need no
        action; stateful ones (Ok-Topk) override.
        """

    # ------------------------------------------------------------------
    # One-shot API
    # ------------------------------------------------------------------
    def reduce(self, comm: SimComm, acc: np.ndarray,
               t: int) -> AllreduceResult:
        """Run one allreduce at iteration ``t``.

        ``t`` is **1-based** (the first training iteration is ``t = 1``).
        Periodic schemes — Ok-Topk's tau/tau_prime schedules — key their
        re-evaluation cadence off ``t - 1``, so a zero or negative ``t``
        would silently shift every periodic re-evaluation by a full
        period; it raises :class:`~repro.errors.ConfigError` instead.
        """
        if acc.ndim != 1:
            raise ValueError("acc must be a flat gradient vector")
        if t < 1:
            raise ConfigError(f"iteration t must be >= 1, got {t}")
        acc = np.ascontiguousarray(acc, dtype=np.float32)
        comm.phase_times(reset=True)
        result = self._reduce(comm, acc, t)
        result.phase_times = comm.phase_times(reset=True)
        return result

    # ------------------------------------------------------------------
    # Session API
    # ------------------------------------------------------------------
    def begin(self, comm: SimComm, layout: ParamLayout, t: int, *,
              bucket_size: Optional[int] = None,
              stream: bool = False) -> ReduceSession:
        """Open a bucketed reduce session for one iteration.

        Push per-layer gradients in reverse layout (backward) order, then
        call ``finish()``.  ``t`` is **1-based**, same contract as
        :meth:`reduce` (periodic schemes key their schedules off
        ``t - 1``; ``t < 1`` raises ``ConfigError``).
        ``bucket_size=None`` (one bucket) is bit identical to
        :meth:`reduce`; a multi-bucket plan uses the native per-bucket
        path when ``bucketable`` and the delegating adapter otherwise.
        ``stream=True`` issues each native bucket reduction at the rank's
        current simulated time inside an async region (discrete-event
        overlap; see :mod:`repro.allreduce.session`), with ``finish()``
        joining the outstanding completions; a scheme that cannot stream
        records the fallback in its bucket stats.
        """
        return ReduceSession(self, comm, layout, t, bucket_size=bucket_size,
                             stream=stream)

    def _reduce_bucket(self, comm: SimComm, acc: np.ndarray, t: int, *,
                       k: Optional[int] = None,
                       view: Optional[BucketView] = None) -> AllreduceResult:
        """Reduce one session bucket (``bucketable`` schemes only).

        Default: the one-shot algorithm on the bucket slice with ``k``
        overriding the scheme's budget for the slice — the stateless
        contract, which ignores ``view``.  Override for schemes whose
        one-shot path does internal bucketing of its own (DenseOvlp) or
        that keep periodic state, which must then be kept per bucket
        (Ok-Topk runs Algorithm 1 on the bucket's own thresholds and
        boundaries, found through ``view``; see
        :class:`~repro.allreduce.session.BucketView`).
        """
        self._k_override = k
        try:
            return self._reduce(comm, np.ascontiguousarray(acc), t)
        finally:
            self._k_override = None

    @abstractmethod
    def _reduce(self, comm: SimComm, acc: np.ndarray,
                t: int) -> AllreduceResult:
        ...

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = f"k={self._k}" if self._k is not None else f"density={self._density}"
        return f"{type(self).__name__}({sel})"
