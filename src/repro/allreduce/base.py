"""Common protocol for the paper's (sparse) gradient allreduce schemes.

Every algorithm implements one reduction, :meth:`GradientAllreduce._reduce`
``(comm, acc, t, k, view)``: one block of the gradient — the whole of it
or a session bucket, located by ``view``
(:class:`~repro.allreduce.session.BucketView`) — with the plan's budget
``k`` for it (``None`` for a dense scheme).  Every reduction is a
:class:`~repro.allreduce.session.ReduceSession` (see
:mod:`repro.allreduce.session`) that calls it bucket by bucket, opened
one of two ways:

* **one-shot** :meth:`GradientAllreduce.reduce` — a one-bucket session
  over the one-segment layout the scheme holds
  (:func:`~repro.allreduce.session.run_session`):

  - input: the local accumulated gradient ``acc`` (residuals + fresh
    gradient, Algorithm 2 line 4) as a dense float32 vector, plus the
    1-based training iteration ``t`` (several schemes key periodic work
    off ``t``);
  - output: an :class:`AllreduceResult` whose ``update`` holds the
    *summed* update across the P workers (the optimizer divides by P),
    whose ``contributed_indices`` identify which local entries made it
    into the update and must therefore be cleared from the residual, and
    whose ``info`` is its one bucket's.

* **session-based** :meth:`GradientAllreduce.begin`: returns a
  :class:`~repro.allreduce.session.ReduceSession` accepting
  ``push(segment, grad)`` calls as backward emits per-layer gradients
  (reverse layout order) and a ``finish()`` returning the same
  :class:`AllreduceResult` plus per-bucket breakdowns (``bucket_stats``).

Session execution semantics
---------------------------

Segments are fused into buckets by the configurable policy
(``bucket_size`` in words; a bucket closes once it holds at least that
many words).  Each bucket is reduced independently (eagerly, when its
last segment is pushed) with a top-k budget split proportionally to
bucket length (:func:`repro.allreduce.session.split_k`), and the
per-bucket results are merged.  The default ``bucket_size=None`` is one
bucket, the whole gradient with the whole budget.

Overlap accounting
------------------

Every bucket records ``release_frac`` — the fraction of the backward pass
(parameter mass) already emitted when its reduction started.  The trainer
replays bucket communication against those release times
(:func:`repro.allreduce.session.visible_comm_time`) to compute the
communication visible after overlap, generically for **all** schemes.
``overlap_from_start = True`` (DenseOvlp) pins ``release_frac`` to 0.0,
reproducing the legacy trainer credit ``max(0, comm - f * compute)``
exactly; any other one-bucket reduction reports ``release_frac = 1.0``
(it needs the full gradient) and gets no credit.

Algorithms are stateful per worker (cached thresholds, region boundaries),
so every rank constructs its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..comm import SimComm
from ..errors import ConfigError
from ..sparse import COOVector
from ..sparse.coo import INDEX_DTYPE, VALUE_DTYPE
from .session import PHASE_COMM, PHASE_SPARSIFY  # noqa: F401  (re-exported)
from .session import (AllreduceResult, BucketView, ParamLayout, ReduceSession,
                      _flat_acc, run_session)


class GradientAllreduce(ABC):
    """Base class; concrete schemes override :meth:`_reduce`."""

    #: registry name, e.g. "oktopk"; set by subclasses
    name: str = "?"
    #: whether the scheme sparsifies (False for the dense baselines)
    sparse: bool = True
    #: True when the scheme's communication may overlap the *entire*
    #: backward pass (DenseOvlp's legacy contract); sessions report
    #: ``release_frac = 0.0`` for its buckets
    overlap_from_start: bool = False
    #: the world hooks of a session on the fast path, or None:
    #: ``world_reduce(net, t, lanes, extents)`` runs the data side for
    #: every rank (``lanes[r]``: its ``(comm, scheme, acc)``) and funded
    #: bucket (``extents``: ``(lo, hi, k)`` in plan order) -> a record
    #: with the merged ``update`` and each rank's ``contributed`` indices;
    #: ``world_book(net, comms, record, e)`` books bucket ``extents[e]``
    #: for every rank -> each rank's info (Ok-Topk: ``oktopk.stages`` and
    #: ``oktopk.book``; see :func:`repro.allreduce.session._exec_session`)
    world_reduce = world_book = None
    #: the one-segment layout :meth:`reduce` runs its session over, kept
    #: while the gradient length holds
    _layout: Optional[ParamLayout] = None

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

    def resolve_k(self, n: int) -> int:
        """The per-iteration k for a gradient of ``n`` components: the
        budget a session splits over its buckets."""
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
        """Run one allreduce at iteration ``t``: a one-bucket session over
        the one-segment layout of ``acc`` (:func:`run_session`).

        ``t`` is **1-based** (the first training iteration is ``t = 1``).
        Periodic schemes — Ok-Topk's tau/tau_prime schedules — key their
        re-evaluation cadence off ``t - 1``, so a zero or negative ``t``
        would silently shift every periodic re-evaluation by a full
        period; it raises :class:`~repro.errors.ConfigError` instead.
        ``acc`` must be a flat vector (``ValueError`` otherwise); a
        zero-length one has no segment to hold it and reduces to an empty
        update without communicating.
        """
        acc = _flat_acc(acc)
        n = acc.size
        if n == 0:
            return AllreduceResult(
                update=(COOVector.empty(0) if self.sparse
                        else np.zeros(0, VALUE_DTYPE)),
                contributed_indices=(np.empty(0, INDEX_DTYPE) if self.sparse
                                     else None))
        layout = self._layout
        if layout is None or layout.n != n:
            layout = self._layout = ParamLayout.single(n)
        return run_session(self, comm, layout, t, acc)

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
        ``bucket_size=None`` (one bucket) is what :meth:`reduce` runs.
        ``stream=True`` issues each bucket reduction at the rank's current
        simulated time inside an async region (discrete-event overlap; see
        :mod:`repro.allreduce.session`), with ``finish()`` joining the
        outstanding completions; a one-bucket plan cannot stream and
        records the fallback in its bucket stats.
        """
        return ReduceSession(self, comm, layout, t, bucket_size=bucket_size,
                             stream=stream)

    @abstractmethod
    def _reduce(self, comm: SimComm, acc: np.ndarray, t: int,
                k: Optional[int], view: BucketView) -> AllreduceResult:
        """Reduce one bucket: ``acc`` is its slice of the gradient, ``k``
        the plan's budget for it (at least 1 and at most ``acc.size``;
        ``None`` for a dense scheme) and ``view`` where it sits in the
        whole gradient."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = f"k={self._k}" if self._k is not None else f"density={self._density}"
        return f"{type(self).__name__}({sel})"
