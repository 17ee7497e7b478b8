"""Data-parallel SPMD trainer gluing model, optimizer and allreduce.

Each rank runs :class:`Trainer` inside an SPMD program (see
:func:`repro.comm.run_spmd`).  An iteration:

1. draw the rank's mini-batch shard,
2. forward/backward (real numpy math) and charge the simulated compute
   time from the model's FLOP estimate,
3. distributed optimizer step — Algorithm 2 (``TopkSGD``) or the
   error-feedback wrapper around Adam (the paper's BERT mode) — which runs
   the configured allreduce scheme through a bucketed
   :class:`~repro.allreduce.ReduceSession` (per-layer gradients pushed in
   backward order; ``bucket_size`` configures the fusion policy, and the
   default ``None`` is one bucket, what the one-shot ``reduce`` runs) and
   charges sparsification + communication time,
4. record the per-phase breakdown under one of two overlap models
   (``overlap_mode``):

   * ``"analytic"`` (default) — the PR-2 replay: the backward lump is
     charged up front, buckets reduce afterwards, and
     :func:`repro.allreduce.visible_comm_time` replays their
     communication against release times
     ``T_b = compute * (1 - f * (1 - release_frac_b))``
     (``f = overlap_backward_fraction``; forward compute never
     overlaps).  DenseOvlp's legacy credit ``max(0, comm - f*compute)``
     falls out of the same timeline; bucketed sparse schemes gain
     overlap the same way.
   * ``"stream"`` — discrete-event overlap on the simulated clock: the
     trainer charges backward compute *incrementally per pushed
     segment* (:class:`_BackwardPacer` keeps the clock on the backward
     timeline), each bucket's reduction is issued inside an async
     region the moment its last segment arrives — its messages book
     links mid-backward and contend with any other traffic — and
     ``finish()`` waits for the outstanding buckets.
     ``iteration_time`` is then the *measured* clock delta; the
     analytic replay is still evaluated on the same bucket stats and
     recorded as ``IterationRecord.analytic_visible_comm`` as a
     cross-check.  The two agree under zero contention; under
     contention the measurement may fall on either side of the replay
     (message-granularity pipelining vs head-of-line blocking between
     interleaved collective rounds — see
     :mod:`repro.allreduce.session`).

Evaluation and ξ measurement are diagnostics and do not consume simulated
time (the paper also excludes them from the runtime-per-iteration bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Protocol

import numpy as np

from ..allreduce import ParamLayout, make_allreduce, visible_comm_time
from ..comm import SimComm
from ..errors import ConfigError, RankFailedError
from ..optim import Adam, SparseOptimWrapper, TopkSGD
from .rankbatch import RankBatch
from .records import IterationRecord, RunRecord
from .xi import measure_xi


class TrainableModel(Protocol):
    """What the trainer needs from a model (see repro.nn.FlatModel).

    Models may additionally expose a ``layout`` property (a
    :class:`repro.allreduce.ParamLayout` of named parameter segments);
    the trainer falls back to a single-segment layout otherwise.
    """

    @property
    def nparams(self) -> int: ...

    @property
    def params_flat(self) -> np.ndarray: ...

    def loss_and_grad(self, x: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray]: ...

    def train_flops(self, batch_size: int) -> float: ...


class BatchSource(Protocol):
    def next_batch(self, t: int) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass
class TrainerConfig:
    """Configuration of one training run."""

    iterations: int
    scheme: str = "oktopk"
    scheme_kwargs: Dict[str, Any] = field(default_factory=dict)
    density: Optional[float] = 0.01
    k: Optional[int] = None
    mode: str = "sgd"                 # "sgd" (Algorithm 2) | "adam" (wrapped)
    lr: Any = 0.1
    weight_decay: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    eval_every: int = 0
    xi_every: int = 0
    overlap_backward_fraction: float = 2.0 / 3.0
    #: bucket-fusion threshold in words for the session-based allreduce;
    #: None = one bucket (what the one-shot reduce runs)
    bucket_size: Optional[int] = None
    #: "analytic" (default, PR-2 replay accounting) or "stream"
    #: (discrete-event overlap on the simulated clock; see module doc)
    overlap_mode: str = "analytic"
    #: survive peer fail-stops (fault plans, see :mod:`repro.comm.faults`):
    #: on :class:`~repro.errors.RankFailedError` the trainer checkpoints,
    #: shrinks the communicator to the survivors, re-keys the allreduce
    #: state and data shards to P-1 and redoes the interrupted iteration.
    #: Off (default) the error propagates to the launcher.
    elastic: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.mode not in ("sgd", "adam"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.bucket_size is not None and self.bucket_size < 1:
            raise ConfigError("bucket_size must be >= 1")
        if self.overlap_mode not in ("analytic", "stream"):
            raise ConfigError(
                f"unknown overlap_mode {self.overlap_mode!r}; "
                "expected 'analytic' or 'stream'")


DENSE_SCHEMES = {"dense", "dense_ovlp"}


class _BackwardPacer:
    """Charges backward compute incrementally as segments are pushed:
    called once per bucket with its segments, it charges each segment's
    increment as its own :meth:`SimComm.compute` (a straggler window that
    opens between two segments scales only the charges after it).  After
    segments totalling fraction ``frac`` of the parameter mass the clock
    sits at ``t0 + compute * (1 - f * (1 - frac))`` — the release time
    :func:`repro.allreduce.visible_comm_time` gives a bucket closing there
    (same expression, so streamed and analytic releases agree bit for
    bit).  The first call charges the non-overlappable ``(1 - f) *
    compute``; ``f = 0`` charges the whole lump before the first push.
    """

    __slots__ = ("comm", "compute_time", "f", "n", "_t0", "_emitted")

    def __init__(self, comm: SimComm, compute_time: float,
                 overlap_fraction: float, total_words: int):
        self.comm = comm
        self.compute_time = compute_time
        self.f = min(max(float(overlap_fraction), 0.0), 1.0)
        self.n = total_words
        self._t0 = comm.clock
        self._emitted = 0

    def __call__(self, segments) -> None:
        comm, t0, lump, f, n = (self.comm, self._t0, self.compute_time,
                                self.f, self.n)
        for segment in segments:
            self._emitted += segment.size
            dt = t0 + lump * (1.0 - f * (1.0 - self._emitted / n)) - comm.clock
            if dt > 0.0:
                comm.compute(dt)


def build_allreduce(cfg: TrainerConfig):
    kwargs = dict(cfg.scheme_kwargs)
    if cfg.scheme not in DENSE_SCHEMES:
        if cfg.k is not None:
            kwargs["k"] = cfg.k
        elif cfg.density is not None:
            kwargs["density"] = cfg.density
    return make_allreduce(cfg.scheme, **kwargs)


class Trainer:
    """Per-rank training driver."""

    def __init__(self, comm: SimComm, model: TrainableModel,
                 batches: BatchSource, cfg: TrainerConfig,
                 eval_fn: Optional[Callable[[Any], Dict[str, float]]] = None):
        self.comm = comm
        self.model = model
        self.batches = batches
        self.cfg = cfg
        self.eval_fn = eval_fn
        self.allreduce = build_allreduce(cfg)
        n = model.nparams
        layout = getattr(model, "layout", None)
        if layout is None:
            layout = ParamLayout.single(n)
        self.layout = layout
        if cfg.mode == "adam":
            inner = Adam(lr=cfg.lr, beta1=cfg.adam_beta1,
                         beta2=cfg.adam_beta2,
                         weight_decay=cfg.weight_decay)
            self.driver = SparseOptimWrapper(self.allreduce, inner, n,
                                             layout=layout,
                                             bucket_size=cfg.bucket_size)
            self._alpha_for_xi = 1.0
        else:
            self.driver = TopkSGD(self.allreduce, cfg.lr, n, layout=layout,
                                  bucket_size=cfg.bucket_size)
            self._alpha_for_xi = None  # use the schedule value per step
        self.record = RunRecord(scheme=cfg.scheme, p=comm.size)
        # Lockstep rank-batched compute (see repro.train.rankbatch),
        # published on the communicator.  Disengages itself whenever
        # batching is unsupported or ranks can diverge.
        self._rb = RankBatch(comm, model)
        comm.rank_batch = self._rb

    # ------------------------------------------------------------------
    def run(self) -> RunRecord:
        cfg = self.cfg
        t = 1
        while t <= cfg.iterations:
            # Iteration-pinned planned crashes fire here (no-op without a
            # fault plan); survivors detect the death inside the
            # iteration's first blocking communication.
            self.comm.maybe_crash(iteration=t)
            try:
                self._run_iteration(t)
            except RankFailedError:
                if not cfg.elastic:
                    raise
                self._recover(t)
                continue  # redo the interrupted iteration at P-1
            t += 1
        return self.record

    def _run_iteration(self, t: int) -> None:
        comm, cfg, model = self.comm, self.cfg, self.model
        stream = cfg.overlap_mode == "stream"
        x, y = self.batches.next_batch(t)
        batched = self._rb.loss_and_grad(t, x, y)
        if batched is None:
            loss, grad = model.loss_and_grad(x, y)
        else:
            loss, grad = batched

        clock0 = comm.clock
        recv0 = int(comm.net.words_recv[comm.slot])
        if stream:
            # The compute lump is charged incrementally by the pacer
            # between segment pushes (inside driver.step), so the
            # clock tracks the backward timeline while buckets issue.
            compute_time = comm.net.model.flop_seconds(
                model.train_flops(len(x)))
        else:
            comm.compute(0.0)  # anchor
            with comm.phase("compute"):
                comm.compute_flops(model.train_flops(len(x)))
            compute_time = comm.clock - clock0

        xi = None
        if cfg.xi_every and t % cfg.xi_every == 0:
            xi = self._measure_xi(grad, t)

        analytic_visible: Optional[float] = None
        stream_fallback = False
        if stream:
            pacer = _BackwardPacer(comm, compute_time,
                                   cfg.overlap_backward_fraction,
                                   self.layout.n)
            info = self.driver.step(comm, model.params_flat, grad,
                                    pacer=pacer, rb=self._rb)
            res = info.result
            sparsify = res.sparsify_time
            comm_t = res.comm_time
            # The discrete-event timeline *is* the measurement.
            iter_time = comm.clock - clock0
            visible_comm = max(0.0,
                               iter_time - compute_time - sparsify)
            # Cross-check: the analytic replay over the same bucket
            # stats; equal under zero contention, diverges in either
            # direction once transfers contend (see module doc).
            analytic_visible = visible_comm_time(
                res.bucket_stats, compute_time,
                cfg.overlap_backward_fraction, comm_t)
            # Surface a session that could not stream (delegating
            # adapter ran post-backward): these timings are analytic.
            stream_fallback = bool(
                res.bucket_stats
                and res.bucket_stats[0].info.get("stream_fallback"))
        else:
            step_clock = comm.clock
            info = self.driver.step(comm, model.params_flat, grad,
                                    rb=self._rb)
            step_time = comm.clock - step_clock
            res = info.result

            sparsify = res.sparsify_time
            comm_t = max(0.0, step_time - sparsify)
            # Every step is a session: replay the buckets' communication
            # against their backward-release times.
            visible_comm = visible_comm_time(
                res.bucket_stats, compute_time,
                cfg.overlap_backward_fraction, comm_t)
            iter_time = compute_time + sparsify + visible_comm

        rec = IterationRecord(
            t=t, loss=float(loss), lr=float(info.lr),
            compute_time=compute_time, sparsify_time=sparsify,
            comm_time=comm_t, iteration_time=iter_time,
            words_recv=int(comm.net.words_recv[comm.slot]) - recv0,
            selected=res.info.get("selected",
                                  res.info.get("selected_local")),
            xi=xi,
            overlap_saved=max(0.0, comm_t - visible_comm),
            nbuckets=res.nbuckets,
            analytic_visible_comm=analytic_visible,
            stream_fallback=stream_fallback,
        )
        if cfg.eval_every and self.eval_fn is not None and (
                t % cfg.eval_every == 0 or t == cfg.iterations):
            rec.eval_metrics = self.eval_fn(model)
        self.record.append(rec)

    # ------------------------------------------------------------------
    def _recover(self, t: int) -> None:
        """Elastic recovery from peer fail-stops (ULFM shrink-and-go).

        The optimizer drivers mutate params/residual only *after* a
        completed allreduce, so when the failure surfaces mid-iteration
        both still hold their iteration ``t-1`` values; the step counter
        is the one thing already advanced (``TopkSGD``/
        ``SparseOptimWrapper`` increment it on entry).  Recovery:
        checkpoint the surviving state, shrink the communicator over the
        remaining live ranks (a deterministic barrier that also flushes
        in-flight traffic and syncs clocks), re-key the allreduce's
        per-world state and the data shards to the new size, roll the
        step counter back, and let :meth:`run` redo iteration ``t``.
        """
        old = self.comm
        ckpt = self.checkpoint()
        new = old.shrink()
        self.comm = new
        self._rb.comm = new
        new.rank_batch = self._rb
        self.model.params_flat[:] = ckpt["params"]
        self.driver.residual[:] = ckpt["residual"]
        self.driver.t = t - 1
        self.allreduce.on_world_resize(new.size)
        reshard = getattr(self.batches, "reshard", None)
        if reshard is not None:
            reshard(new.rank, new.size)
        self.record.events.append({
            "event": "shrink", "t": t,
            # every death the completed shrink accounts for — not
            # ``exc.failed_ranks``, the subset this survivor happened to
            # know of when it detected (schedule-dependent when several
            # ranks die in one step)
            "failed_ranks": list(new.net.dead_ranks),
            "old_size": old.size, "new_size": new.size,
            "clock": new.clock,
        })

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the state a survivor needs to redo an iteration:
        parameters, error-feedback residual, step counter, clock."""
        return {
            "t": self.driver.t,
            "params": np.array(self.model.params_flat, copy=True),
            "residual": np.array(self.driver.residual, copy=True),
            "clock": self.comm.clock,
        }

    # ------------------------------------------------------------------
    def _measure_xi(self, grad: np.ndarray, t: int) -> float:
        cfg = self.cfg
        if cfg.mode == "adam":
            alpha = 1.0
        else:
            alpha = self.driver.lr(self.driver.t + 1)
        scaled = (alpha * grad).astype(np.float32)
        acc = self.driver.residual + scaled
        k = self.allreduce.resolve_k(self.model.nparams)
        return measure_xi(self.comm, acc, scaled, k)
