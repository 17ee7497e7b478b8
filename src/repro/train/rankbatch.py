"""Lockstep rank-batched compute: per-world numpy instead of per-rank.

SPMD data-parallel ranks run the same numpy kernels at the same program
points on different data.  Under a rendezvous-capable engine
(:class:`repro.comm.engine.CoopEngine`) this module turns the per-rank
compute hot spots of a training iteration into *one* stacked numpy
dispatch over a ``(P, ...)`` rank-major axis, through the engine
rendezvous that carries the fused collectives of :mod:`repro.comm.fused`
(the last rank to arrive executes for the whole world).  The executors:

* ``rb_fwdbwd`` (:func:`_exec_fwd_bwd`) — model forward/backward, one
  call of the world module of :class:`repro.nn.stacked.StackedModel` (the
  same layer code with a leading rank axis; the mlp and BERT proxies
  stack, the VGG and LSTM proxies run per rank);
* ``rb_accumulate`` (:func:`_exec_accumulate`) — the optimizer's residual
  accumulation, into the world's double-buffered accumulate matrix;
* ``rb_apply`` (:func:`_exec_apply`) — the optimizer step (Algorithm 2's
  SGD update, or the Adam step of the paper's BERT mode), run once on
  state the world holds once (under the sanitizer, after checking the
  replicas really were equal).

Ok-Topk's selection is the first stage of its data kernel
(:func:`repro.allreduce.oktopk.stages`), run in the ``reduce_session``
rendezvous, which is gated by :func:`repro.comm.fused._available` alone
(a model that does not stack still gets it, its rows copied into one
matrix); the kernel takes the
accumulators through :meth:`_WorldState.stack` and borrows its scratch.

Rows known by identity: the world state remembers the row views it hands
out with their matrix — ``rb_fwdbwd``'s gradient rows and
``rb_accumulate``'s accumulator rows, which come back as the next step's
residuals and as the reductions' accumulators — so stacking them is one
``is`` test per row.  Other rows are tested by address
(:func:`~repro.comm.fused._shared_base`) and copied when they are not
one matrix's; residual rows that are not (per-rank zeros at t = 1, the
first step after a shrink) are added row by row instead.

Bit-identity contract: every batched kernel is elementwise,
row-independent or a gufunc looping the identical 2-D kernel per rank
slice, and every simulated-time charge is each rank's own
:meth:`~repro.comm.SimComm.compute` or its expression slot by slot
(straggler scaling and phase attribution included), so results, traffic
counters, clocks and phase times are bit-identical to per-rank execution
under any runner.

Fallback rules (``engaged()``): batching rides the fused collectives'
gate, :func:`repro.comm.fused._available` — fusion on (off under
``fused=False``, ``REPRO_FUSED=0`` and ``--no-fused``, which run
per-message collectives *and* per-rank compute), the cooperative engine,
more than one rank, no message tracing, and a rendezvous certain to
complete (the communicator spans the current world, nothing in it is
dead and no planned crash can fire inside).  Its own gate is the model:
one without a stacked path runs per rank.  Straggler plans and shrunk
worlds stay batched (the survivors re-stack at P-1; ragged shards run
the world module once per run of equal shard shapes); the step a planned
crash fires in disengages on every rank, so detection, rollback and
shrink run the never-batched code.  A disengaged call returns ``None``
and the caller runs its per-rank code.  Inside the rendezvous the
executors fall back per rank only for what is not SPMD (diverged
weights, scales, updates or optimizer steps).

Replicated state is held once: every rank model's ``params_flat`` is the
stacked model's one vector, and every rank's Adam holds rank 0's moments.
A rank that steps on its own first takes private copies and drops the
world's binding (:meth:`RankBatch.apply`).

World state: the stacked model, the accumulate buffers, the handed-out
rows and the executors' scratch live in one :class:`_WorldState` per
network and section (the engine drops it when the section closes).
Temporaries are written with ``out=`` into buffers sized once per shape,
each on its own memory mapping (:func:`repro.nn.stacked.mapped_zeros`):
the executor runs on whichever rank thread arrives last, and world-sized
arrays allocated and freed by different threads leave their high-water
mark in every thread's malloc arena.
"""

from __future__ import annotations

import weakref
from itertools import groupby
from typing import Any, List, Optional, Sequence

import numpy as np

from ..comm.fused import _available, _shared_base
from ..errors import ReplicaDivergenceError
from ..nn.stacked import StackedModel, mapped_zeros, supports_stacking
from ..optim.adam import Adam
from ..optim.topk_sgd import _apply_update
from ..sparse import COOVector


class _WorldState:
    """Per-network lockstep state shared by the executors: the stacked
    model, the double-buffered accumulate matrices (the new accumulator
    never overwrites the residual rows still pointing into the other),
    the rows handed out and the scratch of world-sized temporaries."""

    __slots__ = ("stacked", "bufs", "flip", "handed", "_scratch")

    def __init__(self):
        self.stacked: Optional[StackedModel] = None
        self.bufs: List[Optional[np.ndarray]] = [None, None]
        self.flip = 0
        #: kind -> (the row views last handed out, their matrix)
        self.handed: dict = {}
        self._scratch: dict = {}

    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """The buffer ``name``, (re)allocated only when its shape or
        dtype changes (once per world size).  Contents are undefined on
        return; a buffer is valid until the next request for its name."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = self._scratch[name] = mapped_zeros(shape, dtype)
        return buf

    def flat(self, name: str, size: int, dtype) -> np.ndarray:
        """The first ``size`` entries of the grow-only 1-D buffer ``name``
        (for temporaries whose length changes with every call): zeros
        when it is (re)allocated, undefined otherwise."""
        buf = self._scratch.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._scratch[name] = mapped_zeros((size * 3 // 2,), dtype)
        return buf[:size]

    def hand_out(self, kind: str, matrix: np.ndarray) -> List[np.ndarray]:
        """``matrix``'s row views, remembered as the rows of ``kind``."""
        rows = list(matrix)
        self.handed[kind] = (rows, matrix)
        return rows

    def rows_of(self, rows: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """The matrix whose rows ``rows`` are, if any: known by identity
        when they were handed out, else by address (:func:`_shared_base`)."""
        for mine, matrix in self.handed.values():
            if len(mine) == len(rows) and all(
                    a is b for a, b in zip(rows, mine)):
                return matrix
        return _shared_base(rows)

    def stack(self, name: str, rows: Sequence[np.ndarray]) -> np.ndarray:
        """A ``(P, ...)`` matrix over per-rank arrays: zero-copy when they
        already are the consecutive rows of one matrix (:meth:`rows_of`),
        copied into scratch ``name`` otherwise."""
        base = self.rows_of(rows)
        if base is not None:
            return base
        return np.stack(rows, out=self.scratch(
            name, (len(rows),) + rows[0].shape, rows[0].dtype))


def _world_state(net) -> _WorldState:
    st = getattr(net, "_rank_batch_state", None)
    if st is None:
        st = net._rank_batch_state = _WorldState()
    return st


# ---------------------------------------------------------------------------
# Executors (module-level, identical across ranks — rendezvous contract)
# ---------------------------------------------------------------------------
def _exec_fwd_bwd(net, sig, payloads):
    st = _world_state(net)
    models = [p[0] for p in payloads]
    stacked = st.stacked
    if stacked is None or stacked.models != models:
        try:
            stacked = st.stacked = StackedModel(models)
        except ValueError:
            # Not actually SPMD (diverged weights/shapes): run each
            # rank's own math — identical kernels, identical results.
            return [m.loss_and_grad(x, y) for m, x, y in payloads]
    # One world call per maximal run of ranks with equal shard shapes
    # (``ShardedLoader``'s bounds make uneven shards a few such runs).
    losses = []
    for _, run in groupby(payloads, lambda p: (p[1].shape, p[2].shape)):
        _, xs, ys = zip(*run)
        lo = len(losses)
        out, _ = stacked.loss_and_grad(st.stack(f"fwdbwd_x{lo}", xs),
                                       st.stack(f"fwdbwd_y{lo}", ys), lo)
        losses.extend(out.tolist())
    return list(zip(losses, st.hand_out("grad", stacked.gmat)))


def _exec_accumulate(net, sig, payloads):
    st = _world_state(net)
    scale = payloads[0][1]
    if any(p[1] != scale for p in payloads):
        # Diverged schedules: per-rank arithmetic (same expression).
        return [res + s * g.astype(np.float32, copy=False)
                for res, s, g in payloads]
    rows = [p[0] for p in payloads]
    res = st.rows_of(rows)
    grads = st.stack("accumulate_grad",
                     [p[2].astype(np.float32, copy=False) for p in payloads])
    buf = st.bufs[st.flip]
    if (buf is None or buf.shape != grads.shape or buf is res or buf is grads
            or res is None and any(r.base is buf for r in rows)):
        buf = mapped_zeros(grads.shape, rows[0].dtype)
    st.bufs[st.flip] = buf
    st.flip ^= 1
    # Same expression as the per-rank path (``residual + scale * grad``):
    # scalar-times-float32 stays float32, and IEEE addition commutes
    # bit-for-bit.  Foreign residual rows are added row by row.
    if scale != 1.0:
        grads = np.multiply(grads, scale, out=buf)
    if res is not None:
        np.add(res, grads, out=buf)
    else:
        for r, row in enumerate(rows):
            np.add(row, grads[r], out=buf[r])
    return st.hand_out("acc", buf)


def _same_update(a, b) -> bool:
    """Whether two ranks' allreduced updates are equal: the same object,
    or equal indices and values, or an equal dense vector (values are
    compared, so a NaN never is)."""
    if a is b or type(a) is not type(b):
        return a is b
    if isinstance(a, COOVector):
        return a == b
    return a.dtype == b.dtype and np.array_equal(a, b)


def _bits_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is b
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _check_replicas(payloads) -> None:
    """Sanitizer: every rank's parameters (and Adam moments and step
    counter) are bit-equal to rank 0's (what stepping once relies on)."""
    params, _, opt = payloads[0]
    for r, (prm, _, o) in enumerate(payloads[1:], 1):
        if not _bits_equal(prm, params):
            raise ReplicaDivergenceError(r, "parameters")
        if opt is None or o is None:
            continue
        for what, a, b in (("Adam first moments", o._m, opt._m),
                           ("Adam second moments", o._v, opt._v)):
            if not _bits_equal(a, b):
                raise ReplicaDivergenceError(r, what)
        if o.t != opt.t:
            raise ReplicaDivergenceError(r, "Adam step counters")


def _config(o: Optional[Adam]) -> Optional[tuple]:
    return o and (o.t, o.lr, o.beta1, o.beta2, o.eps, o.weight_decay)


def _exec_apply(net, sig, payloads):
    """The optimizer step, once for the world.

    ``payloads[r]`` is rank ``r``'s ``(params, result, inner)``, ``inner``
    an Adam or ``None`` (SGD).  The step runs once, on rank 0's
    parameters (the world's one vector, unless the callers passed their
    own arrays: those get the result copied in), and binds every rank's
    Adam to rank 0's moments.  ``False`` for every rank when the world is
    not SPMD (diverged updates or settings): each then steps on its own."""
    p = len(payloads)
    params, result, opt = payloads[0]
    if net.sanitize:
        _check_replicas(payloads)
    cfg = _config(opt)
    if not all(prm.shape == params.shape and _config(o) == cfg
               and _same_update(res.update, result.update)
               for prm, res, o in payloads[1:]):
        return [False] * p
    if opt is None:
        _apply_update(params, result.update, 1.0 / p)
    else:
        opt.step(params, result.update_dense(params.size) / p)
        for _, _, o in payloads[1:]:
            o._m, o._v, o._scratch, o.t = opt._m, opt._v, opt._scratch, opt.t
    for prm, _, _ in payloads[1:]:
        if prm is not params:
            np.copyto(prm, params)
    return [True] * p


# ---------------------------------------------------------------------------
# Per-rank handle
# ---------------------------------------------------------------------------
class RankBatch:
    """One rank's handle on the world's lockstep batched compute.

    Created by the trainer and published as ``comm.rank_batch``.  All
    entry points return ``None`` when lockstep execution is not engaged;
    callers then run their ordinary per-rank code.
    """

    def __init__(self, comm, model: Any = None):
        self.comm = comm
        self.model = model
        self._supported = model is None or supports_stacking(model)
        #: whether an engaged call may have bound this rank's state to
        #: the world's
        self._bound = False

    @property
    def comm(self):
        """The communicator this handle batches for (``None`` once it is
        gone; re-pointed at the survivors' after a shrink)."""
        return self._comm()

    @comm.setter
    def comm(self, comm) -> None:
        # Weak: ``comm.rank_batch`` points back here, and a strong cycle
        # would leave the finished world (communicator -> network ->
        # stacked model, (P, n) matrices) to the cyclic collector.  The
        # handle is only ever used through a live communicator.
        self._comm = weakref.ref(comm)

    def engaged(self) -> bool:
        """Deterministic, rank-uniform gate: the model stacks, the
        communicator is alive and the fused collectives' gate is open
        (see module docstring)."""
        comm = self.comm
        return self._supported and comm is not None and _available(comm)

    # -- trainer entry points ------------------------------------------
    def loss_and_grad(self, t: int, x: np.ndarray, y: np.ndarray):
        """World-stacked fwd/bwd.  Returns ``(loss, grad_row_view)`` or
        ``None`` when not engaged.  The gradient is a row view of the
        stacked gradient matrix, valid until the next iteration's
        fwd/bwd (the trainer consumes it within the iteration)."""
        if self.model is None or not self.engaged():
            return None
        self._bound = True
        return self.comm.fused_collective(
            ("rb_fwdbwd", t), (self.model, x, y), _exec_fwd_bwd)

    def accumulate(self, t: int, residual: np.ndarray, scale: float,
                   grad: np.ndarray):
        """World-stacked ``residual + scale * grad``.  Returns this
        rank's accumulator row (a view of a shared double-buffered
        matrix) or ``None`` when not engaged."""
        if not self.engaged():
            return None
        return self.comm.fused_collective(
            ("rb_accumulate", t), (residual, scale, grad), _exec_accumulate)

    def apply(self, t: int, params: np.ndarray, result, inner):
        """The optimizer step on ``update / P`` (Adam's, or SGD's when
        ``inner`` is ``None``), once for the world: returns ``None``.
        Otherwise returns the array this rank steps itself, with private
        copies of whatever it held of the world's (stepping shared state
        would step it once per rank) and the world's binding dropped."""
        if ((inner is None or type(inner) is Adam) and self.engaged()
                and self.comm.fused_collective(
                    ("rb_apply", t), (params, result, inner), _exec_apply)):
            self._bound = True
            return None
        if not self._bound:
            return params
        self._bound = False
        _world_state(self.comm.net).stacked = None
        model = self.model
        if model is not None and params is model.params_flat:
            params = params.copy()
            model.rebind_storage(params, model.grad_flat)
        if type(inner) is Adam and inner._m is not None:
            inner._m, inner._v, inner._scratch = (
                a.copy() for a in (inner._m, inner._v, inner._scratch))
        return params
