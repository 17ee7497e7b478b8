"""Tensor-parallel decode model over the simulated network.

Megatron-style tensor parallelism: each of the P ranks holds a 1/P shard
of every layer's weights, computes a *partial* activation for its shard,
and the partial sums are combined with **one allreduce of the
[tokens, hidden] activations per layer** — the per-token reduction that
dominates TP inference.  Prefill pushes all prompt tokens of the admitted
batch through at once (large message, bandwidth-bound); each decode step
pushes one token per active request (small message, latency-bound) —
exactly the size regimes the adaptive allreduce selector
(:func:`repro.comm.fused.select_allreduce_algorithm`) targets.

The arithmetic is a surrogate (a per-(layer, rank) gain plus a bounded
nonlinearity, carried across steps), but it is *real data moving through
the real collectives*: the reduced values chain into the next layer and
into a float64 checksum, so bit-identity across runners and fused/unfused
paths is a meaningful end-to-end assertion, not a clock comparison.
Compute is charged analytically as this rank's 1/P shard of the dense
transformer FLOPs (attention projections + MLP; attention scores are
sequence-length dependent and deliberately excluded — the reduction
traffic, not the FLOP model, is the object of study here).

One rendezvous per step
-----------------------

A step's shapes never change between its layers, so where the fused fast
path is available (cooperative engine, no tracing, a communicator that
spans the current world — shrunk or not — with no crash pending in it —
the gate of every fused collective; slowdown and straggler plans ride
along as factors, the FLOP charges go through each rank's own
communicator) :meth:`TPDecodeModel.step` is **one engine dispatch**: every
rank parks once and the last arrival runs :func:`_exec_tp_step` for the
whole world — algorithm role resolved once, per layer the FLOP charges,
the provenance entry, the replay of the cached compiled schedule and one
stacked ``(P, tokens * hidden)`` reduction in the schedule's association
order, then the decision-clock sync the serving loop needs after every
step.  Every link booking, clock and counter lands exactly where
``layers`` separate allreduces plus one allgather would have left it;
only the ``layers + 1`` park/wake cycles per rank, the P-fold redundant
``tile``/``tanh`` and the per-call dispatch disappear.  Everywhere else
the per-layer loop below runs — it is the reference path the identity
tests compare the executor against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..comm import collectives as coll
from ..comm.communicator import SimComm
from ..comm.fused import (LATENCY_OPTIMAL, _available,
                          allreduce_analytic_seconds, bandwidth_optimal,
                          compile_allgatherv, replay, replay_allreduce,
                          resolve_allreduce)
from ..comm.payload import nwords as payload_nwords
from ..errors import ConfigError


def sync_decision_time(comm: SimComm) -> float:
    """Synchronize the step's decision clock as *data*: every rank posts
    its clock, everyone takes the max, and local clocks advance to it.
    The gathered set is identical on all ranks, so the max is too."""
    clocks = coll.allgather_object(comm, comm.clock)
    t = max(clocks)
    comm._advance_clock(t)
    return t


@dataclass(frozen=True)
class TPModelConfig:
    """Shape of the simulated decoder."""

    hidden: int = 256
    layers: int = 4
    #: MLP expansion factor (2 matmuls of ``hidden x hidden*ffn_mult``)
    ffn_mult: int = 4

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1 or self.ffn_mult < 1:
            raise ConfigError(f"invalid TPModelConfig {self}")

    @property
    def flops_per_token_layer(self) -> float:
        """Dense FLOPs of one token through one layer (all ranks
        combined): 4 projection matmuls (q/k/v/o, ``2 h^2`` each) plus the
        two MLP matmuls (``2 h * ffn`` each)."""
        h = float(self.hidden)
        return 8.0 * h * h + 4.0 * h * h * self.ffn_mult

    @property
    def words_per_token_layer(self) -> int:
        """Allreduce payload words one activation row contributes per
        layer (float32 activations: one word per hidden element)."""
        return self.hidden


class TPDecodeModel:
    """Rank-local shard of the tensor-parallel decoder."""

    def __init__(self, cfg: TPModelConfig, comm: SimComm, *,
                 algorithm: str = "adaptive", seed: int = 0):
        self.cfg = cfg
        self.comm = comm
        self.algorithm = algorithm
        rng = np.random.default_rng(seed)
        # Every rank draws the identical tables (same seed) and uses its
        # own column — the usual replicated-init trick, no weight bcast.
        self._gain = (rng.standard_normal((cfg.layers, comm.size))
                      .astype(np.float32) / np.float32(comm.size))
        self._base = rng.standard_normal(cfg.hidden).astype(np.float32)
        self._carry = np.float32(1.0)
        #: float64 sum over every activation this model emitted — the
        #: bit-identity witness across runners and fused/unfused paths
        self.checksum = 0.0

    def step(self, tokens: int) -> float:
        """Run ``tokens`` activation rows through every layer and return
        the synchronized decision time that follows the step.

        One call serves both phases: prefill passes the admitted batch's
        summed prompt length, a decode step passes the active batch size
        (one new token per request).  Per layer: charge this rank's 1/P
        FLOP shard, then allreduce the ``tokens * hidden`` partial sums
        with the configured algorithm choice; after the last layer,
        :func:`sync_decision_time`.  Where the fused fast path is available
        the whole step is one rendezvous (:func:`_exec_tp_step`); the
        per-layer loop here is the reference path.
        """
        if tokens < 1:
            raise ConfigError(f"step needs >= 1 token, got {tokens}")
        comm, cfg = self.comm, self.cfg
        if _available(comm):
            return comm.fused_collective(
                ("tp_step", tokens, self.algorithm), self, _exec_tp_step)
        acts = np.tile(self._base, tokens) * self._carry
        flops_shard = cfg.flops_per_token_layer * tokens / comm.size
        for layer in range(cfg.layers):
            comm.compute_flops(flops_shard)
            partial = acts * self._gain[layer, comm.rank]
            reduced = coll.allreduce(comm, partial,
                                     algorithm=self.algorithm)
            acts = np.tanh(reduced)
        self._carry, emitted = _step_outcome(acts)
        self.checksum += emitted
        return sync_decision_time(comm)

    # ------------------------------------------------------------------
    # Elastic recovery support (see repro.serve.loop)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[float, float]:
        """The cross-step state ``(carry, checksum)``.  World-size
        independent, so a snapshot taken at P restores into a model
        rebuilt at the shrunken P-1 (gain tables are re-derived there by
        consensus from the replicated seed)."""
        return (float(self._carry), self.checksum)

    def restore(self, snap: Tuple[float, float]) -> None:
        """Restore :meth:`snapshot` state into this (possibly resized)
        model; the checksum keeps accumulating across the failure."""
        self._carry = np.float32(snap[0])
        self.checksum = float(snap[1])

    def min_service_seconds(self, prompt_tokens: int,
                            output_tokens: int) -> float:
        """Analytic lower bound on serving one request alone at the
        current world size: per step, this rank's 1/P FLOP shard plus the
        cheaper of the latency-/bandwidth-optimal allreduce schedules
        (what ``algorithm="adaptive"`` would pick).  A pure function of
        ``(cfg, comm.size, net.model)`` — every rank computes the same
        bound, which is what makes deadline-aware shedding deterministic.
        """
        cfg, p = self.cfg, self.comm.size
        net_model = self.comm.net.model

        def step_seconds(tokens: int) -> float:
            flops = cfg.flops_per_token_layer * tokens / p
            words = tokens * cfg.words_per_token_layer
            ar = min(
                allreduce_analytic_seconds(p, words, net_model,
                                           LATENCY_OPTIMAL),
                allreduce_analytic_seconds(p, words, net_model,
                                           bandwidth_optimal(p)))
            return cfg.layers * (flops * net_model.flop_time + ar)

        return (step_seconds(prompt_tokens)
                + (output_tokens - 1) * step_seconds(1))


def _step_outcome(acts: np.ndarray) -> Tuple[np.float32, float]:
    """What a step's last-layer activations leave behind: the next step's
    carry (the input scale depends on this step's reduced output, so any
    cross-runner divergence compounds) and the checksum increment."""
    carry = np.float32(1.0) + np.float32(0.5) * np.tanh(acts.mean())
    return carry, float(np.asarray(acts, dtype=np.float64).sum())


def _exec_tp_step(net, sig, models):
    """Rendezvous executor of :meth:`TPDecodeModel.step`: the whole world's
    step in one dispatch (``models[r]`` is rank ``r``'s shard).

    Mirrors the reference loop operation for operation on the simulated
    side — per layer every rank's FLOP charge, rank 0's provenance entry
    and the allreduce's schedule replay, then the decision-clock
    allgather — while the data side runs once instead of P times: the
    ranks' inputs are bit-identical (replicated ``_base``/``_carry``) and
    so are their reduced outputs, so one stacked ``(P, n)`` product, one
    fold in the schedule's association order and one ``tanh`` per layer
    serve everybody.  Returns the synchronized decision time per rank.
    """
    _, tokens, algorithm = sig
    p = len(models)
    lead = models[0]
    cfg = lead.cfg
    n = tokens * cfg.words_per_token_layer
    concrete, mode = resolve_allreduce(algorithm, p, n, net.model)
    flops_shard = cfg.flops_per_token_layer * tokens / p
    acts = np.tile(lead._base, tokens) * lead._carry
    for gain in lead._gain:
        for m in models:
            m.comm.compute_flops(flops_shard)
        net.note_algorithm("allreduce", concrete, mode, n)
        acts = np.tanh(replay_allreduce(
            net, concrete, acts[None, :] * gain[:, None]))
    carry, emitted = _step_outcome(acts)
    for m in models:
        m._carry = carry
        m.checksum += emitted
    # sync_decision_time for the whole world: the 1-word allgather, then
    # every clock advances to the max of the pre-gather clocks (per-slot
    # state: group rank r lives at world[r])
    clocks = net.clocks
    world = net.world
    t = max(clocks[s] for s in world)
    replay(net, compile_allgatherv(p, (payload_nwords(t),) * p))
    for s in world:
        if clocks[s] < t:
            clocks[s] = t
    return [t] * p
