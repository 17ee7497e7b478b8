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
into an exact integer checksum (the sum of the emitted activations'
float32 bit patterns, modulo 2^53), so bit-identity across runners and
fused/unfused paths is a meaningful end-to-end assertion, not a clock
comparison — a one-bit change in any activation moves the checksum.
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
along as factors) :meth:`TPDecodeModel.step` is **one engine dispatch**:
every rank parks once and the last arrival runs :func:`_exec_tp_step` for
the whole world — algorithm role and compiled schedules resolved once,
per layer the world's FLOP charges in one walk over its clocks, the
provenance entry and the replay of the schedules compiled for the
``tokens * hidden``-word message, then the decision-clock sync the
serving loop needs after every step.  Its data side is one row per fold
order: every token row of the activations is the same ``hidden``-word
row and the layer math is elementwise, so each layer folds one
``hidden``-word row per distinct association order of the schedule (one
for the trees, P for the ring, whose blocks start their fold at
different ranks) instead of the ``(P, tokens * hidden)`` matrix.  The
``tokens * hidden`` activations are never built: the checksum is an
integer sum, so each row word counts as often as it fills a position,
and the carry reads only the first token's row.  Every link booking,
clock and counter lands exactly where ``layers`` separate allreduces
plus one allgather would have left it; only the ``layers + 1``
park/wake cycles per rank, the P-fold and token-fold redundant
``tile``/``tanh`` and the per-call dispatch disappear.  Everywhere else
the per-layer loop below runs, on the full ``tokens * hidden`` words —
it is the reference path the identity tests compare the executor
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..comm import NetworkModel, collectives as coll
from ..comm.communicator import SimComm
from ..comm.fused import (LATENCY_OPTIMAL, _available,
                          allreduce_analytic_seconds, allreduce_plan,
                          bandwidth_optimal, charge_world,
                          compile_allgatherv, compiled, replay,
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
        #: sum of the float32 bit patterns of every activation this model
        #: emitted, modulo 2^53 — the bit-identity witness across runners
        #: and fused/unfused paths
        self.checksum = 0

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
        self._carry = _carry(acts[:cfg.hidden])
        self.checksum = (self.checksum + int(
            acts.view(np.uint32).sum(dtype=np.uint64))) % CHECKSUM_MODULUS
        return sync_decision_time(comm)

    # ------------------------------------------------------------------
    # Elastic recovery support (see repro.serve.loop)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[float, int]:
        """The cross-step state ``(carry, checksum)``.  World-size
        independent, so a snapshot taken at P restores into a model
        rebuilt at the shrunken P-1 (gain tables are re-derived there by
        consensus from the replicated seed)."""
        return (float(self._carry), self.checksum)

    def restore(self, snap: Tuple[float, int]) -> None:
        """Restore :meth:`snapshot` state into this (possibly resized)
        model; the checksum keeps accumulating across the failure."""
        self._carry = np.float32(snap[0])
        self.checksum = int(snap[1])

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
            return cfg.layers * (net_model.flop_seconds(flops) + ar)

        return (step_seconds(prompt_tokens)
                + (output_tokens - 1) * step_seconds(1))


#: the checksum accumulates modulo 2^53, so its ``float()`` is exact
CHECKSUM_MODULUS = 1 << 53


def _carry(first_token: np.ndarray) -> np.float32:
    """The next step's input scale from this step's first token's
    last-layer activations (it depends on this step's reduced output, so
    any cross-runner divergence compounds).  ``sum() / size`` is
    ``mean()``'s float32 expression without its dispatch."""
    return np.float32(1.0) + np.float32(0.5) * np.tanh(
        first_token.sum() / first_token.size)


def _row_weights(n: int, blocks: int, hidden: int):
    """How a step's fold-order rows fill its ``n`` activations: row ``b``
    (``hidden`` words, the rows laid end to end) fills block ``b`` of the
    ``blocks`` near-equal blocks of ``range(n)`` (the partition of
    :func:`~repro.comm.fused._block_slices`; one block for the trees)
    with its word ``i mod hidden`` at position ``i``.  Returns, flat, how
    many positions each row word fills — block ``[lo, hi)`` holds word
    ``j`` at ``ceil((hi - j) / hidden) - ceil((lo - j) / hidden)`` of
    them — and the row word at each of the first token's ``hidden``
    positions (the one of the block that ends first past it)."""
    bounds = np.linspace(0, n, blocks + 1).astype(np.int64)
    j = np.arange(hidden)
    fills = ((j - bounds[:-1, None]) // hidden
             - (j - bounds[1:, None]) // hidden)
    first = np.searchsorted(bounds[1:], j, side="right") * hidden + j
    return fills.astype(np.uint64).ravel(), first


def _exec_tp_step(net, sig, models):
    """Rendezvous executor of :meth:`TPDecodeModel.step`: the whole world's
    step in one dispatch (``models[r]`` is rank ``r``'s shard).

    Mirrors the reference loop operation for operation on the simulated
    side — per layer every rank's FLOP charge (one walk over the world's
    clocks), rank 0's provenance entry and the replay of the schedules
    compiled for the ``n = tokens * hidden``-word message (looked up once
    per step), then the decision-clock allgather — while the data side
    runs once instead of P times, on one ``hidden``-word row per fold
    order instead of n words.  The ranks' inputs are bit-identical
    (replicated ``_base``/``_carry``) and every token row of them is the
    same ``hidden``-word row; the product, the fold and ``tanh`` are
    elementwise, so a word's value depends only on its position mod
    ``hidden`` and on the order its fold visits the ranks.  The trees
    fold every word alike: one row.  The ring folds block ``b`` of
    :func:`~repro.comm.fused._block_slices` from rank ``b + 1`` on:
    P rows, which laid end to end are the blocks of a ``P * hidden``-word
    ring fold.  No n-word array is ever built: the checksum increment
    (an integer sum of bit patterns, so order-free) weighs each row word
    by the positions it fills, and the carry reads the first token's row
    gathered from the rows that cover it (:func:`_row_weights`).
    Returns the synchronized decision time per rank.
    """
    _, tokens, algorithm = sig
    p = len(models)
    lead = models[0]
    cfg = lead.cfg
    n = tokens * cfg.words_per_token_layer
    concrete, mode = resolve_allreduce(algorithm, p, n, net.model)
    scheds, fold = allreduce_plan(net, concrete, p, n, 1)
    blocks = p if concrete == "ring" else 1
    charges = [[(NetworkModel.flop_seconds,
                 cfg.flops_per_token_layer * tokens / p)]] * p
    rows = np.tile(lead._base, blocks) * lead._carry
    for gain in lead._gain:
        charge_world(net, charges)
        net.note_algorithm("allreduce", concrete, mode, n)
        for sched in scheds:
            replay(net, sched)
        rows = np.tanh(fold(gain[:, None] * rows))
    fills, first = compiled(net, _row_weights, n, blocks, cfg.hidden)
    carry = _carry(rows[first])
    # < n * 2^32 words: exact in uint64
    emitted = int(np.dot(rows.view(np.uint32).astype(np.uint64), fills))
    for m in models:
        m._carry = carry
        m.checksum = (m.checksum + emitted) % CHECKSUM_MODULUS
    # sync_decision_time for the whole world: the 1-word allgather, then
    # every clock advances to the max of the pre-gather clocks (per-slot
    # state: group rank r lives at world[r])
    clocks = net.clocks
    world = net.world
    t = max(clocks[s] for s in world)
    replay(net, compiled(net, compile_allgatherv, p,
                         (payload_nwords(t),) * p))
    for s in world:
        if clocks[s] < t:
            clocks[s] = t
    return [t] * p
