"""Rank-batched transformer: the BERT proxy's world fwd/bwd.

:class:`repro.nn.stacked.StackedModel` runs the world through one copy of
rank 0's module whose layers carry a leading rank axis — the same layer
code the per-rank path runs without it.  Every rank's loss and gradient
row must be bit-identical to that rank's own ``FlatModel.loss_and_grad``
(over chained optimizer updates, masked targets, uneven shards after a
shrink), the gate must refuse what cannot stack, and a bucketed-stream
training run must not move whichever way its model math ran.
"""

from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.harness import bert_proxy, proxy_network, vgg_proxy
from repro.comm import run_spmd
from repro.comm.faults import FaultPlan, RankCrash
from repro.data import ShardedLoader
from repro.nn import (Dropout, FlatModel, Flatten, Linear, ReLU, Sequential,
                      SoftmaxCrossEntropy, TransformerEncoderLayer)
from repro.nn.losses import IGNORE_INDEX
from repro.nn.models import make_bert_model, make_lstm_speech_model
from repro.nn.module import Loss
from repro.nn.stacked import StackedModel, supports_stacking
from repro.optim.adam import Adam
from repro.train import Trainer, TrainerConfig
from util_rankbatch import check_grouped_fwd_bwd


def _shards(p, t, b=2):
    """Rank-stacked ``(P, b, T)`` ids and MLM targets for step ``t``."""
    train, _ = bert_proxy().make_splits()
    rows = (np.arange(p * b) + 5 * t) % len(train.x)
    return (train.x[rows].reshape(p, b, -1),
            train.y[rows].reshape(p, b, -1))


def _assert_rows_match(losses, gmat, ref):
    for r, (loss, grad) in enumerate(ref):
        assert float(losses[r]) == loss, f"rank {r} loss"
        np.testing.assert_array_equal(gmat[r], grad, err_msg=f"rank {r}")


class TestWorldEqualsPerRank:
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_chained_adam_updates(self, p):
        """World and per-rank replicas stay bit-identical, losses and every
        gradient row, across Adam updates of the averaged gradient: one
        step on the world's shared vector, one per rank on the
        references."""
        proxy = bert_proxy()
        world = StackedModel([proxy.make_model() for _ in range(p)])
        ref = [proxy.make_model() for _ in range(p)]
        opt_w = Adam(lr=proxy.lr)
        opt_r = [Adam(lr=proxy.lr) for _ in range(p)]
        for t in range(1, 5):
            xs, ys = _shards(p, t)
            losses, gmat = world.loss_and_grad(xs, ys)
            pairs = [m.loss_and_grad(xs[r], ys[r]) for r, m in enumerate(ref)]
            _assert_rows_match(losses, gmat, pairs)
            avg = np.mean(np.stack([g for _, g in pairs]), axis=0)
            opt_w.step(world.params, avg)
            for m, o in zip(ref, opt_r):
                o.step(m.params_flat, avg)
            for m, r in zip(world.models, ref):
                np.testing.assert_array_equal(m.params_flat, r.params_flat)
        # every rank model holds the one vector the world module reads
        assert all(m.params_flat is world.params for m in world.models)

    def test_masked_targets_and_a_rank_with_none_valid(self):
        p = 3
        xs, ys = _shards(p, 1)
        ys = ys.copy()
        assert (ys == IGNORE_INDEX).any() and (ys != IGNORE_INDEX).any()
        ys[1] = IGNORE_INDEX            # rank 1 predicts nothing this step
        world = StackedModel([bert_proxy().make_model() for _ in range(p)])
        ref = [bert_proxy().make_model().loss_and_grad(xs[r], ys[r])
               for r in range(p)]
        losses, gmat = world.loss_and_grad(xs, ys)
        _assert_rows_match(losses, gmat, ref)
        assert losses[1] == 0.0 and not gmat[1].any()

    def test_world_module_is_a_marked_copy_on_the_shared_matrices(self):
        """Every module of the world copy carries the rank axis, rank 0's
        own modules do not; the copy's weights are the world's one shared
        parameter vector and its gradients ``(P,) + shape`` views of the
        gradient matrix, transformer blocks included."""
        def tree(mod):
            yield mod
            for m in mod._modules:
                yield from tree(m)

        world = StackedModel([bert_proxy().make_model() for _ in range(2)])
        assert all(m._rank_axes == 1 for m in tree(world.world))
        assert all(m._rank_axes == 0
                   for m in tree(world.models[0].module))
        params = world.world.parameters()
        assert sum(p.data.size for p in params) == world.gmat.shape[1]
        for p in params:
            assert np.shares_memory(p.data, world.params)
            assert p.grad.shape == (2,) + p.data.shape
            assert np.shares_memory(p.grad, world.gmat)

    def test_uneven_shards_after_a_shrink_stack_per_run(self, world_fwdbwd):
        """Global batch 16 over 7 survivors: shards of 3 and 2 sequences
        stack as two runs on the shared ``(7, n)`` storage — the bits of
        each rank's own math."""
        train, _ = bert_proxy().make_splits()
        ofs = np.cumsum([0, 3, 3, 2, 2, 2, 2, 2])
        check_grouped_fwd_bwd(
            bert_proxy().make_model,
            [(train.x[a:b], train.y[a:b]) for a, b in zip(ofs, ofs[1:])],
            world_fwdbwd)
        assert world_fwdbwd == [2, 5] * 2


def _logits_and_targets(p, seed=0, b=3, t=4, c=7):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(p, b, t, c)).astype(np.float32)
    return logits, rng.integers(0, c, size=(p, b, t))


class TestStackedLoss:
    """``forward_backward_stacked`` against per-rank ``forward_backward``
    on the same logits: bit-equal losses and gradients, with the per-rank
    path made to fail if the stacked one calls it."""

    def _check(self, monkeypatch, logits, targets):
        loss = SoftmaxCrossEntropy()
        ref = [loss.forward_backward(logits[r], targets[r])
               for r in range(len(logits))]

        def per_rank(*_):
            raise AssertionError("per-rank forward_backward ran")

        monkeypatch.setattr(SoftmaxCrossEntropy, "forward_backward", per_rank)
        losses, dy = loss.forward_backward_stacked(logits, targets)
        assert losses.dtype == np.float64 and dy.dtype == logits.dtype
        for r, (rl, rd) in enumerate(ref):
            assert float(losses[r]) == rl, f"rank {r} loss"
            np.testing.assert_array_equal(dy[r], rd, err_msg=f"rank {r}")
        return losses, dy

    def test_no_mask(self, monkeypatch):
        self._check(monkeypatch, *_logits_and_targets(4))

    def test_mixed_masks(self, monkeypatch):
        logits, targets = _logits_and_targets(5, seed=1)
        rng = np.random.default_rng(2)
        targets[rng.random(targets.shape) < 0.6] = IGNORE_INDEX
        counts = (targets != IGNORE_INDEX).reshape(5, -1).sum(axis=1)
        assert len(set(counts.tolist())) > 1 and counts.all()
        self._check(monkeypatch, logits, targets)

    def test_equal_masks(self, monkeypatch):
        logits, targets = _logits_and_targets(4, seed=5)
        targets[:, 0, 1:] = IGNORE_INDEX     # every rank keeps 9 of 12
        self._check(monkeypatch, logits, targets)

    def test_a_rank_with_no_valid_target(self, monkeypatch):
        logits, targets = _logits_and_targets(3, seed=3)
        targets[1] = IGNORE_INDEX
        targets[2, 0] = IGNORE_INDEX
        losses, dy = self._check(monkeypatch, logits, targets)
        assert losses[1] == 0.0 and not dy[1].any()

    def test_fully_masked_world(self, monkeypatch):
        logits, targets = _logits_and_targets(3, seed=4)
        targets[...] = IGNORE_INDEX
        losses, dy = self._check(monkeypatch, logits, targets)
        assert not losses.any() and not dy.any()


class TestGate:
    def test_the_proxies_that_stack(self):
        assert supports_stacking(bert_proxy().make_model())
        assert supports_stacking(make_bert_model())

    @pytest.mark.parametrize("make", [
        lambda: vgg_proxy().make_model(),
        lambda: make_lstm_speech_model(features=4, hidden=8, layers=1,
                                       classes=3, seq_len=4),
    ], ids=["conv", "lstm"])
    def test_per_rank_layer_types(self, make):
        assert not supports_stacking(make())

    @pytest.mark.parametrize("p, stacks", [(0.0, True), (0.1, False)])
    def test_dropout_only_when_inactive(self, p, stacks):
        rng = np.random.default_rng(0)
        mlp = FlatModel(Sequential(Flatten(), Linear(8, 4, rng=rng), ReLU(),
                                   Dropout(p, rng=rng), Linear(4, 2, rng=rng)),
                        SoftmaxCrossEntropy())
        block = FlatModel(Sequential(TransformerEncoderLayer(
            8, 2, 16, dropout=p, rng=rng)), SoftmaxCrossEntropy())
        assert supports_stacking(mlp) is stacks
        assert supports_stacking(block) is stacks

    def test_loss_must_be_softmax_cross_entropy(self):
        class Other(Loss):
            pass

        model = bert_proxy().make_model()
        model.loss = Other()
        assert not supports_stacking(model)


# ---------------------------------------------------------------------------
# Training: bucketed-stream BERT, rank-batched vs per-rank vs threads
# ---------------------------------------------------------------------------
def _train_bert(p, iters, *, fused=True, runner="coop", faults=None):
    proxy = bert_proxy()

    def worker(comm):
        train, _ = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=0)
        cfg = TrainerConfig(iterations=iters, scheme="oktopk", density=0.01,
                            bucket_size=4096, overlap_mode="stream",
                            lr=proxy.lr, mode=proxy.mode,
                            elastic=faults is not None)
        trainer = Trainer(comm, model, loader, cfg)
        rec = trainer.run()
        return ([asdict(r) for r in rec.records], rec.events,
                model.params_flat.tobytes(), trainer.comm.rank_batch.engaged())

    res = run_spmd(p, worker, model=proxy_network(), runner=runner,
                   fused=fused, faults=faults)
    net = res.network
    state = (float(res.makespan).hex(), list(net.clocks),
             list(net.words_sent), list(net.words_recv),
             list(net.msgs_sent), list(net.msgs_recv))
    return res.results, state


class TestBertTraining:
    def test_bucketed_stream_three_way(self):
        """Rank-batched coop == ``fused=False`` == ``threads``:
        records, final parameters of every rank and network state."""
        batched, net_b = _train_bert(4, 4)
        unbatched, net_u = _train_bert(4, 4, fused=False)
        threads, net_t = _train_bert(4, 4, runner="threads")
        assert [r[3] for r in batched] == [True] * 4
        assert [r[3] for r in unbatched] == [False] * 4
        assert [r[:3] for r in batched] == [r[:3] for r in unbatched]
        assert [r[:3] for r in batched] == [r[:3] for r in threads]
        assert net_b == net_u == net_t

    def test_shrink_8_to_7_restacks_with_uneven_shards(self, rendezvous_log,
                                                       world_fwdbwd):
        """After an 8 -> 7 shrink the survivors re-stack and their shards
        (2, 2, 2, 3, 2, 2, 3) no longer divide the global batch: the world
        module runs once per run of equal shards and lands on the bits of
        a never-batched run."""
        plan = FaultPlan(crashes=[RankCrash(rank=3, iteration=2)])
        on, _ = _train_bert(8, 3, faults=plan)
        sizes = Counter(e.size for e in rendezvous_log
                        if e.head == "rb_fwdbwd")
        assert sizes[8] == 8 and sizes[7] == 7 * 2   # iterations 1 | 2, 3
        assert world_fwdbwd == [8] + [3, 1, 2, 1] * 2
        off, _ = _train_bert(8, 3, fused=False, faults=plan)
        assert on[3] is None and off[3] is None
        assert [r[:3] for r in on if r] == [r[:3] for r in off if r]
        assert on[0][1][0]["new_size"] == 7
