"""Lockstep rank-batched compute: bit-identity and fallback rules.

The batched executors (:mod:`repro.train.rankbatch`,
:mod:`repro.nn.stacked`, the batched top-k of :mod:`repro.sparse.topk`)
must produce results bit-identical to per-rank execution, and must
disengage — deterministically, on every rank — with fusion off and
wherever a rendezvous could be left incomplete (a planned crash that can
still fire, group communicators that are not the current world, tracing,
runners without a rendezvous engine).  Slowdown/straggler plans and
shrunk worlds stay batched; the iteration a crash interrupts must land
on exactly the code a never-batched run executes.
"""

from collections import Counter
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.allreduce.base import AllreduceResult
from repro.bench.harness import (bert_proxy, perf_proxy, proxy_network,
                                 train_scheme)
from repro.comm import run_spmd
from repro.comm.faults import FaultPlan, RankCrash
from repro.errors import ReplicaDivergenceError
from repro.nn.stacked import StackedModel, mapped_zeros, supports_stacking
from repro.optim import Adam
from repro.sparse import COOVector
from repro.sparse.topk import (batched_threshold_select, kth_largest_abs,
                               threshold_select)
from repro.train import rankbatch
from repro.train.rankbatch import RankBatch, _WorldState
from repro.train.rankbatch import _exec_accumulate, _exec_apply, \
    _exec_fwd_bwd
from util_rankbatch import check_grouped_fwd_bwd, runs

RUNNER_ENV = "REPRO_SPMD_RUNNER"


def _models(p):
    proxy = perf_proxy()
    return [proxy.make_model() for _ in range(p)]  # identical seed 7 init


def _batch(rng, p, b=4):
    xs = rng.normal(size=(p, b, 3, 16, 16)).astype(np.float32)
    ys = rng.integers(0, 10, size=(p, b))
    return xs, ys


class TestStackedModel:
    def test_supports_stacking(self):
        assert supports_stacking(_models(1)[0])
        assert not supports_stacking(object())
        assert not supports_stacking(None)

    def test_rows_bit_identical_to_per_rank(self):
        p = 4
        rng = np.random.default_rng(11)
        xs, ys = _batch(rng, p)
        # independent replica set for the per-rank reference
        ref = [m.loss_and_grad(xs[r], ys[r])
               for r, m in enumerate(_models(p))]
        stacked = StackedModel(_models(p))
        losses, gmat = stacked.loss_and_grad(xs, ys)
        for r in range(p):
            assert float(losses[r]) == ref[r][0]
            np.testing.assert_array_equal(gmat[r], ref[r][1])

    def test_repeated_calls_rezero_gradients(self):
        p = 2
        rng = np.random.default_rng(3)
        xs, ys = _batch(rng, p)
        stacked = StackedModel(_models(p))
        _, g1 = stacked.loss_and_grad(xs, ys)
        first = g1.copy()
        _, g2 = stacked.loss_and_grad(xs, ys)
        np.testing.assert_array_equal(first, g2)  # not accumulated twice

    def test_spmd_invariant_violation_rejected_without_rebinding(self):
        models = _models(3)
        before = [m.params_flat.copy() for m in models]
        models[1].params_flat[0] += 1.0
        with pytest.raises(ValueError, match="SPMD invariant"):
            StackedModel(models)
        # the rejected bind left every model on its own storage
        for m, b in zip(models, before):
            assert m.params_flat.base is None or \
                m.params_flat.base.ndim != 2
        np.testing.assert_array_equal(models[0].params_flat, before[0])


class TestWorldStack:
    def test_consecutive_rows_of_one_base_are_zero_copy(self):
        base = np.arange(12, dtype=np.float32).reshape(3, 4).copy()
        out = _WorldState().stack("x", [base[0], base[1], base[2]])
        assert out is base

    def test_unrelated_rows_are_copied_into_scratch(self):
        ws = _WorldState()
        rows = [np.arange(4, dtype=np.float32) * i for i in range(3)]
        out = ws.stack("x", rows)
        np.testing.assert_array_equal(out, np.stack(rows))
        # the same buffer serves the next call of that name and shape ...
        again = ws.stack("x", [r + 1 for r in rows])
        assert again is out
        np.testing.assert_array_equal(again, np.stack(rows) + 1)
        # ... and a new world size gets a new one
        assert ws.stack("x", rows[:2]).shape == (2, 4)

    def test_out_of_order_rows_fall_back_to_copy(self):
        base = np.arange(8, dtype=np.float32).reshape(2, 4).copy()
        out = _WorldState().stack("x", [base[1], base[0]])
        assert out is not base
        np.testing.assert_array_equal(out, np.stack([base[1], base[0]]))

    def test_rows_of_a_mapped_matrix_are_recognised(self):
        """World matrices live on their own mappings (not numpy-owned):
        their rows must still stack zero-copy."""
        base = mapped_zeros((3, 5), np.float32)
        base[...] = np.arange(15, dtype=np.float32).reshape(3, 5)
        assert _WorldState().stack("x", list(base)) is base


    def test_rows_the_executors_handed_out_are_known_by_identity(
            self, monkeypatch):
        """Gradient rows (``rb_fwdbwd``) and accumulator rows
        (``rb_accumulate``) stack zero-copy without reading one row
        address: ``_shared_base`` is only the fallback for rows no
        executor handed out."""
        net, p = SimpleNamespace(), 2
        xs, ys = _batch(np.random.default_rng(5), p)
        grads = [g for _, g in _exec_fwd_bwd(
            net, ("rb_fwdbwd", 1),
            [(m, xs[r], ys[r]) for r, m in enumerate(_models(p))])]
        acc = _exec_accumulate(net, ("rb_accumulate", 1),
                               [(np.zeros_like(g), 0.1, g) for g in grads])

        def unusable(rows):
            raise AssertionError("a row address was read")

        monkeypatch.setattr(rankbatch, "_shared_base", unusable)
        ws = net._rank_batch_state
        assert ws.stack("x", grads) is ws.stacked.gmat
        assert ws.stack("x", acc) is acc[0].base
        nxt = _exec_accumulate(net, ("rb_accumulate", 2),
                               [(a, 0.1, g) for a, g in zip(acc, grads)])
        for a, g, row in zip(acc, grads, nxt):
            np.testing.assert_array_equal(row, a + 0.1 * g)
        assert ws.stack("x", nxt) is nxt[0].base is not acc[0].base


class TestBatchedTopk:
    def test_batched_threshold_select_matches_per_row(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(5, 300)).astype(np.float32)
        # include exact ties at the threshold magnitude
        xs[2, 10] = xs[2, 20] = -xs[2, 30]
        ths = [kth_largest_abs(x, 17) for x in xs]
        cols, vals, offsets = batched_threshold_select(xs, ths)
        for r, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            ref = threshold_select(xs[r], ths[r])
            np.testing.assert_array_equal(cols[lo:hi], ref.indices)
            np.testing.assert_array_equal(vals[lo:hi], ref.values)
            assert cols.dtype == ref.indices.dtype
            assert vals.dtype == ref.values.dtype

    def test_scratch_buffers_change_nothing(self):
        """The rendezvous executors hand in per-world boolean scratch for
        the mask and the block spare; reused (dirty) buffers, of any
        block height, must give the bits of the allocating calls."""
        rng = np.random.default_rng(8)
        mask = np.ones((4, 200), dtype=bool)
        for h in (1, 3, 4):
            spare = np.ones((h, 200), dtype=bool)
            xs = rng.normal(size=(4, 200)).astype(np.float32)
            keep = xs.copy()
            ths = [kth_largest_abs(x, 11) for x in xs]
            got = batched_threshold_select(xs, ths, mask, spare)
            for a, b in zip(got, batched_threshold_select(xs, ths)):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(xs, keep)     # input untouched


class TestExecutorFallbacks:
    def test_fwd_bwd_diverged_weights_run_per_rank(self):
        net = SimpleNamespace()
        models = _models(2)
        models[1].params_flat[3] -= 0.5
        rng = np.random.default_rng(9)
        xs, ys = _batch(rng, 2)
        ref = [m.loss_and_grad(xs[r], ys[r])
               for r, m in enumerate(_models(2))]
        ref[1] = None  # recompute below against the diverged weights
        out = _exec_fwd_bwd(net, ("rb_fwdbwd", 1),
                            [(models[r], xs[r], ys[r]) for r in range(2)])
        assert out[0][0] == ref[0][0]
        np.testing.assert_array_equal(out[0][1], ref[0][1])
        assert net._rank_batch_state.stacked is None  # never bound

    def test_accumulate_matches_per_rank_expression(self):
        net = SimpleNamespace()
        rng = np.random.default_rng(12)
        res = rng.normal(size=(3, 50)).astype(np.float32)
        grads = rng.normal(size=(3, 50)).astype(np.float32)
        for scale in (1.0, 0.05):
            out = _exec_accumulate(
                net, ("rb_accumulate", 1),
                [(res[r], scale, grads[r]) for r in range(3)])
            for r in range(3):
                np.testing.assert_array_equal(
                    out[r], res[r] + scale * grads[r])

    def test_foreign_residual_rows_take_no_world_copy(
            self, monkeypatch, rendezvous_log):
        """Per-rank zero residuals at t = 1 and the survivors' rows after
        a 4 -> 3 shrink are not one matrix's rows: ``rb_accumulate``
        adds them row by row and never asks for an ``accumulate_res``
        scratch matrix."""
        requested = []
        scratch = _WorldState.scratch

        def spy(self, name, shape, dtype):
            requested.append(name)
            return scratch(self, name, shape, dtype)

        monkeypatch.setattr(_WorldState, "scratch", spy)
        plan = FaultPlan(crashes=[RankCrash(rank=1, iteration=3)])
        _train(monkeypatch, "oktopk", 4, 5, faults=plan, elastic=True)
        assert Counter(e.size for e in rendezvous_log
                       if e.head == "rb_accumulate") == {4: 8, 3: 9}
        assert requested and "accumulate_res" not in requested

    def test_accumulate_diverged_scales_run_per_rank(self):
        net = SimpleNamespace()
        rng = np.random.default_rng(13)
        res = rng.normal(size=(2, 20)).astype(np.float32)
        grads = rng.normal(size=(2, 20)).astype(np.float32)
        out = _exec_accumulate(net, ("rb_accumulate", 1),
                               [(res[0], 1.0, grads[0]),
                                (res[1], 0.5, grads[1])])
        np.testing.assert_array_equal(out[0], res[0] + 1.0 * grads[0])
        np.testing.assert_array_equal(out[1], res[1] + 0.5 * grads[1])


def _apply_world(p, n, seed, *, mapped=True, dense=False):
    """``p`` ranks' Adam-mode step inputs: parameter rows (of one mapped
    matrix, or separate arrays), one update per rank (equal contents,
    separate objects; sparse, or dense) and one optimizer per rank."""
    rng = np.random.default_rng(seed)
    w0 = rng.normal(size=n).astype(np.float32)
    rows = mapped_zeros((p, n), np.float32) if mapped else [
        np.empty(n, np.float32) for _ in range(p)]
    for r in range(p):
        rows[r][:] = w0
    idx = np.sort(rng.choice(n, n // 4, replace=False)).astype(np.int32)
    val = rng.normal(size=idx.size).astype(np.float32)
    update = COOVector(n, idx, val)
    results = [AllreduceResult(
        update=update.to_dense() if dense
        else COOVector(n, idx.copy(), val.copy()),
        contributed_indices=idx) for _ in range(p)]
    opts = [Adam(lr=0.01, weight_decay=0.01) for _ in range(p)]
    return [rows[r] for r in range(p)], results, opts


class TestApplyExecutor:
    @pytest.mark.parametrize("dense", [False, True], ids=["coo", "dense"])
    @pytest.mark.parametrize("mapped", [True, False],
                             ids=["stacked-rows", "separate-rows"])
    def test_one_step_equals_every_rank_stepping(self, monkeypatch, mapped,
                                                 dense):
        net = SimpleNamespace(sanitize=True)
        p, n = 3, 64
        rows, results, opts = _apply_world(p, n, 5, mapped=mapped,
                                           dense=dense)
        ref_rows, _, ref_opts = _apply_world(p, n, 5)
        steps = []
        inner = Adam.step

        def counted(self, params, grad):
            steps.append(self)
            return inner(self, params, grad)

        monkeypatch.setattr(Adam, "step", counted)
        for t in (1, 2, 3):
            assert _exec_apply(net, ("rb_apply", t),
                               list(zip(rows, results, opts))) == [True] * p
            assert steps == [opts[0]]       # one step for the world
            for w, res, o in zip(ref_rows, results, ref_opts):
                o.step(w, res.update_dense(n) / p)
            del steps[:]
            for r in range(p):
                np.testing.assert_array_equal(rows[r], ref_rows[r])
                np.testing.assert_array_equal(opts[r]._m, ref_opts[r]._m)
                np.testing.assert_array_equal(opts[r]._v, ref_opts[r]._v)
                assert opts[r].t == ref_opts[r].t == t

    def test_diverged_updates_run_per_rank(self):
        """Diverged updates are not stepped for the world: the executor
        touches nothing and answers ``False``, and each rank's own step
        (what :meth:`RankBatch.apply` hands back) is the per-rank run."""
        net = SimpleNamespace(sanitize=False)
        p, n = 3, 32
        rows, results, opts = _apply_world(p, n, 6)
        ref_rows, _, ref_opts = _apply_world(p, n, 6)
        bumped = results[2].update.values.copy()
        bumped[0] += 1.0
        results[2] = AllreduceResult(
            update=COOVector(n, results[2].update.indices, bumped),
            contributed_indices=None)
        assert _exec_apply(net, ("rb_apply", 1),
                           list(zip(rows, results, opts))) == [False] * p
        for r in range(p):
            np.testing.assert_array_equal(rows[r], ref_rows[r])
            assert opts[r].t == 0 and opts[r]._m is None
        for w, res, o in [*zip(rows, results, opts),
                          *zip(ref_rows, results, ref_opts)]:
            o.step(w, res.update_dense(n) / p)
        for r in range(p):
            np.testing.assert_array_equal(rows[r], ref_rows[r])
        assert not np.array_equal(rows[2], rows[0])

    @pytest.mark.parametrize("part", ["params", "m", "v", "t"])
    def test_sanitizer_names_the_first_diverged_replica(self, part):
        net = SimpleNamespace(sanitize=True)
        p, n = 4, 16
        rows, results, opts = _apply_world(p, n, 7)
        _exec_apply(net, ("rb_apply", 1), list(zip(rows, results, opts)))
        if part == "params":
            rows[3][1] += 1.0
            rows[2][0] = np.nextafter(rows[0][0], np.inf)    # one ULP
        elif part == "t":
            opts[2].t += 1
        else:
            # the step bound every rank to rank 0's moments: rank 2 gets
            # separate arrays, one entry diverged
            name = "_" + part
            assert getattr(opts[2], name) is getattr(opts[0], name)
            setattr(opts[2], name, getattr(opts[2], name).copy())
            getattr(opts[2], name)[4] *= 2.0
        with pytest.raises(ReplicaDivergenceError) as info:
            _exec_apply(net, ("rb_apply", 2), list(zip(rows, results, opts)))
        assert info.value.rank == 2

    def test_sanitized_training_flags_a_perturbed_row(self):
        """End to end: one rank's parameter row is perturbed between two
        rank-batched Adam steps; the sanitized run refuses to copy rank
        0's step over it, the unsanitized one does not look."""
        from repro.allreduce import make_allreduce
        from repro.optim import SparseOptimWrapper

        n = 256

        def prog(comm, victim):
            rb = comm.rank_batch = RankBatch(comm)
            opt = SparseOptimWrapper(make_allreduce("oktopk", density=0.05),
                                     Adam(lr=0.01), n)
            w = np.zeros(n, np.float32)
            rng = np.random.default_rng(comm.rank)
            for t in (1, 2, 3):
                if t == 3 and comm.rank == victim:
                    w[5] += 1.0
                opt.step(comm, w, rng.standard_normal(n).astype(np.float32),
                         rb=rb)
            return w

        clean = run_spmd(4, prog, None, sanitize=True).results
        assert all(np.array_equal(w, clean[0]) for w in clean)
        with pytest.raises(ReplicaDivergenceError) as info:
            run_spmd(4, prog, 2, sanitize=True)
        assert info.value.rank == 2 and info.value.what == "parameters"
        run_spmd(4, prog, 2, sanitize=False)


class TestRunGrouping:
    """Uneven shards after a shrink stay inside one executor call: one
    world fwd/bwd per contiguous run of equal shapes, no per-rank
    ``loss_and_grad``."""

    @pytest.mark.parametrize("p, expect", [
        (16, [16]), (15, [14, 1]), (13, [4, 1, 3, 1, 3, 1])])
    def test_perf_proxy_after_a_shrink(self, world_fwdbwd, p, expect):
        # ``ShardedLoader``'s shard sizes for p ranks
        sizes = np.diff(np.linspace(0, perf_proxy().global_batch, p + 1)
                        .astype(int)).tolist()
        assert runs(sizes) == expect
        rng = np.random.default_rng(p)
        shards = [_batch(rng, 1, b) for b in sizes]
        check_grouped_fwd_bwd(perf_proxy().make_model,
                              [(x[0], y[0]) for x, y in shards], world_fwdbwd)

    def test_single_row_run_between_two_runs(self, world_fwdbwd):
        rng = np.random.default_rng(10)
        shards = [_batch(rng, 1, b) for b in (2, 2, 3, 2)]
        check_grouped_fwd_bwd(perf_proxy().make_model,
                              [(x[0], y[0]) for x, y in shards], world_fwdbwd,
                              calls=1)
        assert world_fwdbwd == [2, 1, 1]


class TestEngagementGate:
    def _gate(self, p=2, *, trace=False, runner="coop", fused=True):
        proxy = perf_proxy()

        def worker(comm):
            rb = RankBatch(comm, proxy.make_model())
            return rb.engaged()

        return run_spmd(p, worker, trace=trace, runner=runner,
                        fused=fused).results

    def test_engaged_on_coop_multirank(self):
        assert self._gate() == [True, True]

    def test_disengaged_under_threads_runner(self):
        assert self._gate(runner="threads") == [False, False]

    def test_disengaged_under_tracing(self):
        assert self._gate(trace=True) == [False, False]

    def test_disengaged_without_fusion(self):
        assert self._gate(fused=False) == [False, False]

    @pytest.mark.parametrize("plan, engaged", [
        (FaultPlan(crashes=[RankCrash(rank=1, iteration=10**6)]), True),
        (FaultPlan.straggler_skew(2, seed=3), True),
        (FaultPlan(crashes=[RankCrash(rank=1, iteration=1)]), False),
        (FaultPlan(crashes=[RankCrash(rank=1, time=1e9)]), False),
    ], ids=["far-future-crash", "straggler-skew", "crash-due-this-step",
            "time-pinned-crash-pending"])
    def test_engagement_under_fault_plans(self, plan, engaged):
        """A plan disengages batching only while one of its crashes can
        still fire in the live world."""
        proxy = perf_proxy()

        def worker(comm):
            rb = RankBatch(comm, proxy.make_model())
            comm.maybe_crash(iteration=1)   # the top of the first step
            return rb.engaged()

        res = run_spmd(2, worker, faults=plan)
        assert [res[r] for r in res.survivors] == \
            [engaged] * len(res.survivors)
        assert res[0] is engaged    # rank 0 survives every one of these

    def test_handle_holds_its_communicator_weakly(self):
        """``comm.rank_batch`` points at the handle; a strong reference
        back would leave every finished world to the cyclic collector."""
        import gc
        import weakref

        def worker(comm):
            comm.rank_batch = RankBatch(comm, None)
            return comm.rank_batch, weakref.ref(comm)

        gc.disable()
        try:
            res = run_spmd(2, worker)
            handle, comm_ref = res.results[0]
            del res
            assert comm_ref() is None       # freed by reference count
            assert handle.comm is None and not handle.engaged()
        finally:
            gc.enable()

    def test_unstackable_model_disengages(self):
        def worker(comm):
            return RankBatch(comm, object()).engaged()

        assert run_spmd(2, worker).results == [False, False]


def _fingerprints(rec):
    return [asdict(r) for r in rec.records]


def _train(monkeypatch, scheme, p, iters, *, runner="coop", faults=None,
           elastic=False):
    monkeypatch.setenv(RUNNER_ENV, runner)
    return train_scheme(perf_proxy(), scheme, p, iters, density=0.05,
                        network=proxy_network(), faults=faults,
                        elastic=elastic)


#: the perfbench BERT workload's session shape: Adam mode, 4096-word
#: buckets streamed during backward
BERT_STREAM = dict(bucket_size=4096, overlap_mode="stream")


def _train_world(proxy, scheme, p, iters, *, fused=True, runner="coop",
                 faults=None, **cfg):
    """Every rank's ``(records, events, final parameters)``."""
    from repro.data import ShardedLoader
    from repro.train import Trainer, TrainerConfig

    def worker(comm):
        train, _ = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=0)
        rec = Trainer(comm, model, loader, TrainerConfig(
            iterations=iters, scheme=scheme, density=0.05, lr=proxy.lr,
            mode=proxy.mode, **cfg)).run()
        return _fingerprints(rec), rec.events, model.params_flat.tobytes()

    return run_spmd(p, worker, model=proxy_network(), runner=runner,
                    fused=fused, faults=faults).results


#: (proxy, scheme, trainer options) of the lockstep identity runs
IDENTITY_CASES = {
    "oktopk": (perf_proxy, "oktopk", {}),
    "gtopk": (perf_proxy, "gtopk", {}),
    "dense": (perf_proxy, "dense", {}),
    # Adam mode: the optimizer step runs once per world (``rb_apply``)
    "bert-bucketed-stream": (bert_proxy, "oktopk", BERT_STREAM),
}


class TestTrainerLockstepIdentity:
    @pytest.mark.parametrize("case", list(IDENTITY_CASES))
    def test_batched_equals_unbatched_equals_threads(self, case):
        """Records and every rank's final parameters."""
        proxy, scheme, cfg = IDENTITY_CASES[case]

        def run(fused, runner):
            return _train_world(proxy(), scheme, 4, 5, fused=fused,
                                runner=runner, **cfg)

        batched = run(True, "coop")
        assert batched == run(False, "coop") == run(True, "threads")
        assert len({params for _, _, params in batched}) == 1

    @pytest.mark.parametrize("bert", [False, True],
                             ids=["mlp", "bert-bucketed-stream"])
    def test_batching_actually_engages(self, rendezvous_log, monkeypatch,
                                       bert):
        """Guard against the identity above passing vacuously: a
        fault-free coop run must have run its model math, accumulation
        and selection at the rendezvous — and must not leave the world's
        stacked state on the network once the section is closed."""
        proxy = bert_proxy() if bert else perf_proxy()
        from repro.allreduce import oktopk
        from repro.data import ShardedLoader
        from repro.train import Trainer, TrainerConfig

        stacked_scans = []
        inner = oktopk.batched_threshold_select

        def spy(xs, *args):
            stacked_scans.append(xs.shape[0])
            return inner(xs, *args)

        monkeypatch.setattr(oktopk, "batched_threshold_select", spy)

        def worker(comm):
            train, _ = proxy.make_splits()
            loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                                   comm.size, seed=0)
            cfg = TrainerConfig(iterations=3, scheme="oktopk",
                                density=0.05, lr=proxy.lr, mode=proxy.mode,
                                **(dict(bucket_size=4096,
                                        overlap_mode="stream")
                                   if bert else {}))
            Trainer(comm, proxy.make_model(), loader, cfg).run()
            return None

        res = run_spmd(4, worker, runner="coop")
        per_head = Counter(e.head for e in rendezvous_log)
        # both drivers (SGD and Adam) apply their update once per world
        heads = ("rb_fwdbwd", "rb_accumulate", "rb_apply")
        for head in heads:
            assert per_head[head] == 4 * 3      # every rank, every iteration
        # one rendezvous runs every bucket of the session (the mlp's one,
        # BERT's streamed ones), every rank, every iteration
        assert set(per_head) == {*heads, "reduce_session"}
        assert per_head["reduce_session"] == 4 * 3
        if not bert:
            # selection is a stage of the one Ok-Topk rendezvous per
            # reduction (stacked there because the accumulators are rows
            # of the world's accumulate buffer), not a rendezvous of its
            # own
            assert stacked_scans == [4] * 3     # one (P, n) scan per iteration
        assert res.network._rank_batch_state is None


#: (proxy, trainer options) of the mlp / SGD and BERT / Adam runs
DRIVERS = {"mlp-sgd": (perf_proxy, {}),
           "bert-adam": (bert_proxy, BERT_STREAM)}


class TestStateHeldOnce:
    """While batching is engaged, replicated training state is held once
    per world; a rank that steps on its own first takes private copies."""

    @pytest.mark.parametrize("case", list(DRIVERS))
    def test_one_parameter_vector_and_one_optimizer_state(self, case):
        from repro.data import ShardedLoader
        from repro.train import Trainer, TrainerConfig

        proxy, cfg = DRIVERS[case][0](), DRIVERS[case][1]

        def worker(comm):
            train, _ = proxy.make_splits()
            model = proxy.make_model()
            loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                                   comm.size, seed=0)
            trainer = Trainer(comm, model, loader, TrainerConfig(
                iterations=2, scheme="oktopk", density=0.05, lr=proxy.lr,
                mode=proxy.mode, **cfg))
            trainer.run()
            return (model.params_flat, getattr(trainer.driver, "inner", None),
                    comm.net._rank_batch_state.stacked)

        params, opts, stacked = zip(*run_spmd(4, worker).results)
        world = stacked[0]
        assert all(s is world for s in stacked)
        assert world.params.shape == (params[0].size,)
        assert all(np.shares_memory(w, world.params) for w in params)
        # the world's only (P, n) array is the per-rank gradient matrix
        assert [a for a in vars(world).values()
                if isinstance(a, np.ndarray) and a.ndim == 2] == [world.gmat]
        if opts[0] is not None:
            for name in ("_m", "_v", "_scratch"):
                assert all(getattr(o, name) is getattr(opts[0], name)
                           for o in opts)
            assert [o.t for o in opts] == [2] * 4

    @pytest.mark.parametrize("how", ["disengaged", "diverged"])
    @pytest.mark.parametrize("case", list(DRIVERS))
    def test_a_step_of_its_own_matches_never_batched(
            self, monkeypatch, rendezvous_log, case, how):
        """Iteration 3 of 6 steps per rank — batching disengaged for the
        whole iteration, or the world step refused as if the updates had
        diverged — between world steps on either side.  Records and every
        rank's final parameters must equal the never-batched and the
        threaded runs: stepping the shared vector per rank, or re-using
        the world's stale binding at iteration 4, moves them."""
        from repro.train import rankbatch

        proxy, cfg = DRIVERS[case]
        if how == "disengaged":
            engaged = RankBatch.engaged

            def at(name):
                inner = getattr(RankBatch, name)

                def entry(self, t, *args):
                    self.iteration = t
                    return inner(self, t, *args)
                return entry

            for name in ("loss_and_grad", "accumulate", "apply"):
                monkeypatch.setattr(RankBatch, name, at(name))
            monkeypatch.setattr(
                RankBatch, "engaged",
                lambda self: getattr(self, "iteration", 0) != 3
                and engaged(self))
        else:
            world_step = rankbatch._exec_apply
            monkeypatch.setattr(
                rankbatch, "_exec_apply",
                lambda net, sig, payloads: [False] * len(payloads)
                if sig[1] == 3 else world_step(net, sig, payloads))

        def run(fused, runner):
            return _train_world(proxy(), "oktopk", 4, 6, fused=fused,
                                runner=runner, **cfg)

        batched = run(True, "coop")
        # every rank at every world call: 5 of 6 iterations, or all 6
        per_head = Counter(e.head for e in rendezvous_log)
        calls = 4 * (6 if how == "diverged" else 5)
        assert per_head["rb_fwdbwd"] == per_head["rb_apply"] == calls
        assert batched == run(False, "coop") == run(True, "threads")
        assert len({params for _, _, params in batched}) == 1


class TestWorldLifetime:
    @pytest.mark.parametrize("scheme", ["oktopk", "dense"])
    def test_finished_training_world_is_freed_by_reference_count(
            self, scheme):
        """Communicators, the network and the world's stacked state
        (model matrices, accumulate buffers, scratch) must not wait for
        the cyclic collector: back-to-back runs would stack up one world
        each until it happens to run."""
        import gc
        import weakref

        proxy = perf_proxy()
        from repro.data import ShardedLoader
        from repro.train import Trainer, TrainerConfig

        def worker(comm):
            train, _ = proxy.make_splits()
            loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                                   comm.size, seed=0)
            cfg = TrainerConfig(iterations=2, scheme=scheme,
                                density=0.05, lr=proxy.lr)
            trainer = Trainer(comm, proxy.make_model(), loader, cfg)
            trainer.run()
            # the handle stays usable while its communicator lives
            return trainer.comm.rank_batch.engaged()

        gc.collect()
        gc.disable()
        try:
            res = run_spmd(4, worker, runner="coop")
            assert res.results == [True] * 4
            net = weakref.ref(res.network)
            del res
            assert net() is None
        finally:
            gc.enable()


class TestDivergenceFallback:
    @pytest.mark.parametrize("bert", [False, True],
                             ids=["mlp", "bert-bucketed-stream"])
    def test_midrun_crash_identical_to_never_batched(
            self, rendezvous_log, bert):
        """A rank crash mid-iteration (elastic shrink to P-1) must yield
        records, events and every survivor's parameters identical to the
        reference path (``fused=False``: per-message collectives and
        per-rank compute).  In Adam mode the crash at
        iteration 3 lands after two world optimizer steps; the
        interrupted iteration runs per rank and the survivors redo it
        re-stacked at P-1, led by a rank whose optimizer state so far
        was bound to rank 0's (the victim's)."""
        victim = 0 if bert else 1
        plan = FaultPlan(crashes=[RankCrash(rank=victim, iteration=3)])
        proxy, cfg = (bert_proxy(), BERT_STREAM) if bert else (perf_proxy(),
                                                              {})

        def run(fused):
            return _train_world(proxy, "oktopk", 4, 6, fused=fused,
                                faults=plan, elastic=True, **cfg)

        on = run(True)
        applied = Counter((e.step, e.size) for e in rendezvous_log
                          if e.head == "rb_apply")
        assert applied == {(1, 4): 4, (2, 4): 4, (3, 3): 3, (4, 3): 3,
                           (5, 3): 3, (6, 3): 3}
        assert on == run(False)
        survivor = on[1 - victim]
        assert on[victim] is None and survivor[1][0]["new_size"] == 3

    def test_shrink_16_to_15_stays_rank_batched(self, rendezvous_log,
                                                world_fwdbwd):
        """The faulted perfbench workload's shape: straggler skew plus a
        crash that leaves 15 ranks with shards of 1 and 2 samples.
        Rank-batched coop == ``fused=False`` == ``threads`` —
        records, final parameters, network state — and every iteration
        after the shrink runs its model math as the two runs of the
        15-rank world, inside ``rb_fwdbwd``."""
        from repro.data import ShardedLoader
        from repro.train import Trainer, TrainerConfig

        proxy = perf_proxy()
        plan = replace(FaultPlan.straggler_skew(16, seed=0),
                       crashes=(RankCrash(rank=5, iteration=3),))
        assert 5 not in {plan.links[0].rank, plan.stragglers[0].rank}

        def worker(comm):
            train, _ = proxy.make_splits()
            model = proxy.make_model()
            loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                                   comm.size, seed=0)
            cfg = TrainerConfig(iterations=5, scheme="oktopk", density=0.05,
                                lr=proxy.lr, elastic=True)
            rec = Trainer(comm, model, loader, cfg).run()
            return (_fingerprints(rec), rec.events,
                    model.params_flat.tobytes())

        def run(fused, runner):
            res = run_spmd(16, worker, model=proxy_network(), runner=runner,
                           fused=fused, faults=plan)
            net = res.network
            return res.results, (float(res.makespan).hex(), list(net.clocks),
                                 list(net.words_sent), list(net.words_recv),
                                 list(net.msgs_sent), list(net.msgs_recv))

        batched = run(True, "coop")
        fwdbwd = Counter((e.step, e.size) for e in rendezvous_log
                         if e.head == "rb_fwdbwd")
        assert fwdbwd == {(1, 16): 16, (2, 16): 16,
                          (3, 15): 15, (4, 15): 15, (5, 15): 15}
        assert world_fwdbwd == [16, 16] + [14, 1] * 3
        assert batched == run(False, "coop") == run(True, "threads")
        assert batched[0][5] is None and batched[0][0][1][0]["new_size"] == 15

    def test_midrun_crash_identical_across_runners(self, monkeypatch):
        plan = FaultPlan(crashes=[RankCrash(rank=0, iteration=2)])
        coop = _train(monkeypatch, "oktopk", 4, 5, faults=plan, elastic=True)
        threads = _train(monkeypatch, "oktopk", 4, 5, runner="threads",
                         faults=plan, elastic=True)
        assert _fingerprints(coop) == _fingerprints(threads)
        assert coop.events == threads.events
