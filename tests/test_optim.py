"""Optimizers: SGD/Adam units, schedules, and Algorithm 2 invariants."""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.comm import run_spmd
from repro.optim import (
    SGD,
    Adam,
    ConstantLR,
    LinearDecayLR,
    SparseOptimWrapper,
    StepDecayLR,
    TopkSGD,
)


class TestSGD:
    def test_minimizes_quadratic(self):
        w = np.array([5.0, -3.0], dtype=np.float32)
        opt = SGD(lr=0.1)
        for _ in range(200):
            opt.step(w, 2 * w)  # grad of ||w||^2
        assert np.linalg.norm(w) < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            w = np.array([5.0], dtype=np.float32)
            opt = SGD(lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.step(w, 2 * w)
            return abs(w[0])

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        w = np.array([1.0], dtype=np.float32)
        opt = SGD(lr=0.1, weight_decay=0.5)
        opt.step(w, np.zeros(1, dtype=np.float32))
        assert w[0] == pytest.approx(1.0 - 0.1 * 0.5)


class TestAdam:
    def test_minimizes_quadratic(self):
        w = np.array([5.0, -3.0], dtype=np.float32)
        opt = Adam(lr=0.1)
        for _ in range(300):
            opt.step(w, 2 * w)
        assert np.linalg.norm(w) < 1e-2

    @pytest.mark.parametrize("kwargs", [
        dict(beta1=1.0), dict(beta1=-0.1), dict(beta2=1.0),
        # eps = 0 turns every coordinate without gradient history
        # (m = v = 0) into 0 / 0
        dict(eps=0.0), dict(eps=-1e-8), dict(eps=float("nan")),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            Adam(**kwargs)

    @staticmethod
    def _textbook(params, grad, m, v, t, lr, b1, b2, eps, wd):
        """The allocating expression the in-place step must reproduce."""
        g = grad.astype(np.float32, copy=False)
        if wd:
            g = g + wd * params
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * np.square(g)
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        return params - lr * mhat / (np.sqrt(vhat) + eps), m, v

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    @pytest.mark.parametrize("t", [1, 2, 1000])
    def test_in_place_step_bit_equals_textbook(self, t, wd):
        rng = np.random.default_rng(t)
        n = 4097
        params = rng.normal(size=n).astype(np.float32)
        grad = (rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, n)
                ).astype(np.float32)
        grad[::7] = 0.0
        opt = Adam(lr=2e-3, weight_decay=wd)
        opt._init_state(params.shape)
        if t > 1:
            opt.t = t - 1
            opt._m[:] = rng.normal(size=n).astype(np.float32)
            opt._v[:] = rng.exponential(size=n).astype(np.float32)
            opt._v[::5] = 0.0
        want, m, v = self._textbook(params, grad, opt._m, opt._v, t, 2e-3,
                                    0.9, 0.999, 1e-8, wd)
        opt.step(params, grad)
        for got, ref in ((params, want), (opt._m, m), (opt._v, v)):
            assert got.dtype == ref.dtype == np.float32
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_steady_state_step_allocates_no_vector(self, wd):
        import tracemalloc

        n = 1 << 16
        rng = np.random.default_rng(0)
        params = rng.normal(size=n).astype(np.float32)
        grad = rng.normal(size=n).astype(np.float32)
        opt = Adam(lr=1e-3, weight_decay=wd)
        opt.step(params, grad)              # allocates the state once
        tracemalloc.start()
        try:
            opt.step(params, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n                 # less than one float32 vector

    def test_scale_invariance_of_first_steps(self):
        """Adam normalizes by the gradient scale."""
        w1 = np.array([1.0], dtype=np.float32)
        w2 = np.array([1.0], dtype=np.float32)
        a1, a2 = Adam(lr=0.1), Adam(lr=0.1)
        a1.step(w1, np.array([1.0], dtype=np.float32))
        a2.step(w2, np.array([1000.0], dtype=np.float32))
        assert w1[0] == pytest.approx(w2[0], rel=1e-4)


class TestSchedules:
    def test_constant(self):
        s = ConstantLR(0.5)
        assert s(1) == s(1000) == 0.5

    def test_step_decay(self):
        s = StepDecayLR(1.0, milestones=[10, 20], factor=0.1)
        assert s(5) == 1.0
        assert s(10) == pytest.approx(0.1)
        assert s(25) == pytest.approx(0.01)

    def test_linear_decay_with_warmup(self):
        s = LinearDecayLR(1.0, total=100, warmup=10)
        assert s(5) == pytest.approx(0.5)
        assert s(10) == pytest.approx(1.0)
        assert s(55) == pytest.approx(0.5)
        assert s(100) == pytest.approx(0.0)


def _grad_fn(rank, t, n=128):
    rng = np.random.default_rng(rank * 7919 + t)
    return rng.normal(size=n).astype(np.float32)


class TestTopkSGDAlgorithm2:
    def test_dense_equals_centralized_sgd(self):
        """With the dense allreduce, Algorithm 2 reduces to synchronous SGD
        on the mean gradient."""
        p, n, iters, lr = 4, 64, 5, 0.1

        def prog(comm):
            algo = make_allreduce("dense")
            opt = TopkSGD(algo, lr, n)
            w = np.zeros(n, dtype=np.float32)
            for t in range(1, iters + 1):
                opt.step(comm, w, _grad_fn(comm.rank, t, n))
            return w

        res = run_spmd(p, prog)
        w_ref = np.zeros(n, dtype=np.float32)
        for t in range(1, iters + 1):
            mean_g = np.mean([_grad_fn(r, t, n) for r in range(p)], axis=0)
            w_ref -= lr * mean_g
        for r in range(p):
            np.testing.assert_allclose(res[r], w_ref, rtol=1e-4, atol=1e-5)

    def test_residual_conservation(self):
        """acc is split exactly between the contribution and the residual:
        residual + acc[contributed] == acc (error feedback loses nothing)."""
        n, k = 256, 16

        def prog(comm):
            algo = make_allreduce("oktopk", k=k, tau_prime=1)
            opt = TopkSGD(algo, 0.5, n)
            checks = []
            for t in range(1, 4):
                grad = _grad_fn(comm.rank, t, n)
                acc_expect = opt.residual + 0.5 * grad
                info = opt.step(comm, np.zeros(n, dtype=np.float32), grad)
                contributed = info.result.contributed_indices
                # residual zero at contributed indices
                checks.append(np.all(opt.residual[contributed] == 0))
                # elsewhere the residual is exactly the accumulator
                mask = np.ones(n, dtype=bool)
                mask[contributed] = False
                checks.append(np.allclose(opt.residual[mask],
                                          acc_expect[mask]))
            return all(checks)

        res = run_spmd(4, prog)
        assert all(res.results)

    def test_all_workers_keep_identical_weights(self):
        n, k = 128, 8

        def prog(comm):
            algo = make_allreduce("oktopk", k=k)
            opt = TopkSGD(algo, 0.1, n)
            w = np.zeros(n, dtype=np.float32)
            for t in range(1, 6):
                opt.step(comm, w, _grad_fn(comm.rank, t, n))
            return w

        res = run_spmd(4, prog)
        for r in range(1, 4):
            np.testing.assert_array_equal(res[r], res[0])

    @pytest.mark.parametrize("scheme,kwargs", [
        ("oktopk", {"k": 16}),
        ("topka", {"k": 16}),
        ("gtopk", {"k": 16}),
        ("topkdsa", {"k": 16}),
        ("gaussiank", {"k": 16}),
    ])
    def test_sparse_sgd_tracks_dense_on_quadratic(self, scheme, kwargs):
        """Error feedback: all sparse schemes minimize a quadratic nearly
        as well as dense SGD (the Top-k SGD convergence result)."""
        p, n, iters = 4, 128, 60
        target = np.linspace(-1, 1, n).astype(np.float32)

        def prog(comm, name, kw):
            algo = make_allreduce(name, **kw)
            opt = TopkSGD(algo, 0.2, n)
            w = np.zeros(n, dtype=np.float32)
            rng = np.random.default_rng(comm.rank)
            for _ in range(iters):
                noise = rng.normal(0, 0.05, size=n).astype(np.float32)
                grad = (w - target) + noise
                opt.step(comm, w, grad)
            return float(np.linalg.norm(w - target))

        dense_err = max(run_spmd(p, prog, "dense", {}).results)
        sparse_err = max(run_spmd(p, prog, scheme, kwargs).results)
        assert sparse_err < max(4 * dense_err, 0.5)


class TestSparseOptimWrapper:
    def test_adam_wrapped_converges(self):
        p, n = 2, 64
        target = np.full(n, 0.7, dtype=np.float32)

        def prog(comm):
            algo = make_allreduce("oktopk", k=8)
            opt = SparseOptimWrapper(algo, __import__(
                "repro.optim", fromlist=["Adam"]).Adam(lr=0.05), n)
            w = np.zeros(n, dtype=np.float32)
            for _ in range(150):
                opt.step(comm, w, w - target)
            return float(np.linalg.norm(w - target))

        res = run_spmd(p, prog)
        assert max(res.results) < 0.5

    def test_residual_on_raw_gradients(self):
        n = 32

        def prog(comm):
            algo = make_allreduce("topka", k=4)
            opt = SparseOptimWrapper(algo, Adam(lr=0.01), n)
            g = _grad_fn(comm.rank, 1, n)
            opt.step(comm, np.zeros(n, dtype=np.float32), g)
            # non-contributed entries keep the raw gradient
            mask = np.ones(n, dtype=bool)
            mask[np.abs(g).argsort()[-4:]] = False
            return np.allclose(opt.residual[mask], g[mask])

        assert all(run_spmd(2, prog).results)
