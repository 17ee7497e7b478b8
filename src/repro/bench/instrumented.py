"""Instrumented training loops for the threshold/selection figures.

These replicate the trainer's inner loop but expose the accumulator state
that Figures 4 and 6 visualize (threshold predictions, selected counts),
which the production `Trainer` does not need to keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..allreduce import make_allreduce
from ..comm import run_spmd
from ..data import ShardedLoader
from ..optim import TopkSGD
from ..sparse import exact_threshold, gaussian_threshold
from ..sparse.threshold import adjusted_gaussian_threshold
from .harness import ProxySpec


@dataclass
class ThresholdSnapshot:
    """Figure 4: threshold predictions on a late-training accumulator,
    using a deliberately stale Ok-Topk threshold (age tau' - 1)."""

    k: int
    accurate: float
    gaussian: float
    oktopk_reused: float
    selected_accurate: int
    selected_gaussian: int
    selected_oktopk: int
    percentiles: Dict[str, float]


def threshold_snapshot(proxy: ProxySpec, *, p: int = 2, iterations: int = 8,
                       tau_prime: int = 8,
                       density: float = 0.02) -> ThresholdSnapshot:
    """Train for ``iterations`` steps so the Ok-Topk threshold is
    ``iterations-1`` iterations old, then compare the three estimators on
    the fresh accumulator."""

    def worker(comm):
        train, _ = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=11)
        algo = make_allreduce("oktopk", density=density,
                              tau_prime=tau_prime,
                              selection_guard=1e9)  # keep it stale
        driver = TopkSGD(algo, proxy.lr, model.nparams)
        for t in range(1, iterations + 1):
            x, y = loader.next_batch(t)
            _, grad = model.loss_and_grad(x, y)
            if t == iterations:
                lr = driver.lr(t)
                acc = driver.residual + lr * grad
                k = algo.resolve_k(acc.size)
                accurate = exact_threshold(acc, k)
                gauss = gaussian_threshold(acc, k)
                reused = algo.state.local_th
                mag = np.abs(acc)
                return ThresholdSnapshot(
                    k=k,
                    accurate=accurate,
                    gaussian=gauss,
                    oktopk_reused=float(reused),
                    selected_accurate=int((mag >= accurate).sum()),
                    selected_gaussian=int((mag >= gauss).sum()),
                    selected_oktopk=int((mag >= reused).sum()),
                    percentiles={
                        "p50": float(np.percentile(mag, 50)),
                        "p99": float(np.percentile(mag, 99)),
                        "max": float(mag.max()),
                    })
            driver.step(comm, model.params_flat, grad)
        raise AssertionError("unreachable")

    return run_spmd(p, worker)[0]


@dataclass
class SelectionCurves:
    """Figure 6: per-iteration selected-value counts."""

    k: int
    accurate: List[int]          # == k by definition
    gaussian: List[int]
    oktopk_local: List[int]
    oktopk_global: List[int]


def selection_curves(proxy: ProxySpec, *, p: int = 2, iterations: int = 16,
                     tau_prime: int = 8,
                     density: float = 0.02) -> SelectionCurves:
    """Track how many values each estimator selects during a real
    training run (Ok-Topk runs the training; Gaussian-k evaluated on the
    same accumulators)."""

    def worker(comm):
        train, _ = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=13)
        algo = make_allreduce("oktopk", density=density,
                              tau_prime=tau_prime)
        driver = TopkSGD(algo, proxy.lr, model.nparams)
        k = algo.resolve_k(model.nparams)
        gauss_counts, local_counts, global_counts = [], [], []
        for t in range(1, iterations + 1):
            x, y = loader.next_batch(t)
            _, grad = model.loss_and_grad(x, y)
            lr = driver.lr(t)
            acc = driver.residual + lr * grad
            g_th = adjusted_gaussian_threshold(acc, k)
            gauss_counts.append(int((np.abs(acc) >= g_th).sum()))
            info = driver.step(comm, model.params_flat, grad)
            local_counts.append(info.result.info["selected_local"])
            global_counts.append(info.result.info["selected_global"])
        return SelectionCurves(
            k=k, accurate=[k] * iterations, gaussian=gauss_counts,
            oktopk_local=local_counts, oktopk_global=global_counts)

    return run_spmd(p, worker)[0]


def output_density_stats(proxy: ProxySpec, *, p: int = 4,
                         iterations: int = 6,
                         density: float = 0.02) -> Dict[str, float]:
    """Section 5.2: output-buffer density expansion (fill-in) of
    TopkA/TopkDSA during a real training run."""

    def worker(comm):
        train, _ = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=17)
        algo = make_allreduce("topka", density=density)
        driver = TopkSGD(algo, proxy.lr, model.nparams)
        ratios = []
        for t in range(1, iterations + 1):
            x, y = loader.next_batch(t)
            _, grad = model.loss_and_grad(x, y)
            info = driver.step(comm, model.params_flat, grad)
            out_nnz = info.result.info["output_nnz"]
            ratios.append(out_nnz / model.nparams)
        return float(np.mean(ratios))

    out_density = run_spmd(p, worker)[0]
    return {"local_density": density, "output_density": out_density,
            "expansion": out_density / density}
