"""Threshold estimators: exact, reused (Ok-Topk), Gaussian (Gaussian-k)."""

import numpy as np
import pytest

from repro.sparse import (
    ReusedThreshold,
    adjusted_gaussian_threshold,
    exact_threshold,
    gaussian_threshold,
)


def _gradient_like(n=20000, seed=0, tail="normal"):
    """Synthetic gradient value distributions.

    ``laplace`` has heavier tails than a Gaussian fit; late-training real
    gradients are *lighter*-tailed which we model by a clipped normal.
    """
    rng = np.random.default_rng(seed)
    if tail == "normal":
        return rng.normal(0, 0.01, size=n).astype(np.float32)
    if tail == "light":
        x = rng.normal(0, 0.01, size=n)
        return np.clip(x, -0.02, 0.02).astype(np.float32)
    if tail == "laplace":
        return rng.laplace(0, 0.01, size=n).astype(np.float32)
    raise ValueError(tail)


class TestExactThreshold:
    def test_selects_approximately_k(self):
        x = _gradient_like()
        k = 200
        t = exact_threshold(x, k)
        assert np.count_nonzero(np.abs(x) >= t) == k  # continuous, no ties


class TestGaussianThreshold:
    def test_close_to_exact_on_gaussian_data(self):
        x = _gradient_like(tail="normal")
        k = 200
        ratio = gaussian_threshold(x, k) / exact_threshold(x, k)
        assert 0.9 < ratio < 1.1

    def test_overestimates_on_light_tails(self):
        """Figure 4: real (light-tailed) distributions make the Gaussian
        fit predict too large a threshold -> too few selected values."""
        x = _gradient_like(tail="light")
        k = 200
        t_gauss = gaussian_threshold(x, k)
        t_exact = exact_threshold(x, k)
        assert t_gauss > t_exact
        assert np.count_nonzero(np.abs(x) >= t_gauss) < k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,z", [
        (50_000, 1.9599639845400539),       # z(0.975)
        (10_000, 2.5758293035489005),       # z(0.995)
        (1_000, 3.2905267314919258),        # z(0.9995)
        (1, 4.8916384757147790),            # z(1 - 5e-7)
    ])
    def test_tabulated_normal_quantiles(self, k, z, dtype):
        """A sample with exact mean -0.25 and standard deviation 0.5
        (n = 10**6, so ``q = 1 - k/(2n)`` is the tabulated level): the
        threshold is ``|mu| + sigma * z`` to a few ULP."""
        mu, sigma = -0.25, 0.5
        x = np.full(1_000_000, mu - sigma, dtype=dtype)
        x[::2] = mu + sigma
        assert gaussian_threshold(x, k) == pytest.approx(
            abs(mu) + sigma * z, rel=1e-14, abs=0)

    def test_k_geq_n_returns_zero(self):
        assert gaussian_threshold(np.ones(5, np.float32), 5) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            gaussian_threshold(np.ones(5, np.float32), 0)

    def test_zero_variance(self):
        x = np.full(100, 2.5, dtype=np.float32)
        assert gaussian_threshold(x, 10) == pytest.approx(2.5)

    def test_adjustment_recovers_three_quarters_k(self):
        """Section 5.4: the threshold is scaled until >= 3k/4 selected."""
        x = _gradient_like(tail="light")
        k = 200
        t = adjusted_gaussian_threshold(x, k)
        assert np.count_nonzero(np.abs(x) >= t) >= 0.75 * k


class TestReusedThreshold:
    def test_reevaluates_on_schedule(self):
        est = ReusedThreshold(tau_prime=4)
        x1 = _gradient_like(seed=1)
        # iteration 1: due; 2-4: reuse; 5: due again
        t1 = est.get(x1, 100, t=1)
        assert est.evaluations == 1
        t2 = est.get(_gradient_like(seed=2), 100, t=2)
        assert t2 == t1 and est.evaluations == 1
        est.get(_gradient_like(seed=3), 100, t=3)
        est.get(_gradient_like(seed=4), 100, t=4)
        assert est.evaluations == 1
        t5 = est.get(_gradient_like(seed=5), 100, t=5)
        assert est.evaluations == 2
        assert t5 != t1

    def test_first_call_always_evaluates(self):
        est = ReusedThreshold(tau_prime=64)
        est.get(_gradient_like(), 10, t=42)  # mid-period first call
        assert est.evaluations == 1

    def test_reused_threshold_stays_accurate_for_slow_process(self):
        """The key empirical claim (Figure 4): if the gradient distribution
        drifts slowly, a tau'-old threshold still selects ~k values."""
        est = ReusedThreshold(tau_prime=32)
        k, n = 500, 50000
        rng = np.random.default_rng(0)
        deviations = []
        scale = 0.01
        for t in range(1, 65):
            scale *= 0.999  # slow drift, ~0.1% per iteration
            x = rng.normal(0, scale, size=n).astype(np.float32)
            th = est.get(x, k, t)
            sel = np.count_nonzero(np.abs(x) >= th)
            deviations.append(abs(sel - k) / k)
        # Average deviation well below the paper's reported 11%
        assert np.mean(deviations) < 0.11

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            ReusedThreshold(tau_prime=0)
