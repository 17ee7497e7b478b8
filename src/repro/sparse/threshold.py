"""Threshold estimation strategies for top-k selection.

Three estimators, matching Section 3.1.3 and Figure 4 of the paper:

* :func:`exact_threshold` — sort/partition based k-th largest magnitude
  ("accurate threshold");
* :class:`ReusedThreshold` — Ok-Topk's strategy: re-evaluate the accurate
  threshold every ``tau_prime`` iterations and reuse it in between, because
  gradient statistics form a slowly changing stochastic process;
* :func:`gaussian_threshold` — Gaussian-k's strategy: fit a normal
  distribution (same mean/std) and invert its tail with the percent-point
  function.  Real gradient distributions have lighter tails than a Gaussian
  late in training, so this *over*-estimates the threshold and thus
  *under*-estimates k (Figure 4/6 shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .topk import kth_largest_abs

_STD_NORMAL = NormalDist()


def exact_threshold(x: np.ndarray, k: int) -> float:
    """Accurate threshold: the k-th largest ``|x|``."""
    return kth_largest_abs(x, k)


def gaussian_threshold(x: np.ndarray, k: int) -> float:
    """Gaussian-k threshold estimate via the normal percent-point function.

    With ``X ~ N(mu, sigma)`` fitted to the gradient values, the two-sided
    tail ``P(|X - mu| > t) = k/n`` gives ``t = sigma * ppf(1 - k/(2n))``.
    The standard-library ``ppf`` (Wichura's AS241) agrees with the usual
    Cephes ``ndtri`` to a few ULP.
    """
    n = x.size
    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        return 0.0
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        return abs(mu)
    q = 1.0 - 0.5 * k / n
    return abs(mu) + sigma * _STD_NORMAL.inv_cdf(q)


def adjusted_gaussian_threshold(x: np.ndarray, k: int, *,
                                min_fraction: float = 0.75,
                                shrink: float = 0.8,
                                max_rounds: int = 32) -> float:
    """Gaussian threshold with the paper's fairness adjustment (Section 5.4):
    scale the predicted threshold down until at least ``min_fraction * k``
    values are selected.  Each extra round costs one more scan, charged by
    the caller.
    """
    t = gaussian_threshold(x, k)
    if t == 0.0:
        return t
    mag = np.abs(x).ravel()
    target = min_fraction * min(k, x.size)
    for _ in range(max_rounds):
        if np.count_nonzero(mag >= t) >= target:
            return t
        t *= shrink
    return t


@dataclass
class ReusedThreshold:
    """Periodically re-evaluated threshold (Ok-Topk, Algorithm 1 lines 2-4).

    ``get(x, k, t)`` returns the active threshold for iteration ``t``
    (1-based, as in the paper): re-evaluated exactly when
    ``(t - 1) % tau_prime == 0``, otherwise the cached value is reused.

    Attributes:
        tau_prime: re-evaluation period (the paper uses 32 for VGG/LSTM and
            128 for BERT).
        compute: the accurate estimator to call on re-evaluation.
        evaluations: how many times the expensive path ran (for the
            sparsification-overhead accounting).
    """

    tau_prime: int = 32
    compute: Callable[[np.ndarray, int], float] = exact_threshold
    evaluations: int = 0
    _cached: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.tau_prime < 1:
            raise ValueError("tau_prime must be >= 1")

    def due(self, t: int) -> bool:
        """Is a re-evaluation scheduled at iteration ``t`` (1-based)?"""
        return self._cached is None or (t - 1) % self.tau_prime == 0

    def get(self, x: np.ndarray, k: int, t: int) -> float:
        if self.due(t):
            self._cached = float(self.compute(x, k))
            self.evaluations += 1
        return self._cached

    @property
    def current(self) -> Optional[float]:
        return self._cached
