"""Large-world (P >= 64) cross-runner identity.

An Ok-Topk ``train_scheme`` run at P=64 and P=128 must complete on the
cooperative engine and be bit-identical to the threads oracle.  These
worlds take seconds per iteration, so the tests are marked ``scale``
(excluded from the fast CI job; the push-only slow job and
``pytest -m scale`` run them).
"""

import os
from dataclasses import asdict

import pytest

from repro.bench.harness import perf_proxy, proxy_network, train_scheme

RUNNER_ENV = "REPRO_SPMD_RUNNER"

pytestmark = pytest.mark.scale


def _train(p, iters, runner):
    # One sample per rank: ShardedLoader needs size <= global_batch <=
    # n_train, so the proxy dataset grows with the world.
    proxy = perf_proxy(n_train=p, global_batch=p)
    old = os.environ.get(RUNNER_ENV)
    os.environ[RUNNER_ENV] = runner
    try:
        return train_scheme(proxy, "oktopk", p, iters, density=0.05,
                            network=proxy_network())
    finally:
        if old is None:
            del os.environ[RUNNER_ENV]
        else:
            os.environ[RUNNER_ENV] = old


def _fingerprints(rec):
    return [asdict(r) for r in rec.records]


def test_p64_identical_across_all_runners():
    base = _fingerprints(_train(64, 4, "coop"))
    assert base == _fingerprints(_train(64, 4, "threads"))


def test_p128_coop_matches_threads_oracle():
    oracle = _fingerprints(_train(128, 2, "threads"))
    assert _fingerprints(_train(128, 2, "coop")) == oracle
