"""Large-world (P >= 64) identities.

An Ok-Topk ``train_scheme`` run at P=64 and P=128 must complete on the
cooperative engine and be bit-identical to the threads oracle, and the
dense allreduce schedules at P = 64 and 256 must match the alpha-beta
cost model.  The tests are marked ``scale`` (run them alone with
``pytest -m scale``; CI's fast job, ``-m "not slow"``, includes them).
"""

import os
from dataclasses import asdict

import pytest

from repro.bench.harness import perf_proxy, proxy_network, train_scheme
from repro.comm import fused

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


def _dense_allreduce_schedules(p, n, algo):
    if algo == "ring":
        return [fused.compile_reduce_scatter_ring(p, n, 1),
                fused.compile_allgather_ring(p, n, 1)]
    return [fused.compile_allreduce(p, n, 1, algo)]


@pytest.mark.parametrize("p", [64, 256])
@pytest.mark.parametrize("algo", fused.ALLREDUCE_ALGORITHMS)
def test_dense_allreduce_schedules_match_the_cost_model(p, algo):
    """``(A, B) = allreduce_alpha_beta_terms(p, algo)``: the schedule
    takes A rounds and every rank sends B * n words (n a multiple of P,
    so every block and halving leaf is whole) and receives as many;
    every message sent is received."""
    n = 16 * p
    a, b = fused.allreduce_alpha_beta_terms(p, algo)
    scheds = _dense_allreduce_schedules(p, n, algo)
    assert sum(len(s.rounds) for s in scheds) == a
    sent = [sum(col) for col in zip(*(s.words_sent for s in scheds))]
    recv = [sum(col) for col in zip(*(s.words_recv for s in scheds))]
    assert sent == [b * n] * p
    assert recv == sent
    assert sum(sum(s.msgs_sent) for s in scheds) == sum(
        sum(s.msgs_recv) for s in scheds)
