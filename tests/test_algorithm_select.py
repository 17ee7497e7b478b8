"""Property tests for the size-adaptive allreduce algorithm selector.

Covers the ISSUE-7 selector contract: the latency-optimal schedule is
chosen below the network's alpha/beta crossover size and the
bandwidth-optimal one at/above it (pow2 and non-pow2 P), a forced
``algorithm=`` override always wins, and every dispatch records
(algorithm, selection-mode) provenance in ``Network.algorithm_log``.
"""

import numpy as np
import pytest

from repro.comm import collectives as coll
from repro.comm import run_spmd
from repro.comm.fused import (LATENCY_OPTIMAL, allreduce_alpha_beta_terms,
                              allreduce_analytic_seconds,
                              allreduce_crossover_words, bandwidth_optimal,
                              resolve_allreduce, select_allreduce_algorithm)
from repro.comm.model import NetworkModel

PS = [2, 3, 4, 5, 6, 8, 12, 16, 24, 64]


class TestCrossover:
    @pytest.mark.parametrize("p", PS)
    def test_selection_flips_at_crossover(self, p):
        m = NetworkModel()
        x = allreduce_crossover_words(p, m)
        if not np.isfinite(x):
            # P = 2: recursive doubling is also bandwidth-optimal.
            assert p == 2
            for n in (1, 10**3, 10**9):
                assert select_allreduce_algorithm(p, n, m) == LATENCY_OPTIMAL
            return
        below, above = int(x * 0.5), int(np.ceil(x * 2))
        assert select_allreduce_algorithm(p, below, m) == LATENCY_OPTIMAL
        assert select_allreduce_algorithm(p, above, m) == bandwidth_optimal(p)
        # At the crossover itself the bandwidth-optimal schedule wins.
        assert select_allreduce_algorithm(
            p, int(np.ceil(x)), m) == bandwidth_optimal(p)

    @pytest.mark.parametrize("p", PS)
    def test_selected_algorithm_has_minimal_analytic_cost(self, p):
        m = NetworkModel()
        for n in (1, 64, 1024, 16384, 10**6):
            chosen = select_allreduce_algorithm(p, n, m)
            cost = allreduce_analytic_seconds(p, n, m, chosen)
            for other in (LATENCY_OPTIMAL, bandwidth_optimal(p)):
                assert cost <= allreduce_analytic_seconds(p, n, m, other) \
                    * (1 + 1e-12)

    def test_crossover_scales_with_alpha_beta_ratio(self):
        base = NetworkModel()
        chatty = NetworkModel(alpha=base.alpha * 10, beta=base.beta)
        fat = NetworkModel(alpha=base.alpha, beta=base.beta * 10)
        x0 = allreduce_crossover_words(4, base)
        assert allreduce_crossover_words(4, chatty) == pytest.approx(x0 * 10)
        assert allreduce_crossover_words(4, fat) == pytest.approx(x0 / 10)

    def test_zero_beta_never_crosses(self):
        m = NetworkModel(beta=0.0)
        assert allreduce_crossover_words(8, m) == float("inf")
        assert select_allreduce_algorithm(8, 10**9, m) == LATENCY_OPTIMAL

    def test_zero_alpha_always_bandwidth(self):
        m = NetworkModel(alpha=0.0)
        assert select_allreduce_algorithm(8, 1, m) == bandwidth_optimal(8)

    @pytest.mark.parametrize("p", PS)
    def test_alpha_beta_terms_roles(self, p):
        a_l, b_l = allreduce_alpha_beta_terms(p, LATENCY_OPTIMAL)
        a_b, b_b = allreduce_alpha_beta_terms(p, bandwidth_optimal(p))
        assert a_l <= a_b       # latency role: fewer latency terms
        assert b_b <= b_l       # bandwidth role: no more volume terms
        if p > 2:
            assert b_b < b_l    # strictly cheaper volume beyond P=2

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError):
            allreduce_alpha_beta_terms(4, "nope")

    @pytest.mark.parametrize("p", [4, 6])
    def test_resolve_allreduce_is_the_role_table(self, p):
        m = NetworkModel()
        cross = allreduce_crossover_words(p, m)
        small, large = int(cross) - 1, int(cross) + 1
        bw = bandwidth_optimal(p)
        assert resolve_allreduce("adaptive", p, small, m) == (
            LATENCY_OPTIMAL, "adaptive")
        assert resolve_allreduce("adaptive", p, large, m) == (bw, "adaptive")
        assert resolve_allreduce("auto", p, small, m) == (bw, "auto")
        assert resolve_allreduce("latency", p, large, m) == (
            LATENCY_OPTIMAL, "forced")
        assert resolve_allreduce("bandwidth", p, small, m) == (bw, "forced")
        assert resolve_allreduce("ring", p, small, m) == ("ring", "forced")
        with pytest.raises(ValueError, match="unknown dense allreduce"):
            resolve_allreduce("nope", p, small, m)


def _allreduce_program(comm, n, algorithm):
    x = np.arange(n, dtype=np.float32) + comm.rank
    return coll.allreduce(comm, x, algorithm=algorithm)


def _run(p, n, algorithm, **kw):
    return run_spmd(p, _allreduce_program, n, algorithm, **kw)


class TestDispatch:
    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("algorithm",
                             ["adaptive", "latency", "bandwidth", "auto"])
    def test_results_correct(self, p, algorithm):
        n = 257
        res = _run(p, n, algorithm)
        want = p * np.arange(n, dtype=np.float32) + sum(range(p))
        for r in range(p):
            np.testing.assert_allclose(res[r], want, rtol=1e-5)

    def test_adaptive_picks_by_size(self):
        m = NetworkModel()
        x = allreduce_crossover_words(4, m)
        small = _run(4, int(x * 0.25), "adaptive").network
        large = _run(4, int(x * 4), "adaptive").network
        assert ("allreduce", LATENCY_OPTIMAL, "adaptive") \
            in small.algorithm_log
        assert ("allreduce", "rabenseifner", "adaptive") \
            in large.algorithm_log

    @pytest.mark.parametrize("forced", ["ring", "recursive_doubling",
                                        "rabenseifner"])
    def test_forced_override_always_wins(self, forced):
        # A tiny message (deep in the latency regime) still uses the
        # forced schedule — provenance AND the wire schedule agree.
        net = _run(4, 8, forced).network
        assert list(net.algorithm_log) == [("allreduce", forced, "forced")]
        msgs_per_rank = {"recursive_doubling": 2,  # log2(4) exchanges
                         "rabenseifner": 4,        # 2 halving + 2 doubling
                         "ring": 6}[forced]        # 2 * (P - 1)
        assert list(net.stats().msgs_sent) == [msgs_per_rank] * 4

    def test_role_aliases_map_to_concrete_schedules(self):
        net = _run(4, 8, "latency").network
        assert ("allreduce", LATENCY_OPTIMAL, "forced") in net.algorithm_log
        net = _run(4, 8, "bandwidth").network
        assert ("allreduce", "rabenseifner", "forced") in net.algorithm_log
        net = _run(6, 8, "bandwidth").network  # non-pow2 -> ring
        assert ("allreduce", "ring", "forced") in net.algorithm_log

    def test_auto_mode_recorded(self):
        net = _run(4, 8, "auto").network
        assert ("allreduce", "rabenseifner", "auto") in net.algorithm_log

    def test_unknown_algorithm_raises(self):
        with pytest.raises(Exception):
            _run(2, 8, "not_an_algorithm")

    def test_provenance_accumulates_and_resets(self):
        def program(comm):
            x = np.ones(16, dtype=np.float32)
            coll.allreduce(comm, x, algorithm="ring")
            coll.allreduce(comm, x, algorithm="ring")
            return None

        res = run_spmd(4, program)
        entry = res.network.algorithm_log[("allreduce", "ring", "forced")]
        assert entry == {"calls": 2, "words": 32}
        assert res.network.algorithm_provenance() == {
            "allreduce/ring/forced": {"calls": 2, "words": 32}}
        res.network.reset_stats()
        assert res.network.algorithm_log == {}

    @pytest.mark.parametrize("runner", ["coop", "threads"])
    def test_provenance_identical_across_runners_and_fused(self, runner):
        logs = []
        for fused in (True, False):
            net = _run(5, 4096, "adaptive", runner=runner,
                       fused=fused).network
            logs.append(net.algorithm_log)
        assert logs[0] == logs[1]

    def test_positional_algo_argument_still_works(self):
        def program(comm):
            return coll.allreduce(comm, np.ones(8, dtype=np.float32),
                                  np.add, "ring")

        res = run_spmd(3, program)
        np.testing.assert_allclose(res[0], 3 * np.ones(8))
        assert ("allreduce", "ring", "forced") in res.network.algorithm_log
