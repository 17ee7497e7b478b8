"""Tests for the inference serving subsystem (repro.serve).

The load-bearing assertions are the ISSUE-7 acceptance criteria:

* a serving run is a pure function of ``(seed, config)`` — bit-identical
  request records, percentiles, goodput and checksum across the ``coop``
  and ``threads`` runners and the fused/unfused collective paths,
  including non-power-of-two P (where per-rank clocks legitimately
  diverge and the loop's decision-clock sync is what keeps batching
  deterministic);
* the size-adaptive allreduce selector matches or beats both fixed
  choices in a latency-bound and a bandwidth-bound regime;
* (ISSUE 16) the one-rendezvous step executor that coop+fused runs take
  at P >= 2 leaves the world — records, checksum, every per-rank counter,
  clock and link, the provenance log — exactly where the per-layer
  reference loop leaves it, is entered once per rank per serving step —
  also under slowdown / straggler plans (ISSUE 17) — and is never entered
  where the fused gate is closed.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import run_spmd
from repro.comm.faults import (ComputeStraggler, FaultPlan, LinkSlowdown,
                               RankCrash)
from repro.comm.fused import LATENCY_OPTIMAL, _block_slices
from repro.errors import ConfigError
from repro.serve import (DynamicBatcher, Request, ServeConfig, Workload,
                         percentile, simulate_serving, sweep_load)
from repro.serve.loop import _rank_serve
from repro.serve.model import (CHECKSUM_MODULUS, TPDecodeModel,
                               TPModelConfig, _row_weights)


class TestWorkload:
    def test_poisson_deterministic_per_seed(self):
        a = Workload.poisson(20, 1000.0, seed=5)
        b = Workload.poisson(20, 1000.0, seed=5)
        c = Workload.poisson(20, 1000.0, seed=6)
        assert a.requests == b.requests
        assert a.requests != c.requests

    def test_poisson_rate_scales_span(self):
        slow = Workload.poisson(200, 100.0, seed=1)
        fast = Workload.poisson(200, 1000.0, seed=1)
        assert slow.span == pytest.approx(fast.span * 10)

    def test_ranged_token_specs(self):
        wl = Workload.poisson(50, 1000.0, prompt_tokens=(8, 16),
                              output_tokens=(2, 4), seed=2)
        assert all(8 <= rq.prompt_tokens <= 16 for rq in wl.requests)
        assert all(2 <= rq.output_tokens <= 4 for rq in wl.requests)
        assert len({rq.prompt_tokens for rq in wl.requests}) > 1

    def test_json_round_trip(self):
        wl = Workload.poisson(10, 500.0, prompt_tokens=(4, 64), seed=3)
        back = Workload.from_json(wl.to_json())
        assert back.requests == wl.requests

    def test_validation(self):
        with pytest.raises(ConfigError):
            Workload.poisson(0, 100.0)
        with pytest.raises(ConfigError):
            Workload.poisson(5, -1.0)
        with pytest.raises(ConfigError):
            Workload.poisson(5, 100.0, prompt_tokens=0)
        with pytest.raises(ConfigError):
            Workload((Request(0, 1.0, 4, 1), Request(1, 0.5, 4, 1)))

    def test_counters(self):
        wl = Workload.from_arrivals([0.0, 1.0, 2.0], [4, 8, 2], [1, 2, 3])
        assert wl.total_output_tokens == 6
        assert wl.max_prompt_tokens == 8
        assert wl.span == 2.0
        assert len(wl) == 3


def _wl(arrivals, prompt=4, out=2):
    n = len(arrivals)
    return Workload.from_arrivals(arrivals, [prompt] * n, [out] * n)


class TestDynamicBatcher:
    def test_fires_when_full(self):
        b = DynamicBatcher(_wl([0.0, 0.1, 0.2, 0.3]), 2, max_wait=10.0)
        assert b.admit(0.05, 2, False) == []       # one pending, no timeout
        got = b.admit(0.1, 2, False)               # second arrival fills it
        assert [rq.rid for rq in got] == [0, 1]

    def test_fires_on_timeout_with_partial_batch(self):
        b = DynamicBatcher(_wl([0.0]), 4, max_wait=0.5)
        assert b.admit(0.4, 4, False) == []
        got = b.admit(0.5, 4, False)
        assert [rq.rid for rq in got] == [0]

    def test_continuous_batching_piggybacks(self):
        b = DynamicBatcher(_wl([0.0, 0.1]), 4, max_wait=10.0)
        # Engine active: arrived requests join immediately, no trigger.
        got = b.admit(0.05, 3, True)
        assert [rq.rid for rq in got] == [0]
        assert b.admit(0.05, 3, True) == []        # nothing else arrived

    def test_free_slots_cap(self):
        b = DynamicBatcher(_wl([0.0, 0.0, 0.0]), 8, max_wait=0.0)
        got = b.admit(0.0, 2, False)
        assert len(got) == 2
        assert b.pending == 1

    def test_next_decision_closed_form(self):
        b = DynamicBatcher(_wl([1.0, 2.0, 9.0]), 2, max_wait=3.0)
        # Batch of 2 completes at t=2.0, before the t=4.0 timeout.
        assert b.next_decision(0.0) == 2.0
        b.admit(2.0, 2, False)
        # One request left: only its timeout can fire.
        assert b.next_decision(2.0) == 12.0
        b.admit(12.0, 2, False)
        assert b.next_decision(12.0) is None

    def test_admit_at_next_decision_always_fires(self):
        b = DynamicBatcher(_wl([0.5, 1.5, 4.0]), 2, max_wait=2.0)
        t = 0.0
        admitted = []
        while True:
            nxt = b.next_decision(t)
            if nxt is None:
                break
            t = nxt
            got = b.admit(t, 2, False)
            assert got, f"admission must fire at its own decision time {t}"
            admitted += [rq.rid for rq in got]
        assert admitted == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(_wl([0.0]), 0, 1.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(_wl([0.0]), 1, -1.0)


class TestPercentile:
    def test_interpolates(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert percentile(xs, 50.0) == pytest.approx(1.5)
        assert percentile(xs, 0.0) == 0.0
        assert percentile(xs, 100.0) == 3.0
        assert np.isnan(percentile([], 50.0))
        assert percentile([7.0], 99.0) == 7.0


SMOKE = ServeConfig(p=4, rate=2000.0, n_requests=12, prompt_tokens=32,
                    output_tokens=3, max_batch_size=4, seed=0)

#: batch size 1: every step is a one-token decode or a 320-token prefill
#: (20480 words — past the adaptive crossover wherever P has one)
EXTREMES = replace(SMOKE, n_requests=2, prompt_tokens=320, max_batch_size=1,
                   hidden=64, layers=2)

ALGORITHMS = ("adaptive", "latency", "bandwidth", "ring", "rabenseifner")


def world_state(res):
    """Everything an SPMD section leaves behind: per-rank results, makespan,
    per-rank traffic counters, final clocks and link occupancy, and the
    whole provenance log, entry for entry."""
    net = res.network
    return (res.results, res.makespan, net.words_sent, net.words_recv,
            net.msgs_sent, net.msgs_recv, net.clocks, net.egress_free,
            net.ingress_free, dict(net.algorithm_log))


def serve_world(cfg, runner=None, fused=None, **kwargs):
    """What ``simulate_serving`` runs, with the network kept readable."""
    return run_spmd(cfg.p, _rank_serve, cfg, cfg.workload(), runner=runner,
                    fused=fused, **kwargs)


def _two_steps(comm, mcfg, algorithm, tokens):
    model = TPDecodeModel(mcfg, comm, algorithm=algorithm, seed=3)
    # the second step starts from the first one's carry
    return model.step(tokens), model.step(tokens), model.snapshot()


class TestServing:
    def test_all_requests_complete_with_ordered_stamps(self):
        rep = simulate_serving(SMOKE)
        assert len(rep.requests) == SMOKE.n_requests
        for rec in rep.requests:
            assert rec.admitted >= rec.arrival
            assert len(rec.token_times) == rec.output_tokens
            assert rec.first_token > rec.admitted
            assert all(b > a for a, b in
                       zip(rec.token_times, rec.token_times[1:]))
        s = rep.summary()
        assert s["ttft_p99"] >= s["ttft_p50"] > 0
        assert s["latency_p99"] >= s["latency_p50"] > 0
        assert s["goodput_tokens_per_s"] > 0
        assert rep.generated_tokens == 3 * SMOKE.n_requests
        assert rep.steps["prefill_batches"] >= 1
        assert rep.steps["decode_steps"] >= 2  # 2 post-prefill tokens each

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("shape, p", [
        *((SMOKE, p) for p in (1, 2, 3, 4, 6)),
        *((EXTREMES, p) for p in (2, 3, 4, 5, 8)),
    ], ids=lambda v: "mixed" if v is SMOKE else
        "decode1-prefill320" if v is EXTREMES else f"p{v}")
    def test_bit_identical_across_runners_and_fused(self, shape, p,
                                                    algorithm):
        # coop + fused at P >= 2 is the one-rendezvous step executor;
        # everything else is the per-layer reference loop
        cfg = replace(shape, p=p, seed=11, algorithm=algorithm)
        base = None
        for runner in ("coop", "threads"):
            for fused in (True, False):
                state = world_state(serve_world(cfg, runner, fused))
                if base is None:
                    base = state
                else:
                    assert state == base, (p, runner, fused)
        # the public entry point reports that same world
        rep = simulate_serving(cfg)
        rank0 = base[0][0]
        assert (rep.requests, rep.checksum, rep.steps, rep.makespan) == (
            rank0["records"], rank0["checksum"], rank0["steps"], base[1])
        assert rep.algorithms == {"/".join(k): v for k, v in base[-1].items()}

    @given(p=st.integers(2, 9), tokens=st.integers(1, 48),
           hidden=st.integers(1, 40), layers=st.integers(1, 3),
           algorithm=st.sampled_from(ALGORITHMS + ("recursive_doubling",)))
    @settings(max_examples=40, deadline=None)
    def test_bare_step_executor_matches_reference(self, p, tokens, hidden,
                                                  layers, algorithm):
        mcfg = TPModelConfig(hidden=hidden, layers=layers)
        fused, reference = (
            world_state(run_spmd(p, _two_steps, mcfg, algorithm, tokens,
                                 runner="coop", fused=flag))
            for flag in (True, False))
        assert fused == reference

    def test_one_rendezvous_per_serving_step(self, rendezvous_log):
        res = serve_world(SMOKE, "coop", True)
        steps = sum(res[0]["steps"].values())
        assert steps >= 3
        per_rank = Counter((e.rank, e.head) for e in rendezvous_log)
        for rank in range(SMOKE.p):
            assert per_rank[(rank, "tp_step")] == steps
        # nothing else but the idle-jump decision syncs enters the engine
        assert {e.head for e in rendezvous_log} == {
            "tp_step", "allgather_object"}

    @pytest.mark.parametrize("kwargs, p, entered", [
        # slowdowns and stragglers ride the step executor as factors ...
        ({"faults": FaultPlan(links=[LinkSlowdown(rank=1, factor=3.0)])},
         4, True),
        ({"faults": FaultPlan(
            stragglers=[ComputeStraggler(rank=2, factor=5.0)],
            links=[LinkSlowdown(rank=0, factor=2.0, direction="ingress",
                                t_start=2e-4, t_end=9e-4)])}, 4, True),
        # ... a crash that can still fire keeps the world per message
        ({"faults": FaultPlan(crashes=[RankCrash(rank=1, time=1e9)])},
         4, False),
        ({"trace": True}, 4, False),
        ({}, 3, True),
    ], ids=["slow-link-plan", "straggler-window-plan", "pending-crash-plan",
            "tracing", "three-ranks"])
    def test_step_executor_is_transparent(self, rendezvous_log, kwargs, p,
                                          entered):
        cfg = replace(SMOKE, p=p)
        got = world_state(serve_world(cfg, "coop", True, **kwargs))
        assert ("tp_step" in {e.head for e in rendezvous_log}) == entered
        del rendezvous_log[:]
        assert got == world_state(serve_world(cfg, "coop", False, **kwargs))
        assert not rendezvous_log

    def test_pure_function_of_seed(self):
        a = simulate_serving(SMOKE).summary()
        b = simulate_serving(SMOKE).summary()
        c = simulate_serving(replace(SMOKE, seed=9)).summary()
        assert a == b
        assert a != c

    def test_trace_driven_matches_generated(self):
        wl = SMOKE.workload()
        via_trace = simulate_serving(
            SMOKE, workload=Workload.from_json(wl.to_json()))
        assert via_trace.requests == simulate_serving(SMOKE).requests

    def test_adaptive_exercises_both_regimes(self):
        # Default shapes: decode messages (<= 4*256 words) sit below the
        # P=4 crossover (~15000 words), prefill batches (>= 64*256) above.
        rep = simulate_serving(replace(SMOKE, prompt_tokens=64))
        assert f"allreduce/{LATENCY_OPTIMAL}/adaptive" in rep.algorithms
        assert "allreduce/rabenseifner/adaptive" in rep.algorithms

    def test_forced_algorithm_is_used_throughout(self):
        rep = simulate_serving(replace(SMOKE, algorithm="ring"))
        assert list(rep.algorithms) == ["allreduce/ring/forced"]

    @pytest.mark.parametrize("regime, cfg", [
        ("latency_bound", replace(SMOKE, prompt_tokens=4, output_tokens=12,
                                  rate=3000.0, n_requests=16)),
        ("bandwidth_bound", replace(SMOKE, prompt_tokens=192,
                                    output_tokens=1, rate=3000.0,
                                    n_requests=16)),
        ("mixed", replace(SMOKE, prompt_tokens=96, output_tokens=8,
                          n_requests=16)),
    ])
    def test_adaptive_matches_or_beats_fixed(self, regime, cfg):
        # Governing metric per regime: p99 inter-token latency when
        # decode-dominated — the makespan of a drained open-loop run is a
        # batching outcome there — and end-to-end makespan otherwise.
        def score(alg):
            rep = simulate_serving(replace(cfg, algorithm=alg))
            if regime == "latency_bound":
                return rep.summary()["itl_p99"]
            return rep.makespan

        scores = {alg: score(alg)
                  for alg in ("latency", "bandwidth", "adaptive")}
        assert scores["adaptive"] <= scores["latency"]
        assert scores["adaptive"] <= scores["bandwidth"]
        if regime == "mixed":  # per-phase optima: strictly beats both
            assert scores["adaptive"] < scores["latency"]
            assert scores["adaptive"] < scores["bandwidth"]

    def test_sweep_load_goodput_saturates(self):
        reps = sweep_load(replace(SMOKE, n_requests=48), [200.0, 50000.0])
        lo, hi = (r.summary() for r in reps)
        assert lo["offered_req_per_s"] < hi["offered_req_per_s"]
        # Under light load goodput tracks the offered rate...
        assert lo["goodput_req_per_s"] == pytest.approx(
            lo["offered_req_per_s"], rel=0.35)
        # ... under heavy load it falls behind (the server saturates).
        assert hi["goodput_req_per_s"] < 0.8 * hi["offered_req_per_s"]
        assert hi["latency_p99"] > lo["latency_p99"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            simulate_serving(replace(SMOKE, p=0))
        with pytest.raises(ConfigError):
            simulate_serving(replace(SMOKE, n_requests=0))


def _expand(rows, n, blocks, hidden):
    """The ``n`` activations a step's fold-order rows stand for (the
    oracle of the executor's row arithmetic): position ``i`` of block
    ``b`` holds row ``b``'s word ``i mod hidden``."""
    rows = rows.reshape(blocks, hidden)
    return np.concatenate([rows[b, np.arange(sl.start, sl.stop) % hidden]
                           for b, sl in enumerate(_block_slices(n, blocks))])


def _row_checksum(rows, fills):
    """The executor's checksum increment of ``rows``."""
    return int(np.dot(rows.view(np.uint32).astype(np.uint64), fills))


class TestStepExecutorRows:
    """The step executor folds one ``hidden``-word row per fold order
    (one for the trees, P for the ring) and never builds the ``n``-word
    activations: the checksum and the carry are read off the rows.  These
    pin the premise that makes that exact, the row arithmetic against the
    expanded activations, the executor against the reference loop at
    prefill sizes, and the width of every array it makes."""

    @pytest.mark.parametrize("hidden", [1, 7, 8, 15, 16, 17, 64, 256])
    def test_elementwise_float32_is_position_independent(self, hidden):
        # the executor's row math (a product, a sum, tanh) at every token
        # row and rotation of the activations, against the row itself,
        # also at an unaligned start (the ring's blocks)
        rng = np.random.default_rng(hidden)
        row, other = (3 * rng.standard_normal((2, hidden))).astype(
            np.float32)
        gain = np.float32(rng.standard_normal())
        want = np.tanh(row * gain + other)
        for tiles in (1, 2, 3, 97, 320, 601):
            for shift in sorted({0, 1, hidden // 2, hidden - 1}):
                r, o = np.roll(row, -shift), np.roll(other, -shift)
                for lead in (0, 1, 3):
                    window = slice(lead, lead + tiles * hidden)
                    x = np.tile(r, tiles + 4)[window]
                    y = np.tile(o, tiles + 4)[window]
                    got = np.tanh(x * gain + y)
                    exp = np.tile(np.roll(want, -(shift + lead)),
                                  tiles)
                    assert got.tobytes() == exp.tobytes(), (tiles, shift,
                                                            lead)

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "rabenseifner", "ring"])
    @pytest.mark.parametrize("tokens, hidden", [
        (1, 256), (97, 256), (320, 256),
        (1, 1),  # n < P: the ring's leading blocks are empty
    ])
    def test_prefill_sizes_match_reference(self, p, algorithm, tokens,
                                           hidden):
        # 97 and 320 tokens put ring block starts off multiples of hidden
        # (97 * 256 / 3, 320 * 256 / 3, every fifth at P = 5)
        mcfg = TPModelConfig(hidden=hidden, layers=2)
        fused, reference = (
            world_state(run_spmd(p, _two_steps, mcfg, algorithm, tokens,
                                 runner="coop", fused=flag))
            for flag in (True, False))
        assert fused == reference

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "rabenseifner", "ring"])
    def test_folds_are_at_most_p_rows_wide(self, monkeypatch, p, algorithm):
        from repro.comm import fused

        widths = []

        def recording(fold):
            def wrapped(payloads, *args, **kwargs):
                widths.append(payloads[0].size)
                return fold(payloads, *args, **kwargs)
            return wrapped

        for name in ("_sum_tree", "_sum_ring"):
            monkeypatch.setattr(fused, name,
                                recording(getattr(fused, name)))
        tokens, hidden = 97, 16
        mcfg = TPModelConfig(hidden=hidden, layers=2)
        run_spmd(p, _two_steps, mcfg, algorithm, tokens, runner="coop",
                 fused=True)
        assert len(widths) == 2 * mcfg.layers
        assert max(widths) <= p * hidden < tokens * hidden

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("hidden", [1, 7, 256])
    @pytest.mark.parametrize("tokens", [1, 3, 97, 320])
    def test_row_checksum_and_first_token_match_the_expansion(
            self, p, hidden, tokens):
        # blocks = 1 is the trees' one fold order, P the ring's: n < P
        # leaves leading ring blocks empty, 97 and 320 tokens start ring
        # blocks off multiples of hidden
        n = tokens * hidden
        rng = np.random.default_rng([p, hidden, tokens])
        for blocks in sorted({1, p}):
            rows = np.tanh(3 * rng.standard_normal(blocks * hidden)).astype(
                np.float32)
            acts = _expand(rows, n, blocks, hidden)
            fills, first = _row_weights(n, blocks, hidden)
            assert _row_checksum(rows, fills) == int(
                acts.view(np.uint32).sum(dtype=np.uint64))
            assert rows[first].tobytes() == acts[:hidden].tobytes()

    @pytest.mark.parametrize("p, tokens", [(1, 3), (3, 1), (4, 97), (6, 3)])
    def test_every_emitted_bit_moves_the_checksum(self, p, tokens):
        hidden = 7
        n = tokens * hidden
        rng = np.random.default_rng(p)
        for blocks in sorted({1, p}):
            rows = rng.standard_normal(blocks * hidden).astype(np.float32)
            fills, _ = _row_weights(n, blocks, hidden)
            base = _row_checksum(rows, fills) % CHECKSUM_MODULUS
            # the row words the activations hold (an empty ring block's
            # row holds none)
            emitted = set(_expand(np.arange(blocks * hidden), n, blocks,
                                  hidden).tolist())
            for w in range(blocks * hidden):
                for bit in range(32):
                    flipped = rows.copy()
                    flipped.view(np.uint32)[w] ^= np.uint32(1 << bit)
                    moved = _row_checksum(flipped, fills) % CHECKSUM_MODULUS
                    assert (moved != base) == (w in emitted), (w, bit)

    def test_checksum_wraps_below_2_53(self):
        # a 320-token step adds ~2^47; started one below the modulus the
        # sum wraps, on both paths alike
        def prog(comm, start):
            model = TPDecodeModel(TPModelConfig(layers=1), comm, seed=3)
            model.restore((1.0, start))
            model.step(320)
            return model.checksum

        got = {}
        for fused in (True, False):
            for start in (0, CHECKSUM_MODULUS - 1):
                got[fused, start] = run_spmd(4, prog, start, runner="coop",
                                             fused=fused).results
        increment = got[True, 0][0]
        assert got[True, 0] == got[False, 0] == [increment] * 4
        wrapped = (CHECKSUM_MODULUS - 1 + increment) % CHECKSUM_MODULUS
        assert wrapped < increment
        assert got[True, CHECKSUM_MODULUS - 1] == [wrapped] * 4
        assert got[False, CHECKSUM_MODULUS - 1] == [wrapped] * 4

    @pytest.mark.parametrize("algorithm",
                             ["recursive_doubling", "rabenseifner", "ring"])
    def test_prefill_step_makes_no_n_word_array(self, monkeypatch,
                                                algorithm):
        import tracemalloc

        from repro.serve import model as serve_model

        inner = serve_model._exec_tp_step
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                return inner(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(serve_model, "_exec_tp_step", traced)
        tokens, hidden = 320, 256
        run_spmd(4, _two_steps, TPModelConfig(hidden=hidden), algorithm,
                 tokens, runner="coop", fused=True)
        assert len(peaks) == 2
        assert max(peaks) < tokens * hidden * 4
