"""Randomized-program equivalence property test across execution paths.

One rank-program source, built from a random op sequence mixing
point-to-point meshes, dense collectives, async regions, sparse allreduce
schemes and bucketed sessions, runs under three execution configurations —
the cooperative engine with and without the fused fast path, and the
threaded runner — and every observable (results, traffic counters,
simulated makespan) must be bit-identical across all three.  Fault plans
(stragglers, link slowdowns, crashes) get the same treatment over both
runners.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.allreduce import ParamLayout, make_allreduce, run_session
from repro.comm import run_spmd
from repro.comm import collectives as coll
from repro.comm.faults import FaultPlan, RankCrash
from repro.errors import RankFailedError

#: (runner, fused) — the execution configurations under test
CONFIGS = (("coop", True), ("coop", False), ("threads", None))

OPS = ("mesh", "allreduce", "sendrecv", "async", "oktopk", "session",
       "compute")


def _op_plan(seed):
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(3, 7))
    return [OPS[int(rng.integers(0, len(OPS)))] for _ in range(n_ops)]


def _prog(comm, seed, ops):
    p, r = comm.size, comm.rank
    out = []
    for i, op in enumerate(ops):
        srng = np.random.default_rng(seed * 31 + i)      # rank-uniform
        drng = np.random.default_rng(seed * 1000 + i * 17 + r)
        if op == "compute":
            comm.compute(1e-7 * (r + 1))
            out.append(comm.clock)
        elif op == "mesh":
            n = int(srng.integers(4, 64))
            reqs = []
            for s in range(1, p):
                reqs.append(comm.irecv((r - s) % p, i))
                reqs.append(comm.isend(
                    drng.normal(size=n).astype(np.float32),
                    (r + s) % p, i))
            got = comm.waitall(reqs)
            out.append(sum(float(g.sum()) for g in got if g is not None))
        elif op == "sendrecv":
            out.append(comm.sendrecv(
                float(r * 10 + i), (r + 1) % p, (r - 1) % p, 100 + i))
        elif op == "allreduce":
            algo = ("ring", "recursive_doubling",
                    "rabenseifner")[int(srng.integers(0, 3))]
            x = drng.normal(size=int(srng.integers(8, 128))).astype(
                np.float32)
            out.append(float(coll.allreduce(comm, x, algo=algo).sum()))
        elif op == "async":
            payload = drng.normal(size=16).astype(np.float32)
            with comm.async_region() as reg:
                req = comm.isend(payload, (r + 1) % p, 200 + i)
            got = comm.recv((r - 1) % p, 200 + i)
            comm.waitall([req])
            comm._advance_clock(reg.finish)
            out.append(float(got.sum()))
        elif op == "oktopk":
            algo = make_allreduce("oktopk", density=0.1, tau=2,
                                  tau_prime=2)
            acc = drng.normal(size=int(srng.integers(64, 256))).astype(
                np.float32)
            res = algo.reduce(comm, acc, 1)
            out.append(float(np.abs(res.update.to_dense()).sum()))
        elif op == "session":
            n = int(srng.integers(96, 256))
            algo = make_allreduce("gtopk", density=0.1)
            lay = ParamLayout.from_sizes([n // 3, n - n // 3], ["a", "b"])
            acc = drng.normal(size=n).astype(np.float32)
            res = run_session(algo, comm, lay, 1, acc,
                              bucket_size=max(32, n // 4))
            out.append(float(np.abs(res.update.to_dense()).sum()))
    return out


def _assert_all_identical(runs):
    (base_name, base), *rest = runs
    for name, res in rest:
        assert base.makespan == res.makespan, (base_name, name)
        sa, sb = base.stats, res.stats
        for field in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
            np.testing.assert_array_equal(
                getattr(sa, field), getattr(sb, field),
                err_msg=f"{field}: {base_name} vs {name}")
        assert base.results == res.results, (base_name, name)


class TestFourWayRandomPrograms:
    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_random_program_identical_under_all_configs(self, p, seed):
        ops = _op_plan(seed)
        runs = [(f"{runner}:{fused}",
                 run_spmd(p, _prog, seed, ops, runner=runner, fused=fused))
                for runner, fused in CONFIGS]
        _assert_all_identical(runs)

    @given(st.integers(3, 5), st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_program_under_straggler_plan(self, p, seed):
        """Fault plans without crashes complete normally: runners must
        still agree bit-for-bit."""
        ops = _op_plan(seed)
        plan = FaultPlan.straggler_skew(p, seed=seed % 97)
        runs = [(runner,
                 run_spmd(p, _prog, seed, ops, runner=runner, faults=plan))
                for runner in ("coop", "threads")]
        _assert_all_identical(runs)

    @given(st.integers(0, 1000))
    @settings(max_examples=6, deadline=None)
    def test_crash_failure_sets_agree_across_runners(self, seed):
        """A planned crash mid-mesh: every runner must attribute the
        same failure set (the dead rank plus unanimous survivor
        detection collapses to one merged report)."""
        p = 4
        ops = ["mesh", "mesh", "mesh"]
        plan = FaultPlan(crashes=[RankCrash(rank=1, time=2e-6)])
        failed = {}
        for runner in ("coop", "threads"):
            try:
                run_spmd(p, _prog, seed, ops, runner=runner, faults=plan)
                failed[runner] = frozenset()
            except RankFailedError as e:
                failed[runner] = frozenset(e.failures)
        assert failed["coop"] == failed["threads"]
        assert 1 in failed["coop"]
