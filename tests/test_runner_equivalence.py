"""Cross-runner equivalence: the cooperative and threaded runners must be
observationally identical.

Simulated time is schedule-independent by design (egress booked in sender
program order, ingress in receiver program order), so for any program both
runners must produce bit-identical results, traffic counters and simulated
makespans.  These tests drive the three main scheme families and the
basic communication shapes over randomized inputs under both runners (and
the cooperative engine with and without the fused fast path) and compare
everything exactly.
"""

import numpy as np
import pytest

from repro.allreduce import make_allreduce
from repro.comm import RUNNER_ENV, collectives as coll, resolve_runner, \
    run_spmd
from repro.sparse import COOVector

RUNNERS = ("coop", "threads")

#: (runner, fused) — every execution configuration that remains
CONFIGS = (("coop", True), ("coop", False), ("threads", None))


def _run_both(p, prog, *args):
    return {r: run_spmd(p, prog, *args, runner=r) for r in RUNNERS}


def _assert_network_equal(results):
    a, b = (results[r] for r in RUNNERS)
    assert a.makespan == b.makespan  # exact, not approx
    sa, sb = a.stats, b.stats
    for field in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
        np.testing.assert_array_equal(getattr(sa, field), getattr(sb, field))


def _assert_configs_identical(p, prog, *args):
    """Run ``prog`` under every configuration in :data:`CONFIGS` and
    compare results, traffic counters and makespans exactly."""
    runs = [run_spmd(p, prog, *args, runner=r, fused=f) for r, f in CONFIGS]
    base = runs[0]
    for res in runs[1:]:
        assert base.makespan == res.makespan
        for field in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
            np.testing.assert_array_equal(getattr(base.stats, field),
                                          getattr(res.stats, field))
        for ra, rb in zip(base.results, res.results):
            if isinstance(ra, np.ndarray):
                np.testing.assert_array_equal(ra, rb)
            else:
                assert ra == rb
    return base


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", ["dense", "gtopk", "oktopk"])
    @pytest.mark.parametrize("p", [4, 8])
    def test_identical_updates_stats_makespan(self, scheme, p):
        n, iters = 1536, 3

        def prog(comm):
            algo = make_allreduce(
                scheme, **({} if scheme == "dense" else {"density": 0.05}))
            rng = np.random.default_rng(123 + comm.rank)
            outs = []
            for t in range(1, iters + 1):
                acc = rng.normal(size=n).astype(np.float32)
                res = algo.reduce(comm, acc, t)
                upd = res.update
                outs.append(upd.to_dense() if isinstance(upd, COOVector)
                            else np.asarray(upd))
            return np.concatenate(outs)

        results = _run_both(p, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)  # bit-identical

    @pytest.mark.parametrize("p", [3, 8])
    def test_collectives_equivalence(self, p):
        def prog(comm):
            rng = np.random.default_rng(7 + comm.rank)
            x = rng.normal(size=777).astype(np.float32)
            out = [coll.allreduce(comm, x, algo=a)
                   for a in ("ring", "recursive_doubling", "rabenseifner")]
            block = rng.normal(size=5 + comm.rank).astype(np.float32)
            out.append(np.concatenate(coll.allgatherv(comm, block)))
            return np.concatenate(out)

        results = _run_both(p, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)

    def test_point_to_point_clocks_identical(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            clocks = []
            for it in range(6):
                data = rng.normal(size=rng.integers(1, 257)).astype(np.float32)
                dst = (comm.rank + 1 + it) % comm.size
                src = (comm.rank - 1 - it) % comm.size
                comm.sendrecv(data, dst, src, it)
                clocks.append(comm.clock)
            return clocks

        results = _run_both(6, prog)
        _assert_network_equal(results)
        assert results["coop"].results == results["threads"].results


    @pytest.mark.parametrize("scheme", ["dense", "gtopk", "oktopk"])
    def test_schemes_identical_fused_unfused_threads(self, scheme):
        def prog(comm):
            algo = make_allreduce(
                scheme, **({} if scheme == "dense" else {"density": 0.05}))
            rng = np.random.default_rng(17 + comm.rank)
            outs = []
            for t in range(1, 3):
                res = algo.reduce(
                    comm, rng.normal(size=1536).astype(np.float32), t)
                upd = res.update
                outs.append(upd.to_dense() if isinstance(upd, COOVector)
                            else np.asarray(upd))
            return np.concatenate(outs)

        _assert_configs_identical(4, prog)


class TestProgramShapes:
    """Communication shapes a rank program is built from, each run under
    every remaining configuration with exact equality."""

    def test_waitall_storm_clocks(self):
        """irecv/isend mesh completed by one waitall per iteration; the
        per-iteration clocks must match, not just the final makespan."""
        def prog(comm, iters):
            p, r = comm.size, comm.rank
            vec = COOVector.from_arrays(
                512, np.arange(4, dtype=np.int32),
                np.full(4, float(r + 1), dtype=np.float32))
            total = 0.0
            clocks = []
            for it in range(iters):
                reqs = []
                for s in range(1, p):
                    reqs.append(comm.irecv((r - s) % p, it))
                    reqs.append(comm.isend(vec, (r + s) % p, it))
                got = comm.waitall(reqs)
                total += sum(float(g.values.sum())
                             for g in got if g is not None)
                clocks.append(comm.clock)
            return (total, clocks)

        base = _assert_configs_identical(5, prog, 4)
        # 4 iterations x 4 entries of (src + 1) from every other rank
        assert [total for total, _ in base.results] == \
            [16.0 * (15 - (r + 1)) for r in range(5)]

    @pytest.mark.parametrize("p", [2, 4])
    def test_send_then_recv_ring(self, p):
        def prog(comm):
            nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            out = []
            for it in range(3):
                comm.send(np.full(8, comm.rank + it, np.float32), nxt, it)
                out.append(float(comm.recv(prv, it)[0]))
            return out

        base = _assert_configs_identical(p, prog)
        assert base.results[0] == [float(p - 1 + it) for it in range(3)]

    def test_dense_collectives_then_sendrecv(self):
        def prog(comm):
            x = np.linspace(0, 1, 96, dtype=np.float32) * (comm.rank + 1)
            ring = coll.allreduce(comm, x, algo="ring")
            rd = coll.allreduce(comm, x, algo="recursive_doubling")
            got = comm.sendrecv(comm.rank, (comm.rank + 1) % comm.size,
                                (comm.rank - 1) % comm.size, 77)
            assert got == (comm.rank - 1) % comm.size
            return np.concatenate([ring, rd])

        _assert_configs_identical(4, prog)

    def test_fused_collective_custom_executor(self):
        """A fused rendezvous hands every rank the executor's result, and
        the fused and unfused cooperative runs agree on everything."""
        def _exec_sum(net, sig, payloads):
            s = np.add.reduce(np.stack(payloads), axis=0)
            return [s.copy() for _ in payloads]

        def prog(comm):
            x = np.full(16, float(comm.rank + 1), dtype=np.float32)
            return comm.fused_collective(("sum", 16), x, _exec_sum)

        runs = [run_spmd(4, prog, runner="coop", fused=f)
                for f in (True, False)]
        for res in runs:
            for out in res.results:
                np.testing.assert_array_equal(out, np.full(16, 10.0))
        assert runs[0].makespan == runs[1].makespan

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_single_rank_self_message(self, runner):
        def prog(comm):
            comm.send("self", comm.rank, 1)
            return comm.recv(comm.rank, 1)

        assert run_spmd(1, prog, runner=runner)[0] == "self"


class TestTrafficEquivalenceRandomized:
    def test_random_waitall_pattern(self):
        """Randomized isend/irecv/waitall mesh, exact equality."""
        def prog(comm):
            rng = np.random.default_rng(31 + comm.rank)
            total = np.zeros(64, dtype=np.float64)
            for it in range(5):
                reqs = []
                for s in range(1, comm.size):
                    peer_out = (comm.rank + s) % comm.size
                    peer_in = (comm.rank - s) % comm.size
                    payload = rng.normal(size=64).astype(np.float32)
                    reqs.append(comm.isend(payload, peer_out, tag=it))
                    reqs.append(comm.irecv(peer_in, tag=it))
                for got in comm.waitall(reqs):
                    if got is not None:
                        total += got
            return total

        results = _run_both(5, prog)
        _assert_network_equal(results)
        for ra, rb in zip(results["coop"].results, results["threads"].results):
            np.testing.assert_array_equal(ra, rb)


class TestRunnerSelection:
    def test_exactly_two_runners(self, monkeypatch):
        assert resolve_runner("coop") == resolve_runner("cooperative") \
            == resolve_runner("COOP") == "coop"
        assert resolve_runner("threads") == resolve_runner("threaded") \
            == "threads"
        for name in ("gen", "generator"):
            with pytest.raises(ValueError, match="coop.*threads"):
                resolve_runner(name)
        monkeypatch.setenv(RUNNER_ENV, "gen")
        with pytest.raises(ValueError, match="coop.*threads"):
            resolve_runner()
        with pytest.raises(ValueError, match="coop.*threads"):
            run_spmd(2, lambda comm: None)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_generator_program_is_rejected(self, runner):
        """A generator function would return unstarted generator objects
        from every rank; the launcher refuses it up front."""
        def prog(comm):
            yield comm.recv((comm.rank + 1) % comm.size)

        for p in (1, 2):
            with pytest.raises(TypeError, match="plain function"):
                run_spmd(p, prog, runner=runner)
