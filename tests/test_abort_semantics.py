"""Abort and deadlock semantics across both runners.

Satellite coverage for ``Network.abort()``: when one rank fails, every
blocked primitive — blocking receive, ``waitall`` (batched delivery), and
the fused-collective rendezvous — must wake promptly, raise ``CommError``,
and never hand over partial data.  Plus diagnosability of
``DeadlockError`` (structured ``blocked`` report: parked ranks, the
operation each is blocked on, per-rank simulated clocks), and how a
planned crash reaches the survivors.
"""

import numpy as np
import pytest

from repro.comm import Network, collectives, run_spmd
from repro.comm.faults import FaultPlan, RankCrash
from repro.errors import CommError, DeadlockError, RankFailedError, \
    SimulatedRankCrash

RUNNERS = ("coop", "threads")


class TestAbortWakesBlockedPrimitives:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_blocking_recv_wakes_and_raises(self, runner):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1e-6)
                raise RuntimeError("boom")
            try:
                comm.recv(source=0, tag=7)
            except CommError:
                return "woken"
            return "got data"

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, runner=runner)
        assert isinstance(ei.value.failures[0], RuntimeError)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_waitall_wakes_without_partial_data(self, runner):
        """A waitall over several irecvs interrupted by a peer failure
        must leave every request incomplete — no partial delivery."""
        def prog(comm):
            if comm.rank == 0:
                # satisfy one of rank 1's receives, then die before the
                # second: rank 1 must not observe the first as delivered
                comm.send(np.arange(4, dtype=np.float32), dest=1, tag=1)
                raise RuntimeError("boom")
            if comm.rank == 1:
                reqs = [comm.irecv(source=0, tag=1),
                        comm.irecv(source=0, tag=2)]
                try:
                    comm.waitall(reqs)
                except CommError:
                    return [r.completed for r in reqs]
                return "delivered"
            return None

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, runner=runner)
        assert isinstance(ei.value.failures[0], RuntimeError)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_batched_sends_to_failed_rank_do_not_block(self, runner):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1e-6)
                raise RuntimeError("boom")
            reqs = [comm.isend(np.zeros(16, np.float32), 0, t)
                    for t in range(4)]
            try:
                for r in reqs:
                    r.wait()
                comm.recv(source=0, tag=99)
            except CommError:
                return "woken"
            return "finished"

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner=runner)
        assert isinstance(ei.value.failures[0], RuntimeError)

    def test_fused_rendezvous_wakes_on_abort(self):
        """Ranks parked at the fused-collective rendezvous must be woken
        by a peer's failure (cooperative engine)."""
        def prog(comm):
            x = np.ones(64, dtype=np.float32)
            if comm.rank == 0:
                comm.recv(source=1, tag=5)   # wait until 1 is parked
                raise RuntimeError("boom")
            if comm.rank == 1:
                comm.send(1.0, dest=0, tag=5)
            try:
                collectives.allreduce(comm, x)
            except CommError:
                return "woken"
            return "finished"

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner="coop", fused=True)
        assert isinstance(ei.value.failures[0], RuntimeError)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_survivor_that_catches_the_abort_is_not_a_failure(self, runner):
        """A rank may catch the CommError from an abort and return; only
        the rank that raised is reported."""
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            try:
                comm.recv(0)
            except CommError as exc:
                return type(exc).__name__
            return "no error"

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner=runner)
        assert list(ei.value.failures) == [0]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_abort_exc_is_reported_not_secondary(self, runner):
        """Only the genuine origin appears in failures; the unblocked
        peers' secondary CommErrors are suppressed."""
        def prog(comm):
            if comm.rank == 2:
                comm.compute(1e-6)
                raise ValueError("the real bug")
            comm.recv(source=2, tag=3)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner=runner)
        assert set(ei.value.failed_ranks) == {2}
        assert "the real bug" in str(ei.value)

    def test_network_abort_is_idempotent_and_sticky(self):
        net = Network(2)
        net.abort(RuntimeError("first"))
        net.abort(RuntimeError("second"))
        assert net.aborted
        with pytest.raises(CommError, match="first"):
            net._check_abort()


class TestDeadlockDiagnosability:
    def test_blocked_report_names_ranks_ops_and_clocks(self):
        def prog(comm):
            comm.compute(1e-6 * (comm.rank + 1))
            # 0 waits on 1 (never sent), 1 waits on 0 with the wrong tag
            comm.recv(source=1 - comm.rank, tag=10 + comm.rank)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner="coop")
        # the wrapped/original DeadlockError carries the structured report
        msg = str(ei.value)
        assert "waiting on" in msg and "can never match" in msg
        assert "recv(source=1, tag=10)" in msg
        assert "recv(source=0, tag=11)" in msg
        assert "t=" in msg  # per-rank simulated clocks in the message

    def test_deadlock_error_blocked_structure(self):
        """The DeadlockError aborting the section carries a structured
        ``blocked`` report (one entry per parked rank)."""
        holder = {}

        def prog(comm):
            holder["net"] = comm.net
            comm.recv(source=(comm.rank + 1) % 2, tag=42 + comm.rank)

        with pytest.raises(RankFailedError):
            run_spmd(2, prog, runner="coop")
        exc = holder["net"]._abort_exc
        assert isinstance(exc, DeadlockError)
        assert len(exc.blocked) == 2
        for entry in sorted(exc.blocked, key=lambda d: d["rank"]):
            assert entry["op"] == "recv"
            assert entry["source"] == (entry["rank"] + 1) % 2
            assert entry["tag"] == 42 + entry["rank"]
            assert entry["clock"] >= 0.0

    @pytest.mark.parametrize("p", [3, 5])
    def test_ring_deadlock_reports_every_parked_rank(self, p):
        """Every rank waits on a message its neighbour never sends: the
        detector names all ``p`` parked receives."""
        holder = {}

        def prog(comm):
            holder["net"] = comm.net
            comm.recv((comm.rank + 1) % comm.size, 9)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(p, prog, runner="coop")
        assert "can never match" in str(ei.value)
        exc = holder["net"]._abort_exc
        assert isinstance(exc, DeadlockError)
        assert sorted(e["rank"] for e in exc.blocked) == list(range(p))
        assert all(entry["op"] == "recv" for entry in exc.blocked)

    def test_rendezvous_deadlock_reports_collective_sig(self):
        def prog(comm):
            if comm.rank == 0:
                return "left early"
            try:
                collectives.allreduce(comm, np.ones(8, np.float32))
            except CommError as e:
                raise e

        with pytest.raises(RankFailedError) as ei:
            run_spmd(2, prog, runner="coop", fused=True)
        assert "rendezvous" in str(ei.value)

    def test_survivors_shrink_after_revoke(self):
        """After a revoke, survivors blocked on the dead rank detect the
        failure and can shrink to a working 2-rank world."""
        def prog(comm):
            if comm.rank == 0:
                comm.net.revoke(0)
                return "dead"
            try:
                comm.recv(source=0, tag=1)
            except RankFailedError as e:
                assert e.failed_ranks == (0,)
                sub = comm.shrink()
                return ("shrunk", sub.size)

        res = run_spmd(3, prog, runner="coop")
        assert res.results[0] == "dead"
        assert res.results[1] == ("shrunk", 2)
        assert res.results[2] == ("shrunk", 2)


class TestPlannedCrash:
    @pytest.mark.parametrize("runner,fused", [("coop", True), ("coop", False),
                                              ("threads", None)])
    def test_crash_inside_allreduce_reported(self, runner, fused):
        """A rank that crashes at its first message of a dense allreduce
        is reported as crashed on every execution path."""
        plan = FaultPlan(crashes=[RankCrash(rank=2, time=0.0)])

        def prog(comm):
            return collectives.allreduce(comm, np.ones(64, np.float32))

        with pytest.raises(RankFailedError) as ei:
            run_spmd(4, prog, runner=runner, fused=fused, faults=plan)
        assert isinstance(ei.value.failures[2], SimulatedRankCrash)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_planned_crash_reported_to_survivors(self, runner):
        """Survivors that talk to the dead rank get a RankFailedError;
        the launcher reports the crash under the dead rank."""
        plan = FaultPlan(crashes=[RankCrash(rank=1, time=0.0)])

        def prog(comm):
            comm.send(np.ones(4, np.float32), (comm.rank + 1) % comm.size, 1)
            return float(comm.recv((comm.rank - 1) % comm.size, 1).sum())

        with pytest.raises(RankFailedError) as ei:
            run_spmd(3, prog, runner=runner, faults=plan)
        assert isinstance(ei.value.failures[1], SimulatedRankCrash)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_elastic_crash_with_indifferent_survivors(self, runner):
        """Survivors that never touch the dead rank finish normally: the
        section succeeds and reports the crash in ``SpmdResult.crashed``."""
        plan = FaultPlan(crashes=[RankCrash(rank=2, time=0.0)])

        def prog(comm):
            if comm.rank == 2:
                comm.send(np.ones(2, np.float32), 0, 5)  # crashes here
                return None
            peer = 1 - comm.rank
            comm.send(comm.rank, peer, 1)
            return comm.recv(peer, 1)

        res = run_spmd(3, prog, runner=runner, faults=plan)
        assert list(res.crashed) == [2]
        assert res.results[0] == 1 and res.results[1] == 0
