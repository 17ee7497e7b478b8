"""Link booking against the scalar fold: the per-message ``post`` /
``deliver`` chain, the slow-link fold and the fused executors' stacked
fold; ``waitall``'s arrival-order delivery; and the async-region
issue-at-time hook."""

import numpy as np
import pytest

from repro.comm import NetworkModel, run_spmd
from repro.comm.network import Network

RUNNERS = ("coop", "threads")


# ---------------------------------------------------------------------------
# NetworkModel.serialize_stacked
# ---------------------------------------------------------------------------
def _fold(free, avail, nwords, beta):
    """Reference scalar fold: end_i = max(end_{i-1}, avail_i) + b_i."""
    end = free
    starts, ends = [], []
    for a, n in zip(avail, nwords):
        if a > end:
            end = a
        starts.append(end)
        end = end + beta * float(n)
        ends.append(end)
    return np.array(starts), np.array(ends)


class TestPostDeliverFold:
    """``Network.post`` books the egress link and ``deliver`` the ingress
    link one message at a time; either chain must carry the bits of the
    scalar fold, as must ``_serialize_link`` with no slow window."""

    def _random_case(self, rng, n):
        free = float(rng.uniform(0, 1e-3))
        avail = np.sort(rng.uniform(0, 2e-3, size=n))
        nwords = rng.integers(0, 5000, size=n)
        return free, avail, nwords

    def _book(self, model, free, avail, nwords):
        """Post the batch from ranks 0 and 2 to rank 1, then deliver both
        in arrival order; returns rank 0's egress ``(starts, ends)``, the
        delivered messages and the receiver's link start."""
        net = Network(3, model)
        net.egress_free[0] = net.egress_free[2] = free
        in_free = net.ingress_free[1] = free + 1e-3
        msgs, ends = [], []
        for src in (0, 2):
            for a, n in zip(avail.tolist(), nwords.tolist()):
                msg, done = net.post(src, 1, 0, None, n, a)
                msgs.append(msg)
                if src == 0:
                    ends.append(done - model.o_send)
        starts = np.array([m.t_start_tx for m in msgs[:len(ends)]])
        msgs.sort(key=lambda m: (m.t_first, m.src))
        for msg in msgs:
            assert net.deliver(msg) == msg.t_done
        return starts, np.array(ends), msgs, in_free

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_identical_to_scalar_fold(self, seed):
        model = NetworkModel()
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 40):
            free, avail, nwords = self._random_case(rng, n)
            starts, ends, msgs, in_free = self._book(model, free, avail,
                                                     nwords)
            ref_s, ref_e = _fold(free, avail, nwords, model.beta)
            assert np.array_equal(starts, ref_s)
            assert np.array_equal(ends, ref_e)
            link_s, link_e = Network(2, model)._serialize_link(
                [], free, avail, nwords)
            assert np.array_equal(link_s, ref_s)
            assert np.array_equal(link_e, ref_e)
            _, ref_done = _fold(in_free, np.array([m.t_first for m in msgs]),
                                np.array([m.nwords for m in msgs]),
                                model.beta)
            assert np.array_equal([m.t_done for m in msgs], ref_done)

    def test_saturated_regime(self):
        model = NetworkModel()
        nwords = np.array([1000, 2000, 500])
        avail = np.zeros(3)
        starts, ends, _, _ = self._book(model, 1.0, avail, nwords)
        ref_s, ref_e = _fold(1.0, avail, nwords, model.beta)
        assert np.array_equal(starts, ref_s) and np.array_equal(ends, ref_e)
        assert starts[0] == 1.0 and np.array_equal(starts[1:], ends[:-1])

    def test_idle_regime(self):
        model = NetworkModel()
        nwords = np.array([10, 10, 10])
        avail = np.array([1.0, 2.0, 3.0])
        starts, ends, _, _ = self._book(model, 0.0, avail, nwords)
        assert np.array_equal(starts, avail)
        assert np.array_equal(ends, avail + model.beta * nwords)


class TestSerializeStacked:
    """The stacked fold books P links at once; every row must carry the
    bits of the scalar fold."""

    def _rows(self, rng, p, m):
        """``p`` links of ``m`` messages: saturated rows (everything
        waiting), idle rows (gaps longer than any message), mixed rows."""
        free = rng.uniform(0, 1e-3, size=p)
        nwords = rng.integers(0, 5000, size=(p, m)).astype(np.float64)
        avail = np.sort(rng.uniform(0, 2e-3, size=(p, m)), axis=1)
        regime = rng.integers(0, 3, size=p)
        avail[regime == 0] = 0.0
        avail[regime == 1] = (free[regime == 1, None] + 1e-3
                              + 1e-3 * np.arange(m))
        return free, avail, nwords

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_are_bitwise_the_scalar_fold(self, seed):
        model = NetworkModel()
        rng = np.random.default_rng(seed)
        for p, m in ((1, 1), (3, 2), (16, 8), (5, 15)):
            free, avail, nwords = self._rows(rng, p, m)
            starts, ends = model.serialize_stacked(free, avail, nwords)
            for r in range(p):
                ref_s, ref_e = _fold(free[r], avail[r], nwords[r], model.beta)
                assert np.array_equal(starts[r], ref_s)
                assert np.array_equal(ends[r], ref_e)

    @pytest.mark.parametrize("seed", range(8))
    def test_padding_is_neutral_wherever_it_sits(self, seed):
        """Ragged rows: ``nwords = 0``, ``avail = -inf`` filler changes no
        real booking and leaves the link where the real messages did — a
        row of nothing but filler leaves it untouched."""
        model = NetworkModel()
        rng = np.random.default_rng(seed)
        p, m = 6, 9
        free, avail, nwords = self._rows(rng, p, m)
        pad = rng.random((p, m)) < 0.4
        pad[0] = True                       # a rank that sends nothing
        pad[1] = False
        avail[pad], nwords[pad] = -np.inf, 0.0
        starts, ends = model.serialize_stacked(free, avail, nwords)
        for r in range(p):
            real = ~pad[r]
            ref_s, ref_e = _fold(free[r], avail[r, real], nwords[r, real],
                                 model.beta)
            assert np.array_equal(starts[r, real], ref_s)
            assert np.array_equal(ends[r, real], ref_e)
            assert ends[r, -1] == (ref_e[-1] if real.any() else free[r])

    def test_writes_the_buffers_it_is_given(self):
        model = NetworkModel()
        free, avail, nwords = self._rows(np.random.default_rng(0), 4, 5)
        buf = np.full((2, 4, 7), np.nan)
        starts, ends = model.serialize_stacked(free, avail, nwords,
                                               buf[0, :, :5], buf[1, :, :5])
        assert np.shares_memory(starts, buf) and np.shares_memory(ends, buf)
        ref = model.serialize_stacked(free, avail, nwords)
        assert np.array_equal(starts, ref[0])
        assert np.array_equal(ends, ref[1])
        assert np.isnan(buf[:, :, 5:]).all()


# ---------------------------------------------------------------------------
# waitall: ingress bookings in arrival order
# ---------------------------------------------------------------------------
def _exchange_prog(comm, reverse):
    """Three all-to-all rounds of ragged isends; ``waitall`` gets the
    round's requests as posted or reversed.  Returns the per-request
    payload sums in posted order and the final clock."""
    p, r = comm.size, comm.rank
    rng = np.random.default_rng(r)
    sums = []
    for _ in range(3):
        reqs = []
        for s in range(1, p):
            reqs.append(comm.irecv((r - s) % p, 9))
            payload = rng.normal(
                size=int(rng.integers(1, 3000))).astype(np.float32)
            reqs.append(comm.isend(payload, (r + s) % p, 9))
        if reverse:
            got = comm.waitall(reqs[::-1])[::-1]
        else:
            got = comm.waitall(reqs)
        sums.append([None if g is None else float(g.sum()) for g in got])
        comm.compute(1e-7 * r)  # stagger clocks -> mixed link regimes
    return sums, comm.clock


class TestWaitall:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_independent_of_request_order(self, runner):
        """Ingress slots are booked in arrival order, so the order the
        caller lists the requests in moves no clock, byte or payload."""
        for model in (NetworkModel(),
                      NetworkModel(o_inject=3e-8, o_send=1e-8),
                      NetworkModel.commodity()):
            fwd = run_spmd(5, _exchange_prog, False, model=model,
                           runner=runner)
            rev = run_spmd(5, _exchange_prog, True, model=model,
                           runner=runner)
            assert list(fwd.results) == list(rev.results)
            assert [fwd.network.clocks[i] for i in range(5)] == \
                   [rev.network.clocks[i] for i in range(5)]
            for field in ("words_sent", "words_recv", "msgs_sent",
                          "msgs_recv"):
                assert np.array_equal(getattr(fwd.stats, field),
                                      getattr(rev.stats, field))

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_clock_ends_at_last_delivery(self, runner):
        """The receiver's clock lands on its latest ingress completion,
        and its deliveries are booked in order of first arrival."""
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(src, 3) for src in (3, 1, 2)]
                comm.waitall(reqs)
                return comm.clock
            comm.compute(1e-6 * (4 - comm.rank))
            comm.isend(np.ones(500 * comm.rank, np.float32), 0, 3).wait()
            return None

        res = run_spmd(4, prog, trace=True, runner=runner)
        recs = [t for t in res.network.trace if t.dst == 0]
        assert len(recs) == 3
        assert res[0] == max(t.t_done for t in recs)
        firsts = [t.t_first for t in recs]
        assert firsts == sorted(firsts)

    def test_empty_waitall_is_noop(self):
        def prog(comm):
            clock0 = comm.clock
            assert comm.waitall([]) == []
            return comm.clock == clock0

        assert all(run_spmd(2, prog).results)

    def test_isend_wakes_blocked_receiver(self):
        """A rank already parked in recv() is woken by the message an
        isend loop posts for it, wherever in the loop that is."""
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.isend(np.full(4, i, np.float32), 1, i)
                        for i in range(3)]
                for req in reqs:
                    req.wait()
                return None
            # rank 1 blocks on the *last* tag first
            out = [comm.recv(0, tag) for tag in (2, 0, 1)]
            return [float(v[0]) for v in out]

        res = run_spmd(2, prog)
        assert res[1] == [2.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# AsyncRegion: issue-at-time hook
# ---------------------------------------------------------------------------
class TestAsyncRegion:
    def test_rewinds_clock_and_keeps_bookings(self):
        def prog(comm):
            peer = 1 - comm.rank
            t0 = comm.clock
            with comm.async_region() as region:
                comm.send(np.ones(1000, np.float32), peer, 0)
                comm.recv(peer, 0)
            assert region.issue == t0
            assert region.finish > t0
            assert comm.clock == t0          # rolled back
            # the egress link stayed booked: a later message queues
            # behind the region's transfer
            msg, _ = comm.net.post(comm.rank, peer, 1, None, 10, comm.clock)
            assert msg.t_start_tx >= region.issue
            comm.recv(peer, 1)
            # joining the region moves the clock forward again
            comm._advance_clock(region.finish)
            assert comm.clock >= region.finish
            return True

        assert all(run_spmd(2, prog).results)

    def test_exception_leaves_clock_in_place(self):
        def prog(comm):
            comm.compute(1.0)
            try:
                with comm.async_region():
                    comm.compute(2.0)
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            return comm.clock

        assert run_spmd(1, prog)[0] == pytest.approx(3.0)
