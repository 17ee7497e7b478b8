"""Batched link-booking API: bit-identity with per-message booking,
closed-form occupancy scan, and the async-region issue-at-time hook."""

import numpy as np
import pytest

from repro.comm import NetworkModel, run_spmd

RUNNERS = ("coop", "threads")


# ---------------------------------------------------------------------------
# NetworkModel scan primitives
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


class TestSerializeBatch:
    def _random_case(self, rng, n):
        free = float(rng.uniform(0, 1e-3))
        avail = np.sort(rng.uniform(0, 2e-3, size=n))
        nwords = rng.integers(0, 5000, size=n)
        return free, avail, nwords

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_identical_to_scalar_fold(self, seed):
        """serialize_batch must reproduce message-by-message booking
        exactly (not approximately) in every regime: saturated, idle and
        mixed batches all hit it through waitall/isend_batch."""
        m = NetworkModel()
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 40):
            free, avail, nwords = self._random_case(rng, n)
            starts, ends = m.serialize_batch(free, avail, nwords)
            ref_s, ref_e = _fold(free, avail, nwords, m.beta)
            assert np.array_equal(starts, ref_s)
            assert np.array_equal(ends, ref_e)

    def test_saturated_regime(self):
        m = NetworkModel()
        nwords = np.array([1000, 2000, 500])
        avail = np.zeros(3)
        starts, ends = m.serialize_batch(1.0, avail, nwords)
        ref_s, ref_e = _fold(1.0, avail, nwords, m.beta)
        assert np.array_equal(ends, ref_e) and np.array_equal(starts, ref_s)

    def test_idle_regime(self):
        m = NetworkModel()
        nwords = np.array([10, 10, 10])
        avail = np.array([1.0, 2.0, 3.0])
        starts, ends = m.serialize_batch(0.0, avail, nwords)
        assert np.array_equal(starts, avail)
        assert np.array_equal(ends, avail + m.beta * nwords)

    def test_empty_batch(self):
        m = NetworkModel()
        starts, ends = m.serialize_batch(0.5, np.empty(0), np.empty(0))
        assert starts.size == 0 and ends.size == 0


class TestSerializeStacked:
    """The stacked fold books P links at once; every row must carry the
    bits of its own ``serialize_batch`` call and of the scalar fold."""

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
                for ref in (model.serialize_batch(free[r], avail[r],
                                                  nwords[r]),
                            _fold(free[r], avail[r], nwords[r], model.beta)):
                    assert np.array_equal(starts[r], ref[0])
                    assert np.array_equal(ends[r], ref[1])

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
# isend_batch == sequential isend (clocks, traffic, payloads)
# ---------------------------------------------------------------------------
def _exchange_prog(comm, batched):
    p, r = comm.size, comm.rank
    rng = np.random.default_rng(r)
    total = 0.0
    for _ in range(3):
        reqs, sends = [], []
        for s in range(1, p):
            reqs.append(comm.irecv((r - s) % p, 9))
            payload = rng.normal(
                size=int(rng.integers(1, 3000))).astype(np.float32)
            if batched:
                sends.append((payload, (r + s) % p, 9))
            else:
                reqs.append(comm.isend(payload, (r + s) % p, 9))
        if batched:
            reqs.extend(comm.isend_batch(sends))
        got = comm.waitall(reqs)
        total += sum(float(g.sum()) for g in got if g is not None)
        comm.compute(1e-7 * r)  # stagger clocks -> mixed link regimes
    return total, comm.clock


class TestIsendBatch:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_bit_identical_to_isend_loop(self, runner):
        for model in (NetworkModel(),
                      NetworkModel(o_inject=3e-8, o_send=1e-8),
                      NetworkModel.commodity()):
            seq = run_spmd(5, _exchange_prog, False, model=model,
                           runner=runner)
            bat = run_spmd(5, _exchange_prog, True, model=model,
                           runner=runner)
            assert list(seq.results) == list(bat.results)
            assert [seq.network.clocks[i] for i in range(5)] == \
                   [bat.network.clocks[i] for i in range(5)]
            for field in ("words_sent", "words_recv", "msgs_sent",
                          "msgs_recv"):
                assert np.array_equal(getattr(seq.stats, field),
                                      getattr(bat.stats, field))

    def test_empty_batch_is_noop(self):
        def prog(comm):
            clock0 = comm.clock
            assert comm.isend_batch([]) == []
            return comm.clock == clock0

        assert all(run_spmd(2, prog).results)

    def test_wakes_blocked_receiver(self):
        """A rank already parked in recv() must be woken by a message
        posted mid-batch (the engine's on_post_batch hook)."""
        def prog(comm):
            if comm.rank == 0:
                payloads = [(np.full(4, i, np.float32), 1, i)
                            for i in range(3)]
                for req in comm.isend_batch(payloads):
                    req.wait()
                return None
            # rank 1 blocks on the *last* tag first
            out = [comm.recv(0, tag) for tag in (2, 0, 1)]
            return [float(v[0]) for v in out]

        res = run_spmd(2, prog)
        assert res[1] == [2.0, 0.0, 1.0]

    def test_loaned_buffer_write_locked_in_flight(self):
        """Zero-copy loans survive the batched path: mutating a sent
        buffer before delivery raises instead of corrupting the
        receiver."""
        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(64, dtype=np.float32)
                comm.isend_batch([(buf, 1, 0)])
                with pytest.raises(ValueError):
                    buf[0] = 7.0          # on loan: write-locked
                comm.send(None, 1, 1)     # let the receiver proceed
                return None
            comm.recv(0, 1)
            got = comm.recv(0, 0)
            return float(got.sum())

        assert run_spmd(2, prog)[1] == 64.0


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
