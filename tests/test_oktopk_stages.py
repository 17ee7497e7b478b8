"""Ok-Topk's data kernel (:func:`repro.allreduce.oktopk.stages`) on its
own: no network, no communicator, no clock.

* It runs on numpy arrays, a scheme and :class:`OkTopkState`\\ s alone.
* Table 1's executed volume: what the kernel's packages and pieces put
  on the wire stays under the paper's ``6k (P-1)/P`` words per rank, at
  world sizes the threaded runners would make slow.
* Stage identity: row ``r`` of the kernel agrees with rank ``r`` of the
  per-rank reference driver at every stage the reference exposes
  (thresholds, selected count, guard trips, boundaries, the balance
  decision, ``u_t``, contributed indices and the state counters).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.allreduce import OkTopkAllreduce, OkTopkState, make_allreduce
from repro.allreduce.oktopk import book, stages
from repro.comm import Network, SimComm, run_spmd
from repro.errors import RankFailedError


def _rows(p, n, seed):
    return np.random.default_rng(seed).standard_normal(
        (p, n)).astype(np.float32)


def _received(stg, e=0):
    """Words each rank receives in extent ``e``'s split-and-reduce,
    balancing and final allgatherv (not the consensus allreduce, the size
    exchange or the tau' gather of reduced values)."""
    count = stg.count[e]
    recv = 2 * (count.sum(axis=0) - count.diagonal())
    if stg.rows[e] is not None:
        rows = np.array(stg.rows[e])
        recv += rows.sum(axis=0) - rows.diagonal()
    wire = np.array(stg.words[e])
    return recv + wire.sum() - wire


def test_the_kernel_needs_no_network(monkeypatch):
    """Arrays, a scheme and states in; a record out.  Building a
    ``Network`` or a ``SimComm`` on the way fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel built a network object")

    monkeypatch.setattr(Network, "__init__", refuse)
    monkeypatch.setattr(SimComm, "__init__", refuse)
    p, n, k = 4, 256, 10
    scheme = OkTopkAllreduce(k=k)
    states = [[OkTopkState(n) for _ in range(p)]]
    for t in (1, 2):
        stg = stages(scheme, _rows(p, n, t), [(0, n, k)], states, t)
        stg.update.validate()
        assert 0 < stg.update.nnz
        for r, mine in enumerate(stg.contributed):
            assert np.isin(mine, stg.update.indices).all()
            assert stg.infos[0][r]["selected_local"] >= mine.size
    assert states[0][0].local_evaluations == 1        # t = 2 reused it
    with pytest.raises(dataclasses.FrozenInstanceError):
        stg.update = None


class TestTable1Volume:
    """Words received per rank, split-and-reduce + balancing + final
    allgatherv, against Table 1's ``6k (P-1)/P`` bound."""

    @pytest.mark.parametrize("p", [16, 64])
    def test_executed_volume_within_the_bound(self, p):
        n = p * 2048
        k = n // 100
        scheme = OkTopkAllreduce(k=k)
        states = [[OkTopkState(n) for _ in range(p)]]
        bound = 6 * k * (p - 1) / p
        # t = 1 evaluates every threshold, t = 2 reuses them
        for t in (1, 2):
            stg = stages(scheme, _rows(p, n, 100 * p + t), [(0, n, k)],
                         states, t)
            assert (_received(stg) <= bound).all(), (
                t, _received(stg).max() / bound)
        assert states[0][0].local_evaluations == 1

    def test_received_words_match_the_booked_traffic(self):
        """At an iteration with neither tau nor tau' due, the booking
        pass receives :func:`_received`'s words plus the P - 1 words of
        the size exchange, rank by rank."""
        p, n, k = 4, 512, 20
        net = Network(p)
        comms = [SimComm(net, r) for r in range(p)]
        scheme = OkTopkAllreduce(k=k, balance_trigger=1.2)
        states = [[OkTopkState(n) for _ in range(p)]]
        for t in (1, 2):
            before = np.array(net.words_recv[:p])
            stg = stages(scheme, _rows(p, n, t), [(0, n, k)], states, t)
            book(net, comms, stg, 0)
        got = np.array(net.words_recv[:p]) - before
        np.testing.assert_array_equal(got, _received(stg) + p - 1)


# ---------------------------------------------------------------------------
# Stage identity against the per-rank reference driver
# ---------------------------------------------------------------------------
KINDS = ("normal", "normal", "zero", "nan", "inf", "loud")


def _mats(p, n, kinds, seed):
    """One ``(P, n)`` matrix per iteration, rank ``r``'s row of kind
    ``kinds[t][r]``: N(0, 1), all zero, N(0, 1) with one NaN or one
    ``+inf``, or 1000x louder (a reused threshold over-selects)."""
    rng = np.random.default_rng(seed)
    mats = []
    for row_kinds in kinds:
        m = rng.standard_normal((p, n)).astype(np.float32)
        for r, kind in enumerate(row_kinds):
            if kind == "zero":
                m[r] = 0.0
            elif kind == "nan":
                m[r, rng.integers(n)] = np.nan
            elif kind == "inf":
                m[r, rng.integers(n)] = np.inf
            elif kind == "loud":
                m[r] *= np.float32(1000.0)
        mats.append(m)
    return mats


def _snapshot(state):
    return dataclasses.replace(state)


def _reference(comm, scheme, kwargs, mats, extents):
    """The per-rank driver (message by message) over ``extents`` in the
    given order, on this rank's rows: per iteration and extent, the
    result, whether the guard tripped and the state after it."""
    algo = make_allreduce(scheme, **kwargs)
    states = [OkTopkState(hi - lo) for lo, hi, _ in extents]
    out = []
    for t, m in enumerate(mats, 1):
        row = m[comm.rank]
        per = []
        for (lo, hi, k), state in zip(extents, states):
            guards = state.guard_evaluations
            res = algo._algorithm1(comm, row[lo:hi], t, k, state, lo)
            per.append((res, state.guard_evaluations > guards,
                        _snapshot(state)))
        out.append(per)
    return out


def _same(a, b) -> bool:
    """Equal, NaN equal to NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _assert_row_matches(stg, states, ref, r, extents):
    """Kernel row ``r`` against rank ``r``'s reference outcome ``ref``
    (one iteration, every extent)."""
    for e, (res, trip, state) in enumerate(ref):
        mine, want = stg.infos[e][r], res.info
        for key in ("local_threshold", "selected_local", "boundaries",
                    "global_threshold", "balancing_triggered", "k"):
            assert _same(mine[key], want[key]), (e, key)
        assert stg.guard_trips[e][r] == trip, e
        assert all(_same(x, y) for x, y in zip(
            dataclasses.astuple(states[e][r]), dataclasses.astuple(state)))
    order = sorted(range(len(extents)), key=lambda e: extents[e][0])
    upd = [ref[e][0].update for e in order]
    lo = [extents[e][0] for e in order]
    np.testing.assert_array_equal(
        stg.update.indices,
        np.concatenate([u.indices + a for u, a in zip(upd, lo)]))
    np.testing.assert_array_equal(
        stg.update.values, np.concatenate([u.values for u in upd]))
    np.testing.assert_array_equal(
        stg.contributed[r],
        np.concatenate([ref[e][0].contributed_indices + a
                        for e, a in zip(order, lo)]))


@st.composite
def _cases(draw):
    p = draw(st.sampled_from([1, 2, 3, 8, 16]))
    n = draw(st.integers(8, 160))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    bounds = [0, *cuts, n]
    extents = [(lo, hi, draw(st.integers(1, hi - lo)))
               for lo, hi in zip(bounds, bounds[1:])]
    if draw(st.booleans()):
        extents.reverse()               # plan order: last bucket first
    iters = draw(st.integers(2, 4))
    kinds = [[draw(st.sampled_from(KINDS)) for _ in range(p)]
             for _ in range(iters)]
    kwargs = {"k": 1, "tau": draw(st.integers(1, 3)),
              "tau_prime": draw(st.integers(1, 3)),
              "balance_trigger": draw(st.sampled_from([0.5, 1.2, 4.0])),
              "balanced_partition": draw(st.booleans())}
    scheme = draw(st.sampled_from(["oktopk", "oktopk_q"]))
    return p, n, extents, kinds, kwargs, scheme, draw(st.integers(0, 99))


@given(case=_cases())
@example(case=(1, 40, [(20, 40, 4), (0, 20, 3)], [["normal"]] * 3,
               {"k": 1, "tau": 2, "tau_prime": 2}, "oktopk_q", 1))
@example(case=(2, 16, [(0, 16, 16)], [["inf", "normal"]] * 2, {"k": 1},
               "oktopk_q", 0))
@settings(max_examples=60, deadline=None)
def test_every_stage_matches_the_per_rank_driver(case):
    """P in {1, 2, 3, 8, 16}, one to three extents in either order,
    tau / tau' of 1-3 over 2-4 iterations (due and reused thresholds,
    repartitions), all-zero, NaN, +inf and loud rows (the degenerate
    path and guard trips), for ``oktopk`` and ``oktopk_q``.  Each rank
    of the kernel has its own scheme, so a stochastic quantizer draws
    from that rank's generator, as on the reference path; ``P = 1``
    ships without the codec on both.  ``oktopk_q`` has no code for a
    non-finite value: where one reaches a package both sides fail with
    the codec's ``ValueError``."""
    p, n, extents, kinds, kwargs, scheme, seed = case
    mats = _mats(p, n, kinds, seed)
    schemes = [make_allreduce(scheme, **kwargs) for _ in range(p)]
    states = [[OkTopkState(hi - lo) for _ in range(p)]
              for lo, hi, _ in extents]
    records = []
    for t, m in enumerate(mats, 1):
        try:
            records.append((stages(schemes, m, extents, states, t),
                            [[_snapshot(s) for s in sts] for sts in states]))
        except ValueError:
            assert scheme == "oktopk_q" and not np.isfinite(m).all()
            with pytest.raises(RankFailedError):
                run_spmd(p, _reference, scheme, kwargs, mats[:t], extents,
                         runner="coop", fused=False)
            break
    ref = run_spmd(p, _reference, scheme, kwargs, mats[:len(records)],
                   extents, runner="coop", fused=False).results
    for t, (stg, snaps) in enumerate(records):
        for r in range(p):
            _assert_row_matches(stg, snaps, ref[r][t], r, extents)
