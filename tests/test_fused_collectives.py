"""Fused collective fast path: schedule-compiler properties and the
three-way bit-identity oracle (fused-coop == per-message-coop == threads).

The fused path (``repro.comm.fused``) must be *indistinguishable* from the
per-message reference in everything the simulator observes: results,
per-rank traffic counters, link occupancy and simulated clocks/makespans —
for every collective, power-of-two and non-power-of-two P, object and
array payloads, the schemes built on top, and fused collectives issued
inside ``async_region`` under stream-mode contention.

The same oracle holds under fault plans (ISSUE 17): slowdowns and
stragglers are factors the replay applies, a shrunk world replays through
a slot translation, and only the iteration a crash interrupts runs per
message — so the plan matrix below also counts rendezvous entries per
phase, and a silent fallback to the reference path fails a test.

Ok-Topk's fast path is one rendezvous per reduction whose executor runs
Algorithm 1 for the whole world (ISSUE 18): ``TestOkTopkWorldExecutor``
holds it to the same oracle — results, ``OkTopkState``, bucket stats,
phase times and the network state — over both schemes, every execution
mode, every data-dependent branch, a plan and a shrink, and counts the
rendezvous entries.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allreduce import ParamLayout, make_allreduce
from repro.allreduce import oktopk as oktopk_mod
from repro.allreduce.schedule import buckets, compile_split_reduce, \
    make_steps
from repro.allreduce.session import run_session
from repro.bench.harness import perf_proxy, proxy_network
from repro.comm import Network, NetworkModel, collectives as coll, \
    fusion_enabled, run_spmd
from repro.comm import fused as fused_mod
from repro.comm.faults import (ComputeStraggler, FaultPlan, LinkSlowdown,
                               RankCrash)
from repro.data import ShardedLoader
from repro.errors import RankFailedError
from repro.sparse import COOVector, exact_topk
from repro.train import Trainer, TrainerConfig

PS = [2, 3, 4, 5, 8]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def net_state(res):
    """Everything a section leaves on the network, plus who died:
    clocks, link occupancy, traffic counters, the whole provenance log
    and the crashed set."""
    net = res.network
    return (list(net.clocks), list(net.egress_free),
            list(net.ingress_free), list(net.words_sent),
            list(net.words_recv), list(net.msgs_sent),
            list(net.msgs_recv), dict(net.algorithm_log),
            sorted(res.crashed))


def assert_same(a, b, path=""):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), f"value bits differ at {path}"
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif hasattr(a, "indices") and hasattr(a, "values"):  # COOVector
        assert_same(a.indices, b.indices, f"{path}.indices")
        assert_same(a.values, b.values, f"{path}.values")
    else:
        # a NaN threshold equals itself here
        assert a == b or a != a and b != b, f"{path}: {a!r} != {b!r}"


def three_way(prog, p, *args, model=None, faults=None, log=None):
    """Run under fused coop / reference coop / threads; assert identical
    network state and results; return the fused run.  ``log`` (the
    ``rendezvous_log`` fixture) additionally pins which of the three
    entered the engine rendezvous: the fused run did, the others never."""
    kwargs = dict(model=model, faults=faults)
    a = run_spmd(p, prog, *args, runner="coop", fused=True, **kwargs)
    if log is not None:
        assert log, f"fused run never entered the rendezvous (P={p})"
        del log[:]
    b = run_spmd(p, prog, *args, runner="coop", fused=False, **kwargs)
    c = run_spmd(p, prog, *args, runner="threads", **kwargs)
    assert not log, "a reference run entered the rendezvous"
    sa = net_state(a)
    assert sa == net_state(b), f"fused vs reference state differs (P={p})"
    assert sa == net_state(c), f"fused vs threads state differs (P={p})"
    assert_same(list(a.results), list(b.results), f"P={p} ref")
    assert_same(list(a.results), list(c.results), f"P={p} threads")
    return a


# ---------------------------------------------------------------------------
# Schedule compiler properties: the compiled message schedule matches the
# executed per-message collective (message multiset and volumes, via the
# reference path's trace)
# ---------------------------------------------------------------------------
def _traced_messages(prog, p, *args):
    """Messages (src, dst, nwords, tag) of the per-message reference run
    (tracing disables fusion automatically)."""
    res = run_spmd(p, prog, *args, runner="coop", trace=True)
    return Counter((t.src, t.dst, t.nwords, t.tag)
                   for t in res.network.trace)


def _uneven_sizes(p, seed):
    """Seeded uneven word counts for ``p`` ranks, about a third (and at
    least one) of them zero."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, p) * (rng.random(p) > 0.35)
    sizes[seed % p] = 0
    return tuple(sizes.tolist())


def _assert_int_totals(sched):
    """Per-rank totals are Python ints, like the counters they add to."""
    for name in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
        assert all(type(v) is int for v in getattr(sched, name)), name


class TestScheduleCompiler:
    @pytest.mark.parametrize("p", PS + [16])
    @pytest.mark.parametrize("algo,n,wpe", [
        ("recursive_doubling", 129, 1),
        ("recursive_doubling", 7, 2),
        ("rabenseifner", 257, 1),
        ("rabenseifner", 64, 1),
        # fewer elements than core ranks: empty halving leaves
        ("recursive_doubling", 1, 1),
        ("recursive_doubling", 3, 1),
        ("rabenseifner", 1, 1),
        ("rabenseifner", 3, 1),
    ])
    def test_allreduce_schedule_matches_trace(self, p, algo, n, wpe):
        dtype = np.float32 if wpe == 1 else np.float64

        def prog(comm):
            arr = np.arange(n, dtype=dtype) + comm.rank
            table = {"recursive_doubling": coll.allreduce_recursive_doubling,
                     "rabenseifner": coll.allreduce_rabenseifner}
            table[algo](comm, arr)

        sched = fused_mod.compile_allreduce(p, n, wpe, algo)
        assert Counter(sched.messages()) == _traced_messages(prog, p)

    @pytest.mark.parametrize("p", PS + [16])
    @pytest.mark.parametrize("n", [101, 3])   # 3 < P: empty ring blocks
    def test_ring_schedules_match_trace(self, p, n):
        def prog(comm):
            coll.allreduce_ring(comm, np.arange(n, dtype=np.float32))

        rs = fused_mod.compile_reduce_scatter_ring(p, n, 1)
        ag = fused_mod.compile_allgather_ring(p, n, 1)
        assert (Counter(rs.messages()) + Counter(ag.messages())
                == _traced_messages(prog, p))

    @pytest.mark.parametrize("p", PS + [16])
    @pytest.mark.parametrize("sizes", ["monotone", "uneven"])
    def test_allgatherv_schedule_matches_trace(self, p, sizes):
        if sizes == "monotone":
            sizes = tuple(r + 2 for r in range(p))
        else:
            sizes = _uneven_sizes(p, p)

        def prog(comm):
            coll.allgatherv(comm, np.arange(sizes[comm.rank],
                                            dtype=np.float32))

        sched = fused_mod.compile_allgatherv(p, sizes)
        assert Counter(sched.messages()) == _traced_messages(prog, p)
        _assert_int_totals(sched)

    @pytest.mark.parametrize("p", PS + [16])
    def test_small_collective_schedules_match_trace(self, p):
        root = p - 1
        # non-uniform alltoallv rows, zero-word blocks included
        rows = tuple(_uneven_sizes(p, 1000 + r) for r in range(p))

        def prog(comm):
            coll.barrier(comm)
            coll.bcast(comm, np.arange(5, dtype=np.float32), root=root)
            coll.reduce(comm, np.arange(4, dtype=np.float32), root=root)
            coll.gather(comm, np.arange(3, dtype=np.float32), root=root)
            coll.scatter(comm,
                         [np.arange(2, dtype=np.float32)] * comm.size
                         if comm.rank == root else None, root=root)
            coll.alltoallv(comm, [np.arange(rows[comm.rank][j],
                                            dtype=np.float32)
                                  for j in range(comm.size)])

        expect = Counter()
        expect += Counter(fused_mod.compile_barrier(p).messages())
        expect += Counter(fused_mod.compile_bcast(p, root, 5).messages())
        expect += Counter(fused_mod.compile_reduce(p, root, 4, 1).messages())
        expect += Counter(
            fused_mod.compile_gather(p, root, (3,) * p).messages())
        expect += Counter(
            fused_mod.compile_scatter(p, root, (2,) * p).messages())
        a2a = fused_mod.compile_alltoallv(p, rows)
        expect += Counter(a2a.messages())
        assert expect == _traced_messages(prog, p)
        _assert_int_totals(a2a)

    @pytest.mark.parametrize("p", PS + [16])
    def test_schedule_totals_are_symmetric(self, p):
        """Every compiled message is delivered: per-rank totals add up."""
        for sched in (fused_mod.compile_allreduce(p, 33, 1, "rabenseifner"),
                      fused_mod.compile_allgatherv(p, tuple(range(1, p + 1))),
                      fused_mod.compile_barrier(p)):
            assert sum(sched.words_sent) == sum(sched.words_recv)
            assert sum(sched.msgs_sent) == sum(sched.msgs_recv)
            assert sum(sched.msgs_sent) == sched.nmsgs


# ---------------------------------------------------------------------------
# The replay's one structural assumption: a round receives only messages it
# posts itself (it keeps each post's t_first for the round alone)
# ---------------------------------------------------------------------------
def _every_compiled_schedule(p, n=37, seed=0):
    """Every ``compile_*`` compiler's schedule(s) at ``p`` ranks over
    ``n`` elements, both end roots, uneven v sizes drawn from ``seed``."""
    sizes = _uneven_sizes(p, p + seed)
    rows = tuple(_uneven_sizes(p, 100 * (seed + 1) + r) for r in range(p))
    scheds = [fused_mod.compile_allreduce(p, n, 1, algo)
              for algo in ("recursive_doubling", "rabenseifner")]
    scheds += [fused_mod.compile_reduce_scatter_ring(p, n, 1),
               fused_mod.compile_allgather_ring(p, n, 1),
               fused_mod.compile_allgatherv(p, sizes),
               fused_mod.compile_alltoallv(p, rows),
               fused_mod.compile_barrier(p)]
    for root in sorted({0, p - 1}):
        scheds += [fused_mod.compile_bcast(p, root, n),
                   fused_mod.compile_reduce(p, root, n, 1),
                   fused_mod.compile_gather(p, root, sizes),
                   fused_mod.compile_scatter(p, root, sizes)]
    return scheds


def _gtopk_schedules(p, monkeypatch, k=8):
    """The schedules gtopk's fused tree replays (its binomial tree, then
    the trailing broadcast) at top-``k``, captured at replay."""
    from repro.allreduce import gtopk as gtopk_mod
    seen = []
    replay = fused_mod.replay

    def capture(net, sched):
        seen.append(sched)
        replay(net, sched)

    payloads = [exact_topk(np.random.default_rng(r).standard_normal(
        64).astype(np.float32), k) for r in range(p)]
    with monkeypatch.context() as patch:
        patch.setattr(fused_mod, "replay", capture)
        gtopk_mod._exec_gtopk_tree(Network(p), ("gtopk_tree", k), payloads)
    return seen


def _assert_rounds_receive_own_posts(sched):
    posted, received = [], []
    for rnd in sched.rounds:
        for k, i, d in rnd.recv:
            assert rnd.post[k][0] == i
            assert d == sched.dst[i]
        posted += [i for i, _ in rnd.post]
        received += [i for _, i, _ in rnd.recv]
    # every message is posted once and received once
    assert sorted(posted) == sorted(received) == list(range(sched.nmsgs))


class TestScheduleStructure:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_every_compiler_receives_only_its_own_posts(self, p):
        for sched in _every_compiled_schedule(p):
            _assert_rounds_receive_own_posts(sched)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_gtopk_tree_receives_only_its_own_posts(self, p, monkeypatch):
        scheds = _gtopk_schedules(p, monkeypatch)
        assert len(scheds) == 2         # the tree, then the broadcast
        for sched in scheds:
            _assert_rounds_receive_own_posts(sched)

    def test_receiving_an_earlier_rounds_post_raises(self):
        b = fused_mod._Builder(3)
        i = b.msg(0, 1, (0, 1), fused_mod.TAG_BCAST)
        b.round(fused_mod._ONEWAY, [i], [])
        j = b.msg(1, 2, (0, 1), fused_mod.TAG_BCAST)
        b.round(fused_mod._ONEWAY, [j], [j, i])
        with pytest.raises(ValueError, match=r"round 1 receives messages "
                                             r"\[0\] it does not post"):
            b.build()

    @pytest.mark.parametrize("p", [5, 8])
    def test_schedules_of_one_structure_share_it(self, p, monkeypatch):
        """The size-free template is built once per structure, whatever
        the sizes: every compiler's schedule of new sizes, and gtopk's
        tree of a new k, is one fill of it — no ``_Builder`` runs."""
        first = (_every_compiled_schedule(p, 100, seed=1)
                 + _gtopk_schedules(p, monkeypatch, k=8))
        built = []

        class CountingBuilder(fused_mod._Builder):
            __slots__ = ()

            def __init__(self, p):
                built.append(p)
                super().__init__(p)

        monkeypatch.setattr(fused_mod, "_Builder", CountingBuilder)
        second = (_every_compiled_schedule(p, 999, seed=2)
                  + _gtopk_schedules(p, monkeypatch, k=5))
        assert not built
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.rounds is b.rounds and a.src is b.src
            if b.nw.any():      # the barrier has no sizes
                assert a.nw.tolist() != b.nw.tolist()


# ---------------------------------------------------------------------------
# Three-way bit identity: every collective, staggered clocks, pending
# point-to-point traffic, object payloads, both payload word sizes
# ---------------------------------------------------------------------------
def _collective_torture(comm):
    p, r = comm.size, comm.rank
    rng = np.random.default_rng(1000 + r)
    comm.compute(r * 3.7e-7)                     # staggered clocks
    req = comm.isend(np.float32([r]), (r + 1) % p, tag=7)  # pending p2p
    root = p - 1
    x = rng.standard_normal(211).astype(np.float32)
    out = [
        coll.allreduce(comm, x, algo="rabenseifner"),
        coll.allreduce(comm, x, algo="recursive_doubling"),
        coll.allreduce(comm, x, algo="ring"),
        coll.allreduce_recursive_doubling(
            comm, np.linspace(0.0, 1.0, p + 1)),     # float64, wpe=2
        coll.bcast(comm, x if r == root else None, root=root),
        coll.reduce(comm, x, root=0),
        coll.allgatherv(comm, x[:r + 1]),
        coll.allgather_object(comm, (r, "tag")),
        coll.alltoallv(comm, [x[j:j + 2] for j in range(p)]),
        coll.gather(comm, x[:4], root=root),
        coll.scatter(comm, [x[j:j + 3] for j in range(p)]
                     if r == 0 else None, root=0),
    ]
    coll.barrier(comm)
    got = comm.recv((r - 1) % p, tag=7)          # drain the pending p2p
    req.wait()
    return out, got, comm.clock


class TestThreeWayBitIdentity:
    @pytest.mark.parametrize("p", PS + [16])
    def test_collectives(self, p):
        three_way(_collective_torture, p)

    @pytest.mark.parametrize("p", [3, 4])
    def test_collectives_with_overheads(self, p):
        model = NetworkModel(o_inject=3e-8, o_send=1e-8)
        three_way(_collective_torture, p, model=model)

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("scheme,kwargs", [
        ("dense", {}),
        ("dense_ovlp", {"nbuckets": 3}),
        ("gtopk", {"k": 40}),
        ("topka", {"k": 40}),
        ("gaussiank", {"k": 40}),
        ("topkdsa", {"k": 40}),
        ("oktopk", {"k": 40, "tau": 2, "tau_prime": 2}),
        ("oktopk", {"k": 40, "rotation": False, "bucket_size": 2}),
    ])
    def test_schemes(self, p, scheme, kwargs):
        def prog(comm):
            rng = np.random.default_rng(7 + comm.rank)
            sch = make_allreduce(scheme, **kwargs)
            outs = []
            for t in range(1, 4):
                acc = rng.standard_normal(541).astype(np.float32)
                res = sch.reduce(comm, acc, t)
                upd = res.update
                outs.append((upd.indices.copy(), upd.values.copy())
                            if hasattr(upd, "indices") else upd)
                outs.append(comm.clock)
            return outs

        three_way(prog, p)

    @pytest.mark.parametrize("p", [4, 5])
    def test_stream_mode_contention(self, p):
        """Fused collectives issued inside ``async_region`` keep
        contending with in-flight bucket traffic: the streamed multi-
        bucket session is three-way bit-identical."""
        layout = ParamLayout.from_sizes([96, 64, 48, 32])

        def prog(comm):
            rng = np.random.default_rng(3 + comm.rank)
            sch = make_allreduce("oktopk", k=30, tau=2, tau_prime=2)
            outs = []
            for t in range(1, 4):
                acc = rng.standard_normal(layout.n).astype(np.float32)

                def pacer(segs, _c=comm):
                    for _ in segs:
                        _c.compute(2e-6)

                res = run_session(sch, comm, layout, t, acc,
                                  bucket_size=64, pacer=pacer)
                outs.append((res.update.indices.copy(),
                             res.update.values.copy(), comm.clock))
            return outs

        three_way(prog, p)

    @pytest.mark.parametrize("p", [4, 5, 16])
    def test_wide_vectors_fold_in_column_blocks(self, p):
        """An odd width, and at P = 16 a vector wider than 256 KB: the
        pairwise folds and the ring's contiguous blocks give the
        per-message bits at every width."""
        widths = (1237, 70_001) if p == 16 else (1237,)

        def prog(comm):
            outs = []
            for n in widths:
                x = np.random.default_rng(comm.rank).standard_normal(
                    n).astype(np.float32)
                outs += [coll.allreduce(comm, x, algo=a) for a in
                         ("rabenseifner", "recursive_doubling", "ring")]
            return outs

        three_way(prog, p)

    def test_trace_falls_back_to_reference(self):
        """Tracing needs per-message records: fusion must disengage."""
        def prog(comm):
            coll.allreduce(comm, np.ones(16, dtype=np.float32))

        res = run_spmd(4, prog, runner="coop", trace=True)
        assert len(res.network.trace) > 0

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED", "0")
        assert not fusion_enabled()
        monkeypatch.setenv("REPRO_FUSED", "1")
        assert fusion_enabled()
        monkeypatch.delenv("REPRO_FUSED")
        assert fusion_enabled()


# ---------------------------------------------------------------------------
# The same oracle under fault plans: factor arrays in the replay, a slot
# translation for shrunk worlds, the reference path only where a crash
# interrupts
# ---------------------------------------------------------------------------
def _window_plans(p, prog, crashes=None, model=None):
    """Slowdown/straggler plans shaped to the clean run of ``prog`` at
    ``p`` ranks on ``model``, so their windows open and close inside its
    collectives.  ``crashes`` (a plan of crashes only) rides along: the
    run is traced under it, and every plan keeps its crashes and
    detection timeout."""
    clean = run_spmd(p, prog, runner="coop", trace=True, faults=crashes,
                     model=model)
    span = clean.makespan
    trace = sorted(clean.network.trace, key=lambda t: t.t_start_tx)
    mid = trace[len(trace) // 2]
    later = next(t for t in trace[len(trace) // 2 + 1:]
                 if t.src == mid.src and t.t_start_tx > mid.t_start_tx)
    jitter = FaultPlan.jittery(p, seed=p, windows=8, horizon=span,
                               factor=3.0, window_frac=0.07)
    plans = {
        "straggler-skew": FaultPlan.straggler_skew(p, seed=p),
        # eight link bursts of 7 % of the run each (shorter than one
        # collective) plus a straggler that comes and goes
        "jitter-inside-collectives": dataclasses.replace(
            jitter, stragglers=(ComputeStraggler(
                rank=1, factor=2.5, t_start=0.2 * span,
                t_end=0.55 * span),)),
        # a window that opens exactly on one egress booking start of the
        # clean timeline and closes exactly on a later one
        "boundary-on-a-booking-start": FaultPlan(links=[LinkSlowdown(
            rank=mid.src, factor=2.0, direction="egress",
            t_start=mid.t_start_tx, t_end=later.t_start_tx)]),
        "overlapping-windows-on-one-slot": FaultPlan(
            links=[LinkSlowdown(rank=0, factor=2.0, t_start=0.1 * span,
                                t_end=0.6 * span),
                   LinkSlowdown(rank=0, factor=3.0, direction="egress",
                                t_start=0.3 * span, t_end=0.8 * span),
                   LinkSlowdown(rank=0, factor=1.5, direction="ingress")],
            stragglers=[ComputeStraggler(rank=0, factor=2.0),
                        ComputeStraggler(rank=0, factor=1.5,
                                         t_start=0.2 * span,
                                         t_end=0.7 * span)]),
    }
    if crashes is None:
        return plans
    return {name: dataclasses.replace(
        plan, crashes=crashes.crashes, detect_timeout=crashes.detect_timeout)
        for name, plan in plans.items()}


#: when :func:`_shrunk_torture`'s victim dies
SHRINK_AT = 5e-6


def _shrunk_torture(comm):
    """Per-message allreduces until a time-pinned crash (at
    :data:`SHRINK_AT`) takes one rank out, then :func:`_collective_torture`
    on the survivors' shrunk world — the only world it is fused on."""
    try:
        while True:
            comm.compute(1e-6)
            coll.allreduce(comm, np.ones(4, dtype=np.float32))
    except RankFailedError:
        pass
    sub = comm.shrink()
    return sub.rank, sub.size, _collective_torture(sub)


#: factors of 1.0 everywhere a factor can apply: must change no bit
UNIT_PLAN = FaultPlan(
    links=[LinkSlowdown(rank=0, factor=1.0),
           LinkSlowdown(rank=1, factor=1.0, direction="ingress",
                        t_start=1e-6, t_end=1e-4)],
    stragglers=[ComputeStraggler(rank=0, factor=1.0),
                ComputeStraggler(rank=1, factor=1.0, t_start=0.0,
                                 t_end=5e-5)])


def _plain(obj):
    """Arrays as lists, so that ``==`` compares whole rank results."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def _state_leaves(algo):
    """Every extent's ``OkTopkState`` of a scheme (none for the stateless
    ones), as comparable leaves in extent order."""
    return sorted((extent, dataclasses.astuple(state))
                  for extent, state in getattr(algo, "states", {}).items())


def _train_prog(comm, scheme, iters, seed, bucket_size=None,
                overlap_mode="analytic", scheme_kwargs=None):
    """Elastic perf-proxy training; every rank returns its whole record
    (plus the scheme's periodic state, where it has one)."""
    proxy = perf_proxy()
    train, _ = proxy.make_splits()
    loader = ShardedLoader(train, proxy.global_batch, comm.rank, comm.size,
                           seed=seed)
    cfg = TrainerConfig(iterations=iters, scheme=scheme, density=0.03,
                        lr=proxy.lr, mode=proxy.mode, elastic=True,
                        bucket_size=bucket_size, overlap_mode=overlap_mode,
                        scheme_kwargs=scheme_kwargs or {})
    trainer = Trainer(comm, proxy.make_model(), loader, cfg)
    record = trainer.run()
    return ([dataclasses.asdict(r) for r in record.records], record.events,
            _plain(_state_leaves(trainer.allreduce)))


def train_three_way(log, p, scheme, plan, iters=6, seed=0, threads=True,
                    model=None, **train_kwargs):
    """Training under ``plan`` on ``model`` (default: the proxy network)
    on the fast path (fused + rank-batched), on the reference path
    (``fused=False``: per-message collectives and per-rank compute) and
    under ``threads``: every rank's records and events, the network state
    and the crashed set must agree.  Returns the fast run and its
    rendezvous entries."""
    modes = [("coop", True), ("coop", False)]
    if threads:
        modes.append(("threads", None))
    runs = []
    for runner, fused in modes:
        del log[:]
        res = run_spmd(p, _train_prog, scheme, iters, seed, runner=runner,
                       fused=fused, faults=plan,
                       model=model or proxy_network(), **train_kwargs)
        runs.append((res, list(log)))
    (fast, entries), *others = runs
    for res, ref_entries in others:
        assert not ref_entries, "a reference run entered the rendezvous"
        assert net_state(res) == net_state(fast)
        assert res.results == fast.results
    return fast, entries


def _victim(plan, p, seed=0):
    """A seeded rank that is neither the plan's straggler nor its slow
    link."""
    taken = {x.rank for x in plan.links + plan.stragglers}
    free = [r for r in range(p) if r not in taken]
    return free[seed % len(free)]


class TestThreeWayUnderPlans:
    @pytest.mark.parametrize("p", [4, 5, 8, 16])
    def test_collectives_under_window_plans(self, p, rendezvous_log):
        for name, plan in _window_plans(p, _collective_torture).items():
            res = three_way(_collective_torture, p, faults=plan,
                            log=rendezvous_log)
            assert res.makespan > 0, name

    @pytest.mark.parametrize("p", [4, 5, 8, 16])
    def test_unit_factor_plan_changes_no_bit(self, p, rendezvous_log):
        planned = three_way(_collective_torture, p, faults=UNIT_PLAN,
                            log=rendezvous_log)
        bare = run_spmd(p, _collective_torture, runner="coop", fused=True)
        assert net_state(planned) == net_state(bare)
        assert_same(list(planned.results), list(bare.results))

    @pytest.mark.parametrize("model", [
        None, NetworkModel(o_inject=3e-8, o_send=1e-8)],
        ids=["bare", "overheads"])
    @pytest.mark.parametrize("p", [5, 8])
    def test_collectives_on_a_shrunk_world_under_window_plans(
            self, p, model, rendezvous_log):
        """Every collective, bcast / reduce / gather / scatter / barrier
        included, replayed on a re-numbered survivor world (5 -> 4,
        8 -> 7) through each window plan."""
        skew = FaultPlan.straggler_skew(p, seed=p)
        taken = {0, 1} | {x.rank for x in skew.links + skew.stragglers}
        victim = next(r for r in range(2, p) if r not in taken)
        crashes = FaultPlan(crashes=[RankCrash(rank=victim, time=SHRINK_AT)],
                            detect_timeout=2e-6)
        for name, plan in _window_plans(p, _shrunk_torture, crashes).items():
            run_spmd(p, _shrunk_torture, runner="coop", fused=True,
                     model=model, faults=plan)
            assert {e.size for e in rendezvous_log} == {p - 1}, name
            assert {"bcast", "reduce", "gather", "scatter", "barrier",
                    "allreduce", "allgatherv", "alltoallv"} <= {
                        e.head for e in rendezvous_log}, name
            del rendezvous_log[:]
            res = three_way(_shrunk_torture, p, model=model, faults=plan,
                            log=rendezvous_log)
            assert sorted(res.crashed) == [victim], name
            survivors = [r[:2] for r in res.results if r is not None]
            assert survivors == [(r, p - 1) for r in range(p - 1)], name

    @pytest.mark.parametrize("p", [4, 5])
    def test_window_plans_with_overheads(self, p, rendezvous_log):
        """``o_inject`` / ``o_send`` put the straggler factor on the
        per-post charges too."""
        model = NetworkModel(o_inject=3e-8, o_send=1e-8)
        for plan in _window_plans(p, _collective_torture).values():
            three_way(_collective_torture, p, model=model, faults=plan,
                      log=rendezvous_log)

    @pytest.mark.parametrize("model", [
        proxy_network(), NetworkModel(o_inject=3e-8, o_send=1e-8)],
        ids=["proxy", "overheads"])
    def test_streamed_buckets_under_window_plans(self, model,
                                                 rendezvous_log):
        """Streamed multi-bucket Ok-Topk training under every window
        plan, shaped to the run: windows open and close inside a bucket's
        pacing and inside its collectives, where the session executor's
        booking walk must take each charge's straggler factor at the
        clock before it, as ``SimComm.compute`` does."""
        p = 8
        prog = functools.partial(_train_prog, scheme="oktopk", iters=4,
                                 seed=0, bucket_size=512,
                                 overlap_mode="stream")
        for name, plan in _window_plans(p, prog, model=model).items():
            _, entries = train_three_way(
                rendezvous_log, p, "oktopk", plan, iters=4, model=model,
                bucket_size=512, overlap_mode="stream")
            assert Counter(e.head for e in entries)["reduce_session"] == \
                4 * p, name

    @pytest.mark.parametrize("scheme", ["oktopk", "gtopk", "dense", "topka"])
    @pytest.mark.parametrize("p", [8, 16])
    def test_training_through_an_iteration_pinned_crash(
            self, p, scheme, rendezvous_log):
        """P -> P-1 with the fast path engaged before and after the
        shrink and not once in the interrupted iteration."""
        crash_at = 3
        plan = FaultPlan.straggler_skew(p, seed=p)
        plan = dataclasses.replace(plan, crashes=(RankCrash(
            rank=_victim(plan, p), iteration=crash_at),))
        fast, entries = train_three_way(rendezvous_log, p, scheme, plan)
        events = next(r for r in fast.results if r is not None)[1]
        assert [(e["old_size"], e["new_size"]) for e in events] == \
            [(p, p - 1)]
        before = [e for e in entries if e.size == p and e.step < crash_at]
        interrupted = [e for e in entries
                       if e.size == p and e.step >= crash_at]
        after = [e for e in entries if e.size == p - 1]
        assert before and after and not interrupted
        assert len(before) + len(after) == len(entries)
        # the redo of the interrupted iteration is already on the fast
        # path, model math included
        assert sum(e.step == crash_at and e.head == "rb_fwdbwd"
                   for e in after) == p - 1

    def test_training_through_a_time_pinned_crash(self, rendezvous_log):
        """A crash time could be reached inside any collective: nothing
        enters the rendezvous until the shrink removed the slot."""
        p = 8
        clean = run_spmd(p, _train_prog, "oktopk", 6, 0,
                         model=proxy_network())
        plan = FaultPlan.straggler_skew(p, seed=1)
        plan = dataclasses.replace(plan, crashes=(RankCrash(
            rank=_victim(plan, p), time=0.4 * clean.makespan),))
        fast, entries = train_three_way(rendezvous_log, p, "oktopk", plan)
        assert len(fast.crashed) == 1
        assert entries and {e.size for e in entries} == {p - 1}

    def test_two_crashes_in_one_run(self, rendezvous_log):
        p = 8
        plan = FaultPlan.straggler_skew(p, seed=2)
        a = _victim(plan, p)
        b = _victim(plan, p, seed=3)
        assert a != b
        plan = dataclasses.replace(plan, crashes=(
            RankCrash(rank=a, iteration=2), RankCrash(rank=b, iteration=4)))
        fast, entries = train_three_way(rendezvous_log, p, "oktopk", plan)
        assert sorted(fast.crashed) == sorted((a, b))
        by_size = Counter(e.size for e in entries)
        assert set(by_size) == {8, 7, 6}
        assert not [e for e in entries if (e.size, e.step) in
                    {(8, 2), (7, 4)}]

    def test_simultaneous_crashes_and_zero_detect_timeout(
            self, rendezvous_log):
        p = 8
        plan = FaultPlan(
            links=[LinkSlowdown(rank=0, factor=3.0)],
            stragglers=[ComputeStraggler(rank=2, factor=2.0)],
            crashes=[RankCrash(rank=1, iteration=3),
                     RankCrash(rank=5, iteration=3)],
            detect_timeout=0.0)
        fast, entries = train_three_way(rendezvous_log, p, "oktopk", plan)
        assert sorted(fast.crashed) == [1, 5]
        assert {e.size for e in entries} == {8, 6}

    @given(p=st.integers(4, 9), seed=st.integers(0, 10**6),
           crash_at=st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_training_equality_is_a_property_of_the_plan(
            self, p, seed, crash_at):
        """Any (P, seeded slowdown plan, crash iteration): the fast path
        and the per-message path leave the same world behind."""
        plan = FaultPlan.straggler_skew(p, seed=seed)
        plan = dataclasses.replace(plan, crashes=(RankCrash(
            rank=_victim(plan, p, seed), iteration=crash_at),))
        train_three_way([], p, "oktopk", plan, iters=5, seed=seed % 7,
                        threads=False)


# ---------------------------------------------------------------------------
# Ok-Topk: Algorithm 1 as a world-level executor, one rendezvous per
# reduction
# ---------------------------------------------------------------------------
OK_LAYOUT = ParamLayout.from_sizes([96, 64, 48, 32, 40, 24])
OK_N = OK_LAYOUT.n                      # 304
#: session buckets of >= 64 words: [240,304) [160,240) [96,160) [0,96)
OK_BUCKET = 64
MODES = ("oneshot", "analytic", "stream")


def _acc_normal(rank, t):
    return np.random.default_rng(1000 * rank + t).standard_normal(
        OK_N).astype(np.float32)


def _acc_one_region(rank, t):
    """All top-k mass in the first eighth: with the naive equal split one
    region owns everything (balancing triggers, other regions empty)."""
    acc = np.zeros(OK_N, dtype=np.float32)
    acc[:OK_N // 8] = 10.0 * _acc_normal(rank, t)[:OK_N // 8]
    return acc


def _acc_zero_tail(rank, t):
    """The two segments pushed first are all zero: the bucket they form
    bootstraps a zero threshold (``local_th <= 0`` -> exact top-k) at
    iteration 1 and selects nothing by threshold afterwards."""
    acc = _acc_normal(rank, t)
    acc[240:] = 0.0
    return acc


def _acc_loud_step(rank, t):
    """Even iterations are 1000x louder than the odd ones the thresholds
    were evaluated on (``tau' = 2``): the reused threshold over-selects
    and the guard re-evaluates, one-shot and in every bucket."""
    return _acc_normal(rank, t) * np.float32(1000.0 if t % 2 == 0 else 1.0)


#: twelve magnitudes spanning 20 decades that cancel in float64
CANCEL = np.array([1e20, 1, -1e20] + [1] * 7 + [3, 2], dtype=np.float32)


def _acc_cancelling(rank, t):
    """Every 19th entry holds one of :data:`CANCEL`, rotated across ranks
    and iterations, over a quiet background: every rank selects all of
    them, so at P = 12 each of those indices is reduced from 12
    contributions that cancel."""
    acc = _acc_normal(rank, t) * np.float32(1e-3)
    hot = np.arange(0, OK_N, 19)
    acc[hot] = CANCEL[(rank + hot + t) % CANCEL.size]
    return acc


def _fingerprint(res):
    """Everything an Ok-Topk reduction hands back, as comparable leaves."""
    stats = [(b.lo, b.hi, b.k, b.release_frac, b.comm_time, b.sparsify_time,
              b.words_recv, b.selected) + tuple(b.info.get(key) for key in (
                  "t_issue", "t_comm_finish", "local_threshold",
                  "global_threshold", "balancing_triggered", "boundaries"))
             for b in res.bucket_stats or ()]
    info = res.info
    return (res.update.indices, res.update.values, res.contributed_indices,
            sorted(res.phase_times.items()), stats,
            [info.get(key) for key in (
                "k", "selected", "selected_local", "selected_global",
                "local_threshold", "global_threshold",
                "balancing_triggered", "boundaries", "bucket_k")])


def _oktopk_prog(comm, scheme, mode, make_acc=_acc_normal, iters=4,
                 bucket_size=OK_BUCKET, **kwargs):
    """``iters`` chained reductions with ``tau = tau' = 2`` (every periodic
    branch fires, and every steady-state one); returns per-iteration
    fingerprints and clocks plus the final ``OkTopkState`` of every extent
    (one one-shot, one per session bucket)."""
    kwargs.setdefault("k", 30)
    algo = make_allreduce(scheme, tau=2, tau_prime=2, **kwargs)
    outs = []
    for t in range(1, iters + 1):
        acc = make_acc(comm.rank, t)
        if mode == "oneshot":
            res = algo.reduce(comm, acc, t)
        else:
            def pacer(segs, _c=comm):
                for _ in segs:
                    _c.compute(2e-6)

            res = run_session(algo, comm, OK_LAYOUT, t, acc,
                              bucket_size=bucket_size,
                              pacer=pacer if mode == "stream" else None)
        outs.append((_fingerprint(res), comm.clock))
    return outs, _state_leaves(algo)


def _final_count(res, counter, rank=0):
    """``counter`` summed over the ``OkTopkState`` of every extent rank
    ``rank`` ended with (``_oktopk_prog``)."""
    from repro.allreduce import OkTopkState
    return sum(getattr(OkTopkState(*leaves), counter)
               for _, leaves in res.results[rank][1])


def _shared_rows(p, special=True, iters=4):
    """Per iteration, every rank's accumulator as a row of one ``(P, n)``
    matrix: the same data every iteration (a reused threshold selects
    what it did) except that segment 1 is 1000x louder at even
    iterations (the guard trips in its bucket only), segment 2 is all
    zero (``local_th = 0``: exact top-k) and, ``special``, rank 1 holds a
    NaN in segment 4 at t = 3 and the last rank +inf in segment 0 at
    t = 2."""
    base = np.random.default_rng(p).standard_normal(
        (p, OK_N)).astype(np.float32)
    mats = []
    for t in range(1, iters + 1):
        m = base.copy()
        m[:, OK_LAYOUT[2].sl] = 0.0
        if t % 2 == 0:
            m[:, OK_LAYOUT[1].sl] *= np.float32(1000.0)
        if special and t == 3:
            m[1, OK_LAYOUT[4].offset + 5] = np.nan
        if special and t == 2:
            m[p - 1, OK_LAYOUT[0].offset + 7] = np.inf
        mats.append(m)
    return mats


def _shared_prog(comm, scheme, mode, mats, k):
    """Chained one-segment-bucket sessions over this rank's rows of
    ``mats`` (``tau = tau' = 2``)."""
    algo = make_allreduce(scheme, k=k, tau=2, tau_prime=2)
    outs = []
    for t, m in enumerate(mats, 1):
        def pacer(segs, _c=comm):
            for _ in segs:
                _c.compute(2e-6)

        res = run_session(algo, comm, OK_LAYOUT, t, m[comm.rank],
                          bucket_size=1,
                          pacer=pacer if mode == "stream" else None)
        outs.append((_fingerprint(res), comm.clock))
    return outs, _state_leaves(algo)


class TestOkTopkWorldExecutor:
    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scheme", ["oktopk", "oktopk_q"])
    def test_identity_matrix(self, scheme, mode, p, rendezvous_log):
        """fused-coop == ``fused=False`` coop == threads on per-rank
        results, ``OkTopkState``, bucket stats, phase times and the whole
        network state — clean and under a straggler/slow-link plan."""
        three_way(_oktopk_prog, p, scheme, mode, log=rendezvous_log)
        three_way(_oktopk_prog, p, scheme, mode, log=rendezvous_log,
                  faults=FaultPlan.straggler_skew(p, seed=p))

    @pytest.mark.parametrize("p", [3, 8])
    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_data_dependent_branches(self, mode, p, rendezvous_log):
        """Inputs that force each branch the executor takes on data."""
        def run(make_acc=_acc_normal, scheme="oktopk", **kwargs):
            return three_way(
                functools.partial(_oktopk_prog, make_acc=make_acc, **kwargs),
                p, scheme, mode, log=rendezvous_log)

        # balancing triggers, with empty regions around the loaded one
        for scheme in ("oktopk", "oktopk_q"):
            res = run(_acc_one_region, scheme, balanced_partition=False,
                      balance_trigger=1.5)
            assert _final_count(res, "balancing_triggered") > 0
        # ... and the same skew with balancing switched off
        res = run(_acc_one_region, balanced_partition=False,
                  balance_trigger=1.5, data_balancing=False)
        assert _final_count(res, "balancing_triggered") == 0
        # a zero threshold: exact top-k instead of the scan
        res = run(_acc_zero_tail)
        assert _final_count(res, "local_evaluations") > 0
        res = run(lambda rank, t: np.zeros(OK_N, dtype=np.float32))
        assert res.results[0][0][0][0][0].size > 0     # still k selected
        # the selection guard: the same state sees a 1000x louder step
        res = run(_acc_loud_step)
        assert _final_count(res, "guard_evaluations") > 0
        # the naive schedule in sub-buckets of two steps
        run(rotation=False, bucket_size=2)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("case", ["nan-one-rank", "nan-every-rank",
                                      "inf", "zero-rows"])
    def test_stacked_selection_on_special_values(self, case, k,
                                                 rendezvous_log,
                                                 monkeypatch):
        """Accumulators that are rows of one matrix take the stacked
        selection.  A NaN makes a rank's k-th largest ``|acc|`` NaN (the
        partition sorts it last): the scan selects nothing, the guard
        trips and exact top-k answers, as on the per-rank path.  NaN on
        one rank or all, ``+inf`` and all-zero rows agree three ways on
        updates, contributed indices, clocks, traffic and counters."""
        p, n = 4, 64
        mats = [np.random.default_rng(t).standard_normal(
            (p, n)).astype(np.float32) for t in range(4)]
        for t, m in enumerate(mats):
            if case == "nan-one-rank":
                m[0, 3] = np.nan
            elif case == "nan-every-rank":
                m[np.arange(p), (np.arange(p) * 7 + t) % n] = np.nan
            elif case == "inf":
                m[t % p, 5] = np.inf
            else:
                m[1:3] = 0.0

        def prog(comm):
            algo = make_allreduce("oktopk", k=k, tau=2, tau_prime=2)
            outs = [(_fingerprint(algo.reduce(comm, m[comm.rank], t)),
                     comm.clock) for t, m in enumerate(mats, 1)]
            return outs, _state_leaves(algo)

        scans = []
        inner = oktopk_mod.batched_threshold_select

        def spy(xs, *args):
            scans.append(xs.shape[0])
            return inner(xs, *args)

        monkeypatch.setattr(oktopk_mod, "batched_threshold_select", spy)
        res = three_way(prog, p, log=rendezvous_log)
        assert scans == [p] * len(mats)         # the fused run stacked
        if case.startswith("nan") and k == 1:     # a NaN threshold
            assert _final_count(res, "guard_evaluations") > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_identity_in_the_pairwise_regime(self, mode, rendezvous_log):
        """P = 12, all ranks contributing to the same indices with
        cancelling magnitudes (:func:`_acc_cancelling`): runs of 12
        entries, which ``reduceat`` sums pairwise, so only the reference
        path's run order gives its bits.  The P = 16 perfbench workload
        is in this regime every step; P <= 6 never reaches it."""
        res = three_way(functools.partial(_oktopk_prog,
                                          make_acc=_acc_cancelling),
                        12, "oktopk", mode, log=rendezvous_log)
        hot = set(range(0, OK_N, 19))
        for outs, _ in res.results:
            for (idx, *_), _clock in outs:
                assert hot & set(idx.tolist())      # cancelled sums ship

    @pytest.mark.parametrize("p", [2, 5])
    def test_zero_budget_buckets_are_skipped(self, p, rendezvous_log):
        """k < nbuckets: unfunded buckets never reach the scheme (and get
        no state), the funded ones run as usual."""
        # scheme bucket_size (split-and-reduce sub-buckets) stays default;
        # the session plan is 6 one-segment buckets for k = 2
        def prog(comm):
            algo = make_allreduce("oktopk", k=2, tau=2, tau_prime=2)
            outs = []
            for t in range(1, 4):
                res = run_session(algo, comm, OK_LAYOUT, t,
                                  _acc_normal(comm.rank, t), bucket_size=1)
                outs.append(_fingerprint(res))
            return outs, _state_leaves(algo)

        res = three_way(prog, p, log=rendezvous_log)
        budgets = res.results[0][0][0][5][-1]
        assert sorted(budgets) == [0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("p", [4, 5])
    @pytest.mark.parametrize("k", [3, 12, 200])
    def test_degenerate_buckets(self, k, p, rendezvous_log):
        """Buckets shorter than the world (``n_b`` = 1, 2, 3 < P), budgets
        of one, budgets covering the whole bucket (``k_b >= n_b``), an
        all-zero bucket and a ``k < nbuckets`` plan: each is a defined
        Ok-Topk instance — every rank gets the same valid update, every
        entry where the budget covers the bucket — and the executor
        agrees with the per-rank driver on all of it."""
        layout = ParamLayout.from_sizes([2, 40, 3, 64, 1, 30])
        zero = layout[3].sl

        def prog(comm):
            algo = make_allreduce("oktopk", k=k, tau=2, tau_prime=2)
            outs = []
            for t in range(1, 4):
                acc = np.random.default_rng(100 * comm.rank + t) \
                    .standard_normal(layout.n).astype(np.float32)
                acc[zero] = 0.0
                res = run_session(algo, comm, layout, t, acc, bucket_size=1)
                res.update.validate()
                outs.append(_fingerprint(res))
            return outs, _state_leaves(algo)

        res = three_way(prog, p, log=rendezvous_log)
        for outs, states in res.results:
            budgets = outs[0][5][-1]
            assert sum(budgets) == min(k, layout.n)
            # a state per funded bucket, each fitted to its own length
            funded = [seg for seg, kb in zip(layout.push_order(), budgets)
                      if kb]
            assert [ext for ext, _ in states] == sorted(
                (seg.offset, seg.end) for seg in funded)
            assert all(leaves[0] == hi - lo for (lo, hi), leaves in states)
            for t, ((idx, val, *_), (ref, *_)) in enumerate(
                    zip(outs, res.results[0][0]), 1):
                assert_same(idx, ref)
                # the all-zero bucket ships its budget as explicit zeros
                in_zero = (idx >= zero.start) & (idx < zero.stop)
                assert in_zero.sum() == budgets[2] and not val[in_zero].any()
                if k >= layout.n and t % 2:
                    # fresh thresholds: every bucket ships all it has
                    assert idx.size == layout.n

    @pytest.mark.parametrize("k", [5, 40])
    @pytest.mark.parametrize("p", [2, 3, 8])
    @pytest.mark.parametrize("mode", ["analytic", "stream"])
    @pytest.mark.parametrize("scheme", ["oktopk", "oktopk_q"])
    def test_session_on_rows_of_one_matrix(self, scheme, mode, p, k,
                                           rendezvous_log, monkeypatch):
        """Every rank's accumulator a row of one shared ``(P, n)`` matrix
        — the stacked path the rank-batched BERT proxy takes — in a
        six-bucket session (:func:`_shared_rows`): consensus at t = 1 and
        3, reused thresholds at t = 2 and 4, a guard trip in one bucket
        only, an all-zero bucket, NaN and +inf in one rank's buckets (not
        for ``oktopk_q``: its quantizer has no code for a non-finite
        value, on either path) and, at k = 5, zero-budget buckets.
        Three-way identical, and the fused run selected with ONE stacked
        scan per iteration over all buckets and never ran the per-rank
        selection."""
        mats = _shared_rows(p, special=scheme == "oktopk")
        scans, per_rank = [], []
        inner = oktopk_mod.batched_threshold_select
        select_local = oktopk_mod.OkTopkAllreduce._select_local

        def spy(xs, *args):
            scans.append(xs.shape)
            return inner(xs, *args)

        def spy_local(self, *args):
            per_rank.append(args)
            return select_local(self, *args)

        monkeypatch.setattr(oktopk_mod, "batched_threshold_select", spy)
        monkeypatch.setattr(oktopk_mod.OkTopkAllreduce, "_select_local",
                            spy_local)
        run_spmd(p, _shared_prog, scheme, mode, mats, k, runner="coop",
                 fused=True)
        assert scans == [(p, OK_N)] * len(mats)
        assert not per_rank
        assert Counter(e.head for e in rendezvous_log) == {
            "reduce_session": p * len(mats)}
        del rendezvous_log[:]

        three_way(_shared_prog, p, scheme, mode, mats, k, log=rendezvous_log,
                  faults=FaultPlan.straggler_skew(p, seed=p))
        res = three_way(_shared_prog, p, scheme, mode, mats, k,
                        log=rendezvous_log)
        from repro.allreduce import OkTopkState
        guards = [{ext: OkTopkState(*leaves).guard_evaluations
                   for ext, leaves in states}
                  for _, states in res.results]
        outs = res.results[0][0]
        budgets = outs[0][0][5][-1]
        loud, zero, nan = OK_LAYOUT[1], OK_LAYOUT[2], OK_LAYOUT[4]
        # rank 0's guard tripped in the loud bucket only; rank 1's also
        # where its NaN became the threshold (a budget of one)
        assert {ext for ext, g in guards[0].items() if g} == {
            (loud.offset, loud.end)}
        assert (guards[1][(nan.offset, nan.end)] > 0) == (
            k == 5 and scheme == "oktopk")
        # the all-zero bucket ships its budget as explicit zeros
        for (idx, val, *_), _clock in outs:
            in_zero = (idx >= zero.offset) & (idx < zero.end)
            assert in_zero.sum() == budgets[3] and not val[in_zero].any()
        # zero-budget buckets get no state
        assert len(guards[0]) == sum(1 for kb in budgets if kb)
        assert (0 in budgets) == (k == 5)

    @pytest.mark.parametrize("loud", [False, True])
    def test_selection_hands_back_interleaved_charges(self, loud):
        """``_select_local`` hands its compute charges back and the
        reference path books them after the scan (``_pay``).  Under a
        straggler whose window opens in the middle of the selection —
        inside its first charge — clocks and phase tables are bit-equal
        to charging each step as the selection makes it: the fresh
        threshold's sort then the scan at t = 1, and at t = 2 the scan on
        the reused threshold plus, on a 1000x louder accumulator, the
        guard's sort and scan."""
        n, k = OK_N, 30
        model = NetworkModel()
        sort = model.sort_time * n * np.log2(n)
        plan = FaultPlan(stragglers=[ComputeStraggler(
            rank=0, factor=3.0, t_start=sort / 2)])
        steps = {1: ["sort", "scan"],
                 2: ["scan", "sort", "scan"] if loud else ["scan"]}

        def prog(comm, interleaved):
            algo = make_allreduce("oktopk", k=k, tau_prime=2)
            st = algo._state_for(n, 0, n)
            out = []
            for t in (1, 2):
                acc = _acc_normal(0, 1) * np.float32(
                    1000.0 if loud and t == 2 else 1.0)
                with comm.phase("sparsification"):
                    if interleaved:
                        for step in steps[t]:
                            getattr(comm, f"compute_{step}")(n)
                    else:
                        local, charges = algo._select_local(st, acc, k, t)
                        assert [c.__name__ for c, _ in charges] == [
                            f"{step}_seconds" for step in steps[t]]
                        assert all(words == n for _, words in charges)
                        oktopk_mod._pay(comm, charges)
                out.append((comm.clock, comm.phase_times()))
            return out

        got, want, clean = (run_spmd(2, prog, interleaved, runner="coop",
                                     fused=False, faults=faults).results
                            for interleaved, faults in ((False, plan),
                                                        (True, plan),
                                                        (False, None)))
        assert got == want
        assert got[0][0] != clean[0][0]             # the window did open
        assert got[1] == clean[1]

    @given(p=st.integers(2, 6), n=st.integers(24, 400),
           k=st.integers(1, 40), bucket_size=st.integers(1, 200),
           seed=st.integers(0, 10**6), shared=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_identity_is_a_property(self, p, n, k, bucket_size, seed,
                                    shared):
        """Any (P, n, k, session bucket size, seed), with every rank's
        accumulator its own array or a row of one shared matrix (the
        stacked path): two chained iterations, one-shot and streamed,
        agree three ways."""
        layout = ParamLayout.from_sizes(
            [n // 3, n // 4, n - n // 3 - n // 4])
        mats = [np.random.default_rng(seed + t).standard_normal(
            (p, n)).astype(np.float32) for t in (1, 2)]

        def prog(comm):
            rng = np.random.default_rng(seed + comm.rank)
            oneshot = make_allreduce("oktopk", k=k, tau=1, tau_prime=2)
            bucketed = make_allreduce("oktopk_q", k=k, tau=2, tau_prime=1)
            outs = []
            for t in (1, 2):
                acc = (mats[t - 1][comm.rank] if shared
                       else rng.standard_normal(n).astype(np.float32))
                outs.append(_fingerprint(oneshot.reduce(comm, acc, t)))
                outs.append(_fingerprint(run_session(
                    bucketed, comm, layout, t, acc, bucket_size=bucket_size,
                    pacer=lambda segs: [comm.compute(1e-6) for _ in segs])))
            return outs, _state_leaves(oneshot), _state_leaves(bucketed)

        three_way(prog, p)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_rendezvous_per_reduction(self, mode, rendezvous_log):
        """Every rank enters exactly one rendezvous per iteration — the
        ``reduce_session`` that runs the one bucket of a one-shot
        reduction or all buckets of a bucketed session — and no
        rendezvous of any sub-collective or bucket, in the steady state
        *and* where the tau / tau' work fires (it is booked inline), and
        none at all with fusion off."""
        p, iters = 4, 4
        head = "reduce_session"
        run_spmd(p, _oktopk_prog, "oktopk", mode, iters=iters,
                 runner="coop", fused=True)
        assert Counter((e.rank, e.head) for e in rendezvous_log) == {
            (r, head): iters for r in range(p)}
        del rendezvous_log[:]
        run_spmd(p, _oktopk_prog, "oktopk", mode, iters=iters,
                 runner="coop", fused=False)
        assert not rendezvous_log

    @pytest.mark.parametrize("mode", ["oneshot", "stream"])
    def test_the_shared_update_is_write_protected(self, mode,
                                                  rendezvous_log):
        """All P ranks hold the same ``u_t`` arrays — one reduction's, or
        a streamed bucketed session's merged update: none may write them.
        The contributed indices stay each rank's own."""
        def prog(comm):
            algo = make_allreduce("oktopk", k=30)
            acc = _acc_normal(comm.rank, 1)
            if mode == "oneshot":
                res = algo.reduce(comm, acc, 1)
            else:
                res = run_session(algo, comm, OK_LAYOUT, 1, acc,
                                  bucket_size=OK_BUCKET,
                                  pacer=lambda segs: [comm.compute(2e-6)
                                                      for _ in segs])
                assert res.nbuckets == 4
            with pytest.raises(ValueError, match="read-only"):
                res.update.values[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                res.update.indices[0] = 0
            return res

        results = run_spmd(4, prog, runner="coop", fused=True).results
        assert {e.head for e in rendezvous_log} == {"reduce_session"}
        lead = results[0]
        for res in results:
            assert res.update.values is lead.update.values
            assert res.update.indices is lead.update.indices
        mine = [res.contributed_indices for res in results]
        assert len({id(c) for c in mine}) == len(mine)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(mine) for b in mine[i + 1:])

    @pytest.mark.parametrize("scheme", ["oktopk", "oktopk_q"])
    @pytest.mark.parametrize("bucket_size,overlap_mode", [
        (None, "analytic"), (512, "analytic"), (512, "stream")])
    def test_across_an_elastic_shrink(self, scheme, bucket_size,
                                      overlap_mode, rendezvous_log):
        """8 -> 7 mid-run under a straggler plan: records, events, the
        re-keyed ``OkTopkState`` and the network agree with the
        per-message run; one ``reduce_session`` rendezvous per rank and
        step before and after the shrink (for the one bucket or all of
        them), none in the interrupted iteration."""
        p, crash_at, iters = 8, 3, 6
        plan = FaultPlan.straggler_skew(p, seed=p)
        plan = dataclasses.replace(plan, crashes=(RankCrash(
            rank=_victim(plan, p), iteration=crash_at),))
        fast, entries = train_three_way(
            rendezvous_log, p, scheme, plan, iters=iters,
            bucket_size=bucket_size, overlap_mode=overlap_mode,
            scheme_kwargs={"tau": 2, "tau_prime": 2})
        events = next(r for r in fast.results if r is not None)[1]
        assert [(e["old_size"], e["new_size"]) for e in events] == \
            [(p, p - 1)]
        reduces = Counter((e.size, e.step) for e in entries
                          if e.head == "reduce_session")
        expect = {(p, t): p for t in range(1, crash_at)}
        expect.update({(p - 1, t): p - 1
                       for t in range(crash_at, iters + 1)})
        assert reduces == expect
        assert not {e.head for e in entries} & {
            "oktopk_select", "oktopk_sr", "allgatherv", "allgather_object",
            "alltoallv"}


# ---------------------------------------------------------------------------
# Split-and-reduce alone: the world array program against the per-message
# exchange, stage against stage
# ---------------------------------------------------------------------------
SR_N, SR_K = 600, 48


def _exec_sr_stage(net, sig, payloads):
    """The executor half of :func:`_sr_prog`: what the world reduction
    does around its split-and-reduce stage, for one extent."""
    comms, local, boundaries = zip(*payloads)
    for comm, loc in zip(comms, local):
        comm.compute_scan(loc.nnz)
    ws = fused_mod._world_state(net)
    tables, order = compile_split_reduce(len(comms), sig[1], sig[2])
    count, idx, val, cuts = oktopk_mod._split_reduce(
        ws, order, local[0].n,
        *oktopk_mod._rank_major([(loc.indices, loc.values)
                                 for loc in local]),
        np.array(boundaries)[:, None])
    oktopk_mod._book_split_reduce(net, tables, count[:, 0])
    return [COOVector(loc.n, idx[lo:hi], val[lo:hi])
            for loc, lo, hi in zip(local, cuts, cuts[1:])]


def _isend_loop_sr(algo, comm, local, boundaries):
    """Ok-Topk's split-and-reduce exchange written out as a plain
    ``isend`` loop per bucket, with the scheme's compute charges (the
    reduction itself is left out: returns the rank's own piece)."""
    p, r = comm.size, comm.rank
    pieces = local.split(boundaries)
    comm.compute_scan(local.nnz)
    prev_words = 0
    for bucket in buckets(make_steps(r, p, algo.rotation), algo.bucket_size):
        reqs = []
        for step in bucket:
            for src in step.recv_from:
                reqs.append(comm.irecv(src, oktopk_mod._TAG_SR))
            for dst in step.send_to:
                reqs.append(comm.isend(pieces[dst], dst, oktopk_mod._TAG_SR))
        if prev_words:
            comm.compute_words(2 * prev_words)
        got = comm.waitall(reqs)
        prev_words = sum(g.nnz for g in got if g is not None)
    if prev_words:
        comm.compute_words(2 * prev_words)
    return pieces[r]


def _sr_prog(comm, rotation, bucket_size, stagger=True, rounds=3,
             exchange=None):
    """``rounds`` chained split-and-reduce exchanges (the links carry one
    exchange's bookings into the next: every fold regime shows), through
    the rendezvous where the run has one and message by message where it
    does not (by ``exchange(algo, comm, local, boundaries)`` if given)."""
    p, r = comm.size, comm.rank
    algo = make_allreduce("oktopk", k=SR_K, rotation=rotation,
                          bucket_size=bucket_size)
    outs = []
    for t in range(rounds):
        rng = np.random.default_rng(31 * t + r)
        if stagger:
            comm.compute(float(rng.uniform(0, 4e-6)))
        # uneven regions, one of them empty; rank 0 selects nothing on
        # odd rounds
        acc = rng.standard_normal(SR_N).astype(np.float32)
        local = exact_topk(acc, SR_K if (r or t % 2 == 0) else 0)
        bnd = np.random.default_rng(t).integers(0, SR_N, size=p - 1)
        boundaries = np.concatenate(([0], np.sort(bnd), [SR_N]))
        boundaries[min(2, p - 1)] = boundaries[min(1, p - 1)]
        if fused_mod._available(comm):
            red = comm.fused_collective(
                ("sr_stage", rotation, bucket_size, t),
                (comm, local, boundaries), _exec_sr_stage)
        elif exchange is not None:
            red = exchange(algo, comm, local, boundaries)
        else:
            red = algo._split_and_reduce(comm, local, boundaries)
        outs.append((red.indices, red.values, red.n, comm.clock))
    return outs


class TestSplitReduceStage:
    SCHEDULES = [(True, 8), (True, 3), (False, 2), (False, 1), (False, 64)]

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    @pytest.mark.parametrize("rotation,bucket_size", SCHEDULES)
    def test_stage_identity(self, rotation, bucket_size, p, rendezvous_log):
        """Reduced regions, clocks, links and counters: clean, with the
        per-post overheads, and under the benchmark's plan."""
        three_way(_sr_prog, p, rotation, bucket_size, log=rendezvous_log)
        overheads = NetworkModel(o_inject=3e-8, o_send=1e-8)
        three_way(_sr_prog, p, rotation, bucket_size, model=overheads,
                  log=rendezvous_log)
        three_way(_sr_prog, p, rotation, bucket_size, model=overheads,
                  faults=FaultPlan.straggler_skew(p, seed=p),
                  log=rendezvous_log)

    @pytest.mark.parametrize("p", [4, 5])
    @pytest.mark.parametrize("rotation,bucket_size", [(True, 8), (False, 2)])
    def test_posts_follow_the_isend_loop_under_a_straggler(
            self, rotation, bucket_size, p):
        """A straggler pays a scaled ``o_inject`` after every post, so
        each of its posts starts that much later: every piece leaves when
        the plain ``isend`` loop's would, and the stage's clocks are the
        loop's."""
        plan = FaultPlan(stragglers=[ComputeStraggler(rank=1, factor=3.0)])
        model = NetworkModel(o_inject=1e-6)

        def run(exchange):
            res = run_spmd(p, _sr_prog, rotation, bucket_size,
                           exchange=exchange, model=model, faults=plan,
                           runner="coop", trace=True)
            sr = sorted((t.src, t.dst, t.t_start_tx, t.t_first, t.t_done)
                        for t in res.network.trace
                        if t.tag == oktopk_mod._TAG_SR)
            return sr, [[o[3] for o in outs] for outs in res.results]

        sr, clocks = run(None)
        ref_sr, ref_clocks = run(_isend_loop_sr)
        assert len(sr) == 3 * p * (p - 1)
        assert sr == ref_sr
        assert clocks == ref_clocks

    @pytest.mark.parametrize("p", [4, 5])
    @pytest.mark.parametrize("rotation,bucket_size", SCHEDULES)
    def test_link_faulty_rows(self, rotation, bucket_size, p,
                              rendezvous_log):
        """A slowdown on a sender's egress and on a receiver's ingress,
        persistent and in windows that open and close inside the
        exchange: those rows take the per-message factors."""
        prog = functools.partial(_sr_prog, rotation=rotation,
                                 bucket_size=bucket_size)
        span = run_spmd(p, prog, runner="coop").makespan
        plans = dict(_window_plans(p, prog))
        plans["sender-and-receiver"] = FaultPlan(links=[
            LinkSlowdown(rank=1, factor=2.5, direction="egress"),
            LinkSlowdown(rank=1, factor=1.5, direction="egress",
                         t_start=0.3 * span, t_end=0.5 * span),
            LinkSlowdown(rank=2, factor=3.0, direction="ingress",
                         t_start=0.2 * span, t_end=0.7 * span)])
        model = NetworkModel(o_inject=3e-8, o_send=1e-8)
        for plan in plans.values():
            three_way(prog, p, faults=plan, log=rendezvous_log)
            three_way(prog, p, faults=plan, model=model, log=rendezvous_log)

    @pytest.mark.parametrize("p", [3, 8])
    @pytest.mark.parametrize("rotation,bucket_size", [(True, 8), (False, 2)])
    def test_packed_and_argsort_region_orders_agree(
            self, rotation, bucket_size, p, monkeypatch):
        """The region sort packs ``key << b | position`` into one int64;
        with a bit budget too small for any key it falls back to
        ``argsort``.  Both branches give the same reduced regions."""
        prog = functools.partial(_sr_prog, rotation=rotation,
                                 bucket_size=bucket_size)
        packed = run_spmd(p, prog, runner="coop").results
        monkeypatch.setattr(oktopk_mod, "_region_order", functools.partial(
            oktopk_mod._region_order, bits=0))
        assert_same(list(run_spmd(p, prog, runner="coop").results),
                    list(packed))

    def test_region_order_falls_back_where_the_packed_key_overflows(self):
        """1000 positions take 10 bits: keys below a span of 2**53 pack
        into 63 bits (sorted in place, the key buffer comes back as the
        permutation); a span of 2**53 + 1 does not, and ``argsort`` runs
        on a key it only reads."""
        rng = np.random.default_rng(3)
        spread = rng.permutation(1000).astype(np.int64) << 43
        want = spread.argsort()
        fits = spread.copy()
        got = oktopk_mod._region_order(fits, 1 << 53)
        assert got is fits
        np.testing.assert_array_equal(got, want)
        over = spread.copy()
        got = oktopk_mod._region_order(over, (1 << 53) + 1)
        assert got is not over
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(over, spread)

    @pytest.mark.parametrize("p", [4, 7])
    def test_arrival_ties_resolve_in_source_order(self, p, rendezvous_log):
        """Lockstep ranks on the naive schedule: every message of step 0
        reaches rank 0 at the same instant, so the inbox order is the
        source order — and under an ingress slowdown window that order
        decides which messages are booked slow."""
        prog = functools.partial(_sr_prog, rotation=False, bucket_size=2,
                                 stagger=False, rounds=1)
        ref = run_spmd(p, prog, runner="coop", trace=True)
        to_zero = [t for t in ref.network.trace if t.dst == 0]
        assert len(to_zero) == p - 1
        assert len({t.t_first for t in to_zero}) == 1           # all tied
        assert len({t.nwords for t in to_zero}) > 1
        done = sorted(t.t_done for t in to_zero)
        plan = FaultPlan(links=[LinkSlowdown(
            rank=0, factor=4.0, direction="ingress",
            t_start=done[0], t_end=done[-2])])
        three_way(prog, p, log=rendezvous_log)
        three_way(prog, p, faults=plan, log=rendezvous_log)


# ---------------------------------------------------------------------------
# The dense fused allreduce at every world size: one rendezvous per call,
# inputs only read, every rank's result its own
# ---------------------------------------------------------------------------
class TestDenseAllreduceEveryWorld:
    @pytest.mark.parametrize("algo", fused_mod.ALLREDUCE_ALGORITHMS)
    @pytest.mark.parametrize("p", [2, 3, 5, 6])
    def test_one_rendezvous_per_call(self, p, algo, rendezvous_log):
        calls, n = 3, 96

        def prog(comm):
            for _ in range(calls):
                coll.allreduce(comm, np.ones(n, np.float32), algorithm=algo)

        res = run_spmd(p, prog, runner="coop", fused=True)
        assert Counter((e.rank, e.head) for e in rendezvous_log) == {
            (r, "allreduce"): calls for r in range(p)}
        assert dict(res.network.algorithm_log) == {
            ("allreduce", algo, "forced"): {"calls": calls,
                                            "words": calls * n}}

    @pytest.mark.parametrize("algo", fused_mod.ALLREDUCE_ALGORITHMS)
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_inputs_untouched_and_results_private(self, p, algo,
                                                  rendezvous_log):
        def contribution(rank):
            return np.random.default_rng(rank).standard_normal(
                257).astype(np.float32)

        def prog(comm):
            x = contribution(comm.rank)
            return x, coll.allreduce(comm, x, algorithm=algo)

        res = run_spmd(p, prog, runner="coop", fused=True)
        assert {e.head for e in rendezvous_log} == {"allreduce"}
        inputs = [x for x, _ in res.results]
        outs = [out for _, out in res.results]
        for r, x in enumerate(inputs):
            assert x.tobytes() == contribution(r).tobytes()
        for r, out in enumerate(outs):
            assert out.flags.writeable
            assert out.tobytes() == outs[0].tobytes()
            for other in inputs + outs[:r] + outs[r + 1:]:
                assert not np.shares_memory(out, other)

    @pytest.mark.parametrize("algo", fused_mod.ALLREDUCE_ALGORITHMS)
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_replay_leaves_a_stacked_input_untouched(self, p, algo):
        """Serving hands the fold of :func:`allreduce_plan` one ``(P, n)``
        array: it is read, never folded into, and sums like the rows do."""
        stacked = np.random.default_rng(p).standard_normal(
            (p, 301)).astype(np.float32)
        before = stacked.copy()
        _, fold = fused_mod.allreduce_plan(Network(p), algo, p, 301, 1)
        total = fold(stacked)
        assert stacked.tobytes() == before.tobytes()
        assert not np.shares_memory(total, stacked)
        rows = fold(list(before))
        assert total.tobytes() == rows.tobytes()


def _tree_oracle(rows, halving):
    """The halving/doubling trees' association, written recursively: the
    fold-in (odd rank ``2x + 1`` folds its even neighbour in) onto a
    power-of-two core, then the butterfly sums each half of the core
    first (recursive doubling pairs neighbours at its first level) and
    recursive halving the even and the odd newranks (it pairs ``i`` with
    ``i + m/2`` first)."""
    p = len(rows)
    rem = p - (1 << (p.bit_length() - 1))
    core = [rows[2 * x + 1] + rows[2 * x] for x in range(rem)] + list(
        rows[2 * rem:])

    def fold(c):
        if len(c) == 1:
            return c[0]
        if halving:
            return fold(c[0::2]) + fold(c[1::2])
        return fold(c[:len(c) // 2]) + fold(c[len(c) // 2:])

    return fold(core)


class TestStackedTreeFold:
    """``fused._sum_tree`` folds one ``(P, width)`` array level by level:
    the association is the trees', inputs are only read, and the rows of
    one matrix are folded where they lie."""

    @pytest.mark.parametrize("p", range(1, 18))
    @pytest.mark.parametrize("halving", [False, True])
    @pytest.mark.parametrize("form", ["stacked", "rows", "separate"])
    def test_matches_the_recursive_association(self, p, halving, form):
        rng = np.random.default_rng(p)
        # row scales spread over eight decades: every association rounds
        # differently
        mat = (rng.standard_normal((p, 67))
               * 10.0 ** rng.integers(-4, 5, (p, 1))).astype(np.float32)
        before = mat.copy()
        payloads = {"stacked": mat, "rows": list(mat),
                    "separate": [r.copy() for r in mat]}[form]
        got = fused_mod._sum_tree(payloads, p, halving)
        want = _tree_oracle(list(before), halving)
        assert got.tobytes() == want.tobytes()
        if p >= 4:
            assert want.tobytes() != _tree_oracle(
                list(before), not halving).tobytes()
        assert mat.tobytes() == before.tobytes()
        for row, orig in zip(payloads, before):
            assert row.tobytes() == orig.tobytes()
        assert got.base is None  # keeps no stacked or level array alive
        assert not np.shares_memory(got, mat)
        for row in payloads:
            assert not np.shares_memory(got, row)

    @pytest.mark.parametrize("halving", [False, True])
    def test_whole_rows_fold_without_a_copy(self, halving):
        import tracemalloc

        p, n = 16, 49866
        mat = np.random.default_rng(0).standard_normal((p, n)).astype(
            np.float32)
        separate = [r.copy() for r in mat]

        def peak(payloads):
            tracemalloc.start()
            try:
                total = fused_mod._sum_tree(payloads, p, halving)
                return tracemalloc.get_traced_memory()[1], total
            finally:
                tracemalloc.stop()

        whole, total = peak(list(mat))
        stacked, again = peak(separate)
        assert whole < mat.nbytes <= stacked  # the measure tells them apart
        assert total.tobytes() == again.tobytes()


# ---------------------------------------------------------------------------
# Rendezvous semantics
# ---------------------------------------------------------------------------
class TestRendezvous:
    def test_mismatched_collectives_abort(self):
        def prog(comm):
            x = np.ones(8, dtype=np.float32)
            if comm.rank == 0:
                return coll.allreduce(comm, x, algo="rabenseifner")
            return coll.allreduce(comm, x, algo="recursive_doubling")

        with pytest.raises(RankFailedError, match="mismatch"):
            run_spmd(4, prog, runner="coop", fused=True)

    def test_missing_rank_is_deadlock(self):
        """A rank that never reaches the rendezvous deadlocks the rest —
        detected, not hung."""
        def prog(comm):
            if comm.rank == 0:
                return None
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="rendezvous"):
            run_spmd(3, prog, runner="coop", fused=True)

    def test_mixed_blocked_recv_and_rendezvous_deadlock(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=12345)   # never sent
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="can never match"):
            run_spmd(3, prog, runner="coop", fused=True)

    def test_failing_rank_unblocks_rendezvous(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            return coll.allreduce(comm, np.ones(4, dtype=np.float32))

        with pytest.raises(RankFailedError, match="boom"):
            run_spmd(3, prog, runner="coop", fused=True)
