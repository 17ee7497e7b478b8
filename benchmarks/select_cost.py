#!/usr/bin/env python
"""Host cost of Ok-Topk's stacked selection, its region reduction and
the data pass of a whole world reduction.

Kernel mode (the default): for every world size ``P`` and gradient shape
``n:k`` this builds a seeded ``(P, n)`` float32 accumulator matrix with
per-row thresholds at the k-th largest magnitude, then prints the median
microseconds per call over ``--repeat`` timed batches of ``--calls``
calls each of

* ``select``: the stacked threshold scan
  (``repro.sparse.topk.batched_threshold_select`` with the executor's
  scratch buffers), and
* ``reduce``: split-and-reduce of that selection over equal regions
  (``repro.allreduce.oktopk._split_reduce``: the cut matrix, the one
  region sort + ``reduceat``; then ``_book_split_reduce``, the ``(P, m)``
  exchange booking).

The defaults cover the mlp proxy's shape (16 x 49 866, k = 997) and a
BERT-bucket-sized one (8 x 5 300, k = 53)::

    PYTHONPATH=src taskset -c 1 python benchmarks/select_cost.py

Session mode (``--session``) times one steady-state iteration of Ok-Topk
for the whole world with every rank's accumulator a row of one shared
matrix (the stacked path of lockstep rank batching), after one warm-up
iteration that sets the thresholds and boundaries:

* ``data``: the data pass, the kernel called directly
  (``repro.allreduce.oktopk.stages``: selection, split-and-reduce,
  phase 2 and the contributed indices of every funded extent; no
  network), and
* ``data+book``: the data pass plus every extent's booking pass
  (``repro.allreduce.oktopk.book`` on a bare ``Network``), and
* ``book``: the booking pass alone, the median of the per-repetition
  differences ``data+book - data`` with their interquartile range
  (``book IQR``).  The two sides are timed alternately inside each
  repetition (their order flipping every repetition), so a slow episode
  of the host lands on both sides of a pair rather than on one side of
  the whole comparison, and each repetition times every shape, so a
  shape's pairs span the whole run rather than one stretch of it.

The shapes are the BERT proxy's streamed session (P = 8, its 31 784-word
layout in ``bucket_size=4096`` buckets: 6 extents, k = 317), once on a
clean network and once under ``FaultPlan.straggler_skew(P, seed=0)``
(the booking walk's planned branch: straggler factors and a slow link),
and the mlp proxy's one extent (16 x 49 866, k = 997)::

    PYTHONPATH=src taskset -c 1 python benchmarks/select_cost.py --session

Pin it to one CPU, the host clock is noisy.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.allreduce import OkTopkAllreduce, OkTopkState  # noqa: E402
from repro.allreduce.oktopk import (_book_split_reduce,  # noqa: E402
                                    _split_reduce, book, stages)
from repro.allreduce.schedule import compile_split_reduce  # noqa: E402
from repro.bench import bert_proxy  # noqa: E402
from repro.comm import Network, SimComm  # noqa: E402
from repro.comm.faults import FaultPlan  # noqa: E402
from repro.comm.fused import _WorldState  # noqa: E402
from repro.sparse import equal_boundaries, kth_largest_abs  # noqa: E402
from repro.sparse.topk import batched_threshold_select  # noqa: E402


def _shape(text: str) -> tuple:
    n, k = text.split(":")
    return int(n), int(k)


def _median_us(fns: dict, calls: int, repeat: int) -> dict:
    return {name: statistics.median(timeit.repeat(
        fn, number=calls, repeat=repeat)) / calls * 1e6
        for name, fn in fns.items()}


def costs(p: int, n: int, k: int, calls: int, repeat: int) -> dict:
    """``name -> median us per call`` at ``p`` ranks of ``n`` words."""
    xs = np.random.default_rng(p * n + k).standard_normal(
        (p, n)).astype(np.float32)
    ths = [kth_largest_abs(x, k) for x in xs]
    ws = _WorldState()
    mask = ws.scratch("select_mask", xs.shape, bool)
    spare = ws.scratch("select_spare", (min(p, 4), n), bool)
    cols, vals, offsets = batched_threshold_select(xs, ths, mask, spare)
    bounds = np.array([equal_boundaries(n, p)] * p)[:, None]
    tables, order = compile_split_reduce(p, True, 8)
    net = Network(p)

    def select():
        batched_threshold_select(xs, ths, mask, spare)

    def reduce():
        count = _split_reduce(ws, order, n, cols, vals, offsets, bounds)[0]
        _book_split_reduce(net, tables, count[:, 0])

    return _median_us({"select": select, "reduce": reduce}, calls, repeat)


def session_timers(p: int, extents: list, faults=None) -> tuple:
    """``(data, whole)``: one world reduction over the funded ``extents``
    (``(lo, hi, k)``, plan order) of ``p`` ranks without and with its
    booking pass, on a network under ``faults`` (a ``FaultPlan``, or
    None), after the warm-up iteration."""
    n = max(hi for _, hi, _ in extents)
    xs = np.random.default_rng(p * n).standard_normal(
        (p, n)).astype(np.float32)
    scheme, ws = OkTopkAllreduce(k=1), _WorldState()
    states = [[OkTopkState(hi - lo) for _ in range(p)]
              for lo, hi, _ in extents]
    net = Network(p, faults=faults)
    comms = [SimComm(net, r) for r in range(p)]

    def data(t=2):
        return stages(scheme, xs, extents, states, t, ws)

    def whole(t=2):
        stg = data(t)
        for e in range(len(extents)):
            book(net, comms, stg, e)

    whole(1)                                    # t = 1: tau work
    return data, whole


def session_costs(timers: list, calls: int, repeat: int) -> list:
    """Per ``(data, whole)`` pair of ``timers``: ``name -> median us per
    call``, ``book`` the median of the paired per-repetition differences
    and ``book IQR`` their interquartile range.  Every repetition times
    every pair, so each pair's samples span the whole run."""
    pairs = [[] for _ in timers]
    for i in range(repeat):
        for (data, whole), got in zip(timers, pairs):
            order = (data, whole) if i % 2 == 0 else (whole, data)
            took = {fn: timeit.timeit(fn, number=calls) / calls * 1e6
                    for fn in order}
            got.append((took[data], took[whole]))
    out = []
    for got in pairs:
        d, w = np.array(got).T
        q1, mid, q3 = np.percentile(w - d, [25, 50, 75])
        out.append({"data": np.median(d), "data+book": np.median(w),
                    "book": mid, "book IQR": q3 - q1})
    return out


def _session_shapes(p_bert: int, p_mlp: int) -> list:
    """``(label, P, extents, faults)`` of the BERT proxy's streamed
    session, clean and under a straggler skew, and the mlp proxy's one
    extent."""
    layout = bert_proxy().make_model().layout
    plan = layout.session_plan(4096, 317, True)
    bert = [(*ext, k) for ext, k in zip(plan.extents, plan.bucket_k) if k]
    return [("bert session", p_bert, bert, None),
            ("bert skewed", p_bert, bert,
             FaultPlan.straggler_skew(p_bert, seed=0)),
            ("mlp one-shot", p_mlp, [(0, 49866, 997)], None)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ps", type=int, nargs="+", default=[4, 8, 16])
    ap.add_argument("--sizes", type=_shape, nargs="+",
                    default=[(49866, 997), (5300, 53)],
                    help="n:k pairs (default 49866:997 5300:53)")
    ap.add_argument("--session", action="store_true",
                    help="time the data pass of whole world reductions "
                         "(BERT session, mlp one-shot) instead")
    ap.add_argument("--session-ps", type=int, nargs=2, default=[8, 16],
                    metavar=("P_BERT", "P_MLP"),
                    help="world sizes of the session mode (default 8 16)")
    ap.add_argument("--calls", type=int, default=50)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    if args.session:
        print(f"{'shape':>13} {'P':>3} {'extents':>7}  {'data us':>9} "
              f"{'data+book us':>12} {'book us':>9} {'book IQR':>9}")
        shapes = _session_shapes(*args.session_ps)
        measured = session_costs([session_timers(p, extents, faults)
                                  for _, p, extents, faults in shapes],
                                 args.calls, args.repeat)
        for (label, p, extents, _), us in zip(shapes, measured):
            print(f"{label:>13} {p:>3} {len(extents):>7}  {us['data']:>9.1f} "
                  f"{us['data+book']:>12.1f} {us['book']:>9.1f} "
                  f"{us['book IQR']:>9.1f}")
        return 0
    print(f"{'P':>4} {'n':>7} {'k':>5}  {'select us':>10} {'reduce us':>10}")
    for n, k in args.sizes:
        for p in args.ps:
            us = costs(p, n, k, args.calls, args.repeat)
            print(f"{p:>4} {n:>7} {k:>5}  {us['select']:>10.1f} "
                  f"{us['reduce']:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
