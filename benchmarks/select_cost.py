#!/usr/bin/env python
"""Host cost of Ok-Topk's stacked selection and region reduction.

For every world size ``P`` and gradient shape ``n:k`` this builds a
seeded ``(P, n)`` float32 accumulator matrix with per-row thresholds at
the k-th largest magnitude, then prints the median microseconds per call
over ``--repeat`` timed batches of ``--calls`` calls each of

* ``select``: the stacked threshold scan
  (``repro.sparse.topk.batched_threshold_select`` with the executor's
  scratch buffers), and
* ``reduce``: split-and-reduce of that selection over equal regions
  (``repro.allreduce.oktopk._exec_split_reduce``: the cut matrix, the
  ``(P, m)`` exchange booking and the one region sort + ``reduceat``).

The defaults cover the mlp proxy's shape (16 x 49 866, k = 997) and a
BERT-bucket-sized one (8 x 5 300, k = 53)::

    PYTHONPATH=src taskset -c 1 python benchmarks/select_cost.py

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

from repro.allreduce.oktopk import _exec_split_reduce  # noqa: E402
from repro.comm import Network  # noqa: E402
from repro.sparse import equal_boundaries, kth_largest_abs  # noqa: E402
from repro.sparse.topk import batched_threshold_select  # noqa: E402
from repro.train.rankbatch import _WorldState  # noqa: E402


def _shape(text: str) -> tuple:
    n, k = text.split(":")
    return int(n), int(k)


def costs(p: int, n: int, k: int, calls: int, repeat: int) -> dict:
    """``name -> median us per call`` at ``p`` ranks of ``n`` words."""
    xs = np.random.default_rng(p * n + k).standard_normal(
        (p, n)).astype(np.float32)
    ths = [kth_largest_abs(x, k) for x in xs]
    ws = _WorldState()
    mask = ws.scratch("select_mask", xs.shape, bool)
    spare = ws.scratch("select_spare", (min(p, 4), n), bool)
    cols, vals, offsets = batched_threshold_select(xs, ths, mask, spare)
    boundaries = [equal_boundaries(n, p)] * p
    net = Network(p)

    def select():
        batched_threshold_select(xs, ths, mask, spare)

    def reduce():
        _exec_split_reduce(net, ws, True, 8, cols, vals, offsets, boundaries)

    return {name: statistics.median(timeit.repeat(
        fn, number=calls, repeat=repeat)) / calls * 1e6
        for name, fn in (("select", select), ("reduce", reduce))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ps", type=int, nargs="+", default=[4, 8, 16])
    ap.add_argument("--sizes", type=_shape, nargs="+",
                    default=[(49866, 997), (5300, 53)],
                    help="n:k pairs (default 49866:997 5300:53)")
    ap.add_argument("--calls", type=int, default=50)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    print(f"{'P':>4} {'n':>7} {'k':>5}  {'select us':>10} {'reduce us':>10}")
    for n, k in args.sizes:
        for p in args.ps:
            us = costs(p, n, k, args.calls, args.repeat)
            print(f"{p:>4} {n:>7} {k:>5}  {us['select']:>10.1f} "
                  f"{us['reduce']:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
