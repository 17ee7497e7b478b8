#!/usr/bin/env python
"""Host cost of one schedule replay (``repro.comm.fused.replay``) and of
one compile.

Books the compiled schedules of the dense allreduces (recursive doubling,
Rabenseifner, ring reduce-scatter + allgather) and of a Bruck allgatherv
against a fresh network, and prints the median microseconds per booking
over ``--repeat`` timed batches of ``--calls`` bookings each.  The
schedules are compiled before the timed loop.  No data is touched: this
is the link / clock arithmetic alone, the part of every fused collective
that grows with the number of messages.

The ``us/compile`` column is what a miss of a run's schedule memo
(``repro.comm.fused.compiled``) costs: the same schedules compiled anew
on every call, with only the process caches of their size-free
structure warm.

    PYTHONPATH=src taskset -c 1 python benchmarks/replay_cost.py

Run it the same way on two checkouts to compare them; pin it to one CPU,
the host clock is noisy.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.comm import Network  # noqa: E402
from repro.comm import fused  # noqa: E402

WORDS = 4096


def bookings(p: int):
    """``name -> (compiler, arguments)`` of the schedules booked back to
    back at ``p`` ranks."""
    return {
        "recursive_doubling": [
            (fused.compile_allreduce, (p, WORDS, 1, "recursive_doubling"))],
        "rabenseifner": [
            (fused.compile_allreduce, (p, WORDS, 1, "rabenseifner"))],
        "ring RS+AG": [(fused.compile_reduce_scatter_ring, (p, WORDS, 1)),
                       (fused.compile_allgather_ring, (p, WORDS, 1))],
        "allgatherv": [(fused.compile_allgatherv,
                        (p, tuple(16 + 3 * r for r in range(p))))],
    }


def _median_us(run, calls: int, repeat: int) -> float:
    times = timeit.repeat(run, number=calls, repeat=repeat)
    return statistics.median(times) / calls * 1e6


def us_per_booking(p: int, specs, calls: int, repeat: int) -> float:
    net = Network(p)
    scheds = [compile_(*args) for compile_, args in specs]

    def run():
        for sched in scheds:
            fused.replay(net, sched)

    return _median_us(run, calls, repeat)


def us_per_compile(specs, calls: int, repeat: int) -> float:
    for compile_, args in specs:    # the size-free structure, once
        compile_(*args)

    def run():
        for compile_, args in specs:
            compile_(*args)

    return _median_us(run, calls, repeat)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ps", type=int, nargs="+", default=[4, 8, 16, 64])
    ap.add_argument("--calls", type=int, default=2000)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    print(f"{'P':>4}  {'schedule':<20} {'us/replay':>10} {'us/compile':>11}")
    for p in args.ps:
        for name, specs in bookings(p).items():
            calls = max(20, args.calls * 4 // p)
            replay_us = us_per_booking(p, specs, calls, args.repeat)
            compile_us = us_per_compile(specs, calls, args.repeat)
            print(f"{p:>4}  {name:<20} {replay_us:>10.2f} {compile_us:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
