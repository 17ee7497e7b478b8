#!/usr/bin/env python
"""Host cost of one schedule replay (``repro.comm.fused.replay``).

Books the cached compiled schedules of the dense allreduces (recursive
doubling, Rabenseifner, ring reduce-scatter + allgather) and of a Bruck
allgatherv against a fresh network, and prints the median microseconds
per booking over ``--repeat`` timed batches of ``--calls`` bookings each.
No data is touched: this is the link / clock arithmetic alone, the part of
every fused collective that grows with the number of messages.

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
    """``name -> schedules booked back to back`` at ``p`` ranks."""
    return {
        "recursive_doubling": [
            fused.compile_allreduce(p, WORDS, 1, "recursive_doubling")],
        "rabenseifner": [fused.compile_allreduce(p, WORDS, 1, "rabenseifner")],
        "ring RS+AG": [fused.compile_reduce_scatter_ring(p, WORDS, 1),
                       fused.compile_allgather_ring(p, WORDS, 1)],
        "allgatherv": [fused.compile_allgatherv(
            p, tuple(16 + 3 * r for r in range(p)))],
    }


def us_per_booking(p: int, scheds, calls: int, repeat: int) -> float:
    net = Network(p)

    def run():
        for sched in scheds:
            fused.replay(net, sched)

    times = timeit.repeat(run, number=calls, repeat=repeat)
    return statistics.median(times) / calls * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ps", type=int, nargs="+", default=[4, 8, 16, 64])
    ap.add_argument("--calls", type=int, default=2000)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    print(f"{'P':>4}  {'schedule':<20} {'us/replay':>10}")
    for p in args.ps:
        for name, scheds in bookings(p).items():
            calls = max(20, args.calls * 4 // p)
            us = us_per_booking(p, scheds, calls, args.repeat)
            print(f"{p:>4}  {name:<20} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
