#!/usr/bin/env python3
"""Compare two perfbench result files (``perfbench/results/*.json`` or
``run.py --out``), one row per (workload, end-to-end metric).

    python3 perfbench/compare.py A.json B.json      # A = parent, B = change

Verdicts: ``regressed`` — B is worse than A by more than the metric's bound;
``improved`` — better by more than the bound; ``unresolved`` — the quartile
spread of the per-repetition samples is wider than the bound, so the pair
cannot tell; ``unchanged`` otherwise.  When both files used the same seed
the simulated clock is exact: any worsening of a ``sim_*`` metric beyond
1e-9 relative is a regression, digests must match, and every exact
per-layer counter that moved is listed.  Exit code 1 on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

import spec

EXACT_TOL = 1e-9


def quartile_spread(samples: Optional[List[float]]) -> float:
    """(Q3 - Q1) / median of a run's per-repetition samples; 0 for an
    exact metric (no samples)."""
    if not samples or len(samples) < 2:
        return 0.0
    if len(samples) < 4:                    # e.g. the 3 set-up samples
        return (max(samples) - min(samples)) / statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def _samples(e2e: Dict[str, Any], metric: str) -> Optional[List[float]]:
    samples = e2e.get("samples", {})
    if metric.startswith("host_ms_per_step"):
        return samples.get("host_ms_per_step")
    return samples.get(metric)


def verdict(a: float, b: float, better: str, bound: float,
            spread: float) -> Tuple[float, str]:
    """Relative worsening of b against a (negative = better), verdict."""
    if a == 0:
        return 0.0, "unchanged" if b == 0 else "unresolved"
    worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[tuple], List[str]]:
    """Rows (workload, metric, a, b, worsening, verdict) and notes."""
    rows: List[tuple] = []
    notes: List[str] = []
    same_seed = (a.get("provenance", {}).get("seed")
                 == b.get("provenance", {}).get("seed"))
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            notes.append(f"{name}: missing from B")
            continue
        if "e2e" in wa and "e2e" in wb:
            ea, eb = wa["e2e"], wb["e2e"]
            for metric, _, better, bound, _ in spec.END_TO_END:
                exact = same_seed and metric.startswith("sim_")
                spread = max(quartile_spread(_samples(ea, metric)),
                             quartile_spread(_samples(eb, metric)))
                worse, v = verdict(ea["metrics"][metric],
                                   eb["metrics"][metric], better,
                                   EXACT_TOL if exact else bound, spread)
                rows.append((name, metric, ea["metrics"][metric],
                             eb["metrics"][metric], worse, v))
            if same_seed and ea.get("digests") != eb.get("digests"):
                notes.append(f"{name}: simulated digests differ")
            for side, e in (("A", ea), ("B", eb)):
                if not e["correct"] or e["failed"]:
                    notes.append(f"{name}: {side} failed its checks: "
                                 f"{e.get('errors')}")
        if same_seed and "layers" in wa and "layers" in wb:
            la, lb = wa["layers"]["metrics"], wb["layers"]["metrics"]
            for metric in spec.EXACT_PER_LAYER:
                if metric in la and metric in lb and \
                        abs(la[metric] - lb[metric]) > EXACT_TOL * abs(la[metric]):
                    notes.append(f"{name}: exact counter {metric} "
                                 f"{la[metric]:.6g} -> {lb[metric]:.6g}")
    return rows, notes


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows, notes = compare(json.load(fa), json.load(fb))
    print(f"{'workload':30s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s}  verdict")
    for name, metric, va, vb, worse, v in rows:
        print(f"{name:30s} {metric:26s} {va:12.6g} {vb:12.6g} "
              f"{worse * 100:8.2f}%  {v}")
    for note in notes:
        print("note:", note)
    counts = {v: sum(1 for r in rows if r[5] == v)
              for v in ("improved", "unchanged", "regressed", "unresolved")}
    print("  ".join(f"{k} {n}" for k, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
