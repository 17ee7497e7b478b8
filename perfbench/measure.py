"""The measuring process: one workload, one phase, pinned to one CPU.

``run.py`` starts :func:`child_main` in a fresh subprocess.  Phases:
``setup`` (set up and exit — extra samples for ``setup_s``), ``e2e``
(untraced timed repetitions: the end-to-end metrics), ``layers`` (probes,
untraced reference repetitions, traced repetitions: the per-layer metrics)
and ``unpinned`` (five repetitions without CPU affinity).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from typing import Any, Dict, List

import numpy as np
from repro.comm import resolve_runner

import hooks
import probes
import spec
import workloads
from workloads import volume_over_k

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(PERFBENCH, "results")

#: Host time is reported at a reference speed.  This 2-vCPU box has
#: episodes, tens of seconds to minutes long and invisible to cpu/wall, in
#: which everything (imports, numpy, hand-offs) runs 1.2-2x slower; ten
#: runs of one commit then spread 15-45 % on any raw host statistic.  A
#: fixed calibration kernel (Python bytecode + small numpy calls, no
#: ``repro`` code) is timed right before and after every repetition and the
#: repetition's time is scaled by ``CAL_REF_MS / kernel time``: a slow
#: episode scales both, a slower program only the repetition.  (Measured:
#: ten runs spread 1-6 % scaled where the raw lower quartile spreads
#: 5-12 %; under a CPU hog on the same core, raw +90 %, scaled -8 %.)
CAL_REF_MS = 5.0

#: repetitions never exceed this, whatever the budget (bounds the memory of
#: the per-repetition samples)
MAX_REPS = 400
UNPINNED_REPS = 5


def child_main(args) -> int:
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    calibrate = Calibration()
    cal = calibrate()
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.make(args.workload, args.seed, scale)
    wl.run(wl.variants[0])                  # warm-up: schedule caches, splits
    # set-up ends here; the parent scales it by the host speed it saw
    print("READY", CAL_REF_MS / (0.5 * (cal + calibrate())), flush=True)
    if args.child == "setup":
        return 0
    if args.child == "e2e":
        out = measure_e2e(wl, args.seconds, calibrate)
    elif args.child == "layers":
        out = measure_layers(wl, args.seed, args.seconds, calibrate)
    else:
        out = {"host_ms_per_step": [
            _timed(calibrate, wl, wl.variants[0])[1]
            for _ in range(2 if args.smoke else UNPINNED_REPS)]}
    out["provenance"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu": args.cpu, "seed": args.seed, "variants": len(wl.variants),
        "runner": resolve_runner(), **out.get("provenance", {})}
    print(json.dumps(out))
    return 0


class Calibration:
    """The calibration kernel; calling it returns the milliseconds it
    takes right now (about ``CAL_REF_MS`` on this box when nothing
    interferes)."""

    def __init__(self) -> None:
        self._buf = np.random.default_rng(0).standard_normal(
            50_000).astype(np.float32)

    def __call__(self) -> float:
        buf = self._buf
        t0 = time.perf_counter()
        acc = 0
        for i in range(33_000):
            acc += (i * i) % 7
        for _ in range(33):
            np.partition(np.abs(buf), 1000)
            buf.sum()
        return (time.perf_counter() - t0) * 1e3


def _timed(calibrate: Calibration, wl, variant, **kwargs):
    """One repetition: (host ms per step at reference speed, raw host ms
    per step, cpu / wall, Rep).  Garbage of the previous repetition
    (engine/network cycles) is collected first, outside the timed region,
    so peak RSS does not grow with the number of repetitions."""
    gc.collect()
    cal = calibrate()
    w0, c0 = time.perf_counter(), time.process_time()
    rep = wl.run(variant, **kwargs)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    cal = 0.5 * (cal + calibrate())
    raw = wall / rep.steps * 1e3
    return raw * CAL_REF_MS / cal, raw, cpu / wall, rep


def _more(done: int, least: int, t_end: float) -> bool:
    """At least ``least`` repetitions, then until ``t_end`` (``--smoke``
    runs with a budget of 0 seconds, i.e. exactly ``least``)."""
    return done < least or (done < MAX_REPS and time.perf_counter() < t_end)


def _pct(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# End to end (untraced)
# ---------------------------------------------------------------------------
def measure_e2e(wl, seconds: float, calibrate: Calibration
                ) -> Dict[str, Any]:
    variants = wl.variants
    first: Dict[int, Any] = {}              # variant -> its first Rep
    walls: List[float] = []                 # at reference speed
    raws: List[float] = []                  # as the clock read
    cpu_share: List[float] = []
    attempted = failed = nondeterministic = 0
    errors: List[str] = []
    deadline = time.perf_counter() + seconds
    i = 0
    # every variant runs at least once (the simulated metrics pool over
    # them); after that, cycle until the time is up
    while _more(i, len(variants), deadline):
        v = i % len(variants)
        i += 1
        try:
            wall, raw, share, rep = _timed(calibrate, wl, variants[v])
        except Exception:                   # a failed repetition is a result
            traceback.print_exc()
            errors.append(f"repetition {i} raised")
            attempted += wl.ops_per_rep
            failed += wl.ops_per_rep
            continue
        walls.append(wall)
        raws.append(raw)
        cpu_share.append(share)
        attempted += rep.attempted
        failed += rep.failed
        if v not in first:
            first[v] = rep
        elif rep.digest != first[v].digest:
            nondeterministic += 1
    reps = [first[v] for v in sorted(first)]
    errors += wl.check(reps)
    if nondeterministic:
        errors.append(f"{nondeterministic} repetitions differ from the "
                      "first run of the same input")
    if failed:
        errors.append(f"{failed} of {attempted} operations failed")

    sim = statistics.fmean(s for r in reps for s in r.per_step)
    # the baseline runs on the first ``baseline_variants`` inputs and is
    # compared with this run's result on the same inputs
    nb = wl.baseline_variants
    base = statistics.fmean(
        s for v in variants[:nb] for s in wl.baseline(v).per_step)
    matched = statistics.fmean(s for r in reps[:nb] for s in r.per_step)
    metrics = {
        "host_ms_per_step_p25": _pct(walls, 25.0),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ms_per_step": sim * 1e3,
        "sim_step_ms_p99": _pct(
            [s for r in reps for s in r.tail], 99.0) * 1e3,
        "sim_speedup_vs_baseline": base / matched,
    }
    share = statistics.median(cpu_share)
    return {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": metrics, "errors": errors,
        "samples": {"host_ms_per_step": walls, "raw_host_ms_per_step": raws,
                    "cpu_over_wall": cpu_share},
        "digests": [r.digest for r in reps],
        "provenance": {"repetitions": len(walls),
                       "host_ms_per_step_p50": statistics.median(walls),
                       "host_ms_per_step_p75": _pct(walls, 75.0),
                       "raw_host_ms_per_step_p25": _pct(raws, 25.0),
                       "host_speed": statistics.median(
                           w / r for w, r in zip(walls, raws)),
                       "cpu_over_wall_p50": share,
                       "noisy_host": share < 0.9},
    }


# ---------------------------------------------------------------------------
# Per layer (probes, untraced reference, traced)
# ---------------------------------------------------------------------------
def measure_layers(wl, seed: int, seconds: float, calibrate: Calibration
                   ) -> Dict[str, Any]:
    variant = wl.variants[0]
    t_start = time.perf_counter()
    metrics: Dict[str, float] = dict.fromkeys(spec.names("layers"), 0.0)
    metrics.update(probes.run_probes(wl, seed))
    if wl.kind == "serve":
        metrics["serve.sim_slo_rate_req_s"] = wl.slo_rate()

    # untraced reference repetitions (until half the budget is gone), with
    # per-iteration host stamps
    untraced: List[float] = []              # as the clock read
    untraced_ref: List[float] = []          # at reference speed
    stamps: Dict[int, List[float]] = {}
    ref = None
    while _more(len(untraced), 2, t_start + 0.5 * seconds):
        stamps.clear()
        scaled, raw, _, ref = _timed(calibrate, wl, variant, stamps=stamps)
        untraced.append(raw)
        untraced_ref.append(scaled)
    if stamps:
        # one surviving rank's view: between two of its iteration ends
        # every other rank ran its iteration too (one CPU, lockstep)
        ends = max(stamps.values(), key=len)
        gaps = [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]
        metrics["train.iter_host_ms_p50"] = statistics.median(gaps)
        metrics["train.iter_host_ms_p99"] = _pct(gaps, 99.0)

    # traced repetitions (the rest of the budget)
    tracer = hooks.Tracer().install()
    traced: List[float] = []
    traced_ref: List[float] = []
    layer_ns: Dict[str, int] = defaultdict(int)
    layer_calls: Dict[str, int] = defaultdict(int)
    unattributed = accounted = wall_ns = steps = attempted = failed = 0
    errors: List[str] = []
    spans = rep = None
    while _more(len(traced), 2, t_start + seconds):
        gc.collect()
        cal = calibrate()
        tracer.reset(record_spans=spans is None)
        t0 = time.perf_counter_ns()
        rep = wl.run(variant)
        accounted += tracer.flush()
        wall = time.perf_counter_ns() - t0
        cal = 0.5 * (cal + calibrate())
        wall_ns += wall
        traced.append(wall / 1e6 / rep.steps)
        traced_ref.append(traced[-1] * CAL_REF_MS / cal)
        steps += rep.steps
        attempted += rep.attempted
        failed += rep.failed
        unattributed += tracer.unattributed_ns
        for layer, (ns, calls) in tracer.layer_totals().items():
            layer_ns[layer] += ns
            layer_calls[layer] += calls
        if spans is None:
            spans = tracer.spans
        if rep.digest != ref.digest:
            errors.append("traced repetition changed the simulated result")
    if abs(accounted - wall_ns) > 0.02 * wall_ns:
        errors.append(f"trace accounts for {accounted / wall_ns:.3f} of the "
                      "traced wall time")
    errors += wl.check([rep])

    for layer in hooks.LAYERS:
        metrics[f"{layer}.self_ms_per_step"] = layer_ns[layer] / 1e6 / steps
        metrics[f"{layer}.calls_per_step"] = layer_calls[layer] / steps
    metrics["trace.unattributed_share"] = unattributed / wall_ns
    metrics["trace.overhead_ratio"] = (_pct(traced_ref, 25.0)
                                       / _pct(untraced_ref, 25.0))
    metrics["trace.missing_hooks"] = float(len(tracer.missing))
    net = tracer.networks[-1]
    metrics.update(exact_counters(wl, rep, tracer, net, errors))
    write_trace(wl.name, seed, tracer, spans)
    return {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": metrics, "errors": errors,
        "samples": {"untraced_host_ms_per_step": untraced,
                    "traced_host_ms_per_step": traced},
        "call_sites": call_sites(tracer, net),
        "provenance": {
            "engine": sorted(tracer.engine_classes),
            "missing_hooks": tracer.missing,
            "algorithm_log": net.algorithm_provenance()},
    }


def exact_counters(wl, rep, tracer, net, errors: List[str]
                   ) -> Dict[str, float]:
    """Counts and simulated-clock values of the last traced repetition,
    read from public state (exact for a given seed)."""
    n = rep.steps
    stats = net.stats()
    ops = tracer.collective_calls
    words = [w for _, w in ops]
    small = sum(v["calls"] for k, v in net.algorithm_log.items()
                if k[2] == "unfused-small")
    metrics = {
        "comm.network.msgs_per_step": float(stats.msgs_sent.sum()) / n,
        "comm.network.words_per_step": float(stats.total_words) / n,
        "comm.network.max_rank_words_per_step":
            float(stats.max_words_recv) / n,
        "comm.collectives.ops_per_step": len(ops) / n,
        "comm.collectives.words_per_call_p50":
            statistics.median(words) if words else 0.0,
        "comm.collectives.words_per_call_max":
            float(max(words)) if words else 0.0,
        "comm.fused.rendezvous_calls_per_step":
            sum(tracer.rendezvous.values()) / n,
        "comm.fused.replays_per_step":
            tracer.calls_of("comm.fused", "replay") / n,
        "comm.fused.small_skip_share": small / len(ops) if ops else 0.0,
        "comm.engine.blocking_matches_per_step":
            tracer.calls_of("comm.engine", "CoopEngine.match_blocking") / n,
    }
    d = rep.detail
    if wl.kind == "serve":
        report = d["report"]
        metrics.update({
            "serve.loop.decode_steps_per_token":
                report.steps.get("decode_steps", 0) / n,
            "serve.loop.prefill_batches_per_request":
                report.steps.get("prefill_batches", 0) / len(report.requests),
            "serve.loop.recoveries": float(len(report.events)),
            "serve.sim_ttft_p95_ms": _pct(d["ttft"], 95.0) * 1e3,
        })
        return metrics
    recs = d["records"]
    ms = 1e3 / len(recs)
    metrics.update({
        "train.rankbatch.engaged": float(d["engaged"]),
        "allreduce.sim_sparsify_ms_per_step":
            sum(r.sparsify_time for r in recs) * ms,
        "comm.sim_visible_comm_ms_per_step": sum(
            r.iteration_time - r.compute_time - r.sparsify_time
            for r in recs) * ms,
        "nn.sim_compute_ms_per_step": sum(r.compute_time for r in recs) * ms,
        "allreduce.sim_overlap_saved_ms_per_step":
            sum(r.overlap_saved for r in recs) * ms,
        "allreduce.buckets_per_step":
            sum(r.nbuckets for r in recs) / len(recs),
        "allreduce.stream_fallback_steps":
            float(sum(r.stream_fallback for r in recs)),
        "allreduce.selected_over_k":
            sum(r.selected or 0 for r in recs) / len(recs) / max(1, d["k"]),
        "allreduce.threshold_evals_per_step":
            d["threshold_evals"] / len(recs),
        "allreduce.balancing_share": d["balancing"] / len(recs),
        "allreduce.volume_over_k": volume_over_k(rep),
        "train.final_loss": recs[-1].loss,
    })
    # the paper's breakdown (Figs 8/10/12) sums to the whole
    parts = (metrics["allreduce.sim_sparsify_ms_per_step"]
             + metrics["comm.sim_visible_comm_ms_per_step"]
             + metrics["nn.sim_compute_ms_per_step"])
    total = sum(r.iteration_time for r in recs) * ms
    if abs(parts - total) > 1e-9 * total:
        errors.append("simulated breakdown does not sum to the whole")
    return metrics


def write_trace(name: str, seed: int, tracer, spans) -> None:
    """Spans were kept in memory; write them out once."""
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}.trace.json"), "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "hooks": tracer.names,
            "span_fields": ["hook", "thread", "start_ns", "end_ns",
                            "self_ns", "parent_span"],
            "spans_of": "first traced repetition",
            "truncated": len(spans) >= hooks.SPAN_CAP,
            "spans": [s for s in spans if s is not None],
        }, fh)


def call_sites(tracer, net) -> List[Dict[str, Any]]:
    """Per-collective call-site table: rows of (collective, algorithm,
    mode) with calls, payload words p50 / max and share of all words —
    the collective wrappers' per-call records joined with
    ``Network.algorithm_log`` for the allreduce algorithm and mode, plus
    one row per rendezvous kind that is not a ``comm.collectives`` call."""
    by_fn: Dict[str, List[int]] = defaultdict(list)
    for fn, words in tracer.collective_calls:
        by_fn[fn].append(words)
    modes: Dict[tuple, List[str]] = defaultdict(list)
    for (coll, algo, mode) in net.algorithm_log:
        modes[(coll, algo)].append(mode)
    total = sum(sum(ws) for ws in by_fn.values()) or 1
    rows = []
    for fn, ws in sorted(by_fn.items()):
        coll, algo = (("allreduce", fn[len("allreduce_"):])
                      if fn.startswith("allreduce_") else (fn, "-"))
        rows.append({
            "collective": coll, "algorithm": algo,
            "mode": "+".join(sorted(modes.get((coll, algo), []))) or "-",
            "calls": len(ws), "words_p50": statistics.median(ws),
            "words_max": max(ws), "words_share": sum(ws) / total})
    for (kind, layer), calls in sorted(tracer.rendezvous.items()):
        if layer != "comm.fused":
            rows.append({"collective": f"{layer}:{kind}", "algorithm": "-",
                         "mode": "rendezvous", "calls": calls // net.nranks,
                         "words_p50": 0, "words_max": 0, "words_share": 0.0})
    return rows
