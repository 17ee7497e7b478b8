#!/usr/bin/env python
"""Wall-clock perf benchmark of the simulator itself (not simulated time).

Seeds and extends the repo's perf trajectory: times ``train_scheme`` for
{dense, gtopk, oktopk} at P in {4, 16} on the comm-dominated ``perf_mlp``
probe — under the cooperative runner with the **fused collective fast
path** (the default), the per-message **reference** path
(``REPRO_FUSED=0``) and the legacy **threaded** runner — plus
bucketed-session and streaming-session cases for {dense, topka, oktopk},
Ok-Topk **scale cases at P in {64, 128}** on both runners (coop /
threads, one sample per rank),
a pure comm-layer message-storm microbenchmark at P in {16, 64}, and a
**per-phase breakdown** (model compute / selection / comm layer / engine
hand-offs / fused dispatch) so a regression in any future run is
attributable to a specific layer.  Writes everything to
``BENCH_PERF.json`` (repo root) and prints tables.

Measurement notes
-----------------
* CPU time (``time.process_time``), min over ``--reps``, to damp the noisy
  shared-host scheduler; on this 1-CPU container CPU ~= wall.  Run-to-run
  drift of +-10-15% on the train rows is normal on this host — the
  microbenches (storm, barrier, hand-off) are the stable signals.
* ``speedup_coop_vs_threads`` compares the cooperative runner (fused
  unless ``--no-fused``) against the threaded fallback;
  ``speedup_fused_vs_reference`` isolates the fused fast path against the
  per-message path on the same engine.  ``meta.fused`` and the per-entry
  ``fused_path`` record which path produced each number.
* The PR-3 snapshot recorded dense P=4 coop at 0.77x of threads; that
  number does not reproduce at PR-4/PR-5 HEAD (the same code measures
  ~1.0-1.1x) — it was shared-host noise, not a code regression.  The
  structural cost it pointed at is real, though: every blocked receive is
  a parked-thread hand-off (see the ``engine_handoff`` breakdown row),
  which is exactly what the fused fast path removes (one rendezvous per
  *collective* instead of one hand-off per blocked receive — compare the
  ``fused_barrier`` row against ``reference_barrier``).

Usage::

    python benchmarks/bench_perf_wallclock.py [--quick] [--reps N]
        [--out F] [--no-fused]
"""

from __future__ import annotations

# repro-lint: ignore-file[RL001] -- this harness *measures* wall/CPU time by
# design (process_time best-of-N, timestamped report); nothing here feeds
# simulated state.
import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_table, perf_proxy, train_scheme  # noqa: E402
from repro.bench.harness import proxy_network  # noqa: E402
from repro.comm import FUSED_ENV, collectives as coll, fusion_enabled, \
    run_spmd  # noqa: E402
from repro.sparse import COOVector, exact_topk  # noqa: E402

SCHEMES = ("dense", "gtopk", "oktopk")
RUNNERS = ("coop", "threads")


def _min_time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


# ---------------------------------------------------------------------------
# train_scheme timings
# ---------------------------------------------------------------------------
def time_train_scheme(p: int, scheme: str, runner: str, iters: int,
                      reps: int, bucket_size: int | None = None,
                      overlap_mode: str = "analytic",
                      fused: bool | None = None) -> float:
    # P <= 16 keeps the historical probe (n_train=64, global_batch=16) so
    # the perf trajectory stays comparable across PRs; larger worlds need
    # global_batch >= P (ShardedLoader), so they run one sample per rank.
    proxy = (perf_proxy() if p <= 16
             else perf_proxy(n_train=p, global_batch=p))

    def run():
        os.environ["REPRO_SPMD_RUNNER"] = runner
        if fused is not None:
            os.environ[FUSED_ENV] = "1" if fused else "0"
        try:
            train_scheme(proxy, scheme, p, iters, density=0.02,
                         bucket_size=bucket_size,
                         overlap_mode=overlap_mode,
                         network=proxy_network())
        finally:
            os.environ.pop("REPRO_SPMD_RUNNER", None)
            if fused is not None:
                os.environ.pop(FUSED_ENV, None)

    run()  # warmup (imports, data caches)
    return _min_time(run, reps)


# ---------------------------------------------------------------------------
# comm-layer microbenchmark: COO message storm (the oktopk exchange shape)
# ---------------------------------------------------------------------------
def _storm_prog(comm, iters):
    p, r = comm.size, comm.rank
    vec = COOVector.from_arrays(10_000, np.arange(50, dtype=np.int32),
                                np.ones(50, dtype=np.float32))
    for _ in range(iters):
        reqs = []
        for s in range(1, p):
            reqs.append(comm.irecv((r - s) % p, 5))
            reqs.append(comm.isend(vec, (r + s) % p, 5))
        comm.waitall(reqs)
    return comm.clock


def time_storm(p: int, runner: str, iters: int, reps: int) -> dict:
    def run():
        run_spmd(p, _storm_prog, iters, runner=runner)

    run()
    secs = _min_time(run, reps)
    nmsg = p * (p - 1) * iters
    return {"seconds": secs, "messages": nmsg,
            "us_per_message": secs / nmsg * 1e6}


# ---------------------------------------------------------------------------
# Per-phase breakdown: attributable costs of one simulated iteration
# ---------------------------------------------------------------------------
def _barrier_prog(comm, iters):
    for _ in range(iters):
        coll.barrier(comm)
    return comm.clock


def _handoff_prog(comm, iters):
    # Strict alternation: every receive misses, so each round trip is two
    # parked-thread hand-offs — the engine's context-switch cost, isolated.
    for _ in range(iters):
        if comm.rank == 0:
            comm.recv(1, tag=6)
            comm.send(None, 1, tag=6)
        else:
            comm.send(None, 0, tag=6)
            comm.recv(0, tag=6)
    return comm.clock


def phase_breakdown(reps: int, quick: bool) -> dict:
    """Wall-clock cost of each layer a ``train_scheme`` iteration touches:
    model compute, top-k selection, the comm layer, engine hand-offs and
    the fused-collective dispatch.  All numbers are microseconds."""
    proxy = perf_proxy()
    train, _ = proxy.make_splits()
    model = proxy.make_model()
    x, y = train.x[:1], train.y[:1]
    n_model = model.nparams
    k = max(1, int(0.02 * n_model))
    grad = np.random.default_rng(0).standard_normal(n_model).astype(
        np.float32)

    iters = 60 if quick else 200
    compute = _min_time(
        lambda: [model.loss_and_grad(x, y) for _ in range(iters)], reps)
    selection = _min_time(
        lambda: [exact_topk(grad, k) for _ in range(iters)], reps)

    biters = 100 if quick else 400
    out: dict = {
        "model_compute_us": compute / iters * 1e6,
        "selection_topk_us": selection / iters * 1e6,
    }
    for name, fused in (("fused_barrier", True), ("reference_barrier",
                                                  False)):
        def run(fused=fused):
            run_spmd(16, _barrier_prog, biters, runner="coop", fused=fused)

        run()
        out[f"{name}_p16_us"] = _min_time(run, reps) / biters * 1e6

    hiters = 500 if quick else 2000

    def run_handoff():
        run_spmd(2, _handoff_prog, hiters, runner="coop")

    run_handoff()
    # two hand-offs + two zero-byte messages per iteration
    out["engine_handoff_us"] = _min_time(run_handoff, reps) / (
        2 * hiters) * 1e6
    return out


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Fault-plan degradation (simulated time, not wall-clock)
# ---------------------------------------------------------------------------
def fault_degradation(iters: int) -> dict:
    """Makespan degradation under a seeded p99 straggler + persistent slow
    link (``FaultPlan.straggler_skew``) for dense vs Ok-Topk at P=4.

    These are *simulated* seconds (deterministic — no reps needed): the
    pinned qualitative result is that the faulted run is strictly slower
    for both schemes (``degradation > 1``), while the no-plan run is
    byte-identical to a run without the fault machinery.
    """
    from repro.comm.faults import FaultPlan

    proxy = perf_proxy()
    plan = FaultPlan.straggler_skew(4, seed=42)
    out: dict = {"plan": plan.to_dict(), "p": 4, "iterations": iters}
    for scheme in ("dense", "oktopk"):
        clean = train_scheme(proxy, scheme, 4, iters, density=0.02,
                             network=proxy_network()).total_time
        faulted = train_scheme(proxy, scheme, 4, iters, density=0.02,
                               network=proxy_network(),
                               faults=plan).total_time
        out[scheme] = {
            "clean_sim_s": clean,
            "faulted_sim_s": faulted,
            "degradation": faulted / clean,
        }
    return out


# ---------------------------------------------------------------------------
# Serving regimes (simulated time, not wall-clock)
# ---------------------------------------------------------------------------
def serving_regimes(quick: bool) -> dict:
    """p50/p99 latency and goodput of the P=4 serving loop, per allreduce
    algorithm choice, in a latency-bound (decode-heavy), a bandwidth-bound
    (prefill-heavy) and a mixed regime.

    Simulated seconds — deterministic per (seed, config), no reps, and
    the same size in quick mode (it is cheap), so the quick gate
    reproduces the committed ratios bit-exactly.  The pinned qualitative
    result: the size-adaptive selector matches or beats both fixed
    choices on each regime's governing metric — **p99 inter-token
    latency** in the decode-bound regime (end-to-end makespan of a
    drained open-loop run is a batching outcome there: slower decode
    steps queue arrivals into bigger batches, trading per-token latency
    for fewer steps) and **makespan** in the prefill-bound and mixed
    regimes.  Provenance of the chosen schedules is recorded per run.
    """
    from dataclasses import replace

    from repro.serve import ServeConfig, simulate_serving

    del quick  # simulated time: full size always
    n = 32
    base = ServeConfig(p=4, n_requests=n, max_batch_size=8, seed=0)
    regimes = {
        "decode_bound": replace(base, rate=3000.0, prompt_tokens=4,
                                output_tokens=16),
        "prefill_bound": replace(base, rate=3000.0, prompt_tokens=192,
                                 output_tokens=1),
        "mixed": replace(base, rate=2000.0, prompt_tokens=96,
                         output_tokens=8),
    }
    out: dict = {"p": 4, "n_requests": n}
    for name, cfg in regimes.items():
        entry: dict = {"config": {
            "rate": cfg.rate, "prompt_tokens": cfg.prompt_tokens,
            "output_tokens": cfg.output_tokens}}
        for alg in ("latency", "bandwidth", "adaptive"):
            rep = simulate_serving(replace(cfg, algorithm=alg))
            s = rep.summary()
            entry[alg] = {
                "makespan_sim_s": s["makespan"],
                "goodput_tokens_per_s": s["goodput_tokens_per_s"],
                "ttft_p50": s["ttft_p50"], "ttft_p99": s["ttft_p99"],
                "itl_p50": s["itl_p50"], "itl_p99": s["itl_p99"],
                "latency_p50": s["latency_p50"],
                "latency_p99": s["latency_p99"],
                "algorithms": rep.algorithms,
            }
        metric = ("itl_p99" if name == "decode_bound"
                  else "makespan_sim_s")
        entry["metric"] = metric
        entry["adaptive_vs_latency"] = (
            entry["latency"][metric] / entry["adaptive"][metric])
        entry["adaptive_vs_bandwidth"] = (
            entry["bandwidth"][metric] / entry["adaptive"][metric])
        out[name] = entry
    return out


def serving_faults() -> dict:
    """Serving degradation under the fault model (simulated time): goodput
    and p99 inter-token latency of the P=4 mixed-regime serving run under
    (a) the seeded p99-straggler + slow-link plan and (b) a mid-run rank
    crash with elastic shrink-to-3 recovery, against the clean baseline.

    Deterministic — no reps.  The pinned qualitative results: the
    straggler plan strictly degrades goodput (``goodput_degradation >
    1``), and the crash run still completes every request
    (``availability == 1``) with a positive recovery time and goodput on
    both sides of the failure.
    """
    from repro.comm.faults import FaultPlan, RankCrash
    from repro.serve import ServeConfig, simulate_serving

    cfg = ServeConfig(p=4, rate=2000.0, n_requests=32, prompt_tokens=96,
                      output_tokens=8, max_batch_size=8, seed=0)

    def stats(rep) -> dict:
        s = rep.summary()
        return {"makespan_sim_s": s["makespan"],
                "goodput_tokens_per_s": s["goodput_tokens_per_s"],
                "itl_p99": s["itl_p99"]}

    clean = simulate_serving(cfg)
    out: dict = {"p": cfg.p, "n_requests": cfg.n_requests,
                 "clean": stats(clean)}

    strag_plan = FaultPlan.straggler_skew(cfg.p, seed=42)
    strag = simulate_serving(cfg, faults=strag_plan)
    out["straggler"] = {
        "plan": strag_plan.to_dict(), **stats(strag),
        "goodput_degradation": (
            out["clean"]["goodput_tokens_per_s"]
            / strag.summary()["goodput_tokens_per_s"]),
        "itl_p99_ratio": strag.summary()["itl_p99"]
        / out["clean"]["itl_p99"],
    }

    # crash mid-decode of the second admission cohort (first cohort's
    # completions already committed, second in flight — the serve_smoke
    # scenario, kept identical so the two reports cross-check)
    done = sorted(set(r.token_times[-1] for r in clean.requests))
    second = next(r for r in clean.requests
                  if r.token_times[0] > done[0] and len(r.token_times) >= 2)
    crash_t = 0.5 * (second.token_times[0] + second.token_times[1])
    crash_plan = FaultPlan(crashes=[RankCrash(rank=1, time=crash_t)],
                           detect_timeout=1e-4)
    crash = simulate_serving(cfg, faults=crash_plan)
    cs = crash.summary()
    out["crash"] = {
        "plan": crash_plan.to_dict(), **stats(crash),
        "availability": cs["availability"],
        "recovery_time_sim_s": cs["recovery_time"],
        "requeued": sum(len(ev["requeued"]) for ev in crash.events),
        "goodput_tokens_per_s_pre": cs["goodput_tokens_per_s_pre"],
        "goodput_tokens_per_s_post": cs["goodput_tokens_per_s_post"],
        "goodput_degradation": (
            out["clean"]["goodput_tokens_per_s"]
            / cs["goodput_tokens_per_s"]),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer iterations/reps (post-merge smoke mode)")
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--no-fused", action="store_true",
                    help="benchmark the per-message reference path "
                         "(REPRO_FUSED=0) instead of the fused fast path")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_PERF.json")
    args = ap.parse_args(argv)

    if args.no_fused:
        os.environ[FUSED_ENV] = "0"
    fused_on = fusion_enabled()

    if os.cpu_count() == 1:
        print("NOTE: single-CPU host — threaded-runner rows serialize "
              "behind the GIL; coop-vs-threads speedups understate the "
              "threads runner on multi-core hosts.", file=sys.stderr)

    # every speedups row feeds the post-merge perf regression gate
    # (run_all.py --quick): a single quick rep is too noisy on this
    # shared host for a 25% threshold, so quick mode still takes min-of-2
    # on the train rows and min-of-3 on the cheap storm rows.
    reps = args.reps or (2 if args.quick else 3)
    train_iters = 8 if args.quick else 30
    storm_iters = {16: 50 if args.quick else 100, 64: 5 if args.quick else 12}
    storm_reps = max(reps, 3)

    results: dict = {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            # CPU-time min-of-reps is host-portable, but the *threads*
            # columns are only meaningful relative to cores: on a 1-CPU
            # host the threaded runner serializes behind the GIL anyway,
            # so coop-vs-threads speedups understate what a multi-core
            # host would show for threads (and overstate coop's win).
            "cpu_note": ("single-CPU host: threaded-runner timings are "
                         "GIL-serialized; coop_vs_threads speedups are "
                         "not comparable to multi-core hosts"
                         if os.cpu_count() == 1 else
                         "multi-core host: threaded-runner timings "
                         "include real parallelism"),
            "commit": _git_head(),
            "quick": args.quick,
            "reps": reps,
            "fused": fused_on,
            "workload": {"proxy": "perf_mlp", "iterations": train_iters,
                         "density": 0.02},
        },
        "train_scheme": {},
        "comm_storm": {},
        "speedups": {},
    }

    rows = []
    for scheme in SCHEMES:
        results["train_scheme"][scheme] = {}
        for p in (4, 16):
            entry: dict = {"fused_path": fused_on}
            entry["coop"] = time_train_scheme(p, scheme, "coop",
                                              train_iters, reps)
            if fused_on:
                entry["coop_nofused"] = time_train_scheme(
                    p, scheme, "coop", train_iters, reps, fused=False)
            entry["threads"] = time_train_scheme(p, scheme, "threads",
                                                 train_iters, reps)
            entry["speedup_coop_vs_threads"] = entry["threads"] / entry["coop"]
            results["train_scheme"][scheme][str(p)] = entry
            key = f"{scheme}_p{p}"
            results["speedups"][f"{key}_coop_vs_threads"] = \
                entry["speedup_coop_vs_threads"]
            ref = entry.get("coop_nofused")
            if ref is not None:
                entry["speedup_fused_vs_reference"] = ref / entry["coop"]
                results["speedups"][f"{key}_fused_vs_reference"] = \
                    entry["speedup_fused_vs_reference"]
            rows.append([scheme, p, f"{entry['coop']:.3f}",
                         f"{ref:.3f}" if ref is not None else "-",
                         f"{entry['threads']:.3f}",
                         f"{entry['speedup_coop_vs_threads']:.2f}x"])

    # Scale cases: the paper's regime is P in the hundreds, so a P=128
    # Ok-Topk run is timed on both runners.  One sample per rank, few
    # iterations (wall seconds per iteration at P=128), min-of-1 in quick
    # mode.
    scale_rows = []
    results["train_scheme_scale"] = {}
    scale_reps = 1 if args.quick else 2
    for p, iters in ((64, 2 if args.quick else 4),
                     (128, 1 if args.quick else 2)):
        entry = {"fused_path": fused_on, "iterations": iters}
        for runner in RUNNERS:
            entry[runner] = time_train_scheme(p, "oktopk", runner, iters,
                                              scale_reps)
        entry["speedup_coop_vs_threads"] = entry["threads"] / entry["coop"]
        # deliberately NOT in results["speedups"]: at min-of-1/2 these
        # rows swing far more than the 25% gate threshold; they are
        # trajectory data, not a regression gate.
        results["train_scheme_scale"][str(p)] = entry
        scale_rows.append([p, iters, f"{entry['coop']:.3f}",
                           f"{entry['threads']:.3f}",
                           f"{entry['speedup_coop_vs_threads']:.2f}x"])

    # Bucketed-session path (native per-bucket reductions + overlap
    # accounting): tracks the session machinery's wall-clock overhead vs
    # the one-shot-equivalent default.  bucket_size=512 splits perf_mlp
    # into 2 buckets (the head layers close the first bucket).  oktopk
    # exercises the shared-state path (thresholds/boundaries read from the
    # full-gradient OkTopkState, refreshed once per due iteration).
    bucketed_rows = []
    results["train_scheme_bucketed"] = {}
    for scheme in ("dense", "topka", "oktopk"):
        entry = {"fused_path": fused_on}
        for runner in RUNNERS:
            entry[runner] = time_train_scheme(4, scheme, runner,
                                              train_iters, reps,
                                              bucket_size=512)
        entry["speedup_coop_vs_threads"] = entry["threads"] / entry["coop"]
        results["train_scheme_bucketed"][scheme] = {
            "p": 4, "bucket_size": 512, **entry}
        bucketed_rows.append([scheme, 4, f"{entry['coop']:.3f}",
                              f"{entry['threads']:.3f}",
                              f"{entry['speedup_coop_vs_threads']:.2f}x"])

    # Streaming sessions (--overlap-mode stream): the bucket reductions
    # run on the simulated clock during backward (async regions, clock
    # rewinds, per-segment compute pacing).  This row tracks the
    # wall-clock overhead of the discrete-event machinery against the
    # analytic replay on the identical workload.  The oktopk row is the
    # paper scheme's native bucketed-stream path (split-and-reduce +
    # balance-and-allgatherv per bucket, shared periodic state).
    stream_rows = []
    results["train_scheme_stream"] = {}
    for scheme in ("dense", "topka", "oktopk"):
        entry = {"fused_path": fused_on}
        for mode in ("analytic", "stream"):
            entry[mode] = time_train_scheme(4, scheme, "coop",
                                            train_iters, reps,
                                            bucket_size=512,
                                            overlap_mode=mode)
        entry["overhead_stream_vs_analytic"] = (
            entry["stream"] / entry["analytic"])
        results["train_scheme_stream"][scheme] = {
            "p": 4, "bucket_size": 512, **entry}
        stream_rows.append([scheme, 4, f"{entry['analytic']:.3f}",
                            f"{entry['stream']:.3f}",
                            f"{entry['overhead_stream_vs_analytic']:.2f}x"])

    storm_rows = []
    for p, iters in storm_iters.items():
        entry = {r: time_storm(p, r, iters, storm_reps) for r in RUNNERS}
        entry["speedup_coop_vs_threads"] = (
            entry["threads"]["seconds"] / entry["coop"]["seconds"])
        results["comm_storm"][str(p)] = entry
        storm_rows.append([p, f"{entry['coop']['us_per_message']:.1f}",
                           f"{entry['threads']['us_per_message']:.1f}",
                           f"{entry['speedup_coop_vs_threads']:.2f}x"])
        results["speedups"][f"storm_p{p}_coop_vs_threads"] = (
            entry["speedup_coop_vs_threads"])

    results["fault_degradation"] = fault_degradation(train_iters)

    results["serving"] = serving_regimes(args.quick)
    results["serving_faults"] = serving_faults()
    for regime in ("decode_bound", "prefill_bound", "mixed"):
        entry = results["serving"][regime]
        # simulated-time ratios: deterministic, so gate-stable at any
        # threshold — a drop means the selector itself changed
        results["speedups"][f"serve_{regime}_adaptive_vs_latency"] = \
            entry["adaptive_vs_latency"]
        results["speedups"][f"serve_{regime}_adaptive_vs_bandwidth"] = \
            entry["adaptive_vs_bandwidth"]

    results["phase_breakdown"] = phase_breakdown(reps, args.quick)
    if fused_on:
        results["speedups"]["barrier_p16_fused_vs_reference"] = (
            results["phase_breakdown"]["reference_barrier_p16_us"]
            / results["phase_breakdown"]["fused_barrier_p16_us"])

    print(format_table(
        ["scheme", "P", "coop (s)", "coop-ref (s)", "threads (s)",
         "speedup"],
        rows, title=f"train_scheme wall-clock ({train_iters} iters, "
                    f"perf_mlp probe, min of {reps}, "
                    f"fused={'on' if fused_on else 'off'})"))
    print()
    print(format_table(
        ["P", "iters", "coop (s)", "threads (s)", "speedup"],
        scale_rows,
        title="scale cases (oktopk, one sample per rank, "
              f"min of {scale_reps})"))
    print()
    print(format_table(
        ["scheme", "P", "coop (s)", "threads (s)", "speedup"],
        bucketed_rows,
        title="bucketed sessions (bucket_size=512, perf_mlp probe)"))
    print()
    print(format_table(
        ["scheme", "P", "analytic (s)", "stream (s)", "overhead"],
        stream_rows,
        title="streaming sessions (--overlap-mode stream, coop runner)"))
    print()
    print(format_table(
        ["P", "coop (us/msg)", "threads (us/msg)", "speedup"],
        storm_rows, title="comm-layer message storm (COO payloads)"))
    print()
    fd = results["fault_degradation"]
    print(format_table(
        ["scheme", "clean (sim s)", "faulted (sim s)", "degradation"],
        [[s, f"{fd[s]['clean_sim_s']:.4f}", f"{fd[s]['faulted_sim_s']:.4f}",
          f"{fd[s]['degradation']:.2f}x"] for s in ("dense", "oktopk")],
        title="fault-plan degradation (seeded p99 straggler + slow link, "
              "P=4, simulated time)"))
    print()
    sv = results["serving"]
    sv_rows = []
    for regime in ("decode_bound", "prefill_bound", "mixed"):
        for alg in ("latency", "bandwidth", "adaptive"):
            e = sv[regime][alg]
            itl = e["itl_p99"]
            sv_rows.append([
                regime, alg, f"{e['makespan_sim_s'] * 1e3:.3f}",
                f"{e['ttft_p99'] * 1e6:.1f}",
                f"{itl * 1e6:.1f}" if itl == itl else "-",
                f"{e['goodput_tokens_per_s']:.0f}"])
    print(format_table(
        ["regime", "algorithm", "makespan (ms)", "ttft p99 (us)",
         "itl p99 (us)", "goodput (tok/s)"],
        sv_rows,
        title=f"serving regimes (P=4, {sv['n_requests']} requests, "
              "simulated time; adaptive = size-based selector)"))
    print()
    sf = results["serving_faults"]
    sf_rows = []
    for name in ("clean", "straggler", "crash"):
        e = sf[name]
        sf_rows.append([
            name, f"{e['makespan_sim_s'] * 1e3:.3f}",
            f"{e['goodput_tokens_per_s']:.0f}",
            f"{e['itl_p99'] * 1e6:.1f}",
            f"{e['goodput_degradation']:.2f}x" if name != "clean" else "-",
            (f"{e['recovery_time_sim_s'] * 1e3:.3f}"
             if name == "crash" else "-")])
    print(format_table(
        ["scenario", "makespan (ms)", "goodput (tok/s)", "itl p99 (us)",
         "degradation", "recovery (ms)"],
        sf_rows,
        title=f"serving under faults (P=4, {sf['n_requests']} requests, "
              "mixed regime, simulated time; crash = mid-run rank "
              "failure, shrink 4 -> 3)"))
    print()
    pb = results["phase_breakdown"]
    print(format_table(
        ["phase", "us"],
        [[k, f"{v:.1f}"] for k, v in pb.items()],
        title="per-phase breakdown (one perf_mlp rank / one collective)"))

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except Exception:  # pragma: no cover - git may be absent
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
