"""What the benchmark measures: metric names, units, directions, bounds, and
which layer metric should move which end-to-end metric on which workload.

``BENCHMARK.json`` at the repo root is ``benchmark_definition()`` written
out (``python3 perfbench/spec.py > BENCHMARK.json``); the test suite checks
the two agree.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from hooks import LAYERS

RUN_SECONDS = 20

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("train-oktopk-mlp-p16",
     "Ok-Topk on the fully fast path (fused rendezvous, rank-batched "
     "compute): engine, fused-schedule and selection/threshold work shows "
     "here"),
    ("train-oktopk-mlp-p16-faulted",
     "same model under a straggler, a slow link and a mid-run crash: a plan "
     "switches fusion and rank batching off, so the per-message path and "
     "elastic recovery do the work"),
    ("train-oktopk-bert-p8-stream",
     "attention/LayerNorm do not rank-batch and 6 buckets stream during "
     "backward: per-rank model math and session/bucket machinery dominate, "
     "the engine does little"),
    ("serve-mixed-p4",
     "open-loop Poisson serving below the knee: small latency-bound "
     "collectives training never issues; bypasses nn/sparse/allreduce, "
     "exercises fused replay, engine and serve loop"),
)

#: name, unit, better, bound (share of the parent's median), definition
END_TO_END: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25,
     "process start -> ready to time: imports, input generation, one "
     "warm-up repetition; median of 3 fresh processes, at reference speed"),
    ("host_ms_per_step_p25", "ms", "lower", 0.25,
     "lower quartile over the timed repetitions of wall time / steps, each "
     "scaled to reference speed by a calibration kernel timed around it "
     "(interference only ever adds time, and slow episodes of this host "
     "scale everything)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "ru_maxrss of the measuring process"),
    ("sim_ms_per_step", "ms", "lower", 0.20,
     "mean simulated time per step pooled over the run's input variants "
     "(train: iteration_time of the first survivor; serve: request latency "
     "/ output tokens, the normalized latency)"),
    ("sim_step_ms_p99", "ms", "lower", 0.15,
     "99th percentile of simulated per-step latency pooled over the "
     "variants (train: iteration time; serve: inter-token latency)"),
    ("sim_speedup_vs_baseline", "x", "higher", 0.20,
     "simulated time per step of the textbook baseline / this (train: "
     "dense allreduce, the paper's headline ratio; serve: the ring "
     "allreduce for every message instead of the size-adaptive choice)"),
)

#: about the traced run itself (host-clock, noisy)
_TRACE_METRICS = (
    ("trace.unattributed_share", "share",
     "traced wall time outside every hooked callable / traced wall time"),
    ("trace.overhead_ratio", "x",
     "traced / untraced host_ms_per_step_p25 (reference speed) in the same "
     "process"),
    ("trace.missing_hooks", "count",
     "hook-table entries not found (renamed or deleted callables)"),
)

#: exact for a given seed: counts and simulated-clock values read from
#: public state after a traced repetition of the run's first variant
_COUNTERS = (
    ("comm.network.msgs_per_step", "count", "messages sent / steps"),
    ("comm.network.words_per_step", "words", "words sent / steps"),
    ("comm.network.max_rank_words_per_step", "words",
     "max over ranks of words received / steps"),
    ("comm.collectives.ops_per_step", "count",
     "collective operations of the world (rank 0's outermost calls) / "
     "steps"),
    ("comm.collectives.words_per_call_p50", "words",
     "median payload words of those operations"),
    ("comm.collectives.words_per_call_max", "words", "largest payload"),
    ("comm.fused.rendezvous_calls_per_step", "count",
     "calls into SimComm.fused_collective (all ranks) / steps"),
    ("comm.fused.replays_per_step", "count",
     "calls of comm.fused.replay / steps"),
    ("comm.fused.small_skip_share", "share",
     "unfused-small entries of algorithm_log / collective operations"),
    ("comm.engine.blocking_matches_per_step", "count",
     "calls of CoopEngine.match_blocking (potential hand-offs) / steps"),
    ("train.rankbatch.engaged", "count",
     "1 when rank batching was engaged at the end of the run"),
    ("allreduce.sim_sparsify_ms_per_step", "ms",
     "simulated sparsification time / iteration"),
    ("comm.sim_visible_comm_ms_per_step", "ms",
     "simulated communication not hidden behind compute / iteration"),
    ("nn.sim_compute_ms_per_step", "ms",
     "simulated computation time / iteration"),
    ("allreduce.sim_overlap_saved_ms_per_step", "ms",
     "simulated communication hidden by overlap / iteration"),
    ("allreduce.buckets_per_step", "count", "session buckets / iteration"),
    ("allreduce.stream_fallback_steps", "count",
     "iterations whose stream session fell back to post-backward"),
    ("allreduce.selected_over_k", "x", "mean selected entries / k"),
    ("allreduce.threshold_evals_per_step", "count",
     "local + global threshold re-evaluations / iteration"),
    ("allreduce.balancing_share", "share",
     "iterations in which data balancing triggered / iterations"),
    ("allreduce.volume_over_k", "x",
     "Table 1: max over ranks of words received / (iterations * k)"),
    ("train.final_loss", "loss", "training loss at the last iteration"),
    ("serve.loop.decode_steps_per_token", "count",
     "decode steps / generated tokens"),
    ("serve.loop.prefill_batches_per_request", "count",
     "prefill batches / requests"),
    ("serve.loop.recoveries", "count", "elastic recovery events"),
    ("serve.sim_ttft_p95_ms", "ms",
     "simulated time to first token, 95th percentile"),
    ("serve.sim_slo_rate_req_s", "req/s",
     "highest rate of {2000,4000,6000,8000} req/s with TTFT p95 <= 2 ms, "
     "ITL p99 <= 1 ms and goodput >= 0.95 x offered"),
)

#: isolated probes: median host time of direct calls at the workload's own
#: sizes (host-clock, noisy)
_PROBES = (
    ("nn.fwdbwd_us", "us", "FlatModel.loss_and_grad on one rank's shard"),
    ("nn.stacked_fwdbwd_us_per_rank", "us",
     "StackedModel.loss_and_grad over P models / P"),
    ("sparse.topk_us", "us", "exact_topk at (n, k)"),
    ("sparse.threshold_select_us", "us", "threshold_select at (n, k)"),
    ("sparse.combine_sum_us", "us",
     "combine_sum of P region pieces of k-sparse vectors"),
    ("comm.engine.handoff_us", "us", "2-rank ping-pong / hand-offs"),
    ("comm.network.p2p_us_per_msg", "us",
     "all-pairs COO isend/irecv storm at P / messages"),
    ("comm.collectives.allreduce_us", "us",
     "dense allreduce of the workload's typical size, whole world"),
    ("comm.collectives.allreduce_faulted_us", "us",
     "the same call under a factor-1.0 straggler plan (per-message path)"),
    ("comm.collectives.allgatherv_us", "us",
     "allgatherv of one small COO vector per rank"),
    ("allreduce.reduce_us", "us",
     "one-shot Ok-Topk reduce of a Gaussian gradient at (n, k, P)"),
    ("allreduce.bucketed_vs_oneshot_host_ratio", "x",
     "host time of a repetition / the same repetition one-shot"),
    ("serve.batcher.decision_us", "us",
     "DynamicBatcher next_decision + admit, per decision"),
    ("serve.model.step_us", "us",
     "TPDecodeModel.step at a full decode batch, whole world"),
    ("train.iter_host_ms_p50", "ms",
     "host time between consecutive iteration ends, untraced"),
    ("train.iter_host_ms_p99", "ms", "99th percentile of the same"),
    ("comm.engine.unpinned_slowdown", "x",
     "median host ms per step of 5 repetitions in an unpinned process / "
     "the pinned untraced median"),
)

#: name, unit, definition — every one is reported for every workload (0
#: where the layer does nothing); per-layer metrics carry no bound
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(f"{layer}.self_ms_per_step", "ms",
      f"exclusive host time in {layer}'s hooked callables / steps")
     for layer in LAYERS]
    + [(f"{layer}.calls_per_step", "count",
        f"calls of {layer}'s hooked callables (all ranks) / steps")
       for layer in LAYERS]
    + list(_TRACE_METRICS + _COUNTERS + _PROBES))

#: per-layer metrics that repeat exactly for a given seed (compare.py
#: lists every one that moved)
EXACT_PER_LAYER: Tuple[str, ...] = tuple(
    [f"{layer}.calls_per_step" for layer in LAYERS]
    + [name for name, _, _ in _COUNTERS])

#: which layer metrics should move which end-to-end metric, where —
#: written down before measuring.  "none" = prediction of no change.
INTERACTIONS: Tuple[Dict[str, object], ...] = (
    {"layer_metrics": ["comm.fused.*", "comm.collectives.allreduce_us"],
     "moves": ["host_ms_per_step_p25"],
     "on": ["serve-mixed-p4", "train-oktopk-mlp-p16"],
     "none_on": ["train-oktopk-mlp-p16-faulted"],
     "why": "rendezvous_calls_per_step is 0 under any fault plan"},
    {"layer_metrics": ["comm.network.*", "comm.communicator.*",
                       "comm.engine.handoff_us",
                       "comm.engine.blocking_matches_per_step",
                       "comm.collectives.allreduce_faulted_us"],
     "moves": ["host_ms_per_step_p25"],
     "on": ["train-oktopk-mlp-p16-faulted"],
     "none_on": ["serve-mixed-p4"],
     "why": "collectives run per message only under a plan; the faulted / "
            "clean host-time ratio is ROADMAP item 3's 1.2x target"},
    {"layer_metrics": ["sparse.*", "allreduce.reduce_us",
                       "allreduce.threshold_evals_per_step"],
     "moves": ["host_ms_per_step_p25"],
     "on": ["train-oktopk-mlp-p16", "train-oktopk-mlp-p16-faulted"],
     "none_on": ["serve-mixed-p4"],
     "why": "selection and thresholds are training-only"},
    {"layer_metrics": ["nn.*", "optim.*"],
     "moves": ["host_ms_per_step_p25"],
     "on": ["train-oktopk-bert-p8-stream", "train-oktopk-mlp-p16-faulted"],
     "none_on": ["serve-mixed-p4"],
     "why": "per-rank model math where rank batching is off "
            "(train.rankbatch.engaged = 0); nn.stacked_* only on the clean "
            "mlp workload"},
    {"layer_metrics": ["allreduce.buckets_per_step",
                       "allreduce.sim_overlap_saved_ms_per_step",
                       "allreduce.bucketed_vs_oneshot_host_ratio"],
     "moves": ["host_ms_per_step_p25", "sim_ms_per_step"],
     "on": ["train-oktopk-bert-p8-stream"],
     "none_on": ["train-oktopk-mlp-p16", "serve-mixed-p4"],
     "why": "the only bucketed, streaming workload"},
    {"layer_metrics": ["serve.*"],
     "moves": ["host_ms_per_step_p25", "sim_ms_per_step", "sim_step_ms_p99",
               "serve.sim_ttft_p95_ms", "serve.sim_slo_rate_req_s"],
     "on": ["serve-mixed-p4"],
     "none_on": ["train-oktopk-mlp-p16", "train-oktopk-mlp-p16-faulted",
                 "train-oktopk-bert-p8-stream"],
     "why": "a batching change trades inter-token latency for throughput"},
    {"layer_metrics": ["comm.network.words_per_step",
                       "allreduce.volume_over_k", "allreduce.sim_*",
                       "comm.sim_visible_comm_ms_per_step"],
     "moves": ["sim_ms_per_step", "sim_step_ms_p99",
               "sim_speedup_vs_baseline"],
     "on": [name for name, _ in WORKLOADS],
     "none_on": [],
     "why": "any simulated-model change (selector, schedules, overlap); a "
            "change meant only to speed the simulator up must leave every "
            "sim_* metric, every exact counter and the digests identical"},
    {"layer_metrics": ["data.*", "train.trainer.*", "serve.batcher.*"],
     "moves": [], "on": [], "none_on": [name for name, _ in WORKLOADS],
     "why": "each < 3 % of host time everywhere; listed so growth shows"},
)

NOTES = (
    "One CPU, nothing contending: a faster layer saves at most its "
    "self_ms_per_step.",
    "The repo holds no real-hardware reference results, so the simulated "
    "model is reported as unvalidated: no error figure accompanies "
    "sim_speedup_vs_baseline.",
)


def benchmark_definition() -> Dict[str, object]:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u, _ in PER_LAYER],
    }


def _better(name: str) -> str:
    higher = ("train.rankbatch.engaged", "serve.sim_slo_rate_req_s")
    return "higher" if name in higher else "lower"


def unit_of(name: str) -> str:
    for n, u, *_ in END_TO_END + PER_LAYER:
        if n == name:
            return u
    raise KeyError(name)


def names(kind: str) -> List[str]:
    return [row[0] for row in (END_TO_END if kind == "e2e" else PER_LAYER)]


if __name__ == "__main__":
    print(json.dumps(benchmark_definition(), indent=2))
