"""Command-line interface: run the paper's experiments without writing code.

Installed as ``repro-bench``::

    repro-bench volume   --scheme oktopk --n 8192 --p 8 --density 0.01
    repro-bench table1   --n 4096 --p 8 --k 64
    repro-bench table2
    repro-bench scaling  --model bert --p 32 64 256
    repro-bench train    --workload vgg16 --scheme oktopk --workers 4
    repro-bench train    --scheme oktopk --bucket-size 4096 \\
                         --overlap-mode stream   # bucketed Ok-Topk,
                         # discrete-event comm/backward overlap
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_volume(args: argparse.Namespace) -> int:
    from .costmodel import comm_cost, measure_steady_state_volume

    k = args.k or max(1, int(args.density * args.n))
    kwargs = {"tau_prime": 64} if args.scheme == "oktopk" else {}
    measured = measure_steady_state_volume(args.scheme, args.n, args.p, k,
                                           **kwargs)
    predicted = comm_cost(args.scheme, args.n, args.p, k).bandwidth_words
    print(f"scheme={args.scheme} n={args.n} P={args.p} k={k}")
    print(f"  analytic bandwidth words : {predicted:.0f}")
    print(f"  measured words per rank  : {measured:.0f}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .allreduce import PAPER_ORDER
    from .bench import format_table
    from .costmodel import validate_against_measurement

    rows = []
    for scheme in PAPER_ORDER:
        cal = validate_against_measurement(scheme, n=args.n, p=args.p,
                                           k=args.k)
        rows.append([scheme, f"{cal.predicted_words:.0f}",
                     f"{cal.measured_words:.0f}", f"{cal.ratio:.2f}"])
    print(format_table(
        ["algorithm", "model words", "measured words", "ratio"], rows,
        title=f"Table 1 at n={args.n}, P={args.p}, k={args.k}"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .bench import format_table
    from .nn.models import (AN4_FULL_HIDDEN, PAPER_BERT_PARAMS,
                            PAPER_LSTM_PARAMS, PAPER_VGG16_PARAMS,
                            bert_base_param_count, lstm_speech_param_count,
                            vgg16_param_count)

    rows = [
        ["VGG-16", f"{vgg16_param_count(1.0):,}",
         f"{PAPER_VGG16_PARAMS:,}"],
        ["LSTM", f"{lstm_speech_param_count(hidden=AN4_FULL_HIDDEN):,}",
         f"{PAPER_LSTM_PARAMS:,}"],
        ["BERT", f"{bert_base_param_count():,}", f"{PAPER_BERT_PARAMS:,}"],
    ]
    print(format_table(["model", "ours", "paper"], rows,
                       title="Table 2: parameter counts"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .allreduce import PAPER_ORDER
    from .bench import format_table, paper_scale_breakdown

    for p in args.p:
        rows = []
        for scheme in PAPER_ORDER:
            b = paper_scale_breakdown(args.model, scheme, p,
                                      tau_prime=args.tau_prime)
            rows.append([scheme, f"{b['sparsification']:.3f}",
                         f"{b['communication']:.3f}",
                         f"{b['computation+io']:.3f}", f"{b['total']:.3f}"])
        print(format_table(
            ["scheme", "sparsify (s)", "comm (s)", "compute+io (s)",
             "total (s)"], rows,
            title=f"{args.model} weak scaling, {p} GPUs"))
        print()
    return 0


def _parse_rank_factor(spec: str, what: str) -> tuple:
    try:
        rank, _, factor = spec.partition(":")
        return int(rank), float(factor)
    except ValueError:
        raise SystemExit(
            f"bad {what} spec {spec!r}; expected RANK:FACTOR") from None


def _build_fault_plan(args: argparse.Namespace, crash_unit: str = "iteration"):
    """Assemble a FaultPlan from --fault-plan / the shorthand knobs.

    ``crash_unit`` picks the ``--crash`` pinning: training crashes are
    iteration-pinned (``RANK@ITER``), serving crashes are pinned to a
    simulated time (``RANK@TIME`` seconds).
    """
    from .comm.faults import (ComputeStraggler, FaultPlan, LinkSlowdown,
                              RankCrash)

    plan = None
    if args.fault_plan:
        plan = FaultPlan.from_json(open(args.fault_plan).read())
    links = list(plan.links) if plan else []
    stragglers = list(plan.stragglers) if plan else []
    crashes = list(plan.crashes) if plan else []
    for spec in args.slow_link or ():
        rank, factor = _parse_rank_factor(spec, "--slow-link")
        links.append(LinkSlowdown(rank=rank, factor=factor))
    for spec in args.straggler or ():
        rank, factor = _parse_rank_factor(spec, "--straggler")
        stragglers.append(ComputeStraggler(rank=rank, factor=factor))
    for spec in args.crash or ():
        try:
            rank, _, at = spec.partition("@")
            if crash_unit == "time":
                crashes.append(RankCrash(rank=int(rank), time=float(at)))
            else:
                crashes.append(RankCrash(rank=int(rank), iteration=int(at)))
        except ValueError:
            unit = "RANK@TIME" if crash_unit == "time" else "RANK@ITER"
            raise SystemExit(
                f"bad --crash spec {spec!r}; expected {unit}") from None
    if not (links or stragglers or crashes):
        return None
    return FaultPlan(links=links, stragglers=stragglers, crashes=crashes,
                     detect_timeout=plan.detect_timeout if plan else 1e-3,
                     seed=plan.seed if plan else None)


def _cmd_train(args: argparse.Namespace) -> int:
    from .bench import PROXIES, train_scheme
    from .bench.harness import proxy_network

    proxy = PROXIES[args.workload]()
    faults = _build_fault_plan(args)
    rec = train_scheme(proxy, args.scheme, args.workers, args.iters,
                       density=args.density, k=args.k,
                       bucket_size=args.bucket_size,
                       overlap_mode=args.overlap_mode,
                       eval_every=max(1, args.iters // 3),
                       network=proxy_network(),
                       faults=faults, elastic=args.elastic)
    bd = rec.mean_breakdown(skip=1)
    budget = f"k={args.k}" if args.k is not None else f"density={args.density}"
    print(f"workload={args.workload} scheme={args.scheme} "
          f"P={args.workers} iters={args.iters} {budget} "
          f"overlap={args.overlap_mode}")
    if args.bucket_size is not None:
        nb = rec.records[-1].nbuckets
        saved = sum(r.overlap_saved for r in rec.records)
        print(f"  buckets    : {nb} (bucket_size={args.bucket_size} words), "
              f"overlap hid {saved * 1e3:.3f} ms of comm")
    if any(r.stream_fallback for r in rec.records):
        print("  note       : stream mode ran its one bucket "
              "post-backward (timings are analytic)")
    for ev in rec.events:
        print(f"  fault      : iteration {ev['t']}: rank(s) "
              f"{ev['failed_ranks']} failed, shrank "
              f"{ev['old_size']} -> {ev['new_size']} workers and resumed")
    print(f"  first loss : {rec.losses[0]:.4f}")
    print(f"  final loss : {rec.losses[-1]:.4f}")
    print(f"  sim time   : {rec.total_time:.4f} s")
    print(f"  breakdown  : sparsify {bd['sparsification'] * 1e3:.3f} ms, "
          f"comm {bd['communication'] * 1e3:.3f} ms, "
          f"compute {bd['computation+io'] * 1e3:.3f} ms / iter")
    final = rec.final_eval()
    if final:
        metrics = ", ".join(f"{k}={v:.4f}" for k, v in final.items())
        print(f"  eval       : {metrics}")
    return 0


def _parse_token_spec(spec: str, what: str):
    """``"64"`` -> 64, ``"32:128"`` -> (32, 128) inclusive."""
    try:
        if ":" in spec:
            lo, _, hi = spec.partition(":")
            return (int(lo), int(hi))
        return int(spec)
    except ValueError:
        raise SystemExit(
            f"bad {what} spec {spec!r}; expected N or LO:HI") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .comm.faults import FaultPlan
    from .serve import ServeConfig, Workload, simulate_serving, sweep_load

    cfg = ServeConfig(
        p=args.workers, rate=args.rate, n_requests=args.requests,
        prompt_tokens=_parse_token_spec(args.prompt_tokens,
                                        "--prompt-tokens"),
        output_tokens=_parse_token_spec(args.output_tokens,
                                        "--output-tokens"),
        max_batch_size=args.max_batch, max_wait=args.max_wait,
        hidden=args.hidden, layers=args.layers,
        algorithm=args.algorithm, seed=args.seed,
        deadline=args.deadline, retry_budget=args.retry_budget)
    faults = _build_fault_plan(args, crash_unit="time")
    workload = None
    if args.trace:
        workload = Workload.from_json(open(args.trace).read())
    traced_deadlines = workload is not None and any(
        rq.deadline is not None for rq in workload.requests)
    if faults is None and (args.fault_plan or args.deadline is not None
                           or traced_deadlines):
        # deadlines are read only under a plan: a fault-free one will do
        faults = (FaultPlan.from_json(open(args.fault_plan).read())
                  if args.fault_plan else FaultPlan())
    if args.sweep:
        print(f"serve sweep: P={cfg.p} algorithm={cfg.algorithm} "
              f"requests={cfg.n_requests}")
        print(f"  {'offered req/s':>14s} {'goodput req/s':>14s} "
              f"{'goodput tok/s':>14s} {'ttft p99 (ms)':>14s} "
              f"{'itl p99 (ms)':>13s}")
        for rep in sweep_load(cfg, args.sweep, faults=faults):
            s = rep.summary()
            print(f"  {s['offered_req_per_s']:14.1f} "
                  f"{s['goodput_req_per_s']:14.1f} "
                  f"{s['goodput_tokens_per_s']:14.1f} "
                  f"{s['ttft_p99'] * 1e3:14.4f} "
                  f"{s['itl_p99'] * 1e3:13.4f}")
        return 0
    rep = simulate_serving(cfg, workload=workload, faults=faults)
    print(rep.format_report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="Ok-Topk reproduction experiment driver")
    ap.add_argument(
        "--runner", choices=["coop", "threads"], default=None,
        help="SPMD runner: cooperative engine (default) or the legacy "
             "thread-per-rank fallback")
    ap.add_argument(
        "--no-fused", action="store_true",
        help="force the reference path: per-message collectives and "
             "per-rank compute (disables the fused fast path and rank "
             "batching; same as REPRO_FUSED=0)")
    ap.add_argument(
        "--sanitize", action="store_true",
        help="run under the runtime sanitizer (same as REPRO_SANITIZE=1): "
             "loan-window write checks, end-of-run mailbox audit, and the "
             "schedule-perturbation race detector")
    sub = ap.add_subparsers(dest="command", required=True)

    vol = sub.add_parser("volume", help="measured vs analytic volume")
    vol.add_argument("--scheme", default="oktopk")
    vol.add_argument("--n", type=int, default=8192)
    vol.add_argument("--p", type=int, default=8)
    vol.add_argument("--k", type=int, default=None)
    vol.add_argument("--density", type=float, default=0.01)
    vol.set_defaults(fn=_cmd_volume)

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--n", type=int, default=4096)
    t1.add_argument("--p", type=int, default=8)
    t1.add_argument("--k", type=int, default=64)
    t1.set_defaults(fn=_cmd_table1)

    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.set_defaults(fn=_cmd_table2)

    sc = sub.add_parser("scaling", help="paper-scale weak scaling tables")
    sc.add_argument("--model", choices=["vgg16", "lstm", "bert"],
                    default="bert")
    sc.add_argument("--p", type=int, nargs="+", default=[32, 256])
    sc.add_argument("--tau-prime", type=int, default=128)
    sc.set_defaults(fn=_cmd_scaling)

    tr = sub.add_parser("train", help="train a proxy workload")
    tr.add_argument("--workload",
                    choices=["vgg16", "lstm", "bert", "perf_mlp"],
                    default="vgg16")
    tr.add_argument("--scheme", default="oktopk")
    tr.add_argument("--workers", type=int, default=4)
    tr.add_argument("--iters", type=int, default=12)
    tr.add_argument("--density", type=float, default=0.02)
    tr.add_argument("--k", type=int, default=None,
                    help="sparsification budget; overrides --density")
    tr.add_argument("--bucket-size", type=int, default=None,
                    help="fuse per-layer gradients into buckets of this "
                         "many words (session-based allreduce with "
                         "comm/backward overlap); default: one bucket")
    tr.add_argument("--overlap-mode", choices=["analytic", "stream"],
                    default="analytic",
                    help="comm/backward overlap model: 'analytic' replays "
                         "bucket communication against release times after "
                         "the fact (default); 'stream' runs bucket "
                         "reductions on the simulated clock during "
                         "backward (discrete-event overlap, contends with "
                         "other traffic)")
    tr.add_argument("--fault-plan", default=None, metavar="PATH",
                    help="JSON fault plan (repro.comm.FaultPlan schema): "
                         "seeded link slowdowns, compute stragglers and "
                         "rank crashes, deterministic per seed and "
                         "identical across runners")
    tr.add_argument("--slow-link", action="append", metavar="RANK:FACTOR",
                    help="slow down RANK's links by FACTOR (repeatable; "
                         "merged into the fault plan)")
    tr.add_argument("--straggler", action="append", metavar="RANK:FACTOR",
                    help="scale RANK's compute time by FACTOR (repeatable)")
    tr.add_argument("--crash", action="append", metavar="RANK@ITER",
                    help="fail-stop RANK at the start of iteration ITER "
                         "(1-based; repeatable)")
    tr.add_argument("--elastic", action="store_true",
                    help="survive planned crashes: shrink to the remaining "
                         "workers, re-key the scheme state and data shards, "
                         "and resume training")
    tr.set_defaults(fn=_cmd_train)

    sv = sub.add_parser(
        "serve",
        help="tensor-parallel inference serving under open-loop traffic")
    sv.add_argument("--workers", type=int, default=4,
                    help="tensor-parallel group size P")
    sv.add_argument("--requests", type=int, default=32,
                    help="open-loop requests to generate")
    sv.add_argument("--rate", type=float, default=2000.0,
                    help="offered load in requests per simulated second")
    sv.add_argument("--prompt-tokens", default="64", metavar="N|LO:HI",
                    help="prompt length (fixed, or uniform inclusive range)")
    sv.add_argument("--output-tokens", default="4", metavar="N|LO:HI",
                    help="tokens to generate per request")
    sv.add_argument("--max-batch", type=int, default=8,
                    help="dynamic batcher: max batch size")
    sv.add_argument("--max-wait", type=float, default=5e-4,
                    help="dynamic batcher: max wait in simulated seconds "
                         "before a partial batch fires")
    sv.add_argument("--hidden", type=int, default=256)
    sv.add_argument("--layers", type=int, default=4)
    sv.add_argument("--algorithm", default="adaptive",
                    choices=["adaptive", "latency", "bandwidth",
                             "recursive_doubling", "rabenseifner", "ring"],
                    help="per-layer allreduce schedule: size-adaptive "
                         "(default), a forced role, or a concrete algorithm")
    sv.add_argument("--seed", type=int, default=0)
    # a sweep draws each rate's Poisson workload: it cannot replay a trace
    workload = sv.add_mutually_exclusive_group()
    workload.add_argument("--trace", default=None, metavar="PATH",
                          help="JSON arrival trace (overrides the Poisson "
                               "generator; see repro.serve.Workload.to_json)")
    workload.add_argument("--sweep", type=float, nargs="+", default=None,
                          metavar="RATE",
                          help="goodput-vs-offered-load sweep over these "
                               "rates (prints one table row per rate)")
    sv.add_argument("--deadline", type=float, default=None,
                    metavar="SECONDS",
                    help="per-request completion SLO relative to arrival "
                         "(simulated seconds); enables timeout reaping and "
                         "deadline-aware admission shedding")
    sv.add_argument("--retry-budget", type=int, default=2,
                    help="re-enqueue attempts per request after a rank "
                         "crash before it is shed")
    sv.add_argument("--fault-plan", default=None, metavar="PATH",
                    help="JSON fault plan (repro.comm.FaultPlan schema); "
                         "crashes trigger elastic shrink-and-resume under "
                         "live traffic")
    sv.add_argument("--slow-link", action="append", metavar="RANK:FACTOR",
                    help="multiply RANK's link latency+inverse-bandwidth "
                         "(merged into the fault plan)")
    sv.add_argument("--straggler", action="append", metavar="RANK:FACTOR",
                    help="multiply RANK's compute time")
    sv.add_argument("--crash", action="append", metavar="RANK@TIME",
                    help="crash RANK at the given simulated time in "
                         "seconds; survivors shrink and resume")
    sv.set_defaults(fn=_cmd_serve)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .comm import FUSED_ENV, RUNNER_ENV, SANITIZE_ENV
    knobs = {name: value for name, value in (
        (RUNNER_ENV, args.runner), (FUSED_ENV, args.no_fused and "0"),
        (SANITIZE_ENV, args.sanitize and "1")) if value}
    # the run reads the knobs from the environment; an in-process caller
    # gets its own environment back when the command returns
    saved = {name: os.environ.get(name) for name in knobs}
    os.environ.update(knobs)
    try:
        return args.fn(args)
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value


if __name__ == "__main__":
    sys.exit(main())
