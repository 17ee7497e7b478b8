#!/usr/bin/env python3
"""perfbench: the repo's benchmark.  One command, four pinned workloads, two
clocks (host and simulated), and a wrapper-traced per-layer ledger.

    python3 perfbench/run.py                      # everything, both phases
    python3 perfbench/run.py --workload serve-mixed-p4 --trace 0
    python3 perfbench/run.py --smoke              # seconds, not minutes

Each (workload, phase) is measured in a fresh subprocess pinned to one CPU.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import spec

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
RESULTS = os.path.join(PERFBENCH, "results")

#: fresh processes whose set-up time is sampled for ``setup_s``
SETUP_SAMPLES = 3
#: execution-mode knobs that would change which path is measured
FORBIDDEN_ENV = ("REPRO_SPMD_RUNNER", "REPRO_FUSED", "REPRO_FUSED_MIN_RANKS",
                 "REPRO_FUSED_MIN_WPR", "REPRO_RANK_BATCH", "REPRO_SANITIZE")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS],
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds the loader shuffle, the fault plans and the "
                         "Poisson arrival/length draws")
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                    help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: per-layer metrics "
                         "only (default: both)")
    ap.add_argument("--e2e-only", action="store_true",
                    help="same as --trace 0")
    ap.add_argument("--smoke", action="store_true",
                    help="2 repetitions of small inputs, everything included")
    ap.add_argument("--out", help="also write the full result to this file")
    # internal: the measuring subprocess
    ap.add_argument("--child", choices=("setup", "e2e", "layers", "unpinned"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--cpu", type=int, default=-1, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------
def _spawn(phase: str, workload: str, args, cpu: int) -> Dict[str, Any]:
    """Run one measuring subprocess; returns its result with ``setup_s``
    added: spawn -> READY on this process's clock, scaled to reference
    speed by the factor the child's calibration kernel saw (see
    ``measure.CAL_REF_MS``)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", phase,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--cpu", str(cpu)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        speed = None
        for line in proc.stdout:            # set-up ends at the READY line
            if line.startswith("READY "):
                speed = float(line.split()[1])
                break
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or speed is None:
        raise SystemExit(f"perfbench: {phase} subprocess for {workload} "
                         f"failed (exit code {code})")
    out = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {}
    out["setup_s"] = setup_s * speed
    return out


def run_e2e(workload: str, args, cpu: int) -> Dict[str, Any]:
    extra = 0 if args.smoke else SETUP_SAMPLES - 1
    setups = [_spawn("setup", workload, args, cpu)["setup_s"]
              for _ in range(extra)]
    out = _spawn("e2e", workload, args, cpu)
    setups.append(out.pop("setup_s"))
    out["metrics"]["setup_s"] = statistics.median(setups)
    out["samples"]["setup_s"] = setups
    return out


def run_layers(workload: str, args, cpu: int) -> Dict[str, Any]:
    out = _spawn("layers", workload, args, cpu)
    unpinned = _spawn("unpinned", workload, args, -1)["host_ms_per_step"]
    pinned = statistics.median(out["samples"]["untraced_host_ms_per_step"])
    out["metrics"]["comm.engine.unpinned_slowdown"] = (
        statistics.median(unpinned) / pinned)
    out["samples"]["unpinned_slowdown_min_max"] = [
        min(unpinned) / pinned, max(unpinned) / pinned]
    del out["setup_s"]
    return out


# ---------------------------------------------------------------------------
# Host hygiene and provenance
# ---------------------------------------------------------------------------
def _git(*cmd: str) -> str:
    try:
        return subprocess.run(("git", "-C", ROOT) + cmd, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def provenance(args, cpu: int) -> Dict[str, Any]:
    commit = _git("rev-parse", "HEAD")
    return {
        "commit": commit or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if commit else None,
        "nproc": os.cpu_count(), "cpu_pinned": cpu,
        "loadavg_start": os.getloadavg(),
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "env_unset": list(FORBIDDEN_ENV),
    }


def _check_env() -> None:
    found = [k for k in os.environ
             if k in FORBIDDEN_ENV or k.startswith("REPRO_FUSED_MIN_")]
    if found:
        raise SystemExit(f"perfbench: unset {', '.join(sorted(found))} — "
                         "they change the path being measured")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"perfbench: no program to measure: "
                         f"{os.path.join(ROOT, 'src', 'repro')} is missing")


def _lock():
    """Two benchmarks on one box measure each other: refuse to start while
    another holds the lock (released when this process ends)."""
    os.makedirs(RESULTS, exist_ok=True)
    fh = open(os.path.join(RESULTS, ".lock"), "w")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise SystemExit("perfbench: another perfbench run holds "
                         f"{os.path.join(RESULTS, '.lock')}") from None
    return fh


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
def print_report(workload: str, phase: str, out: Dict[str, Any]) -> None:
    prov = out.get("provenance", {})
    print(f"\n== {workload} [{phase}]  correct={out['correct']}  "
          f"attempted={out['attempted']}  failed={out['failed']}")
    for name, value in out["metrics"].items():
        print(f"  {name:46s} {value:14.6g} {spec.unit_of(name)}")
    if phase == "e2e":
        print(f"  repetitions {prov.get('repetitions')}  host ms/step p50 "
              f"{prov.get('host_ms_per_step_p50', 0):.6g} p75 "
              f"{prov.get('host_ms_per_step_p75', 0):.6g}  cpu/wall p50 "
              f"{prov.get('cpu_over_wall_p50', 0):.3f}"
              f"{'  NOISY HOST' if prov.get('noisy_host') else ''}  "
              f"runner {prov.get('runner')}")
        for i, digest in enumerate(out.get("digests", ())):
            print(f"  digest[variant {i}] {digest}")
    for row in out.get("call_sites", ()):
        print("  call-site {collective:34s} {algorithm:18s} {mode:24s} "
              "calls {calls:6d}  words p50 {words_p50:9.0f} max "
              "{words_max:9.0f}  share {words_share:5.3f}".format(**row))
    for err in out.get("errors", ()):
        print(f"  CHECK FAILED: {err}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        # the thread-count environment was set by the parent; the program
        # under test is importable from here on
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import measure
        return measure.child_main(args)
    _check_env()
    if args.smoke:
        args.seconds = 0.0
    phases = ["e2e", "layers"]
    if args.trace == 0 or args.e2e_only:
        phases = ["e2e"]
    elif args.trace == 1:
        phases = ["layers"]
    names = [args.workload] if args.workload else [n for n, _ in spec.WORKLOADS]
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]

    lock = _lock()
    try:
        result = {"provenance": provenance(args, cpu), "workloads": {},
                  "interactions": spec.INTERACTIONS, "notes": spec.NOTES}
        for name in names:
            for phase in phases:
                run = run_e2e if phase == "e2e" else run_layers
                out = run(name, args, cpu)
                print_report(name, phase, out)
                result["workloads"].setdefault(name, {})[phase] = out
        result["provenance"]["loadavg_end"] = os.getloadavg()
        dest = os.path.join(RESULTS, "latest.json" if len(names) > 1 else
                            f"{names[0]}.{'+'.join(phases)}.json")
        for path in filter(None, (dest, args.out)):
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1)
    finally:
        lock.close()

    # the contract line: the four keys, metrics with their units
    runs = [(n, p, o) for n, w in result["workloads"].items()
            for p, o in w.items()]
    single = len(runs) == 1
    metrics = {(k if single else f"{n}:{k}"):
               {"value": v, "unit": spec.unit_of(k)}
               for n, _, o in runs for k, v in o["metrics"].items()}
    correct = all(o["correct"] for _, _, o in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(o["attempted"] for _, _, o in runs),
                      "failed": sum(o["failed"] for _, _, o in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
