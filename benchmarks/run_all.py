#!/usr/bin/env python
"""Run the benchmark suite.

* default: every ``bench_*.py`` pytest benchmark (the paper-figure
  reproductions) followed by the repo's wall-clock benchmark,
  ``perfbench/run.py``;
* ``--quick``: a post-merge smoke check — the fast non-slow unit tests,
  the fault-injection, serving and sanitizer smokes
  (``sanitize_smoke.py``: P=4 train + serve bit-identical under
  ``REPRO_SANITIZE=1``, every shipped scheme race-free under a perturbed
  schedule, and the detectors proven live on injected bugs), plus
  ``perfbench/run.py --smoke`` (every perfbench workload end to end,
  traced digest == untraced digest).  The serving smoke pins the P=4
  tensor-parallel serving loop's cross-runner bit-identity and the
  size-adaptive allreduce selector.

Usage::

    python benchmarks/run_all.py [--quick] [--skip-tests]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
PERFBENCH = REPO_ROOT / "perfbench" / "run.py"


def _run(cmd: list[str], **kwargs) -> int:
    print(f"$ {' '.join(cmd)}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env, **kwargs).returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="post-merge smoke: fast tests + smokes + "
                         "perfbench --smoke")
    ap.add_argument("--skip-tests", action="store_true",
                    help="benchmarks only, no pytest smoke")
    args = ap.parse_args(argv)

    rc = 0
    if args.quick:
        if not args.skip_tests:
            rc |= _run([sys.executable, "-m", "pytest", "-q",
                        "-m", "not slow", "tests"])
        rc |= _run([sys.executable, str(BENCH_DIR / "fault_smoke.py")])
        rc |= _run([sys.executable, str(BENCH_DIR / "serve_smoke.py")])
        rc |= _run([sys.executable, str(BENCH_DIR / "sanitize_smoke.py")])
        rc |= _run([sys.executable, str(PERFBENCH), "--smoke"])
        return rc

    if not args.skip_tests:
        rc |= _run([sys.executable, "-m", "pytest", "-q", "tests"])
    bench_files = sorted(BENCH_DIR.glob("bench_fig*.py")) + \
        sorted(BENCH_DIR.glob("bench_table*.py")) + \
        sorted(BENCH_DIR.glob("bench_ablation*.py")) + \
        sorted(BENCH_DIR.glob("bench_ext*.py"))
    rc |= _run([sys.executable, "-m", "pytest", "-q", "-p",
                "no:cacheprovider"] + [str(f) for f in bench_files])
    rc |= _run([sys.executable, str(PERFBENCH)])
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
