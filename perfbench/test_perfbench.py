"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench -q``
(tier-1's ``testpaths = tests`` does not collect this directory)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import types

import pytest

import compare
import hooks
import spec

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(tmp_path, *flags: str) -> dict:
    out = tmp_path / ("-".join(f.strip("-") for f in flags) + ".json")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--smoke",
         "--out", str(out), *flags],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("smoke"))


def test_benchmark_json_is_the_spec_and_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench == spec.benchmark_definition()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] \
        + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_named_metric_is_emitted_and_nothing_else(smoke):
    assert set(smoke["workloads"]) == {n for n, _ in spec.WORKLOADS}
    for name, phases in smoke["workloads"].items():
        assert set(phases["e2e"]["metrics"]) == set(spec.names("e2e")), name
        assert set(phases["layers"]["metrics"]) == set(spec.names("layers"))
        for phase in phases.values():
            assert phase["correct"] and phase["failed"] == 0, phase["errors"]
            assert phase["attempted"] >= 1
        assert all(v != 0 for v in phases["e2e"]["metrics"].values())


def test_the_workloads_separate_the_layers(smoke):
    layers = {n: w["layers"]["metrics"] for n, w in smoke["workloads"].items()}
    clean = layers["train-oktopk-mlp-p16"]
    faulted = layers["train-oktopk-mlp-p16-faulted"]
    serve = layers["serve-mixed-p4"]
    assert clean["comm.fused.rendezvous_calls_per_step"] > 0
    assert clean["train.rankbatch.engaged"] == 1
    assert faulted["comm.fused.rendezvous_calls_per_step"] == 0
    assert faulted["train.rankbatch.engaged"] == 0
    assert serve["nn.self_ms_per_step"] == 0
    assert serve["serve.model.self_ms_per_step"] > 0
    for m in layers.values():
        assert m["trace.missing_hooks"] == 0


def test_same_seed_same_digests_other_seed_other_digests(smoke, tmp_path):
    again = _run(tmp_path, "--e2e-only")
    other = _run(tmp_path, "--e2e-only", "--seed", "1")
    for name, phases in smoke["workloads"].items():
        digests = phases["e2e"]["digests"]
        assert digests == again["workloads"][name]["e2e"]["digests"]
        assert digests != other["workloads"][name]["e2e"]["digests"]
    rows, notes = compare.compare(smoke, again)
    assert not [r for r in rows if r[1].startswith("sim_")
                and r[5] != "unchanged"]
    assert not [n for n in notes if "digest" in n]


# ---------------------------------------------------------------------------
# The tracer on a toy two-thread program
# ---------------------------------------------------------------------------
def _toy_module():
    mod = types.ModuleType("perfbench_toy")
    exec(
        "import time\n"
        "def spin(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
        "def outer(seconds):\n"
        "    spin(seconds)\n"
        "    inner(seconds)\n"
        "def inner(seconds):\n"
        "    spin(2 * seconds)\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer_self_times_sum_to_wall_and_missing_hooks_are_counted():
    toy = _toy_module()
    try:
        tracer = hooks.Tracer().install(hooks=(
            ("nn", "perfbench_toy", None, ("outer", "inner")),
            ("nn", "perfbench_toy", None, ("renamed_away",)),
            ("nn", "perfbench_toy", "NoSuchClass", None),
            ("nn", "perfbench_no_such_module", None, None),
        ))
        assert len(tracer.missing) == 3

        # two threads passing one token, as the cooperative engine does
        turn = [threading.Lock(), threading.Lock()]
        turn[1].acquire()

        def rank(me: int) -> None:
            for _ in range(5):
                turn[me].acquire()
                toy.outer(0.004)
                turn[1 - me].release()

        tracer.reset()
        t0 = time.perf_counter_ns()
        threads = [threading.Thread(target=rank, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        accounted = tracer.flush()
        wall = time.perf_counter_ns() - t0
        assert abs(accounted - wall) <= 0.05 * wall
        self_ns, calls = tracer.layer_totals()["nn"]
        assert calls == 20
        # outer's exclusive time is its own spin only: about 1/3 of the work
        outer = tracer.self_ns[tracer.names.index(("nn", "outer"))]
        inner = tracer.self_ns[tracer.names.index(("nn", "inner"))]
        assert 0.25 < outer / (outer + inner) < 0.42
        assert self_ns >= 0.8 * wall
    finally:
        del sys.modules["perfbench_toy"]
