"""CLI smoke tests: every subcommand runs and prints sane output."""

import os
import re

import pytest

from repro.cli import build_parser, main
from repro.comm import FUSED_ENV, RUNNER_ENV, SANITIZE_ENV


class TestCli:
    def test_volume(self, capsys):
        assert main(["volume", "--scheme", "oktopk", "--n", "2048",
                     "--p", "4", "--k", "32"]) == 0
        out = capsys.readouterr().out
        assert "measured words per rank" in out

    def test_volume_density_resolves_k(self, capsys):
        assert main(["volume", "--n", "1000", "--p", "2",
                     "--density", "0.05"]) == 0
        assert "k=50" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "1024", "--p", "4", "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "oktopk" in out and "dense" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "14,728,266" in out
        assert "133,547,324" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--model", "vgg16", "--p", "16"]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out and "oktopk" in out

    def test_train(self, capsys):
        assert main(["train", "--workload", "lstm", "--scheme", "oktopk",
                     "--workers", "2", "--iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "final loss" in out and "breakdown" in out

    def test_no_fused_is_the_reference_path(self, capsys, monkeypatch,
                                            rendezvous_log):
        # the first run is the fast path whatever the caller's REPRO_FUSED
        monkeypatch.setenv(FUSED_ENV, "1")
        argv = ["train", "--workload", "perf_mlp", "--scheme", "oktopk",
                "--workers", "4", "--iters", "3"]
        assert main(argv) == 0
        fast = capsys.readouterr().out
        assert {"rb_fwdbwd", "oktopk_reduce"} <= {e.head
                                                  for e in rendezvous_log}
        del rendezvous_log[:]
        assert main(["--no-fused", *argv]) == 0
        assert capsys.readouterr().out == fast
        assert not rendezvous_log   # no collective, no rank-batched math

    @pytest.mark.parametrize("prior", ["unset", "set"])
    def test_flags_last_as_long_as_the_command(self, capsys, monkeypatch,
                                               prior):
        """``--no-fused``, ``--runner`` and ``--sanitize`` write their
        variable for the command only: after each in-process ``main``
        every variable is back to its prior state, unset or set."""
        before = {FUSED_ENV: "1", RUNNER_ENV: "coop", SANITIZE_ENV: "0"}
        for name, value in before.items():
            monkeypatch.setenv(name, value)     # undone at teardown
            if prior == "unset":
                monkeypatch.delenv(name)
        argv = ["volume", "--n", "1000", "--p", "2", "--density", "0.05"]
        for flag in (["--no-fused"], ["--runner", "threads"],
                     ["--sanitize"]):
            assert main([*flag, *argv]) == 0
            assert {name: os.environ.get(name) for name in before} == {
                name: value if prior == "set" else None
                for name, value in before.items()}, flag

    def test_serve(self, capsys):
        assert main(["serve", "--workers", "4", "--requests", "8",
                     "--rate", "1500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "TTFT" in out and "p99" in out
        assert "allreduce/" in out  # algorithm provenance line

    def test_serve_arg_parsing(self):
        ap = build_parser()
        args = ap.parse_args(["serve", "--workers", "2", "--requests", "5",
                              "--prompt-tokens", "16:32",
                              "--algorithm", "bandwidth",
                              "--max-wait", "1e-4"])
        assert args.workers == 2 and args.requests == 5
        assert args.prompt_tokens == "16:32"
        assert args.algorithm == "bandwidth" and args.max_wait == 1e-4

    def test_serve_bad_token_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "4", "--prompt-tokens", "x:y"])

    def test_serve_is_seeded(self, capsys):
        argv = ["serve", "--workers", "2", "--requests", "6", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_sweep(self, capsys):
        assert main(["serve", "--workers", "2", "--requests", "6",
                     "--sweep", "500", "4000"]) == 0
        out = capsys.readouterr().out
        assert "offered req/s" in out
        # one row per swept rate
        assert len([ln for ln in out.splitlines()
                    if ln.strip() and ln.lstrip()[0].isdigit()]) == 2

    def test_serve_trace(self, capsys, tmp_path):
        from repro.serve import Workload

        wl = Workload.poisson(5, 1000.0, seed=3)
        trace = tmp_path / "trace.json"
        trace.write_text(wl.to_json())
        assert main(["serve", "--workers", "2",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "requests=5" in out

    def test_serve_deadline_applies_without_faults(self, capsys):
        # a 1 ns SLO: nothing can finish, so every request is shed or
        # timed out, and the report carries its degradation section
        assert main(["serve", "--workers", "2", "--requests", "6",
                     "--deadline", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert "requests=6 tokens=0" in out
        m = re.search(r"\(0/6 ok, (\d+) shed, (\d+) timeout", out)
        assert m and int(m[1]) + int(m[2]) == 6
        assert "SLO attainment  : 0.0%" in out
        # no percentile of an empty set: one line says so instead
        assert "nan" not in out
        assert "latency         : no request completed" in out

    def test_serve_sweep_deadline_applies_without_faults(self, capsys):
        assert main(["serve", "--workers", "2", "--requests", "6",
                     "--deadline", "1e-9", "--sweep", "500", "4000"]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
                if ln.strip() and ln.lstrip()[0].isdigit()]
        assert len(rows) == 2
        assert all(float(row[1]) == 0.0 for row in rows)  # goodput req/s

    def test_serve_trace_deadlines_apply_without_faults(self, capsys,
                                                        tmp_path):
        from repro.serve import Workload

        wl = Workload.poisson(5, 1000.0, seed=3, deadline=1e-9)
        trace = tmp_path / "trace.json"
        trace.write_text(wl.to_json())
        assert main(["serve", "--workers", "2",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "requests=5 tokens=0" in out
        assert "availability    : 0.0%" in out

    def test_serve_sweep_rejects_trace(self, capsys, tmp_path):
        # a sweep draws each rate's Poisson workload: a trace would be
        # ignored, so the combination is a usage error
        from repro.serve import Workload

        trace = tmp_path / "trace.json"
        trace.write_text(Workload.poisson(3, 1000.0, seed=3).to_json())
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "2", "--trace", str(trace),
                  "--sweep", "500"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--sweep" in err and "--trace" in err

    def test_serve_fault_free_plan_file_is_kept(self, capsys, tmp_path):
        from repro.comm.faults import FaultPlan

        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(detect_timeout=5e-4).to_json())
        assert main(["serve", "--workers", "2", "--requests", "6",
                     "--fault-plan", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "availability    : 100.0%  (6/6 ok" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_parser_help_lists_subcommands(self):
        ap = build_parser()
        help_text = ap.format_help()
        for cmd in ("volume", "table1", "table2", "scaling", "train",
                    "serve"):
            assert cmd in help_text
