"""Serving metrics: per-request records and the aggregated report.

All times are simulated seconds.  The report is built from the first
surviving rank's request records (which are bit-identical on every
surviving rank — the serving loop stamps them with the synchronized
decision clock), so two reports from the same ``(seed, config, plan)``
compare equal field-for-field across the ``coop``/``threads``
runners and the fused/unfused paths.

Terminal request states (first-class data, never exceptions):

* ``"ok"`` — completed; ``token_times`` holds every emitted token.
* ``"timeout"`` — the completion deadline expired while the request was
  queued (including retry backoff waits).
* ``"shed"`` — deadline-aware admission control dropped it: either even
  an uncontended run at the current (possibly post-shrink) world size
  could not meet its SLO, or its crash-retry budget ran out.

Degradation observability under a fault plan: :meth:`ServeReport.summary`
gains availability, SLO attainment, retry counters, recovery time (crash
detection → first post-shrink token) and pre/post-failure p99 splits —
present only for faulted runs so the plan-less summary keeps its exact
pre-fault schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (``q`` in [0, 100])
    over float64; NaN for an empty sample set."""
    xs = np.sort(np.asarray(list(samples), dtype=np.float64))
    if xs.size == 0:
        return float("nan")
    pos = (q / 100.0) * (xs.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(xs[lo] * (1.0 - frac) + xs[hi] * frac)


def _pct_or_zero(samples: Sequence[float], q: float) -> float:
    """Percentile that degrades to 0.0 on an empty side of a
    pre/post-failure split (keeps summaries equality-comparable — NaN
    would break bit-identity assertions)."""
    return percentile(samples, q) if len(samples) else 0.0


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle stamps and terminal state of one request."""

    rid: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    #: admission into a prefill batch (last attempt); ``None`` if the
    #: request never reached the engine (shed or timed out while queued)
    admitted: Optional[float]
    #: token emission times; ``token_times[0]`` is the first token (end of
    #: the prefill pass), one more per decode step.  Empty unless the
    #: request completed — tokens of attempts that died with a crash are
    #: discarded with the failed world.
    token_times: Tuple[float, ...]
    #: terminal state: ``"ok"`` | ``"timeout"`` | ``"shed"``
    status: str = "ok"
    #: crash-retry count (re-enqueues after a rank failure)
    retries: int = 0
    #: absolute completion deadline, if the run had one
    deadline: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.status == "ok" and bool(self.token_times)

    @property
    def met_deadline(self) -> bool:
        """Completed within its SLO (vacuously true without a deadline)."""
        return self.completed and (self.deadline is None
                                   or self.completion <= self.deadline)

    @property
    def first_token(self) -> float:
        return self.token_times[0]

    @property
    def completion(self) -> float:
        return self.token_times[-1]

    @property
    def ttft(self) -> float:
        """Time to first token (arrival -> first token out)."""
        return self.first_token - self.arrival

    @property
    def latency(self) -> float:
        """End-to-end request latency (arrival -> last token)."""
        return self.completion - self.arrival

    @property
    def itl_samples(self) -> Tuple[float, ...]:
        """Inter-token latencies (gaps between consecutive emissions)."""
        ts = self.token_times
        return tuple(ts[i + 1] - ts[i] for i in range(len(ts) - 1))


@dataclass
class ServeReport:
    """Aggregated outcome of one serving run."""

    p: int
    algorithm: str
    requests: List[RequestRecord]
    #: latest simulated clock across ranks at drain
    makespan: float
    #: sum of the emitted activations' float32 bit patterns modulo 2^53
    #: (bit-identity witness)
    checksum: int
    #: collective-algorithm provenance snapshot
    #: (``"collective/algorithm/mode" -> {"calls", "words"}``)
    algorithms: Dict[str, Dict[str, int]]
    #: engine step counts: ``{"prefill_batches", "decode_steps"}``
    steps: Dict[str, int] = field(default_factory=dict)
    config: Dict = field(default_factory=dict)
    #: the run executed under a fault plan (enables the degradation
    #: metrics below; plan-less summaries keep the pre-fault schema)
    faulted: bool = False
    #: elastic recovery events, one per survived shrink: failed ranks,
    #: detection/resume clocks, requeued/dropped rids, recovery time
    events: List[Dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def completed_requests(self) -> List[RequestRecord]:
        return [r for r in self.requests if r.completed]

    @property
    def generated_tokens(self) -> int:
        """Tokens actually delivered (completed requests only)."""
        return sum(len(r.token_times) for r in self.completed_requests)

    @property
    def offered_req_per_s(self) -> float:
        """Offered load: requests over the arrival span."""
        span = max(r.arrival for r in self.requests)
        return len(self.requests) / span if span > 0 else float("inf")

    @property
    def goodput_req_per_s(self) -> float:
        """Completed requests per simulated second of total runtime."""
        return len(self.completed_requests) / self.makespan

    @property
    def goodput_tokens_per_s(self) -> float:
        return self.generated_tokens / self.makespan

    @property
    def itl_samples(self) -> List[float]:
        out: List[float] = []
        for r in self.completed_requests:
            out.extend(r.itl_samples)
        return out

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed."""
        return len(self.completed_requests) / len(self.requests)

    @property
    def slo_attainment(self) -> float:
        """Fraction of offered requests that completed within their
        deadline (equals availability when the run had no deadlines)."""
        return (sum(1 for r in self.requests if r.met_deadline)
                / len(self.requests))

    @property
    def recovery_time(self) -> float:
        """Worst crash-detection → first-post-shrink-token gap across the
        run's recovery events; 0.0 without a crash."""
        return max((ev["recovery_time"] for ev in self.events
                    if "recovery_time" in ev), default=0.0)

    def _failure_split(self) -> Optional[float]:
        """Clock of the first crash detection, or ``None``."""
        if not self.events:
            return None
        return min(ev["detected"] for ev in self.events)

    def summary(self) -> Dict[str, float]:
        """Scalar metric dict — the comparison unit for determinism tests
        and the benchmark JSON.  Fault-degradation keys appear only for
        faulted runs, so the plan-less schema is unchanged."""
        done = self.completed_requests
        ttft = [r.ttft for r in done]
        lat = [r.latency for r in done]
        itl = self.itl_samples
        out = {
            "requests": float(len(self.requests)),
            "generated_tokens": float(self.generated_tokens),
            "offered_req_per_s": self.offered_req_per_s,
            "goodput_req_per_s": self.goodput_req_per_s,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "ttft_p50": percentile(ttft, 50.0),
            "ttft_p99": percentile(ttft, 99.0),
            "itl_p50": percentile(itl, 50.0),
            "itl_p99": percentile(itl, 99.0),
            "latency_p50": percentile(lat, 50.0),
            "latency_p99": percentile(lat, 99.0),
            "makespan": self.makespan,
            "checksum": self.checksum,
        }
        if self.faulted:
            out.update(self._degradation_summary(itl))
        return out

    def _degradation_summary(self, itl: List[float]) -> Dict[str, float]:
        reqs = self.requests
        split = self._failure_split()
        if split is None:
            itl_pre, itl_post = itl, []
            tokens_pre = float(self.generated_tokens)
            tokens_post = 0.0
            span_pre, span_post = self.makespan, 0.0
        else:
            itl_pre, itl_post = [], []
            tokens_pre = tokens_post = 0.0
            for r in self.completed_requests:
                ts = r.token_times
                for i in range(len(ts) - 1):
                    (itl_post if ts[i + 1] > split else itl_pre).append(
                        ts[i + 1] - ts[i])
                for t in ts:
                    if t > split:
                        tokens_post += 1.0
                    else:
                        tokens_pre += 1.0
            span_pre = split
            span_post = self.makespan - split
        return {
            "availability": self.availability,
            "slo_attainment": self.slo_attainment,
            "completed": float(len(self.completed_requests)),
            "shed": float(sum(1 for r in reqs if r.status == "shed")),
            "timeout": float(sum(1 for r in reqs if r.status == "timeout")),
            "retried_requests": float(sum(1 for r in reqs if r.retries)),
            "total_retries": float(sum(r.retries for r in reqs)),
            "recovery_time": self.recovery_time,
            "itl_p99_pre": _pct_or_zero(itl_pre, 99.0),
            "itl_p99_post": _pct_or_zero(itl_post, 99.0),
            "goodput_tokens_per_s_pre": (
                tokens_pre / span_pre if span_pre > 0 else 0.0),
            "goodput_tokens_per_s_post": (
                tokens_post / span_post if span_post > 0 else 0.0),
        }

    def format_report(self) -> str:
        """Human-readable multi-line report for the CLI."""
        s = self.summary()
        ms = 1e3
        lines = [
            f"serve: P={self.p} algorithm={self.algorithm} "
            f"requests={len(self.requests)} "
            f"tokens={self.generated_tokens}",
            f"  offered load    : {s['offered_req_per_s']:10.1f} req/s",
            f"  goodput         : {s['goodput_req_per_s']:10.1f} req/s  "
            f"({s['goodput_tokens_per_s']:.0f} tok/s)",
        ]
        if self.completed_requests:
            lines += [
                f"  TTFT            : p50 {s['ttft_p50'] * ms:8.3f} ms   "
                f"p99 {s['ttft_p99'] * ms:8.3f} ms",
                f"  inter-token     : p50 {s['itl_p50'] * ms:8.3f} ms   "
                f"p99 {s['itl_p99'] * ms:8.3f} ms",
                f"  request latency : p50 {s['latency_p50'] * ms:8.3f} ms   "
                f"p99 {s['latency_p99'] * ms:8.3f} ms",
            ]
        else:
            lines.append("  latency         : no request completed")
        lines.append(
            f"  makespan        : {self.makespan * ms:.3f} ms simulated  "
            f"(prefill batches {self.steps.get('prefill_batches', 0)}, "
            f"decode steps {self.steps.get('decode_steps', 0)})")
        if self.faulted:
            n = len(self.requests)
            lines.append(
                f"  availability    : {self.availability * 100.0:.1f}%  "
                f"({len(self.completed_requests)}/{n} ok, "
                f"{int(s['shed'])} shed, {int(s['timeout'])} timeout, "
                f"{int(s['total_retries'])} retries)")
            lines.append(
                f"  SLO attainment  : {self.slo_attainment * 100.0:.1f}%")
            if s["recovery_time"] > 0.0:
                lines.append(f"  recovery        : "
                             f"{s['recovery_time'] * ms:.3f} ms "
                             f"(detection -> first post-shrink token)")
        for ev in self.events:
            line = (f"  fault           : t={ev['detected']:.6f}s: rank(s) "
                    f"{ev['failed_ranks']} failed, shrank "
                    f"{ev['old_size']} -> {ev['new_size']} workers and "
                    f"resumed")
            if ev.get("requeued"):
                line += f" ({len(ev['requeued'])} requests re-enqueued)"
            lines.append(line)
        for key, info in self.algorithms.items():
            lines.append(f"  collective      : {key}  x{info['calls']}  "
                         f"({info['words']} words)")
        return "\n".join(lines)
