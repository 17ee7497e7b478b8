"""Open-loop request workloads for the serving simulator.

A :class:`Workload` is an immutable, arrival-ordered sequence of
:class:`Request` objects.  Arrivals are *open loop*: request ``i`` shows
up at its pre-drawn time regardless of how the server is doing — the
standard methodology for serving benchmarks (offered load is independent
of achieved goodput, so saturation shows up as growing latency, not as a
throttled generator).

Two sources:

* :meth:`Workload.poisson` — seeded Poisson arrivals with fixed or
  uniformly drawn prompt/output lengths; a pure function of the seed.
* :meth:`Workload.from_json` / :meth:`to_json` — trace-driven arrivals
  (replay a recorded trace, or round-trip a generated one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigError

#: a fixed token count, or an inclusive ``(lo, hi)`` range drawn per request
TokenSpec = Union[int, Tuple[int, int]]


@dataclass(frozen=True)
class Request:
    """One inference request of the open-loop stream."""

    rid: int
    #: arrival time in simulated seconds (non-decreasing across the stream)
    arrival: float
    #: prompt length — the prefill activation rows
    prompt_tokens: int
    #: tokens to generate — one decode step each (the first comes out of
    #: the prefill pass)
    output_tokens: int
    #: completion SLO relative to arrival (simulated seconds); ``None``
    #: defers to the serving config's global deadline (which may also be
    #: ``None`` — no deadline).  Read by the serving loop under a fault
    #: plan (an empty ``FaultPlan()`` will do) for timeout detection and
    #: deadline-aware admission control; a plan-less run ignores it.
    deadline: Optional[float] = None

    def deadline_at(self, default: Optional[float] = None) -> Optional[float]:
        """Absolute completion deadline, or ``None`` when neither the
        request nor ``default`` carries an SLO."""
        rel = self.deadline if self.deadline is not None else default
        return None if rel is None else self.arrival + rel


def _draw_tokens(rng: np.random.Generator, spec: TokenSpec,
                 n: int, what: str) -> np.ndarray:
    if isinstance(spec, (tuple, list)):
        lo, hi = int(spec[0]), int(spec[1])
        if lo < 1 or hi < lo:
            raise ConfigError(f"{what} range must satisfy 1 <= lo <= hi, "
                              f"got {spec!r}")
        return rng.integers(lo, hi + 1, size=n)
    k = int(spec)
    if k < 1:
        raise ConfigError(f"{what} must be >= 1, got {spec!r}")
    return np.full(n, k, dtype=np.int64)


@dataclass(frozen=True)
class Workload:
    """An arrival-ordered open-loop request stream."""

    requests: Tuple[Request, ...]

    def __post_init__(self):
        last = 0.0
        for rq in self.requests:
            if rq.arrival < last:
                raise ConfigError("workload arrivals must be non-decreasing")
            if rq.prompt_tokens < 1 or rq.output_tokens < 1:
                raise ConfigError(
                    f"request {rq.rid} needs >= 1 prompt and output token")
            if rq.deadline is not None and rq.deadline <= 0:
                raise ConfigError(
                    f"request {rq.rid} deadline must be > 0, "
                    f"got {rq.deadline}")
            last = rq.arrival

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_output_tokens(self) -> int:
        return sum(rq.output_tokens for rq in self.requests)

    @property
    def max_prompt_tokens(self) -> int:
        return max((rq.prompt_tokens for rq in self.requests), default=0)

    @property
    def span(self) -> float:
        """Arrival span in simulated seconds (last arrival; the first is
        at or after time zero)."""
        return self.requests[-1].arrival if self.requests else 0.0

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def poisson(cls, n_requests: int, rate: float, *,
                prompt_tokens: TokenSpec = 64,
                output_tokens: TokenSpec = 4,
                deadline: Optional[float] = None,
                seed: int = 0) -> "Workload":
        """Seeded Poisson arrivals at ``rate`` requests per simulated
        second; deterministic per ``(n_requests, rate, specs, seed)``.
        ``deadline`` (optional) stamps every request with the same
        relative completion SLO."""
        if n_requests < 1:
            raise ConfigError(f"n_requests must be >= 1, got {n_requests}")
        if rate <= 0:
            raise ConfigError(f"rate must be > 0, got {rate}")
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=n_requests)
        arrivals = np.cumsum(gaps)
        prompts = _draw_tokens(rng, prompt_tokens, n_requests, "prompt_tokens")
        outputs = _draw_tokens(rng, output_tokens, n_requests, "output_tokens")
        return cls(tuple(
            Request(i, float(arrivals[i]), int(prompts[i]), int(outputs[i]),
                    deadline)
            for i in range(n_requests)))

    @classmethod
    def from_arrivals(cls, arrivals: Sequence[float],
                      prompt_tokens: Sequence[int],
                      output_tokens: Sequence[int],
                      deadlines: Optional[Sequence[Optional[float]]] = None,
                      ) -> "Workload":
        """Trace-driven workload from explicit per-request columns."""
        if not (len(arrivals) == len(prompt_tokens) == len(output_tokens)):
            raise ConfigError("trace columns must have equal length")
        if deadlines is not None and len(deadlines) != len(arrivals):
            raise ConfigError("trace columns must have equal length")
        return cls(tuple(
            Request(i, float(arrivals[i]), int(prompt_tokens[i]),
                    int(output_tokens[i]),
                    (None if deadlines is None or deadlines[i] is None
                     else float(deadlines[i])))
            for i in range(len(arrivals))))

    # ------------------------------------------------------------------
    # Trace round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        rows = []
        for rq in self.requests:
            row = {"arrival": rq.arrival, "prompt_tokens": rq.prompt_tokens,
                   "output_tokens": rq.output_tokens}
            if rq.deadline is not None:
                row["deadline"] = rq.deadline
            rows.append(row)
        return json.dumps(rows)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        rows = json.loads(text)
        return cls.from_arrivals(
            [row["arrival"] for row in rows],
            [row["prompt_tokens"] for row in rows],
            [row["output_tokens"] for row in rows],
            [row.get("deadline") for row in rows])
