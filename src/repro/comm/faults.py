"""Declarative, seeded fault plans for the simulated cluster.

A :class:`FaultPlan` describes everything that can go wrong in a run —
per-link slowdowns (persistent or transient jitter windows), per-rank
compute stragglers, and rank crashes pinned to a simulated time or a
training iteration.  The plan is *declarative and bound at network
creation* (``run_spmd(..., faults=plan)`` / ``Network(..., faults=plan)``),
so every fault fires at a deterministic program point of the affected rank
and the same plan produces bit-identical clocks, counters and results under
both the cooperative and the threaded runner.

Determinism guarantees
----------------------

* **No plan ⇒ byte-identical to the fault-free simulator.**  Every hot-path
  hook is gated on a single ``net.faults is not None`` test; no fault code
  runs, no formulas change.
* **Slowdowns** scale the ``beta`` term of individual link bookings.  The
  factor is evaluated at each message's booking start time, which is itself
  schedule-independent (links are booked in program order), so slowed runs
  stay bit-identical across runners.
* **Stragglers** scale :meth:`repro.comm.SimComm.compute` charges (and
  therefore every ``compute_*`` helper and the streaming
  ``_BackwardPacer``) while the rank's clock lies inside a window.
* **Crashes** raise :class:`repro.errors.SimulatedRankCrash` in the dying
  rank at its next fault-checked program point (a communication call, a
  ``compute`` charge crossing the crash time, or the trainer's
  per-iteration check for iteration-pinned crashes).  Survivors learn of
  the death only at *blocking* points (receive, ``waitall``, fused
  rendezvous) — eager sends to a dead rank are black-holed, like eager
  MPI buffering onto a NIC that has not yet flagged the peer — and raise
  :class:`repro.errors.RankFailedError` with their clock charged to
  ``death_time + detect_timeout`` (the bounded detection latency).

Plans and the fast path
-----------------------

Slowdowns and stragglers are per-message and per-rank *multipliers*, so a
plan does not push a run off the compiled-schedule fast path
(:mod:`repro.comm.fused`, :mod:`repro.train.rankbatch`): the replay books
every round with factor arrays read from :meth:`FaultState.by_rank` — the
plan's windows re-keyed from network slot to the group rank of the current
world, so a shrunk world replays the same schedules — and only the few
faulty ranks pay a scalar window lookup.  Crashes are different: survivors
must detect a death at their own blocking points, with their own clocks
and partial link bookings, and only the per-message path produces those.
The world rendezvous is therefore entered only while
:meth:`FaultState.crash_free` holds — no live slot carries a time-pinned
crash, and none is due by the step the ranks announced through
``comm.maybe_crash(iteration=t)`` — so the interrupted iteration, its
detection clocks, rollback and shrink run per message exactly as they
always did, and the fast path re-engages on the shrunk world.

Seeded generators (:meth:`FaultPlan.straggler_skew`,
:meth:`FaultPlan.jittery`) derive concrete plans from an integer seed, so
benchmark scenarios are reproducible from ``(nranks, seed)`` alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import inf
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = [
    "LinkSlowdown",
    "ComputeStraggler",
    "RankCrash",
    "FaultPlan",
    "FaultState",
    "RankWindows",
]


def _check_window(t_start: float, t_end: float, what: str) -> None:
    if not t_start < t_end:
        raise ConfigError(
            f"{what}: empty fault window [{t_start}, {t_end})")


@dataclass(frozen=True)
class LinkSlowdown:
    """Scale the bandwidth term of one rank's link by ``factor`` while the
    booking start time lies in ``[t_start, t_end)``.

    ``direction`` selects the egress link, the ingress link, or both; a
    persistent slow link is the default (window = all of time), a transient
    jitter burst is a finite window.  Overlapping windows compose
    multiplicatively.
    """

    rank: int
    factor: float
    direction: str = "both"          # "egress" | "ingress" | "both"
    t_start: float = 0.0
    t_end: float = inf

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise ConfigError(f"link slowdown factor must be > 0, "
                              f"got {self.factor}")
        if self.direction not in ("egress", "ingress", "both"):
            raise ConfigError(
                f"unknown link direction {self.direction!r}; expected "
                "'egress', 'ingress' or 'both'")
        _check_window(self.t_start, self.t_end,
                      f"LinkSlowdown(rank={self.rank})")


@dataclass(frozen=True)
class ComputeStraggler:
    """Scale one rank's local compute charges by ``factor`` while its clock
    lies in ``[t_start, t_end)`` (a slow/thermally-throttled GPU)."""

    rank: int
    factor: float
    t_start: float = 0.0
    t_end: float = inf

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise ConfigError(f"straggler factor must be > 0, "
                              f"got {self.factor}")
        _check_window(self.t_start, self.t_end,
                      f"ComputeStraggler(rank={self.rank})")


@dataclass(frozen=True)
class RankCrash:
    """Fail-stop one rank, pinned to a simulated ``time`` (the rank dies at
    its first fault-checked program point with ``clock >= time``) or to a
    1-based training ``iteration`` (checked by the trainer at iteration
    start).  Exactly one of the two must be given."""

    rank: int
    time: Optional[float] = None
    iteration: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.time is None) == (self.iteration is None):
            raise ConfigError(
                f"RankCrash(rank={self.rank}): exactly one of time= or "
                "iteration= must be set")
        if self.time is not None and self.time < 0.0:
            raise ConfigError("crash time must be >= 0")
        if self.iteration is not None and self.iteration < 1:
            raise ConfigError("crash iteration must be >= 1 (1-based)")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault scenario for one SPMD run.

    ``detect_timeout`` is the simulated failure-detector latency: a
    survivor that blocks on a dead (or transitively fail-stopped) peer
    raises with its clock charged to at least
    ``death_time + detect_timeout``.
    ``seed`` records the generator seed for provenance (plans built by
    hand may leave it ``None``); it has no runtime effect.
    """

    links: Tuple[LinkSlowdown, ...] = ()
    stragglers: Tuple[ComputeStraggler, ...] = ()
    crashes: Tuple[RankCrash, ...] = ()
    detect_timeout: float = 1e-3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.detect_timeout < 0.0:
            raise ConfigError("detect_timeout must be >= 0")
        seen = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ConfigError(f"duplicate crash for rank {c.rank}")
            seen.add(c.rank)
        # accept lists from hand-written / JSON plans
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        """Build a plan from the JSON-friendly dict shape of
        :meth:`to_dict` (the ``--fault-plan`` file format)."""
        return cls(
            links=tuple(LinkSlowdown(**e) for e in d.get("links", ())),
            stragglers=tuple(ComputeStraggler(**e)
                             for e in d.get("stragglers", ())),
            crashes=tuple(RankCrash(**e) for e in d.get("crashes", ())),
            detect_timeout=float(d.get("detect_timeout", 1e-3)),
            seed=d.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        d = asdict(self)
        # inf does not survive strict JSON: drop default windows
        for lst in (d["links"], d["stragglers"]):
            for e in lst:
                if e.get("t_end") == inf:
                    del e["t_end"]
                    if e.get("t_start") == 0.0:
                        del e["t_start"]
        d["crashes"] = [{k: v for k, v in e.items() if v is not None}
                        for e in d["crashes"]]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    # ------------------------------------------------------------------
    # Seeded scenario generators
    # ------------------------------------------------------------------
    @classmethod
    def straggler_skew(cls, nranks: int, *, seed: int = 0,
                       straggle_factor: float = 4.0,
                       link_factor: float = 4.0,
                       detect_timeout: float = 1e-3) -> "FaultPlan":
        """The benchmark scenario: one seeded p99 compute straggler plus a
        persistent slow link on a different rank."""
        if nranks < 2:
            raise ConfigError("straggler_skew needs nranks >= 2")
        rng = np.random.default_rng(seed)
        straggler = int(rng.integers(nranks))
        slow = int(rng.integers(nranks - 1))
        if slow >= straggler:
            slow += 1                 # distinct rank, uniform over the rest
        return cls(
            links=(LinkSlowdown(rank=slow, factor=link_factor),),
            stragglers=(ComputeStraggler(rank=straggler,
                                         factor=straggle_factor),),
            detect_timeout=detect_timeout,
            seed=seed,
        )

    @classmethod
    def jittery(cls, nranks: int, *, seed: int = 0, windows: int = 4,
                horizon: float = 1.0, factor: float = 3.0,
                window_frac: float = 0.1,
                detect_timeout: float = 1e-3) -> "FaultPlan":
        """Transient network jitter: ``windows`` seeded slowdown bursts,
        each ``window_frac * horizon`` long, on random ranks/directions."""
        if nranks < 1:
            raise ConfigError("jittery needs nranks >= 1")
        rng = np.random.default_rng(seed)
        width = horizon * window_frac
        links: List[LinkSlowdown] = []
        for _ in range(windows):
            t0 = float(rng.uniform(0.0, max(horizon - width, 0.0)))
            links.append(LinkSlowdown(
                rank=int(rng.integers(nranks)), factor=factor,
                direction=("egress", "ingress", "both")[int(rng.integers(3))],
                t_start=t0, t_end=t0 + width))
        return cls(links=tuple(links), detect_timeout=detect_timeout,
                   seed=seed)

    # ------------------------------------------------------------------
    def compile(self, nranks: int) -> "FaultState":
        """Pre-bucket the plan per rank for O(1) hot-path consultation."""
        return FaultState(self, nranks)


def _window_factor(windows: List[Tuple[float, float, float]],
                   t: float) -> float:
    """Compose the factors of every window containing ``t`` (product)."""
    f = 1.0
    for t0, t1, fac in windows:
        if t0 <= t < t1:
            f *= fac
    return f


class RankWindows:
    """One direction of a compiled plan (egress, ingress or compute
    windows) as one world sees it: keyed by *group rank*, the index the
    compiled schedules address, instead of by network slot."""

    __slots__ = ("windows", "mask")

    def __init__(self, windows: List[List[Tuple[float, float, float]]]):
        #: group rank -> that rank's windows (empty for a clean rank)
        self.windows = windows
        self.mask = np.array([bool(w) for w in windows])

    def factor(self, rank: int, t: float) -> float:
        """The factor of one booking or charge of ``rank`` starting at
        ``t`` (1.0 for a clean rank)."""
        return _window_factor(self.windows[rank], t)

    def scale(self, x, ranks: np.ndarray, times: np.ndarray):
        """``x`` times the per-message factor array of bookings by
        ``ranks`` starting at ``times``: 1.0 everywhere except on this
        plan's faulty ranks, the only ones that take a window lookup.
        ``x`` itself comes back when none of them is in ``ranks`` — a
        factor of 1.0 is bit-neutral, so that is the same result."""
        hits = np.flatnonzero(self.mask[ranks])
        if not hits.size:
            return x
        fac = np.ones(ranks.size)
        for j in hits.tolist():
            fac[j] = _window_factor(self.windows[ranks[j]], times[j])
        return x * fac


class FaultState:
    """A :class:`FaultPlan` compiled against a concrete rank count.

    Owned by a :class:`repro.comm.Network`; all lookups are keyed by
    *network slot* (the physical rank id), so shrunk communicators keep
    consulting the right entries after an elastic resize.  The two
    questions the fused fast path asks are answered per *world* (the
    network's live slot tuple) and cached until the world changes:
    :meth:`by_rank` and :meth:`crash_free`.
    """

    __slots__ = ("plan", "nranks", "detect_timeout",
                 "egress", "ingress", "compute",
                 "link_faulty", "straggler",
                 "crash_time", "crash_iter",
                 "_world", "_by_rank", "_timed_crash", "_first_crash_iter")

    def __init__(self, plan: FaultPlan, nranks: int):
        self.plan = plan
        self.nranks = nranks
        self.detect_timeout = float(plan.detect_timeout)
        eg: List[List[Tuple[float, float, float]]] = [[] for _ in range(nranks)]
        ig: List[List[Tuple[float, float, float]]] = [[] for _ in range(nranks)]
        cw: List[List[Tuple[float, float, float]]] = [[] for _ in range(nranks)]
        for ls in plan.links:
            if not 0 <= ls.rank < nranks:
                raise ConfigError(
                    f"LinkSlowdown rank {ls.rank} out of range for "
                    f"P={nranks}")
            w = (ls.t_start, ls.t_end, ls.factor)
            if ls.direction in ("egress", "both"):
                eg[ls.rank].append(w)
            if ls.direction in ("ingress", "both"):
                ig[ls.rank].append(w)
        for st in plan.stragglers:
            if not 0 <= st.rank < nranks:
                raise ConfigError(
                    f"ComputeStraggler rank {st.rank} out of range for "
                    f"P={nranks}")
            cw[st.rank].append((st.t_start, st.t_end, st.factor))
        self.egress = eg
        self.ingress = ig
        self.compute = cw
        self.link_faulty = [bool(eg[r]) or bool(ig[r])
                            for r in range(nranks)]
        self.straggler = [bool(cw[r]) for r in range(nranks)]
        self.crash_time = [inf] * nranks
        self.crash_iter: List[Optional[int]] = [None] * nranks
        for c in plan.crashes:
            if not 0 <= c.rank < nranks:
                raise ConfigError(
                    f"RankCrash rank {c.rank} out of range for P={nranks}")
            if c.time is not None:
                self.crash_time[c.rank] = float(c.time)
            else:
                self.crash_iter[c.rank] = int(c.iteration)
        self._world: Optional[Tuple[int, ...]] = None

    # hot-path lookups ---------------------------------------------------
    def egress_factor(self, rank: int, t: float) -> float:
        return _window_factor(self.egress[rank], t)

    def ingress_factor(self, rank: int, t: float) -> float:
        return _window_factor(self.ingress[rank], t)

    def compute_factor(self, rank: int, t: float) -> float:
        return _window_factor(self.compute[rank], t)

    # per-world views (the fused fast path) ---------------------------------
    def _focus(self, world: Tuple[int, ...]) -> None:
        """Re-key the per-world caches when the world changed (the
        network replaces its world tuple only at an elastic shrink, so
        identity is the whole test)."""
        if world is self._world:
            return
        self._world = world
        self._by_rank = tuple(
            RankWindows([by_slot[s] for s in world])
            if any(by_slot[s] for s in world) else None
            for by_slot in (self.egress, self.ingress, self.compute))
        self._timed_crash = any(self.crash_time[s] != inf for s in world)
        self._first_crash_iter = min(
            (self.crash_iter[s] for s in world
             if self.crash_iter[s] is not None), default=inf)

    def by_rank(self, world: Tuple[int, ...]) -> Tuple[
            Optional[RankWindows], Optional[RankWindows],
            Optional[RankWindows]]:
        """The ``(egress, ingress, compute)`` windows of ``world`` keyed
        by group rank; ``None`` for a direction no slot of the world has
        a window in (every factor is 1.0 there)."""
        self._focus(world)
        return self._by_rank

    def crash_free(self, world: Tuple[int, ...],
                   step: Optional[int]) -> bool:
        """Whether no planned crash can fire inside ``world`` before its
        ranks announce their next step: no live slot has a time-pinned
        crash, and none has an iteration-pinned crash due by ``step``
        (the iteration last announced through
        :meth:`repro.comm.SimComm.maybe_crash`; ``None`` = none yet, and
        iteration-pinned crashes only ever fire there).  "Due by", not
        "due in": a rank that ran ahead through a step without blocking
        communication must not open a rendezvous its victim — still in
        the live world, about to die in the earlier step — never joins."""
        self._focus(world)
        return not self._timed_crash and (
            step is None or step < self._first_crash_iter)

