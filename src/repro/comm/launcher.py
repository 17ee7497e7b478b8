"""SPMD launcher: run one Python callable per simulated rank.

Two runners execute the same per-rank programs against the same shared
:class:`Network`:

* ``"coop"`` (default) — the deterministic cooperative engine
  (:mod:`repro.comm.engine`): exactly one rank executes at a time, control
  switches only at blocking points, the network hot path takes no locks and
  payloads travel zero-copy.  Global deadlocks are detected and raised.
* ``"threads"`` — the legacy runner: one free-running OS thread per rank,
  serialized by the network lock, with deep-copied payloads.  Kept as a
  compatibility fallback and as an independent implementation for
  equivalence testing (``tests/test_runner_equivalence.py``).

Simulated time is schedule-independent (links are booked in program order
of the owning rank), so results, traffic counters and makespans are
identical under both runners.  Pick a runner per call with ``runner=`` or
globally with the ``REPRO_SPMD_RUNNER`` environment variable.

Fault plans
-----------

Pass ``faults=FaultPlan(...)`` to inject deterministic link slowdowns,
compute stragglers and rank crashes (see :mod:`repro.comm.faults`).  A
planned crash (:class:`~repro.errors.SimulatedRankCrash`) is never a
program error: if every *other* rank either also crashed on schedule or
returned normally (elastic recovery), the run **succeeds** and the crashed
ranks are reported in :attr:`SpmdResult.crashed` with ``None`` results.
Survivors that did not recover raise :class:`RankFailedError` naming the
dead ranks; the launcher merges those into one error.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

import inspect

import numpy as np

from ..errors import CommError, LoanViolationError, MailboxLeakError, \
    RankFailedError, SanitizerError, ScheduleRaceError, SimulatedRankCrash
from .communicator import SimComm
from .engine import CoopEngine
from .faults import FaultPlan
from .model import NetworkModel
from .network import Network, TrafficStats

#: environment variable consulted when ``run_spmd`` is called without an
#: explicit ``runner=``; accepts the same values as the argument.
RUNNER_ENV = "REPRO_SPMD_RUNNER"

#: environment variable enabling the runtime sanitizer mode
#: (``run_spmd(sanitize=True)`` equivalent); truthy values: 1/true/yes/on.
SANITIZE_ENV = "REPRO_SANITIZE"

#: ready-queue perturbation seed used by the sanitizer's race-detector
#: replay (any fixed seed works; exposed so tests can reference it).
SANITIZE_SCHEDULE_SEED = 0xA11CE

_RUNNER_ALIASES = {
    "coop": "coop",
    "cooperative": "coop",
    "threads": "threads",
    "threaded": "threads",
}


def _single_malloc_arena() -> None:
    """One glibc malloc arena for the process, set before any rank thread
    exists; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Rank threads run one at a time: per-thread arenas buy no concurrency,
    # they only strand each thread's high-water mark.
    mallopt(-8, 1)      # M_ARENA_MAX


_single_malloc_arena()


def sanitize_enabled(sanitize: Optional[bool] = None) -> bool:
    """Resolve the sanitizer switch (argument > ``REPRO_SANITIZE`` > off)."""
    if sanitize is not None:
        return bool(sanitize)
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def resolve_runner(runner: Optional[str] = None) -> str:
    """Normalize a runner name (argument > ``REPRO_SPMD_RUNNER`` > coop)."""
    name = runner or os.environ.get(RUNNER_ENV) or "coop"
    try:
        return _RUNNER_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown SPMD runner {name!r}; expected one of "
            f"{sorted(_RUNNER_ALIASES)}") from None


@dataclass
class SpmdResult:
    """Outcome of an SPMD section."""

    results: List[Any]
    network: Network
    #: ranks that fail-stopped on schedule under the fault plan (their
    #: ``results`` entries are ``None``); empty for fault-free runs.
    crashed: Dict[int, SimulatedRankCrash] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Simulated completion time (max over rank clocks), seconds."""
        return self.network.makespan

    @property
    def survivors(self) -> List[int]:
        """Ranks that ran to completion — every rank on a clean run, the
        elastic survivor set when scheduled crashes fired (their results
        are the ones worth reading; see e.g. the serving loop)."""
        return [r for r in range(len(self.results))
                if r not in self.crashed]

    @property
    def stats(self) -> TrafficStats:
        return self.network.stats()

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, rank: int) -> Any:
        return self.results[rank]


def run_spmd(nranks: int, fn: Callable[..., Any], *args: Any,
             network: Optional[Network] = None,
             model: Optional[NetworkModel] = None,
             trace: bool = False,
             runner: Optional[str] = None,
             fused: Optional[bool] = None,
             faults: Optional[FaultPlan] = None,
             sanitize: Optional[bool] = None,
             **kwargs: Any) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks.

    Args:
        nranks: number of simulated ranks (P).
        fn: the per-rank program; receives a :class:`SimComm` first.
        network: reuse an existing network (keeps clocks/counters); by
            default a fresh one is created.
        model: cost model for a fresh network (ignored when ``network``
            is given).
        trace: record a message trace on the fresh network.
        runner: ``"coop"`` (default) or ``"threads"``; ``None`` defers to
            the ``REPRO_SPMD_RUNNER`` environment variable.
        fused: enable the fast path on the cooperative engine — every
            rendezvous: fused collectives, world executors and rank-batched
            model math (see :mod:`repro.comm.fused`); ``None`` (default)
            defers to the ``REPRO_FUSED`` environment variable (on unless
            set to ``0``).  ``False``, and the threaded runner always, take
            the reference path: per-message collectives and per-rank
            compute.  Under a fault plan the fast path stays on —
            slowdowns and stragglers are factors on the compiled
            schedules, a shrunk world replays them through a slot
            translation — except in the step a planned crash can fire in
            (see :mod:`repro.comm.faults`).
        faults: declarative fault plan for this section (see module
            docstring); only valid with a fresh network.
        sanitize: runtime sanitizer mode; ``None`` (default) defers to
            the ``REPRO_SANITIZE`` environment variable (off unless
            truthy).  On a clean section the sanitizer (1) raises
            :class:`repro.errors.LoanViolationError` if any loaned
            ``isend`` buffer was made writable during its loan window,
            (2) raises :class:`repro.errors.MailboxLeakError` if any
            message was left undelivered, and (3) — fresh-network,
            multi-rank coop sections only — re-runs the program
            (under the same fault plan, if any) with a seeded
            perturbation of the engine's ready queue and raises
            :class:`repro.errors.ScheduleRaceError` unless results,
            clocks, traffic counters and the set of crashed ranks are
            bit-identical (simulated time is schedule-independent by
            construction, so any divergence is a message race through
            shared Python state — including "which rank reached the
            rendezvous last", on the full world and on a shrunk one).
            A section in which a planned crash fired skips (1) and (2):
            the dead rank's in-flight traffic is legitimately orphaned.
            Under the threaded runner, received
            payload copies are additionally write-locked.  The replay
            re-executes ``fn``; programs with external side effects
            should not enable it.

    Returns:
        :class:`SpmdResult` with per-rank return values and the network.

    Raises:
        TypeError: if ``fn`` is a generator function (rank programs are
            plain blocking functions).
        RankFailedError: if any rank raised; other ranks are unblocked via
            the network abort flag and their secondary errors suppressed.
            A global deadlock surfaces as a wrapped
            :class:`repro.errors.DeadlockError` (cooperative runner only).
            Under a fault plan, planned crashes with non-recovering
            survivors raise one merged error naming the dead ranks.
        SanitizerError: raised as is when a sanitizer check inside the
            section fails (e.g. :class:`repro.errors.ReplicaDivergenceError`).
    """
    if inspect.isgeneratorfunction(fn):
        raise TypeError(
            f"rank program {getattr(fn, '__name__', fn)!r} is a generator "
            f"function; write it as a plain function that calls the "
            f"blocking communicator methods directly")
    if network is not None and faults is not None:
        raise ValueError(
            "pass faults= only with a fresh network (the plan is compiled "
            "into the Network at construction); build the Network with "
            "faults= instead")
    san = sanitize_enabled(sanitize)
    net = network if network is not None else Network(
        nranks, model, trace=trace, faults=faults, sanitize=san)
    if san and network is not None:
        net.sanitize = True
    if net.nranks != nranks:
        raise ValueError(
            f"network has {net.nranks} ranks but nranks={nranks} requested")
    which = resolve_runner(runner)

    if nranks == 1:
        # Fast path: single rank runs inline on the calling thread (keeps
        # tracebacks simple; payload semantics are the threaded ones).
        results, failures = _run_inline(net, fn, args, kwargs)
    elif which == "threads":
        results, failures = _run_threads(net, nranks, fn, args, kwargs)
    else:
        results, failures = CoopEngine(net, nranks,
                                       fused=fused).run(fn, args, kwargs)

    # When every failure was a planned fail-stop and every survivor
    # returned normally (elastic recovery, or no survivor left blocked)
    # the section succeeded in the shrunk world.
    crashes, others = _split_failures(failures)
    if others:
        for e in others.values():
            if isinstance(e, SanitizerError):
                raise e  # a finding, not a rank failure
        genuine = {r: e for r, e in others.items()
                   if not isinstance(e, CommError)}
        if genuine:
            raise RankFailedError(genuine)
        if all(isinstance(e, RankFailedError) for e in others.values()):
            # Survivors unanimously detected the planned deaths: collapse
            # their per-rank reports into one error naming the dead set.
            merged: Dict[int, BaseException] = dict(crashes)
            for e in others.values():
                merged.update(e.failures)
            raise RankFailedError(merged)
        raise RankFailedError({**others, **crashes})
    if net.sanitize:
        if not crashes:
            _sanitize_audit(net)
        if network is None and nranks > 1 and which == "coop":
            _sanitize_replay(net, nranks, fn, args, kwargs, fused,
                             results, crashes)
    return SpmdResult(results, net, crashed=crashes)


def _split_failures(failures: Dict[int, BaseException]):
    """``(planned crashes, every other failure)`` of a section."""
    crashes = {r: e for r, e in failures.items()
               if isinstance(e, SimulatedRankCrash)}
    return crashes, {r: e for r, e in failures.items() if r not in crashes}


def _sanitize_audit(net: Network) -> None:
    """End-of-section sanitizer checks on a cleanly completed run."""
    if net._sanitize_violations:
        violations = list(net._sanitize_violations)
        net._sanitize_violations.clear()
        raise LoanViolationError(violations)
    leaks = net.undelivered_messages()
    if leaks:
        raise MailboxLeakError(leaks)


def _sanitize_replay(net: Network, nranks: int, fn: Callable[..., Any],
                     args: tuple, kwargs: dict,
                     fused: Optional[bool], results: List[Any],
                     crashes: Dict[int, SimulatedRankCrash]) -> None:
    """Race detector: re-run the section on a fresh network (same model,
    same fault plan) with a seeded ready-queue perturbation and require a
    bit-identical outcome, planned crashes included."""
    net2 = Network(nranks, net.model, sanitize=True, faults=net.fault_plan)
    try:
        results2, failures2 = CoopEngine(
            net2, nranks, fused=fused,
            schedule_seed=SANITIZE_SCHEDULE_SEED).run(fn, args, kwargs)
    except ScheduleRaceError:
        raise
    except BaseException as exc:  # noqa: BLE001 - any divergence is a race
        raise ScheduleRaceError(
            [f"perturbed-schedule re-run raised "
             f"{type(exc).__name__}: {exc}"]) from exc
    crashes2, others2 = _split_failures(failures2)
    if others2:
        raise ScheduleRaceError(
            [f"rank {r} failed only under the perturbed schedule: "
             f"{type(e).__name__}: {e}"
             for r, e in sorted(others2.items())])
    diffs: List[str] = []
    if sorted(crashes2) != sorted(crashes):
        diffs.append(f"crashed ranks differ ({sorted(crashes)} vs "
                     f"{sorted(crashes2)} under the perturbed schedule)")
    for rank in range(nranks):
        if not _deep_equal(results[rank], results2[rank]):
            diffs.append(f"rank {rank} result differs")
    if net2.clocks != net.clocks:
        diffs.append("simulated clocks differ")
    for name in ("words_sent", "words_recv", "msgs_sent", "msgs_recv"):
        if getattr(net2, name) != getattr(net, name):
            diffs.append(f"traffic counters differ ({name})")
    if diffs:
        raise ScheduleRaceError(diffs)


def _deep_equal(a: Any, b: Any) -> bool:
    """Bit-identity comparison for rank results: exact dtype/shape/bytes
    for arrays, structural recursion for containers and dataclasses."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _deep_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _deep_equal(x, y) for x, y in zip(a, b))
    if is_dataclass(a) and not isinstance(a, type):
        return all(_deep_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a))
    if isinstance(a, float):
        return a == b or (a != a and b != b)  # NaN == NaN for bit-identity
    return a == b


def _run_inline(net: Network, fn: Callable[..., Any], args: tuple,
                kwargs: dict) -> tuple[List[Any], Dict[int, BaseException]]:
    results: List[Any] = [None]
    failures: Dict[int, BaseException] = {}
    net._begin_section()
    comm = SimComm(net, 0)
    try:
        results[0] = fn(comm, *args, **kwargs)
    except SimulatedRankCrash as exc:
        failures[0] = exc
    except BaseException as exc:  # noqa: BLE001 - uniform failure report
        failures[0] = exc
        net.abort(exc)
    finally:
        net._on_rank_exit(0)
    return results, failures


def _run_threads(net: Network, nranks: int, fn: Callable[..., Any],
                 args: tuple, kwargs: dict,
                 ) -> tuple[List[Any], Dict[int, BaseException]]:
    """Legacy thread-per-rank execution (see module docstring)."""
    results: List[Any] = [None] * nranks
    failures: Dict[int, BaseException] = {}
    failures_lock = threading.Lock()
    net._begin_section()

    def runner(rank: int) -> None:
        comm = SimComm(net, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except SimulatedRankCrash as exc:
            # Planned fail-stop: never an abort — survivors detect the
            # death through the network's revoke bookkeeping.
            with failures_lock:
                failures[rank] = exc
        except RankFailedError as exc:
            # Survivor report of planned peer deaths: also not an abort
            # (other survivors reach the same detection independently).
            with failures_lock:
                failures[rank] = exc
        except CommError as exc:
            # Secondary failure caused by another rank's abort: record only
            # if we are the first (i.e. the genuine origin).
            with failures_lock:
                if not net.aborted or not failures:
                    failures[rank] = exc
            net.abort(exc)
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            with failures_lock:
                failures[rank] = exc
            net.abort(exc)
        finally:
            net._on_rank_exit(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True,
                                name=f"spmd-rank-{r}")
               for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, failures
