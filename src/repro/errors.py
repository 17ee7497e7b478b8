"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from :class:`ReproError`
so downstream users can catch library failures separately from programming
errors (``ValueError``/``TypeError`` are still used for plain argument
validation at API boundaries).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class CommError(ReproError):
    """Errors raised by the simulated communication runtime."""


class RankFailedError(CommError):
    """One or more SPMD ranks failed.

    Raised by the launcher when rank programs raised genuine errors, and
    on every *surviving* rank when a peer fail-stops under a fault plan
    (see :mod:`repro.comm.faults`) — there ``failures`` maps each dead
    rank to its :class:`SimulatedRankCrash`.  Elastic recovery loops (the
    trainer's shrink-and-resume and the serving loop's recovery branch
    in :mod:`repro.serve.loop`) catch this on the survivors, ``shrink()``
    the communicator and continue; request-level outcomes under serving
    (shed/timeout/retry) are terminal record states, never exceptions.

    Attributes:
        failures: mapping ``rank -> exception``, in ascending rank order.
        failed_ranks: the sorted tuple of failed rank ids.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(sorted(failures.items()))
        self.failed_ranks = tuple(self.failures)
        ranks = ", ".join(str(r) for r in self.failed_ranks)
        parts = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}"
            for r, e in self.failures.items())
        super().__init__(
            f"{len(self.failures)} rank(s) failed (ranks {ranks}); "
            f"{parts}"
        )


class SimulatedRankCrash(CommError):
    """A rank fail-stopped on schedule under a :class:`FaultPlan`.

    Raised *in the crashing rank* at a deterministic program point; never
    treated as a genuine program error by the launcher (survivors either
    recover elastically or raise :class:`RankFailedError` naming this
    rank).

    Attributes:
        rank: the dead rank's network slot.
        time: the simulated death time in seconds.
    """

    def __init__(self, rank: int, time: float):
        self.rank = rank
        self.time = float(time)
        super().__init__(
            f"rank {rank} crashed at simulated t={self.time:.6e}s "
            f"(fault plan)")


class MatchError(CommError):
    """A receive could not be matched (e.g. negative source, bad tag)."""


class DeadlockError(CommError):
    """Every live rank is blocked on a receive that can never be matched.

    Only the cooperative runner can prove this (it sees the global blocked
    set); the threaded runner would simply hang until interrupted.

    Attributes:
        blocked: one dict per parked rank —
            ``{"rank", "op", "clock", ...}`` where ``op`` is ``"recv"``
            (with ``"source"``/``"tag"``), ``"collective"`` (with
            ``"sig"``) or ``"shrink"``, and ``clock`` is the rank's
            simulated time at the moment it parked.  Empty when raised
            outside the cooperative engine.
    """

    def __init__(self, msg: str, blocked: list[dict] | None = None):
        super().__init__(msg)
        self.blocked = list(blocked or ())


class SanitizerError(CommError):
    """Base class for violations detected by the runtime sanitizer mode
    (``REPRO_SANITIZE=1`` / ``run_spmd(sanitize=True)``; see
    :mod:`repro.comm.launcher`).  A sanitizer error means the SPMD
    section *completed* but broke a runtime invariant the normal mode
    does not pay to check."""


class LoanViolationError(SanitizerError):
    """A loaned ``isend`` buffer was made writable during its loan window.

    The loan protocol write-locks a sender's array from ``isend`` until
    delivery (or seal); a direct write already raises ``ValueError`` in
    the offending rank.  This error catches the sneakier bypass — code
    that calls ``setflags(write=True)`` on a loaned array — detected at
    loan release by the sanitizer.

    Attributes:
        violations: one human-readable record per violating loan.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            f"{len(self.violations)} loaned send buffer(s) were made "
            f"writable during their loan window: "
            + "; ".join(self.violations))


class MailboxLeakError(SanitizerError):
    """Messages were still undelivered when the SPMD section completed.

    Eager semantics make posting without a matching receive *legal*, but
    a scheme that finishes an iteration with traffic still in flight is
    almost always mismatched send/recv bookkeeping (wrong tag, wrong
    round count) that happens not to deadlock.

    Attributes:
        leaks: one dict per undelivered message with keys
            ``src``/``dst``/``tag``/``seq``/``nwords``.
    """

    def __init__(self, leaks: list[dict]):
        self.leaks = list(leaks)
        head = ", ".join(
            f"{m['src']}->{m['dst']} tag={m['tag']} seq={m['seq']} "
            f"({m['nwords']}w)" for m in self.leaks[:8])
        more = f" (+{len(self.leaks) - 8} more)" if len(self.leaks) > 8 \
            else ""
        super().__init__(
            f"{len(self.leaks)} message(s) left undelivered at section "
            f"end: {head}{more}")


class ScheduleRaceError(SanitizerError):
    """A rank program's outcome depends on the scheduling order.

    The sanitizer re-runs the section on a fresh network with a seeded
    perturbation of the engine's ready queue; simulated time is
    schedule-independent by construction, so results, clocks and traffic
    counters must be bit-identical.  Any difference means the program
    communicates through shared Python state (a message race) instead of
    the simulated network.

    Attributes:
        differences: human-readable list of what diverged.
    """

    def __init__(self, differences: list[str]):
        self.differences = list(differences)
        super().__init__(
            "outcome depends on scheduling order (message race): "
            + "; ".join(self.differences))


class ReplicaDivergenceError(SanitizerError):
    """Data-parallel replicas that must be bit-equal are not.

    Every rank applies the same allreduced update to the same parameters
    with the same optimizer (Algorithm 2), so every rank's parameters and
    optimizer state stay bit-equal.  Rank-batched training relies on it:
    the ``rb_apply`` executor (:mod:`repro.train.rankbatch`) runs one
    optimizer step for the world, on state the ranks share.  Under the
    sanitizer it first compares each rank's replica with rank 0's.

    Attributes:
        rank: the first rank whose replica differs from rank 0's.
        what: the part that differs (parameters, a moment, the step
            counter).
    """

    def __init__(self, rank: int, what: str):
        self.rank = rank
        self.what = what
        super().__init__(
            f"rank {rank}'s {what} differ from rank 0's before the "
            f"world's optimizer step: the data-parallel replicas diverged")


class SparseFormatError(ReproError):
    """A sparse vector violated its format invariants."""


class PartitionError(ReproError):
    """Invalid region boundaries for gradient-space partitioning."""


class ConfigError(ReproError):
    """Invalid experiment or algorithm configuration.

    Also raised for violations of documented API contracts whose silent
    acceptance would corrupt algorithm behavior — e.g. the 1-based
    iteration numbering of ``GradientAllreduce.reduce``/``begin`` (a
    non-positive ``t`` would shift every periodic schedule by a full
    period).  Plain shape/type argument validation stays ``ValueError``.
    """
