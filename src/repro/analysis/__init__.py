"""``repro-lint``: static enforcement of the simulator's invariants.

The repo's core guarantee — a run is a *pure function of (program, seed,
plan)*, bit-identical across runners and collective paths — rests on
coding invariants that example-based equivalence tests can only sample.
This package checks them on **every line** of the codebase with a
stdlib-``ast`` pass:

========  ==================================================================
RL001     no nondeterminism sources (wall clock, global RNG, ``os.urandom``,
          ``id()`` in orderings, iteration over unordered sets) in
          simulation code
RL002     no in-place mutation of buffers received from the communicator
          (``recv``/``waitall``/``sendrecv`` results are loaned, read-only
          views) inside ``allreduce/`` schemes
RL003     every dereference of the ``faults`` fault-state in
          ``comm/network.py`` / ``comm/communicator.py`` /
          ``comm/engine.py`` / ``comm/fused.py`` /
          ``allreduce/oktopk.py`` / ``serve/loop.py`` is dominated by a
          ``faults is not None`` guard (the no-plan path must stay
          byte-identical to a plan-less network)
========  ==================================================================

Run it as ``repro-lint [paths...]`` (console script) or
``python -m repro.analysis``.  Intentional exceptions carry an inline
suppression **with a reason**::

    t0 = time.process_time()  # repro-lint: ignore[RL001] -- wall-clock perf harness

A suppression without a reason is itself reported (RL000).  See
:mod:`repro.analysis.core` for the engine and the rule registry.

The static pass is paired with the *runtime* sanitizer mode
(``REPRO_SANITIZE=1`` / ``run_spmd(sanitize=True)``, see
:mod:`repro.comm.launcher`): loan-window write detection, an end-of-run
mailbox-leak audit and a schedule-perturbation race detector.
"""

from .core import ALL_RULES, Finding, lint_paths, lint_source

__all__ = ["ALL_RULES", "Finding", "lint_paths", "lint_source"]
