"""Repo-wide pytest hooks (``tests/conftest.py`` holds the suite's fixtures)."""

import pytest

#: Tests under ``perfbench/`` belong to the benchmark contract
#: (``BENCHMARK.json`` ``paths``): only a ``benchmark`` PR edits them.  One
#: that pins a premise a later PR overturned on purpose is listed here until
#: that PR retargets it.  ``strict``: once the assertions are fixed the
#: entry turns into a failure and has to be deleted.
STALE_BENCHMARK_TESTS = {
    "perfbench/test_perfbench.py::test_the_workloads_separate_the_layers":
        "asserts comm.fused.rendezvous_calls_per_step == 0 and "
        "train.rankbatch.engaged == 0 on train-oktopk-mlp-p16-faulted; "
        "since PR 17 a fault plan no longer selects the path, so both are "
        "non-zero by design (CHANGES.md, PR 17)",
}


def pytest_collection_modifyitems(config, items):
    for item in items:
        reason = STALE_BENCHMARK_TESTS.get(item.nodeid)
        if reason is not None:
            item.add_marker(pytest.mark.xfail(
                reason=reason, raises=AssertionError, strict=True))
