"""A run is a function of its input, not of the runs before it.

Schedules keyed on a message size or a vector length (Ok-Topk's package
sizes, a serving prefill's ``tokens * hidden``) are memoized on the run's
:class:`~repro.comm.Network` by :func:`repro.comm.fused.compiled` and die
with it.  Process-wide ``functools.lru_cache``\\ s may key only on
structure or configuration — P, a root, an algorithm, a layer geometry, the
network constants — so their sizes stop growing once one input has run:
another input of the same configuration, taking the same code paths, adds
nothing to them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import weakref

import pytest

import repro
from repro.bench.harness import bert_proxy, train_scheme
from repro.comm import Network, fused
from repro.comm import network as network_mod
from repro.serve import ServeConfig, Workload, simulate_serving

#: the data seeds of one configuration; the first one warms the caches up
SEEDS = (0, 1, 2)


def _module_caches():
    """Every ``functools.lru_cache`` defined at module or class level
    anywhere in ``repro``, by qualified name."""
    caches = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue
        mod = importlib.import_module(info.name)
        scopes = [(info.name, vars(mod))]
        scopes += [(f"{info.name}.{name}", vars(obj))
                   for name, obj in vars(mod).items()
                   if isinstance(obj, type) and obj.__module__ == info.name]
        for scope, names in scopes:
            for name, obj in names.items():
                fn = getattr(obj, "__func__", obj)    # static/class methods
                if (isinstance(fn, functools._lru_cache_wrapper)
                        and fn.__module__ == info.name):  # not re-exports
                    caches[f"{scope}.{name}"] = fn
    return caches


class _Memo(dict):
    """A network's schedule memo that can be weakly referenced and that
    logs the compiler of every entry it stores into a list it does not
    own."""

    def __init__(self, stored):
        super().__init__()
        self.stored = stored

    def __setitem__(self, key, value):
        self.stored.append(key[0].__name__)
        super().__setitem__(key, value)


@pytest.fixture
def runs(monkeypatch):
    """Weak references to every network built (and to its memo), plus the
    compilers the memos stored."""
    refs, stored = [], []
    init = network_mod.Network.__init__

    def init_with_memo(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.schedules = _Memo(stored)
        refs.append((weakref.ref(self), weakref.ref(self.schedules)))

    monkeypatch.setattr(network_mod.Network, "__init__", init_with_memo)
    return refs, stored


def _train(seed):
    train_scheme(bert_proxy(), "oktopk", 4, 4, density=0.01,
                 bucket_size=4096, overlap_mode="stream", seed=seed)


def _serve(seed):
    cfg = ServeConfig(p=4, hidden=64, layers=2, max_batch_size=4,
                      algorithm="adaptive")
    simulate_serving(cfg, workload=Workload.poisson(
        12, 4000.0, prompt_tokens=(8, 40), output_tokens=(2, 5), seed=seed))


@pytest.mark.parametrize("run,compilers", [
    (_train, {"compile_allgatherv", "compile_allreduce"}),
    (_serve, {"compile_allgatherv", "compile_allreduce"}),
], ids=["oktopk-bucketed", "serving"])
def test_caches_do_not_grow_with_input_data(run, compilers, runs):
    refs, stored = runs
    caches = _module_caches()
    assert "repro.comm.fused._template" in caches
    sizes = []
    for seed in SEEDS:
        run(seed)
        sizes.append({name: fn.cache_info().currsize
                      for name, fn in caches.items()})
        # the run went through its network's memo ...
        assert compilers <= set(stored), (seed, set(stored))
        del stored[:]
        # ... and the memo went with the network
        gc.collect()
        assert refs and all(net() is None and memo() is None
                            for net, memo in refs), seed
        del refs[:]
    grown = {name: [s[name] for s in sizes] for name in caches
             if sizes[-1][name] > sizes[0][name]}
    assert not grown, f"module caches keyed on input data: {grown}"


def test_a_full_memo_starts_over():
    """A run keeps at most ``MEMO_ENTRIES`` schedules, however many sizes
    it ships; a hit hands back the memoized value."""
    net = Network(2)
    first = fused.compiled(net, fused._block_slices, 0, 2)
    assert fused.compiled(net, fused._block_slices, 0, 2) is first
    for n in range(1, fused.MEMO_ENTRIES + 5):
        fused.compiled(net, fused._block_slices, n, 2)
        assert len(net.schedules) <= fused.MEMO_ENTRIES
    assert len(net.schedules) == 5
    assert fused.compiled(net, fused._block_slices, 0, 2) == first
