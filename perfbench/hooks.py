"""Benchmark-owned timing wrappers around the public callables of each layer.

The program is traced from outside: ``Tracer.install`` replaces the public
methods / module functions named in ``HOOKS`` with wrappers and re-binds
module functions in every ``repro.*`` namespace that imported them.  Nothing
under ``src/`` knows it is being measured, and the wrappers never touch
``Network.trace_enabled``, so the fused and rank-batched paths stay engaged.

Exclusive time: the cooperative engine runs exactly one rank thread at a
time, so one global last-event timestamp is enough — at every span entry or
exit the time since the previous event (on whatever thread) is charged to
the span on top of the *current* thread's stack, or to ``unattributed`` when
that stack is empty.  Self times therefore sum to the traced wall time by
construction.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the layers of this repo, in the order reports print them
LAYERS = (
    "comm.engine", "comm.network", "comm.communicator", "comm.collectives",
    "comm.fused", "sparse", "allreduce", "optim", "nn", "data",
    "train.trainer", "train.rankbatch", "serve.loop", "serve.batcher",
    "serve.model",
)

#: (layer, module, class or None for module functions, names or None for
#: every public callable defined there).  Found by name at install time; a
#: renamed or deleted entry is counted in ``missing`` and skipped.
HOOKS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...] = (
    ("comm.engine", "repro.comm.engine", "CoopEngine", None),
    ("comm.network", "repro.comm.network", "Network", None),
    ("comm.communicator", "repro.comm.communicator", "SimComm", None),
    ("comm.collectives", "repro.comm.collectives", None, None),
    ("comm.fused", "repro.comm.fused", None, None),
    ("sparse", "repro.sparse.topk", None, None),
    ("sparse", "repro.sparse.threshold", None, None),
    ("sparse", "repro.sparse.coo", None, None),
    ("sparse", "repro.sparse.partition", None, None),
    ("allreduce", "repro.allreduce.session", "ReduceSession", None),
    ("allreduce", "repro.allreduce.base", "GradientAllreduce",
     ("reduce", "begin")),
    ("optim", "repro.optim.topk_sgd", "TopkSGD", None),
    ("optim", "repro.optim.topk_sgd", "SparseOptimWrapper", None),
    ("nn", "repro.nn.module", "FlatModel", ("loss_and_grad",)),
    ("nn", "repro.nn.stacked", "StackedModel", ("loss_and_grad",)),
    ("data", "repro.data.loader", "ShardedLoader", None),
    ("train.trainer", "repro.train.trainer", "Trainer", None),
    ("train.rankbatch", "repro.train.rankbatch", "RankBatch", None),
    ("serve.loop", "repro.serve.loop", None, ("simulate_serving",)),
    ("serve.batcher", "repro.serve.batcher", "DynamicBatcher", None),
    ("serve.model", "repro.serve.model", "TPDecodeModel", None),
)

#: a rendezvous executor is charged to the layer of the module defining it
EXECUTOR_LAYERS = (
    ("repro.comm.fused", "comm.fused"),
    ("repro.allreduce", "allreduce"),
    ("repro.train.rankbatch", "train.rankbatch"),
)

#: raw spans kept for the trace file (first traced repetition only)
SPAN_CAP = 100_000


class Tracer:
    """Exclusive-time accounting over the installed wrappers."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []      # hook id -> (layer, name)
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.unattributed_ns = 0
        self.missing: List[str] = []
        self._last = 0
        self._tls = threading.local()
        self._clock = time.perf_counter_ns
        #: spans of the repetition being recorded: [hook id, thread name,
        #: start ns, end ns, self ns, parent span id]
        self.spans: Optional[List[Any]] = None
        #: networks of the engine runs seen since the last reset
        self.networks: List[Any] = []
        self.engine_classes: set = set()
        #: one (function name, payload words) per collective operation
        #: (rank 0's outermost call into comm.collectives)
        self.collective_calls: List[Tuple[str, int]] = []
        #: fused_collective calls (all ranks) by (signature head, layer of
        #: the executor)
        self.rendezvous: Dict[Tuple[str, str], int] = defaultdict(int)
        self._collective_ids: set = set()
        self._executors: Dict[Callable, Tuple[Callable, str]] = {}
        self._dispatcher_id = -1
        self._nwords: Optional[Callable[[Any], int]] = None

    # -- accounting ------------------------------------------------------
    def reset(self, record_spans: bool = False) -> None:
        """Zero the counters and start the clock for one repetition."""
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.unattributed_ns = 0
        self.spans = [] if record_spans else None
        self.networks = []
        self.collective_calls = []
        self.rendezvous = defaultdict(int)
        self._last = self._clock()

    def flush(self) -> int:
        """Charge the time since the last event to the caller (top level:
        unattributed); returns the accounted total in ns."""
        now = self._clock()
        self.unattributed_ns += now - self._last
        self._last = now
        return sum(self.self_ns) + self.unattributed_ns

    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (self ns, calls)."""
        out = dict.fromkeys(LAYERS, (0, 0))
        for (layer, _), ns, n in zip(self.names, self.self_ns, self.calls):
            out[layer] = (out[layer][0] + ns, out[layer][1] + n)
        return out

    def calls_of(self, layer: str, name: str) -> int:
        try:
            return self.calls[self.names.index((layer, name))]
        except ValueError:
            return 0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, name: str,
              adapt: Optional[Callable] = None) -> Callable:
        hid = len(self.names)
        self.names.append((layer, name))
        self.self_ns.append(0)
        self.calls.append(0)
        tr, tls, clock = self, self._tls, self._clock

        def traced(*args, **kwargs):
            now = clock()
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            if stack:
                stack[-1][1] += now - tr._last
            else:
                tr.unattributed_ns += now - tr._last
            tr._last = now
            if adapt is not None:
                args = adapt(hid, stack, args)
            spans = tr.spans
            if spans is not None and len(spans) < SPAN_CAP:
                sid = len(spans)
                spans.append(None)
            else:
                sid = -1
            frame = [hid, 0, now, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                frame[1] += now - tr._last
                tr._last = now
                stack.pop()
                tr.self_ns[hid] += frame[1]
                tr.calls[hid] += 1
                if sid >= 0:
                    spans[sid] = [hid, threading.current_thread().name,
                                  frame[2], now, frame[1],
                                  stack[-1][3] if stack else -1]

        return functools.update_wrapper(traced, fn)

    # argument adapters: run at span entry, may replace the arguments
    def _adapt_engine_run(self, hid, stack, args):
        self.networks.append(args[0].net)
        self.engine_classes.add(type(args[0]).__name__)
        return args

    def _adapt_fused_collective(self, hid, stack, args):
        # args = (comm, sig, payload, executor): charge the executor to
        # the layer that defines it instead of to comm.engine
        comm, sig, payload, executor = args
        entry = self._executors.get(executor)
        if entry is None:
            mod = getattr(executor, "__module__", "") or ""
            layer = next((lay for prefix, lay in EXECUTOR_LAYERS
                          if mod.startswith(prefix)), "comm.engine")
            entry = self._executors[executor] = (self._wrap(
                executor, layer, f"executor:{executor.__name__}"), layer)
        self.rendezvous[(str(sig[0]), entry[1])] += 1
        return comm, sig, payload, entry[0]

    def _adapt_collective(self, hid, stack, args):
        # one record per collective operation: rank 0, outermost call,
        # looking through the allreduce dispatcher to the algorithm
        if hid == self._dispatcher_id or not args or \
                getattr(args[0], "rank", -1) != 0:
            return args
        if stack and stack[-1][0] in self._collective_ids \
                and stack[-1][0] != self._dispatcher_id:
            return args
        words = 0
        if len(args) > 1 and self._nwords is not None:
            try:
                words = self._nwords(args[1])
            except TypeError:       # not a payload (e.g. a root rank)
                words = 0
        self.collective_calls.append((self.names[hid][1], words))
        return args

    def install(self, hooks=HOOKS) -> "Tracer":
        if any(layer == "comm.collectives" for layer, *_ in hooks):
            try:                        # the payload sizer, by name too
                self._nwords = importlib.import_module("repro.comm").nwords
            except (ImportError, AttributeError):
                self.missing.append("repro.comm.nwords")
        for layer, modname, clsname, names in hooks:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(modname)
                continue
            if clsname is None:
                self._install_functions(layer, mod, names)
                continue
            cls = getattr(mod, clsname, None)
            if not isinstance(cls, type):
                self.missing.append(f"{modname}.{clsname}")
                continue
            self._install_methods(layer, cls, names)
        return self

    def _install_methods(self, layer, cls, names) -> None:
        if names is None:
            names = tuple(n for n, v in vars(cls).items()
                          if not n.startswith("_") and _is_function(v))
        for name in names:
            fn = vars(cls).get(name)
            if not _is_function(fn):
                self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
                continue
            adapt = None
            if (cls.__name__, name) == ("CoopEngine", "run"):
                adapt = self._adapt_engine_run
            elif (cls.__name__, name) == ("SimComm", "fused_collective"):
                adapt = self._adapt_fused_collective
            setattr(cls, name, self._wrap(
                fn, layer, f"{cls.__name__}.{name}", adapt))

    def _install_functions(self, layer, mod, names) -> None:
        if names is None:
            names = tuple(
                n for n, v in vars(mod).items()
                if not n.startswith("_") and callable(v)
                and not isinstance(v, type)
                and getattr(v, "__module__", None) == mod.__name__)
        for name in names:
            fn = vars(mod).get(name)
            if fn is None or not callable(fn):
                self.missing.append(f"{mod.__name__}.{name}")
                continue
            adapt = None
            if layer == "comm.collectives":
                adapt = self._adapt_collective
            traced = self._wrap(fn, layer, name, adapt)
            if layer == "comm.collectives":
                self._collective_ids.add(len(self.names) - 1)
                if name == "allreduce":
                    self._dispatcher_id = len(self.names) - 1
            # re-bind where it is defined and in every repro namespace
            # that imported it
            setattr(mod, name, traced)
            for other in list(sys.modules.values()):
                modname = getattr(other, "__name__", "")
                if modname != "repro" and not modname.startswith("repro."):
                    continue
                for attr, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, attr, traced)


def _is_function(obj: Any) -> bool:
    return callable(obj) and hasattr(obj, "__code__")
