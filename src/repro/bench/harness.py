"""Shared experiment drivers for the paper-figure benchmarks.

Two tiers, as laid out in DESIGN.md:

* **executed proxies** — the real algorithms, real numpy models and the
  simulated network at reduced scale (P <= 32, width-reduced models).
  These produce measured volumes, simulated times and convergence curves.
* **paper-scale projections** — the calibrated analytic model evaluated at
  the paper's n/P (e.g. BERT n=133.5M on P=256), cross-checked against the
  executed tier by the calibration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..comm import FaultPlan, NetworkModel, run_spmd
from ..costmodel import PAPER_COMPUTE_SECONDS, iteration_seconds
from ..data import ShardedLoader, make_an4_like, make_cifar_like, \
    make_wikipedia_like
from ..nn.models import BertConfig, make_bert_model, \
    make_lstm_speech_model, make_vgg16_model
from ..train import RunRecord, Trainer, TrainerConfig, collapse_repeats, \
    top1_accuracy, word_error_rate


# ---------------------------------------------------------------------------
# Shared synthetic-dataset cache
# ---------------------------------------------------------------------------
#: (builder name, args) -> (train, test).  Every rank of an SPMD run — and
#: every repetition of a benchmark — used to regenerate the *identical*
#: seeded dataset from scratch; at P=16 that is 16 redundant generations
#: per call.  Splits are immutable (arrays are write-locked here), so one
#: shared instance per configuration is safe across ranks and runs.
_SPLITS_MEMO: Dict[tuple, tuple] = {}


def _memoized_splits(key: tuple, builder: Callable[[], tuple]) -> tuple:
    out = _SPLITS_MEMO.get(key)
    if out is None:
        out = builder()
        for split in out:
            split.x.setflags(write=False)
            split.y.setflags(write=False)
        _SPLITS_MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Proxy task definitions (the three paper workloads, numpy-sized)
# ---------------------------------------------------------------------------
@dataclass
class ProxySpec:
    """A reduced-scale stand-in for one of the paper's workloads."""

    name: str
    make_model: Callable[[], Any]
    make_splits: Callable[[], tuple]
    global_batch: int
    lr: float
    mode: str = "sgd"
    eval_builder: Optional[Callable[[Any], Callable]] = None


def vgg_proxy(width_mult: float = 0.05, n_train: int = 128,
              noise: float = 0.6) -> ProxySpec:
    def make_splits():
        return _memoized_splits(
            ("cifar", n_train, 32, 32, noise, 0),
            lambda: make_cifar_like(n_train, 32, image_size=32, noise=noise,
                                    seed=0))

    def eval_builder(test):
        def evaluate(model):
            return {"acc": top1_accuracy(model.predict(test.x), test.y),
                    "loss": model.eval_loss(test.x, test.y)}
        return evaluate

    return ProxySpec(
        name="vgg16",
        make_model=lambda: make_vgg16_model(width_mult=width_mult, seed=42),
        make_splits=make_splits,
        global_batch=16, lr=0.05, mode="sgd", eval_builder=eval_builder)


def lstm_proxy(hidden: int = 32, n_train: int = 96) -> ProxySpec:
    def make_splits():
        return _memoized_splits(
            ("an4", n_train, 24, 12, 12, 8, 2),
            lambda: make_an4_like(n_train, 24, features=12, seq_len=12,
                                  n_phones=8, seed=2))

    def eval_builder(test):
        def evaluate(model):
            logits = model.predict(test.x)
            hyp = np.argmax(logits, axis=-1)
            hyps = [collapse_repeats(h) for h in hyp]
            refs = [collapse_repeats(r) for r in test.y]
            return {"wer": word_error_rate(hyps, refs),
                    "loss": model.eval_loss(test.x, test.y)}
        return evaluate

    return ProxySpec(
        name="lstm",
        make_model=lambda: make_lstm_speech_model(
            features=12, hidden=hidden, layers=1, classes=8, seq_len=12,
            seed=3),
        make_splits=make_splits,
        global_batch=16, lr=0.3, mode="sgd", eval_builder=eval_builder)


def bert_proxy(hidden: int = 32, layers: int = 2,
               n_train: int = 128) -> ProxySpec:
    cfg = BertConfig(vocab=200, hidden=hidden, layers=layers, heads=4,
                     intermediate=2 * hidden, max_seq=16)

    def make_splits():
        return _memoized_splits(
            ("wiki", n_train, 32, 200, 16, 4),
            lambda: make_wikipedia_like(n_train, 32, vocab=200, seq_len=16,
                                        seed=4))

    def eval_builder(test):
        def evaluate(model):
            return {"loss": model.eval_loss(test.x, test.y)}
        return evaluate

    return ProxySpec(
        name="bert",
        make_model=lambda: make_bert_model(cfg, seq_len=16, seed=5),
        make_splits=make_splits,
        global_batch=16, lr=2e-3, mode="adam", eval_builder=eval_builder)


def perf_proxy(hidden: int = 64, image_size: int = 16,
               n_train: int = 64, global_batch: int = 16) -> ProxySpec:
    """Comm-dominated probe for wall-clock perf tracking.

    A deliberately tiny MLP (~50k params, microseconds of numpy compute per
    iteration) so that `train_scheme` wall time is dominated by the
    simulator's communication layer — what perfbench's mlp workloads
    (``perfbench/workloads.py``) time.  Not one of the paper's workloads.

    ``global_batch``/``n_train`` exist for the P >= 64 scale cases:
    :class:`~repro.data.ShardedLoader` requires ``size <= global_batch <=
    n_train``, so e.g. ``perf_proxy(n_train=128, global_batch=128)`` runs
    a P=128 world at one sample per rank (``tests/test_scale_identity.py``).
    """
    from ..nn.activation import ReLU
    from ..nn.linear import Linear
    from ..nn.losses import SoftmaxCrossEntropy
    from ..nn.module import FlatModel, Flatten, Sequential

    feats = 3 * image_size * image_size

    def make_model():
        rng = np.random.default_rng(7)
        mod = Sequential(Flatten(), Linear(feats, hidden, rng=rng), ReLU(),
                         Linear(hidden, 10, rng=rng))
        return FlatModel(mod, SoftmaxCrossEntropy(),
                         flops_per_sample=2.0 * feats * hidden)

    def make_splits():
        return _memoized_splits(
            ("cifar", n_train, 16, image_size, 0.6, 0),
            lambda: make_cifar_like(n_train, 16, image_size=image_size,
                                    noise=0.6, seed=0))

    if global_batch > n_train:
        raise ValueError(f"global_batch {global_batch} > n_train {n_train}")
    return ProxySpec(name="perf_mlp", make_model=make_model,
                     make_splits=make_splits, global_batch=global_batch,
                     lr=0.05, mode="sgd")


PROXIES = {"vgg16": vgg_proxy, "lstm": lstm_proxy, "bert": bert_proxy,
           "perf_mlp": perf_proxy}


# ---------------------------------------------------------------------------
# Executed training runs
# ---------------------------------------------------------------------------
def train_scheme(proxy: ProxySpec, scheme: str, p: int, iterations: int, *,
                 density: Optional[float] = 0.02,
                 k: Optional[int] = None,
                 bucket_size: Optional[int] = None,
                 overlap_mode: str = "analytic",
                 scheme_kwargs: Optional[Dict[str, Any]] = None,
                 eval_every: int = 0, xi_every: int = 0,
                 network: Optional[NetworkModel] = None,
                 faults: Optional[FaultPlan] = None,
                 elastic: bool = False,
                 seed: int = 0) -> RunRecord:
    """Run one scheme on P simulated ranks; returns rank 0's RunRecord.

    ``k`` overrides ``density`` as the sparsification budget;
    ``bucket_size`` (words) turns on bucketed session execution with the
    generic communication/backward overlap timeline, and
    ``overlap_mode="stream"`` runs the buckets on the simulated clock
    during backward (discrete-event overlap) instead of replaying them
    analytically.  ``faults`` injects a deterministic
    :class:`~repro.comm.FaultPlan`; with ``elastic=True`` survivors
    shrink past planned crashes and the returned record is the first
    survivor's (rank 0 may be the one that died).
    """

    def worker(comm):
        train, test = proxy.make_splits()
        model = proxy.make_model()
        loader = ShardedLoader(train, proxy.global_batch, comm.rank,
                               comm.size, seed=seed)
        eval_fn = (proxy.eval_builder(test)
                   if proxy.eval_builder is not None else None)
        cfg = TrainerConfig(
            iterations=iterations, scheme=scheme,
            scheme_kwargs=scheme_kwargs or {},
            density=density, k=k, bucket_size=bucket_size,
            overlap_mode=overlap_mode,
            lr=proxy.lr, mode=proxy.mode,
            eval_every=eval_every, xi_every=xi_every,
            elastic=elastic)
        return Trainer(comm, model, loader, cfg, eval_fn=eval_fn).run()

    res = run_spmd(p, worker, model=network, faults=faults)
    for rec in res.results:
        if rec is not None:
            return rec
    raise RuntimeError("no surviving rank produced a RunRecord")


# ---------------------------------------------------------------------------
# Paper-scale projections (Figures 8 / 10 / 12)
# ---------------------------------------------------------------------------
PAPER_MODEL_SIZES = {"vgg16": 14_728_266, "lstm": 27_569_568,
                     "bert": 133_547_324}
PAPER_DENSITIES = {"vgg16": 0.02, "lstm": 0.02, "bert": 0.01}
PAPER_LOCAL_BATCH = {"vgg16": 16, "lstm": 2, "bert": 8}


def paper_scale_breakdown(model_kind: str, scheme: str, p: int, *,
                          network: Optional[NetworkModel] = None,
                          tau_prime: int = 32) -> Dict[str, float]:
    """Analytic per-iteration breakdown at the paper's model size, using
    the effective (software-stack-calibrated) network constants."""
    model = network or NetworkModel.piz_daint_effective()
    n = PAPER_MODEL_SIZES[model_kind]
    k = max(1, int(PAPER_DENSITIES[model_kind] * n))
    compute = (PAPER_COMPUTE_SECONDS[model_kind]
               * PAPER_LOCAL_BATCH[model_kind])
    return iteration_seconds(scheme, n, p, k, model,
                             compute_seconds=compute, tau_prime=tau_prime)


#: bandwidth-scaled network for the executed convergence runs: the proxy
#: models are ~400x smaller than the paper's, so beta (and the per-flop
#: time) are scaled up to keep the communication/computation balance of
#: the paper's figures (dense comm ~ compute at small P).
def proxy_network() -> NetworkModel:
    return NetworkModel(alpha=2.0e-6, beta=2.0e-7, flop_time=1.0e-10)


# ---------------------------------------------------------------------------
# Text table formatting (the "same rows the paper reports")
# ---------------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    cols = [[str(h)] + [_fmt(r[i]) for r in rows]
            for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append("  ".join(_fmt(v).ljust(w)
                               for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3e}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)
