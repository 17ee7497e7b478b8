"""Figure 13: BERT pre-training loss vs time.

The paper compares DenseOvlp (lossless), Gaussian-k (fastest baseline)
and Ok-Topk only, because full pre-training is costly; we do the same on
the mini-BERT proxy.  Shape to reproduce: Ok-Topk's loss curve tracks
DenseOvlp's closely while finishing in much less (simulated) time.

A second leg holds the bucketed-stream execution (every session bucket an
Ok-Topk instance on its own periodic state) to the one-shot run at equal
total k, over several loader seeds."""

import numpy as np

from repro.bench import bert_proxy, format_table, train_scheme
from repro.bench.harness import proxy_network

SCHEMES = ["dense_ovlp", "gaussiank", "oktopk"]
P = 4
ITERS = 44

#: the bucketed leg mirrors perfbench's train-oktopk-bert-p8-stream config
B_P, B_ITERS, B_DENSITY, B_BUCKET = 8, 96, 0.01, 4096
B_TAIL, B_SEEDS = 16, (0, 1, 2)
B_LEGS = {"one-shot": {},
          "bucketed-stream": dict(bucket_size=B_BUCKET,
                                  overlap_mode="stream")}


def test_bert_loss_vs_time(benchmark, report):
    def run():
        return {s: train_scheme(bert_proxy(), s, P, ITERS,
                                density=0.02, eval_every=11,
                                network=proxy_network())
                for s in SCHEMES}

    recs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for s, rec in recs.items():
        rows.append([s,
                     f"{np.mean(rec.losses[:5]):.3f}",
                     f"{np.mean(rec.losses[-5:]):.3f}",
                     f"{rec.total_time:.4f}"])
    report("fig13_bert_loss", format_table(
        ["scheme", "initial train loss", "final train loss",
         "total sim time (s)"],
        rows, title=f"Figure 13: BERT MLM loss vs time (P={P}, "
                    f"density=2%)"))

    final = {s: float(np.mean(recs[s].losses[-5:])) for s in SCHEMES}
    times = {s: recs[s].total_time for s in SCHEMES}
    for s, rec in recs.items():
        assert final[s] < float(np.mean(rec.losses[:5])), s  # learning
    # Ok-Topk's per-iteration convergence tracks dense
    assert final["oktopk"] <= final["dense_ovlp"] + 1.2
    # the figure's framing is loss *vs time*: at Ok-Topk's total time
    # budget, DenseOvlp has barely started (paper: 150h -> 47h)
    dense_rec = recs["dense_ovlp"]
    cum = dense_rec.times
    done = int(np.searchsorted(cum, times["oktopk"]))
    dense_loss_at_budget = (float(dense_rec.losses[max(0, done - 1)])
                            if done else float(dense_rec.losses[0]))
    assert final["oktopk"] < dense_loss_at_budget
    # and a clear time advantage (paper: >3x vs DenseOvlp on 32 GPUs)
    assert times["oktopk"] * 3 < times["dense_ovlp"]


def test_bucketed_stream_loss_matches_oneshot(benchmark, report):
    """Final training loss (mean of the last ``B_TAIL`` iterations) of the
    6-bucket streamed session next to the one-shot reduction, same model,
    same total k, per loader seed."""
    def run():
        return {(leg, seed): train_scheme(
                    bert_proxy(), "oktopk", B_P, B_ITERS, density=B_DENSITY,
                    network=proxy_network(), seed=seed, **kwargs)
                for seed in B_SEEDS for leg, kwargs in B_LEGS.items()}

    recs = benchmark.pedantic(run, rounds=1, iterations=1)
    final = {leg: [float(np.mean(recs[leg, s].losses[-B_TAIL:]))
                   for s in B_SEEDS] for leg in B_LEGS}
    rows = [[leg] + [f"{x:.3f}" for x in final[leg]]
            + [f"{np.mean(final[leg]):.3f}",
               f"{np.mean([recs[leg, s].total_time for s in B_SEEDS]):.4f}"]
            for leg in B_LEGS]
    report("fig13_bert_bucketed_loss", format_table(
        ["execution"] + [f"seed {s}" for s in B_SEEDS]
        + ["mean", "mean sim time (s)"],
        rows, title=f"Ok-Topk final BERT loss, mean of last {B_TAIL} of "
                    f"{B_ITERS} iterations (P={B_P}, density={B_DENSITY:.0%}, "
                    f"{B_BUCKET}-word buckets)"))

    one, bkt = final["one-shot"], final["bucketed-stream"]
    assert all(r.nbuckets > 1 for r in recs["bucketed-stream", 0].records)
    for (leg, seed), rec in recs.items():               # both legs learn
        assert (final[leg][B_SEEDS.index(seed)]
                < float(np.mean(rec.losses[:B_TAIL]))), (leg, seed)
    # the bucketed mean sits within the one-shot runs' seed-to-seed spread
    assert abs(np.mean(bkt) - np.mean(one)) <= max(one) - min(one)
