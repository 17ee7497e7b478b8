"""Run records: everything the paper's figures need, JSON-serializable."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class IterationRecord:
    """Per-iteration diagnostics of the data-parallel trainer."""

    t: int
    loss: float
    lr: float
    compute_time: float
    sparsify_time: float
    comm_time: float               # raw communication time (no overlap)
    iteration_time: float          # with the overlap credit applied
    words_recv: int = 0
    selected: Optional[int] = None
    xi: Optional[float] = None
    eval_metrics: Optional[Dict[str, float]] = None
    #: communication hidden behind backward compute by the generic
    #: bucketed-overlap timeline (``comm_time - visible communication``)
    overlap_saved: float = 0.0
    #: session buckets the allreduce ran in (1 = one-shot equivalent)
    nbuckets: int = 1
    #: streaming runs only: the analytic ``visible_comm_time`` replay
    #: evaluated on the same bucket stats, kept as a cross-check against
    #: the measured discrete-event timeline (equal under zero contention;
    #: under contention the measurement may fall on either side of the
    #: replay); ``None`` in analytic mode
    analytic_visible_comm: Optional[float] = None
    #: True when ``overlap_mode="stream"`` was requested but the plan has
    #: one bucket, which cannot stream and runs post-backward — the
    #: timings of this iteration are analytic, not discrete-event; never
    #: True in analytic mode
    stream_fallback: bool = False


@dataclass
class RunRecord:
    """One full training run of one scheme on P workers."""

    scheme: str
    p: int
    records: List[IterationRecord] = field(default_factory=list)
    #: world-change events (elastic recovery): one dict per shrink with
    #: ``{"event", "t", "failed_ranks", "old_size", "new_size", "clock"}``
    events: List[dict] = field(default_factory=list)

    def append(self, rec: IterationRecord) -> None:
        self.records.append(rec)

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        return float(sum(r.iteration_time for r in self.records))

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    @property
    def times(self) -> np.ndarray:
        """Cumulative simulated training time after each iteration."""
        return np.cumsum([r.iteration_time for r in self.records])

    def mean_breakdown(self, skip: int = 0) -> Dict[str, float]:
        """Average per-iteration phase times (Figure 8/10/12 bars);
        ``skip`` drops warmup iterations."""
        recs = self.records[skip:] or self.records
        return {
            "sparsification": float(np.mean([r.sparsify_time for r in recs])),
            "communication": float(np.mean(
                [r.iteration_time - r.compute_time - r.sparsify_time
                 for r in recs])),
            "computation+io": float(np.mean([r.compute_time for r in recs])),
            "total": float(np.mean([r.iteration_time for r in recs])),
        }

    def final_eval(self) -> Optional[Dict[str, float]]:
        for r in reversed(self.records):
            if r.eval_metrics is not None:
                return r.eval_metrics
        return None

    def eval_curve(self, key: str) -> List[tuple]:
        """(cumulative time, metric) pairs (Figure 9/11/13 curves)."""
        times = self.times
        return [(float(times[i]), r.eval_metrics[key])
                for i, r in enumerate(self.records)
                if r.eval_metrics is not None and key in r.eval_metrics]

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "p": self.p,
                "records": [asdict(r) for r in self.records]}

    def to_csv(self, path) -> None:
        """Dump the per-iteration series for external plotting (the
        figures' curves: loss/metrics vs cumulative simulated time)."""
        import csv

        times = self.times
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "cum_time", "loss", "lr", "compute_time",
                        "sparsify_time", "comm_time", "iteration_time",
                        "overlap_saved", "nbuckets", "selected", "xi",
                        "analytic_visible_comm", "stream_fallback"])
            for i, r in enumerate(self.records):
                w.writerow([r.t, times[i], r.loss, r.lr, r.compute_time,
                            r.sparsify_time, r.comm_time,
                            r.iteration_time, r.overlap_saved, r.nbuckets,
                            r.selected, r.xi, r.analytic_visible_comm,
                            r.stream_fallback])
