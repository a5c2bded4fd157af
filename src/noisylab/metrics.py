"""Selection-quality metrics, model evaluation, and report emission.

Per-run artifacts:

* ``epochs.jsonl``: one JSON object per epoch with the fixed key set
  :data:`JSONL_KEYS`.
* ``summary.json``: {config_hash, seed, strategy, final_acc,
  last10_mean_acc, mean_sel_f1, mean_temporal_iou, mean_cross_iou,
  mean_epoch_ms}; means are over post-warmup epochs.
* ``curves.csv``: the full per-epoch record, one column per
  :class:`EpochRecord` field (including IoU columns, loss curves, variance
  medians, peak memory) with repr-formatted floats so parsed values equal
  the in-memory ones exactly.
"""

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataIOError, atomic_write


def iou(a, b) -> float:
    """Intersection over union of two selections given as boolean masks of
    equal length.  Two empty selections count as perfect agreement (1.0).
    """
    inter = int(np.sum(a & b))
    union = int(np.sum(a | b))
    if union == 0:
        return 1.0
    return inter / union


def selection_quality(selected_mask, clean_mask):
    """Precision/recall/F1 of a clean-sample selection against ground truth,
    two boolean masks of equal length.

    0/0 cases (nothing selected, nothing clean, or both) resolve to 0.0.
    """
    tp = int(np.sum(selected_mask & clean_mask))
    n_sel = int(selected_mask.sum())
    n_clean = int(clean_mask.sum())
    precision = tp / n_sel if n_sel else 0.0
    recall = tp / n_clean if n_clean else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def evaluate(net, ds, batch_size: int = 512) -> float:
    """Test accuracy through the classification head only."""
    n = ds.n_samples
    correct = 0
    for i in range(0, n, batch_size):
        _, preds = net.classify(ds.features[i:i + batch_size])
        correct += int(np.sum(preds == ds.true_labels[i:i + batch_size]))
    return correct / n if n else 0.0


def peak_memory_bytes():
    """Best-effort peak resident set size; None when unavailable."""
    try:
        import resource
        import sys
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:
        return None


def last10_mean(values: list) -> float:
    """Mean of the last 10 of a non-empty list of values (of all when fewer)."""
    return float(np.mean(values[-10:]))


@dataclass(kw_only=True)
class EpochRecord:
    """One epoch of one run: a ``curves.csv`` row.  ``run_epoch`` sets what
    it measures; ``CellRun.step`` then fills the fields defaulting to None,
    which need the evaluated epoch."""

    epoch: int
    strategy: str
    phase: str  # "warmup" or "train"
    lr: float
    selected_count: int
    trained_samples: int
    skipped_batches: int
    gate_on: int
    commit_count: int
    mean_lag: float | None
    test_acc: float | None = None
    sel_precision: float | None = None
    sel_recall: float | None = None
    sel_f1: float | None = None
    temporal_iou: float | None = None
    cross_iou: float | None = None
    median_var_clean: float | None = None
    median_var_noisy: float | None = None
    ce_loss: float
    bce_loss: float
    epoch_wall_ms: float
    peak_mem_bytes: int | None = None

    def jsonl_dict(self) -> dict:
        return {key: getattr(self, key) for key in JSONL_KEYS}


JSONL_KEYS = ("epoch", "strategy", "selected_count", "skipped_batches",
              "commit_count", "mean_lag", "test_acc", "sel_precision",
              "sel_recall", "sel_f1", "epoch_wall_ms")
CURVE_COLUMNS = [f.name for f in fields(EpochRecord)]


def summarize_records(records, config_hash: str, seed, strategy: str) -> dict:
    """Aggregate a run's epoch records into the summary dict.  A run has at
    least one post-warm-up epoch (``TrainConfig`` guarantees it)."""
    post = [r for r in records if r.phase == "train"]
    accs = [r.test_acc for r in records]
    return {"config_hash": config_hash, "seed": seed, "strategy": strategy,
            "final_acc": accs[-1], "last10_mean_acc": last10_mean(accs),
            "mean_sel_f1": float(np.mean([r.sel_f1 for r in post])),
            "mean_temporal_iou": mean_or_none(r.temporal_iou for r in post),
            "mean_cross_iou": mean_or_none(r.cross_iou for r in post),
            "mean_epoch_ms": float(np.mean([r.epoch_wall_ms for r in post]))}


def mean_or_none(values) -> float | None:
    """Mean of the values that are not None; None when none are left."""
    kept = [v for v in values if v is not None]
    return float(np.mean(kept)) if kept else None


def emit_report(records, out_dir, summary: dict) -> None:
    """Write epochs.jsonl, summary.json, and curves.csv under out_dir."""
    out = Path(out_dir)
    with atomic_write(out / "epochs.jsonl") as fh:
        for rec in records:
            fh.write(json.dumps(rec.jsonl_dict(), sort_keys=True) + "\n")
    with atomic_write(out / "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with atomic_write(out / "curves.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, col) for col in CURVE_COLUMNS])


def load_jsonl(path):
    """Read an epochs.jsonl back into a list of dicts."""
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise DataIOError(f"{path}: bad JSONL: {exc}") from None
