"""Clean-sample identification from a single forward pass.

Two identifiers are computed per sample and OR-combined:

* detection identifier: decompose the sample's detection-head BCE into its
  per-bit terms and threshold the population variance of those terms.  A
  sample whose bit losses are uniformly distributed across the codeword
  (variance <= tau) is flagged clean.
* classifier identifier: agreement between the temperature-softened
  classifier argmax and the (possibly noisy) training label.

The small-loss ranking used by the baseline strategies also lives here, and
so does the per-epoch decision dump.  The dump writes each float as Python's
``repr`` would, without calling it per value: ``noisylab.decision_dump``
finds every float's shortest round-trip digits exactly in numpy integer
arithmetic (Ryu-style, Adams 2018), lays each row out as NUL-padded byte
fields from small tables, and drops the NULs with ``translate``.  Values the
integer path cannot prove go through ``repr`` itself: NaN, the infinities,
the zeros, values outside [1e-7, 1e15) (negatives included), power-of-two
mantissas and exact ties between two shortest candidates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import bce_log_likelihood


@dataclass
class SelectionConfig:
    """tau is the variance threshold (inclusive); small_loss_keep_ratio is
    the fraction of each batch the small-loss baselines keep (None: the
    experiment config sets it to :func:`auto_keep_ratio` of its noise rate)."""

    tau: float = 0.001
    small_loss_keep_ratio: float | None = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        ratio = self.small_loss_keep_ratio
        if ratio is not None and not (0.0 < ratio <= 1.0):
            raise ConfigError(f"small_loss_keep_ratio must lie in (0, 1], got {ratio}")


@dataclass
class BatchFlags:
    """Per-sample selection outcome for one batch."""

    detection: np.ndarray  # bool, variance <= tau
    classifier: np.ndarray  # bool, argmax == noisy label
    combined: np.ndarray   # bool, OR of the two
    variance: np.ndarray   # float64 intra-loss variance
    bce: np.ndarray        # float64 per-sample mean BCE


def batch_flags(z: np.ndarray, targets: np.ndarray, probs: np.ndarray,
                noisy_labels: np.ndarray, cfg: SelectionConfig) -> BatchFlags:
    """Vectorized identifiers for a whole batch.

    Each row's variance and mean BCE are the population variance and mean
    of that row's per-bit BCE terms, bit for bit with the textbook order of
    ``tests/oracles.py`` (the argument is on :func:`bce_log_likelihood`;
    ``sum / K`` is how ``ndarray.mean`` divides).  Unchecked: z already
    clamped, targets 0/1 bits (codebook rows), labels a (n,) vector in
    [0, C) (``NoisyDataset`` guarantees them).  This runs once per
    training iteration, so it calls the unchecked kernel, keeps the rows as
    log-likelihoods and reuses that one temporary for the deviations.
    """
    log_lik = bce_log_likelihood(z, targets)  # (n, K)
    k = log_lik.shape[1]
    neg_mean = log_lik.sum(axis=1)
    neg_mean /= k
    log_lik -= neg_mean[:, None]
    np.square(log_lik, out=log_lik)
    variance = log_lik.sum(axis=1)
    variance /= k
    det = variance <= cfg.tau
    cls = np.argmax(probs, axis=1) == noisy_labels
    return BatchFlags(detection=det, classifier=cls, combined=det | cls,
                      variance=variance, bce=-neg_mean)


def small_loss_select(losses: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Boolean mask keeping the ceil(keep_ratio * n) smallest of n losses;
    ``keep_ratio`` lies in (0, 1], as ``SelectionConfig`` guarantees.

    Ties and ordering are resolved by a stable sort, so equal losses keep
    their original index order.
    """
    if not np.all(np.isfinite(losses)):
        raise NumericError("non-finite loss in small-loss ranking")
    k = int(np.ceil(keep_ratio * losses.size))
    order = np.argsort(losses, kind="stable")
    mask = np.zeros(losses.size, dtype=bool)
    mask[order[:k]] = True
    return mask


def auto_keep_ratio(epsilon: float) -> float:
    """Default small-loss keep ratio for a known noise rate: 1 - epsilon,
    clamped to [0.05, 1.0]."""
    return float(min(1.0, max(0.05, 1.0 - epsilon)))


def dump_decisions_csv(path, flags: BatchFlags, clean_mask) -> None:
    """Per-epoch dump of every selection decision, one row per sample in
    index order.

    Columns: sample_index, variance, bce_loss, det_flag, cls_flag,
    combined_flag, is_truly_clean.  The floats are Python's ``repr``, so
    ``float(field)`` is the stored value; the flags are 0/1.
    """
    # Loaded at the first dump, so a run that writes none never compiles it.
    from .decision_dump import write_decisions
    write_decisions(path, flags, clean_mask)
