"""Training strategies, each one row of :data:`STRATEGY_ROWS`, all run by
one epoch loop, :func:`run_epoch`, on the fields of one ``experiment.CellRun``:
it reads ``cfg.train``, ``cfg.selection``, ``schedule``, ``row``, ``train``, ``target_table``,
``nets``, ``velocities``, ``shuffle_rng`` and ``gate_rng``, advances ``table``, ``global_iter``
and ``post_iter``, and leaves the epoch's flags on ``selected`` and ``flags``.

A lagged strategy keeps two boolean buffers over the whole training set.
Each iteration (1) writes freshly produced clean flags for its batch into
the pending buffer, (2) trains only on rows whose *active* flag is set,
and (3) every ``jump_step`` iterations copies pending over active.  A mask
therefore takes effect at least one full commit window after it was
produced: the network state that produced it is an ancestor, in update
steps, of the state that consumes it, never a peer from the same window.

A strategy that selects draws an effect-rate gate r in (0, 1]: one
Bernoulli draw per post-warm-up iteration (for both nets) decides whether
the mask is applied or the update falls back to the full batch.  Lower r
throttles how often selection errors feed back into training.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .metrics import EpochRecord
from .model import (DualHeadNet, cosine_lr, losses_and_grads_from_forward,
                    per_sample_cross_entropy, sgd_step)
from .selection import BatchFlags, batch_flags, small_loss_select


@dataclass(frozen=True)
class StrategyRow:
    """What a strategy does; every per-strategy decision reads its row."""

    nets: int  # 2: each trains on its peer's pick, at Co-teaching's full-height backward
    selector: str | None  # None (no gate draw), "small_loss" (a pick per net) or "variance"
    lagged: bool  # the picks take effect through the IdentifierTable


STRATEGY_ROWS = {
    "standard": StrategyRow(nets=1, selector=None, lagged=False),
    "self_update": StrategyRow(nets=1, selector="small_loss", lagged=False),
    "cross_update": StrategyRow(nets=2, selector="small_loss", lagged=False),
    "jump_update": StrategyRow(nets=1, selector="variance", lagged=True),
}


@dataclass
class ScheduleConfig:
    strategy: str = "jump_update"
    effect_rate: float = 1.0
    jump_step: int | None = None  # None: iterations per epoch, at least 2

    def __post_init__(self):
        if self.strategy not in STRATEGY_ROWS:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"expected one of {tuple(STRATEGY_ROWS)}")
        if not (0.0 < self.effect_rate <= 1.0):
            raise ConfigError(f"effect_rate must lie in (0, 1], got {self.effect_rate}")
        if self.jump_step is not None and self.jump_step < 2:
            raise ConfigError(f"jump_step must be >= 2, got {self.jump_step}")


class IdentifierTable:
    """Double-buffered per-sample clean flags.

    ``active`` is what training reads; ``pending`` is what fresh identifiers
    overwrite; :meth:`commit` copies pending over active.  Both buffers
    start all-True so training before the first commit sees every sample.
    ``produced_at`` records the iteration that last wrote each pending
    entry, ``active_produced_at`` the same for the active buffer; the
    initial sentinel is -1.
    """

    def __init__(self, n_samples: int):
        self.active = np.ones(n_samples, dtype=bool)
        self.pending = np.ones(n_samples, dtype=bool)
        self.produced_at = np.full(n_samples, -1, dtype=np.int64)
        self.active_produced_at = np.full(n_samples, -1, dtype=np.int64)
        self.commit_count = 0

    def write(self, indices, flags, iteration: int) -> None:
        """Set the pending ``flags`` (bools) of the rows ``indices`` (ints, as many)."""
        self.pending[indices] = flags
        self.produced_at[indices] = iteration

    def commit(self) -> None:
        self.active = self.pending.copy()
        self.active_produced_at = self.produced_at.copy()
        self.commit_count += 1


def _batches(cell):
    order = cell.shuffle_rng.permutation(cell.train.n_samples)
    bs = cell.cfg.train.batch_size
    return [order[i:i + bs] for i in range(0, order.size, bs)]


def _update(cell, which: int, res, labels, targets, mask, lr: float):
    """One masked SGD step on net ``which``; returns (ce, bce, count) or
    None when the mask selects nothing (the batch is skipped).

    Finiteness costs three scans per batch: the forward outputs (logits and
    detection outputs, small arrays) before a loss or gradient is computed
    from them, then, inside ``sgd_step``, the net's flat gradient before the step and
    its flat parameters after it.  Only a failing check scans parameter by
    parameter, to name the layer.
    """
    net = cell.nets[which]
    count = labels.size if mask is None else int(np.count_nonzero(mask))
    if not (np.all(np.isfinite(res.logits)) and np.all(np.isfinite(res.z))):
        bad = net.first_nonfinite(net.parameters())
        cause = f"parameter {bad} is non-finite" if bad else "the forward pass overflowed"
        where = "a skipped batch" if count == 0 else "a training batch"
        raise NumericError(f"non-finite forward outputs on {where}; {cause}"
                           + ("; step refused" if count else ""))
    if count == 0:
        return None
    ce, bce = losses_and_grads_from_forward(
        net, res, labels, targets, cell.cfg.train.bce_weight, mask,
        gather=cell.row.nets == 1)  # criterion 9's cross floor measures the full height
    try:
        sgd_step(net.flat, net.grad, cell.velocities[which], lr,
                 cell.cfg.train.momentum, cell.cfg.train.weight_decay)
    except NumericError:
        raise NumericError(_step_failure(net)) from None
    return ce, bce, count


def _step_failure(net: DualHeadNet) -> str:
    """Name what made ``sgd_step`` fail: a non-finite gradient (the step was
    refused with nothing mutated) or a parameter the step itself overflowed."""
    grad = net.first_nonfinite(net.gradients())
    if grad is not None:
        return f"gradient of {grad} is non-finite; step refused"
    return f"parameter {net.first_nonfinite(net.parameters())} became non-finite after the step"


def _train_batch(cell, idx, lr: float, warm: bool):
    """One iteration on the batch rows ``idx``: select, then write the picks
    to the table (lagged) or train on them.  Returns each net's :func:`_update`
    result, whether the gate was on and the lagged mask's lag (sum, count);
    what it makes of batch size dies before the next batch."""
    row, table = cell.row, cell.table
    x = cell.train.features[idx]
    labels = cell.train.noisy_labels[idx]
    targets = cell.target_table[labels]
    # Neither the gate nor the active buffer depends on this batch's forward
    # pass, so a gated lagged update forwards with its rows and caches only them.
    # random() is the uniform(0, 1) draw minus numpy's argument handling:
    # the same double from the same single step of the stream.
    gated = (not warm and row.selector is not None
             and cell.gate_rng.random() < cell.schedule.effect_rate)
    masks, cached, lag = [None] * row.nets, None, (0, 0)
    if gated and row.lagged:
        masks = [table.active[idx]]  # fancy indexing copies
        prod_at = table.active_produced_at[idx]
        known = prod_at[prod_at >= 0]
        lag = known.size * cell.global_iter - int(known.sum()), known.size
        sel = np.flatnonzero(masks[0])
        cached = sel if sel.size < idx.size else None  # a full mask keeps the full cache
    results = [net.forward(x, cached) for net in cell.nets]
    if row.selector == "variance":
        flags = batch_flags(results[0].z, targets, results[0].probs, labels, cell.cfg.selection)
        for name, values in vars(flags).items():  # combined lands in cell.selected[0]
            getattr(cell.flags, name)[idx] = values
        picks = [flags.combined]
    elif row.selector == "small_loss":
        picks = [small_loss_select(per_sample_cross_entropy(res.probs, labels),
                                   cell.cfg.selection.small_loss_keep_ratio) for res in results]
        for buf, pick in zip(cell.selected, picks):
            buf[idx] = pick
    if row.lagged:
        table.write(idx, picks[0], cell.global_iter)
    elif gated:
        masks = picks[::-1]  # one net: its own pick; two: the peer's
    return [_update(cell, which, res, labels, targets, mask, lr)
            for which, (res, mask) in enumerate(zip(results, masks))], gated, lag


def run_epoch(cell, epoch: int) -> EpochRecord:
    """One epoch of ``cell`` (the fields the module docstring names), warm-up
    included.  A selector picks rows in warm-up too, so a lagged table is full
    when warm-up ends; warm-up draws no gate, never commits, and its
    ``trained_samples`` counts net A's rows only."""
    t0 = time.perf_counter()
    cfg = cell.cfg.train
    lr = cosine_lr(epoch, cfg.epochs, cfg.lr0, cfg.lr_min)
    n = cell.train.n_samples
    warm = epoch < cfg.warmup_epochs
    row, table, jump_step = cell.row, cell.table, cell.schedule.jump_step
    # Fresh buffers every epoch; the batches cover every sample once.
    cell.selected = [np.ones(n, dtype=bool) for _ in cell.nets]
    if row.selector == "variance":
        cell.flags = BatchFlags(
            detection=np.zeros(n, dtype=bool), classifier=np.zeros(n, dtype=bool),
            combined=cell.selected[0], variance=np.full(n, np.nan), bce=np.full(n, np.nan))
    lag_sum = lag_count = 0
    ce_sum = bce_sum = 0.0
    updates = trained = skipped = gate_on = 0
    for idx in _batches(cell):
        outs, gated, (lag, known) = _train_batch(cell, idx, lr, warm)
        for which, out in enumerate(outs):
            if out is None:
                skipped += 1
                continue
            ce_sum += out[0]
            bce_sum += out[1]
            updates += 1
            if not (warm and which):
                trained += out[2]
        gate_on += gated
        lag_sum, lag_count = lag_sum + lag, lag_count + known
        if not warm:
            cell.post_iter += 1
            if row.lagged and cell.post_iter % jump_step == 0:
                table.commit()
        cell.global_iter += 1
    wall = (time.perf_counter() - t0) * 1000.0
    return EpochRecord(epoch=epoch, strategy=cell.schedule.strategy,
                       phase="warmup" if warm else "train", lr=lr,
                       selected_count=int(cell.selected[0].sum()),
                       trained_samples=trained, skipped_batches=skipped,
                       gate_on=gate_on, commit_count=table.commit_count if row.lagged else 0,
                       mean_lag=lag_sum / lag_count if lag_count else None,
                       ce_loss=ce_sum / max(updates, 1),
                       bce_loss=bce_sum / max(updates, 1), epoch_wall_ms=wall)
