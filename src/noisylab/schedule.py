"""Training-loop strategies: plain SGD, small-loss self/cross updates, and
the double-buffered jump-update schedule, all run by one epoch loop,
:func:`run_epoch`, which returns the epoch's ``metrics.EpochRecord``.  The
strategies differ only in where a net's mask comes from and when it takes
effect: standard has none, self uses its own small-loss pick, cross the
peer net's pick, jump the active buffer below.

The jump schedule keeps two boolean buffers over the whole training set.
Each iteration (1) writes freshly produced clean flags for its batch into
the pending buffer, (2) trains only on rows whose *active* flag is set,
and (3) every ``jump_step`` iterations copies pending over active.  A mask
therefore takes effect at least one full commit window after it was
produced: the network state that produced it is an ancestor, in update
steps, of the state that consumes it, never a peer from the same window.

The selecting strategies share an effect-rate gate r in (0, 1]: one
Bernoulli draw per post-warm-up iteration decides whether the mask is
applied or the update falls back to the full batch (one draw covers both
cross nets).  Lower r throttles how often selection errors feed back into
training.  r = 1 always applies the mask.  Warm-up and standard training
draw nothing from the gate stream.

A run keeps its codeword bit targets as the codebook's (C, K) table, one
row per class, on ``RunState.target_table``; each batch takes
``target_table[labels]``, the same float64 rows a per-sample (n, K) array
would hold, at C rows of memory instead of n.

Every strategy trains both heads with the combined objective.  A masked
jump or self update backpropagates only its selected rows
(``losses_and_grads_from_forward`` gathers them; a gated jump update's
forward pass caches only them), so a strategy that trains on fewer rows
spends less time in backward; the forward pass and the selection work stay
full-batch.  Cross, the dual-network baseline, keeps
the full-height backward of Co-teaching, whose loss over the peer's rows
zero-fills the rest under autograd.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import NoisyDataset
from .errors import ConfigError, NumericError
from .metrics import EpochRecord
from .model import (DualHeadNet, TrainConfig, cosine_lr,
                    losses_and_grads_from_forward, per_sample_cross_entropy,
                    sgd_step)
from .numeric import RngStream
from .selection import BatchFlags, SelectionConfig, batch_flags, small_loss_select

STRATEGIES = ("standard", "self_update", "cross_update", "jump_update")
SMALL_LOSS = ("self_update", "cross_update")  # the strategies that rank by loss


@dataclass
class ScheduleConfig:
    strategy: str = "jump_update"
    effect_rate: float = 1.0
    jump_step: int | None = None  # None resolves to iterations-per-epoch

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
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


@dataclass
class RunState:
    """Everything one training run mutates across epochs, as
    ``experiment.start_run`` builds it; ``__post_init__`` derives the
    schedule fields and refuses a jump step the run cannot reach."""

    data: NoisyDataset
    target_table: np.ndarray  # (C, K) codeword bit targets, one row per class
    nets: list  # two for cross_update, else one
    train_cfg: TrainConfig
    sel_cfg: SelectionConfig
    sched_cfg: ScheduleConfig
    shuffle_rng: RngStream
    gate_rng: RngStream
    velocities: list = field(init=False)  # one SGD velocity arena per net
    iters_per_epoch: int = field(init=False)
    jump_step: int = field(init=False)
    table: IdentifierTable | None = field(init=False)
    selected: list = field(default_factory=list)  # last epoch's flags, one array per net
    flags: BatchFlags | None = None  # jump: last epoch's BatchFlags; combined is selected[0]
    global_iter: int = 0
    post_iter: int = 0

    def __post_init__(self):
        n, cfg, sched = self.data.n_samples, self.train_cfg, self.sched_cfg
        self.velocities = [np.zeros_like(net.flat) for net in self.nets]
        self.iters_per_epoch = math.ceil(n / cfg.batch_size)
        self.jump_step = sched.jump_step or max(2, self.iters_per_epoch)
        jump = sched.strategy == "jump_update"
        total_train_iters = (cfg.epochs - cfg.warmup_epochs) * self.iters_per_epoch
        if jump and not 2 <= self.jump_step <= total_train_iters:
            raise ConfigError(
                f"jump_step {self.jump_step} outside [2, {total_train_iters}] for this run length")
        self.table = IdentifierTable(n) if jump else None


def _batches(state: RunState):
    order = state.shuffle_rng.generator.permutation(state.data.n_samples)
    bs = state.train_cfg.batch_size
    return [order[i:i + bs] for i in range(0, order.size, bs)]


def _update(state: RunState, which: int, res, labels, targets, mask, lr: float):
    """One masked SGD step on net ``which``; returns (ce, bce, count) or
    None when the mask selects nothing (the batch is skipped).

    Finiteness costs three scans per batch: the forward outputs (logits and
    detection outputs, small arrays) before a loss or gradient is computed
    from them, then, inside ``sgd_step``, the net's flat gradient before the step and
    its flat parameters after it.  Only a failing check scans parameter by
    parameter, to name the layer.
    """
    net = state.nets[which]
    count = labels.size if mask is None else int(np.count_nonzero(mask))
    if not (np.all(np.isfinite(res.logits)) and np.all(np.isfinite(res.z))):
        bad = net.first_nonfinite(net.parameters())
        cause = f"parameter {bad} is non-finite" if bad else "the forward pass overflowed"
        where = "a skipped batch" if count == 0 else "a training batch"
        raise NumericError(f"non-finite forward outputs on {where}; {cause}"
                           + ("; step refused" if count else ""))
    if count == 0:
        return None
    # cross_update is the dual-network baseline (Co-teaching), whose loss over
    # the peer's rows backpropagates at full height; the others gather.
    ce, bce = losses_and_grads_from_forward(
        net, res, labels, targets, state.train_cfg.bce_weight, mask,
        gather=state.sched_cfg.strategy != "cross_update")
    try:
        sgd_step(net.flat, net.grad, state.velocities[which], lr,
                 state.train_cfg.momentum, state.train_cfg.weight_decay)
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


def _gate(state: RunState) -> bool:
    # generator.random() is the uniform(0, 1) draw minus numpy's argument
    # handling: the same double from the same single step of the stream.
    return state.gate_rng.generator.random() < state.sched_cfg.effect_rate


def _train_batch(state: RunState, idx, lr: float, warm: bool):
    """One iteration on the batch rows ``idx``; returns each net's
    :func:`_update` result, whether the gate was on, and the jump mask's lag
    (sum, count).  What it makes of batch size dies before the next batch."""
    strategy, table = state.sched_cfg.strategy, state.table
    x = state.data.features[idx]
    labels = state.data.noisy_labels[idx]
    targets = state.target_table[labels]
    # Neither the gate nor the active buffer depends on this batch's forward
    # pass, so a gated jump update forwards with its rows and caches only them.
    gated = not warm and strategy != "standard" and _gate(state)
    masks, rows, lag = [None] * len(state.nets), None, (0, 0)
    if gated and table is not None:
        masks = [table.active[idx]]  # fancy indexing copies
        prod_at = table.active_produced_at[idx]
        known = prod_at[prod_at >= 0]
        lag = known.size * state.global_iter - int(known.sum()), known.size
        sel = np.flatnonzero(masks[0])
        rows = sel if sel.size < idx.size else None  # a full mask keeps the full cache
    results = [net.forward(x, rows) for net in state.nets]
    if table is not None:
        flags = batch_flags(results[0].z, targets, results[0].probs, labels, state.sel_cfg)
        table.write(idx, flags.combined, state.global_iter)
        for name, values in vars(flags).items():
            getattr(state.flags, name)[idx] = values
    elif strategy in SMALL_LOSS:
        picks = [small_loss_select(per_sample_cross_entropy(res.probs, labels),
                                   state.sel_cfg.small_loss_keep_ratio)
                 for res in results]
        for buf, pick in zip(state.selected, picks):
            buf[idx] = pick
        masks = picks[::-1] if gated else masks  # self: its own pick; cross: the peer's
    return [_update(state, which, res, labels, targets, mask, lr)
            for which, (res, mask) in enumerate(zip(results, masks))], gated, lag


def run_epoch(state: RunState, epoch: int) -> EpochRecord:
    """One epoch of any strategy, warm-up included.

    Each batch is forwarded once through every net.  The strategy then
    produces its flags: jump writes ``batch_flags`` into the pending
    buffer, self and cross take a small-loss pick per net, standard flags
    every row.  After warm-up, every strategy but standard draws the gate;
    when it is on, self trains on its own pick, cross on the peer's and
    jump on the active buffer, otherwise each net trains on the full batch.
    Jump commits pending over active whenever the post-warm-up iteration
    count reaches a multiple of ``jump_step``.  Warm-up draws no gate and
    never commits, and its ``trained_samples`` counts net A's rows only.
    The epoch's flags are left on ``state.selected`` and ``state.flags``.
    """
    t0 = time.perf_counter()
    cfg = state.train_cfg
    lr = cosine_lr(epoch, cfg.epochs, cfg.lr0, cfg.lr_min)
    n = state.data.n_samples
    warm = epoch < cfg.warmup_epochs
    table = state.table
    # Fresh buffers every epoch; the batches cover every sample once.
    state.selected = [np.ones(n, dtype=bool) for _ in state.nets]
    if table is not None:
        state.flags = BatchFlags(
            detection=np.zeros(n, dtype=bool), classifier=np.zeros(n, dtype=bool),
            combined=state.selected[0], variance=np.full(n, np.nan), bce=np.full(n, np.nan))
    lag_sum = lag_count = 0
    ce_sum = bce_sum = 0.0
    updates = trained = skipped = gate_on = 0
    for idx in _batches(state):
        outs, gated, (lag, known) = _train_batch(state, idx, lr, warm)
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
            state.post_iter += 1
            if table is not None and state.post_iter % state.jump_step == 0:
                table.commit()
        state.global_iter += 1
    wall = (time.perf_counter() - t0) * 1000.0
    return EpochRecord(epoch=epoch, strategy=state.sched_cfg.strategy,
                       phase="warmup" if warm else "train", lr=lr,
                       selected_count=int(state.selected[0].sum()),
                       trained_samples=trained, skipped_batches=skipped,
                       gate_on=gate_on, commit_count=table.commit_count if table else 0,
                       mean_lag=lag_sum / lag_count if lag_count else None,
                       ce_loss=ce_sum / max(updates, 1),
                       bce_loss=bce_sum / max(updates, 1), epoch_wall_ms=wall)
