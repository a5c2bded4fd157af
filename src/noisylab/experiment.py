"""End-to-end runs: data -> noise -> training -> metrics -> artifacts.

Every run (one strategy, one seed) derives all of its randomness from its
seed via fixed stream keys, so two runs with the same config
and seed are bit-identical, and runs that share a seed share the same
dataset, noise pattern, initial weights, and batch order regardless of
strategy.  That pairing is what makes wall-time and accuracy comparisons
between strategies meaningful.
"""

import csv
import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np

from .codebook import default_code_bits, derive_codebook
from .config import ExperimentConfig, canonical_dict, config_hash
from .data import check_class_map, gen_blobs, inject_noise, load_csv
from .errors import ConfigError, DataIOError, NumericError, atomic_write
from .metrics import (emit_report, evaluate, iou, mean_or_none, peak_memory_bytes,
                      selection_quality, summarize_records)
from .model import DualHeadNet, save_checkpoint
from .numeric import rng_stream
from .schedule import STRATEGY_ROWS, IdentifierTable, ScheduleConfig, run_epoch
from .selection import dump_decisions_csv

# Stream keys under a run's seed (numeric.rng_stream).  Fixed so that adding
# a consumer never perturbs existing ones.
STREAM_DATA = 0
STREAM_NOISE = 1
STREAM_NET_A = 2
STREAM_NET_B = 3
STREAM_SHUFFLE = 4
STREAM_GATE = 5
STREAM_IDN = 6


def _load_split(path, num_classes, split: str):
    ds = load_csv(path, num_classes=num_classes, split=split)
    if ds.n_samples == 0:
        raise DataIOError(f"{path}: the {split} split has no data rows")
    return ds


def build_dataset(cfg: ExperimentConfig, seed: int):
    """Construct (train, test) for a run, injecting noise when asked.

    CSV datasets that already contain disagreeing label columns are used
    as-is; injection only happens on clean training data with epsilon > 0.
    An empty CSV split, a test split whose feature count differs from the
    train split's, and a class map that does not fit the class count, even
    one no draw reads, are refused.
    """
    ds_cfg, cmap = cfg.dataset, cfg.noise.class_map
    if ds_cfg.kind == "blobs":
        if cmap:  # refused before the draw: blobs know their class count
            check_class_map(cmap, ds_cfg.classes)
        train, test = gen_blobs(ds_cfg.classes, ds_cfg.dim, ds_cfg.per_class,
                                ds_cfg.spread, rng_stream(seed, STREAM_DATA),
                                ds_cfg.center_scale)
    else:
        train = _load_split(ds_cfg.train_path, ds_cfg.classes, "train")
        test = _load_split(ds_cfg.test_path, train.num_classes, "test")
        if test.features.shape[1] != train.features.shape[1]:
            raise DataIOError(f"{ds_cfg.test_path} has {test.features.shape[1]} features "
                              f"but {ds_cfg.train_path} has {train.features.shape[1]}")
        if cmap:
            check_class_map(cmap, train.num_classes)
    if train.clean_mask.all() and cfg.noise.epsilon > 0:
        train = inject_noise(train, cfg.noise, rng_stream(seed, STREAM_NOISE),
                             rng_stream(seed, STREAM_IDN))
    return train, test


class CellRun:
    """One strategy x seed cell: everything its training mutates across epochs.
    The constructor builds its data, codebook targets, net(s) and ``schedule``
    (``cfg.schedule`` resolved), each from its own child stream of ``seed``,
    and refuses a jump step the run cannot reach; :meth:`step` trains,
    evaluates, records and dumps one epoch; :meth:`finish` writes the summary,
    report and checkpoint to ``out_dir`` if given; :meth:`run` steps every
    epoch, then finishes.  Cells stepped interleaved write what they write alone."""

    def __init__(self, cfg: ExperimentConfig, strategy: str, seed: int,
                 effect_rate: float | None = None, out_dir=None):
        self.cfg, self.seed, self.sweep_rate = cfg, seed, effect_rate
        self.train, self.test = build_dataset(cfg, seed)
        n, n_classes, train_cfg = self.train.n_samples, self.train.num_classes, cfg.train
        code_bits = train_cfg.code_bits or default_code_bits(n_classes)
        self.target_table = derive_codebook(code_bits, n_classes).targets  # (C, K), a row per class
        self.iters_per_epoch = math.ceil(n / train_cfg.batch_size)
        self.schedule = dataclasses.replace(
            cfg.schedule, strategy=strategy,
            effect_rate=cfg.schedule.effect_rate if effect_rate is None else effect_rate,
            jump_step=cfg.schedule.jump_step or max(2, self.iters_per_epoch))
        self.row = STRATEGY_ROWS[strategy]
        self.nets = [DualHeadNet.create(self.train.features.shape[1], n_classes, code_bits,
                                        train_cfg.hidden_width, train_cfg.hidden_layers,
                                        train_cfg.temperature, rng_stream(seed, key))
                     for key in (STREAM_NET_A, STREAM_NET_B)[:self.row.nets]]
        post_iters = (train_cfg.epochs - train_cfg.warmup_epochs) * self.iters_per_epoch
        if self.row.lagged and self.schedule.jump_step > post_iters:
            unset = "" if cfg.schedule.jump_step else " (default: iterations per epoch, at least 2)"
            raise ConfigError(f"jump_step {self.schedule.jump_step}{unset} exceeds this run's "
                              f"post-warm-up iteration count, {post_iters}")
        self.velocities = [np.zeros_like(net.flat) for net in self.nets]  # one SGD arena per net
        self.shuffle_rng = rng_stream(seed, STREAM_SHUFFLE)
        self.gate_rng = rng_stream(seed, STREAM_GATE)
        self.table = IdentifierTable(n) if self.row.lagged else None
        self.selected, self.flags = [], None  # last epoch's picks per net; variance's BatchFlags
        self.global_iter = self.post_iter = 0
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.records, self.summary, self.prev_selected = [], None, None

    def step(self):
        epoch, clean = len(self.records), self.train.clean_mask
        try:
            rec = run_epoch(self, epoch)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} ({self.schedule.strategy}, seed {self.seed}): "
                               f"{exc}") from exc
        acc = evaluate(self.nets[0], self.test)
        selected = self.selected[0]
        precision, recall, f1 = selection_quality(selected, clean)
        med_clean = med_noisy = None
        if self.flags is not None:
            var = self.flags.variance
            ok = np.isfinite(var)
            med_clean, med_noisy = (float(np.median(var[ok & m])) if (ok & m).any() else None
                                    for m in (clean, ~clean))
        self.records.append(dataclasses.replace(
            rec, test_acc=acc, sel_precision=precision, sel_recall=recall, sel_f1=f1,
            temporal_iou=(iou(selected, self.prev_selected)
                          if self.prev_selected is not None else None),
            cross_iou=iou(selected, self.selected[1]) if len(self.selected) > 1 else None,
            median_var_clean=med_clean, median_var_noisy=med_noisy,
            peak_mem_bytes=peak_memory_bytes()))
        self.prev_selected = selected
        if self.out_dir is not None and self.cfg.dump_selection and self.flags is not None:
            dump_decisions_csv(self.out_dir / "selection" / f"epoch_{epoch:03d}.csv",
                               self.flags, clean)

    def finish(self) -> "CellRun":
        self.summary = summarize_records(self.records, config_hash(self.cfg), self.seed,
                                         self.schedule.strategy)
        if self.sweep_rate is not None:
            self.summary["effect_rate"] = self.sweep_rate
        if self.out_dir is not None:
            emit_report(self.records, self.out_dir, self.summary)
            save_checkpoint(self.nets[0], self.out_dir / "model.ckpt",
                            epoch=len(self.records) - 1, seed=self.seed,
                            config=canonical_dict(self.cfg))
        return self

    def run(self) -> "CellRun":
        for _ in range(self.cfg.train.epochs):
            self.step()
        return self.finish()


def plan_cells(cfg: ExperimentConfig, compare: bool) -> list:
    """The ``(label, strategy, effect_rate)`` cells that `compare`, or `train`,
    runs over all seeds; refuses a plan that ignores a configured field
    (``dump_selection`` included), or that writes two cells into one directory."""
    strategy = cfg.schedule.strategy
    if not compare:
        for name in ("strategies", "effect_rates"):
            if getattr(cfg, name) is not None:
                raise ConfigError(f"train runs schedule.strategy alone and ignores {name}; run compare")
        cells = [(strategy, strategy, None)]
    elif cfg.effect_rates:
        cells = [(f"{strategy}-r{r:g}", strategy, r) for r in cfg.effect_rates]
    else:
        strategies = cfg.strategies or list(STRATEGY_ROWS)
        if len(strategies) < 2:
            raise ConfigError("compare needs at least 2 strategies or an effect_rates list")
        cells = [(s, s, None) for s in strategies]
    shared = [label for label, n in Counter(label for label, _, _ in cells).items() if n > 1]
    if shared:  # as with a repeated entry, one cell would overwrite the other
        raise ConfigError(f"two cells share the label {shared[0]!r} (a label prints a rate "
                          "to 6 significant digits), so one would overwrite the other")
    rows = [(STRATEGY_ROWS[s], rate) for _, s, rate in cells]
    if cfg.schedule.effect_rate != ScheduleConfig.effect_rate and all(
            row.selector is None or rate is not None for row, rate in rows):
        raise ConfigError("no cell reads schedule.effect_rate: none selects at that rate")
    if cfg.schedule.jump_step is not None and not any(row.lagged for row, _ in rows):
        raise ConfigError("no cell reads schedule.jump_step: none is lagged, so none commits")
    if cfg.dump_selection and not any(row.selector == "variance" for row, _ in rows):
        raise ConfigError("no cell writes a selection dump: dump_selection is set, "
                          "but none selects by variance")
    return cells


def _run_plan(cfg: ExperimentConfig, compare: bool):
    """``(base, cells)``: <out_dir>/<hash>/ and, for each cell of the plan, its
    ``(label, strategy, CellRuns)`` run over all seeds into <base>/<label>-seed<seed>/."""
    plan = plan_cells(cfg, compare)
    base = Path(cfg.out_dir) / config_hash(cfg)
    early = {}  # (label, seed): the one cell built before its row runs

    def build(label, strategy, rate, seed):
        return early.pop((label, seed), None) or CellRun(cfg, strategy, seed, rate,
                                                         base / f"{label}-seed{seed}")

    # A cell's refusals do not depend on its seed, and depend on its row only
    # through the jump-range check, which every lagged row makes alike.  So one
    # cell built before any trains (the first lagged row's, else row 0's) refuses
    # a bad plan; it runs in its row, and every other cell is built as it runs.
    ahead = next((cell for cell in plan if STRATEGY_ROWS[cell[1]].lagged), plan[0])
    early[ahead[0], cfg.seeds[0]] = build(*ahead, cfg.seeds[0])
    return base, ((label, strategy, [build(label, strategy, rate, seed).run() for seed in cfg.seeds])
                  for label, strategy, rate in plan)


def run_experiment(cfg: ExperimentConfig) -> list:
    """The `train` entry point: the configured strategy over all seeds."""
    _, cells = _run_plan(cfg, compare=False)
    return next(cells)[2]


def compare_strategies(cfg: ExperimentConfig) -> list:
    """The `compare` entry point: a strategy set or effect-rate sweep, one
    row (dict) per cell, also written to <out_dir>/<hash>/comparison.csv."""
    base, cells = _run_plan(cfg, compare=True)
    rows = []
    for label, strategy, cell_results in cells:
        summaries = [r.summary for r in cell_results]
        last10 = [s["last10_mean_acc"] for s in summaries]
        rows.append({
            "label": label, "strategy": strategy,
            "effect_rate": cell_results[0].schedule.effect_rate,
            "n_seeds": len(cfg.seeds),
            "mean_last10_acc": float(np.mean(last10)),
            "std_last10_acc": float(np.std(last10)),
            "mean_temporal_iou": mean_or_none(s["mean_temporal_iou"] for s in summaries),
            "mean_cross_iou": mean_or_none(s["mean_cross_iou"] for s in summaries),
            "mean_epoch_ms": float(np.mean([s["mean_epoch_ms"] for s in summaries])),
        })

    with atomic_write(base / "comparison.csv") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")  # columns in row order
        writer.writeheader()
        writer.writerows(rows)
    return rows
