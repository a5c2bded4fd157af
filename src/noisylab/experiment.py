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
from .schedule import STRATEGY_ROWS, RunState, ScheduleConfig, run_epoch
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
    """One strategy x seed cell.  The constructor builds its data, codebook
    targets, net(s) and schedule state from ``cfg``, each from its own child
    stream of ``seed``; :meth:`step` trains, evaluates, records and dumps one
    epoch; :meth:`finish` writes the summary, report and checkpoint to
    ``out_dir`` if given; :meth:`run` steps every epoch, then finishes.  Cells
    stepped interleaved write what they write alone."""

    def __init__(self, cfg: ExperimentConfig, strategy: str, seed: int,
                 effect_rate: float | None = None, out_dir=None):
        self.cfg, self.strategy, self.seed, self.effect_rate = cfg, strategy, seed, effect_rate
        train, self.test = build_dataset(cfg, seed)
        n_classes = train.num_classes
        code_bits = cfg.train.code_bits or default_code_bits(n_classes)
        target_table = derive_codebook(code_bits, n_classes).targets
        sched = dataclasses.replace(cfg.schedule, strategy=strategy,
                                    effect_rate=cfg.schedule.effect_rate
                                    if effect_rate is None else effect_rate)
        net_keys = (STREAM_NET_A, STREAM_NET_B)[:STRATEGY_ROWS[strategy].nets]
        nets = [DualHeadNet.create(train.features.shape[1], n_classes, code_bits,
                                   cfg.train.hidden_width, cfg.train.hidden_layers,
                                   cfg.train.temperature, rng_stream(seed, key))
                for key in net_keys]
        self.state = RunState(train, target_table, nets, cfg.train, cfg.selection, sched,
                              rng_stream(seed, STREAM_SHUFFLE), rng_stream(seed, STREAM_GATE))
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.records, self.summary, self.prev_selected = [], None, None

    def step(self):
        state, epoch = self.state, len(self.records)
        clean = state.data.clean_mask
        try:
            rec = run_epoch(state, epoch)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} ({self.strategy}, seed {self.seed}): {exc}") from exc
        acc = evaluate(state.nets[0], self.test)
        selected = state.selected[0]
        precision, recall, f1 = selection_quality(selected, clean)
        med_clean = med_noisy = None
        if state.flags is not None:
            var = state.flags.variance
            ok = np.isfinite(var)
            med_clean, med_noisy = (float(np.median(var[ok & m])) if (ok & m).any() else None
                                    for m in (clean, ~clean))
        self.records.append(dataclasses.replace(
            rec, test_acc=acc, sel_precision=precision, sel_recall=recall, sel_f1=f1,
            temporal_iou=(iou(selected, self.prev_selected)
                          if self.prev_selected is not None else None),
            cross_iou=iou(selected, state.selected[1]) if len(state.selected) > 1 else None,
            median_var_clean=med_clean, median_var_noisy=med_noisy,
            peak_mem_bytes=peak_memory_bytes()))
        self.prev_selected = selected
        if self.out_dir is not None and self.cfg.dump_selection and state.flags is not None:
            dump_decisions_csv(self.out_dir / "selection" / f"epoch_{epoch:03d}.csv",
                               state.flags, clean)

    def finish(self) -> "CellRun":
        cfg = self.cfg
        self.summary = summarize_records(self.records, config_hash(cfg), self.seed, self.strategy)
        if self.effect_rate is not None:
            self.summary["effect_rate"] = self.effect_rate
        if self.out_dir is not None:
            emit_report(self.records, self.out_dir, self.summary)
            save_checkpoint(self.state.nets[0], self.out_dir / "model.ckpt",
                            epoch=len(self.records) - 1, seed=self.seed,
                            config=canonical_dict(cfg))
        return self

    def run(self) -> "CellRun":
        for _ in range(self.cfg.train.epochs):
            self.step()
        return self.finish()


def plan_cells(cfg: ExperimentConfig, compare: bool) -> list:
    """The ``(label, strategy, effect_rate)`` cells that `compare`, or `train`,
    runs over all seeds; refuses a plan that ignores a configured field, or
    that writes two cells into one directory."""
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
    return cells


def _run_plan(cfg: ExperimentConfig, compare: bool):
    """``(base, cells)``: <out_dir>/<hash>/ and, for each cell of the plan, its
    ``(label, strategy, CellRuns)`` run over all seeds into <base>/<label>-seed<seed>/."""
    plan = plan_cells(cfg, compare)
    base = Path(cfg.out_dir) / config_hash(cfg)
    return base, ((label, strategy, [CellRun(cfg, strategy, seed, rate,
                                             base / f"{label}-seed{seed}").run()
                                     for seed in cfg.seeds])
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
            "effect_rate": cell_results[0].state.sched_cfg.effect_rate,
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
