"""Experiment configuration: strict JSON schema, defaults, canonical hash.

Unknown keys anywhere in the config are hard errors (a typo that silently
fell back to a default would invalidate an experiment), reported with the
full field path.  The config hash covers every semantically meaningful
field and deliberately excludes out_dir and dump_selection, which change
where results go but not what they are.
"""

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .data import NOISE_KINDS
from .errors import ConfigError, DataIOError
from .model import TrainConfig
from .schedule import STRATEGIES, ScheduleConfig
from .selection import SelectionConfig, auto_keep_ratio

CONFIG_VERSION = 1

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "dataset": {"kind": "blobs", "classes": 10, "dim": 32, "per_class": 500,
                "spread": 1.0, "center_scale": 1.0, "train_path": None,
                "test_path": None},
    "noise": {"kind": "symmetric", "epsilon": 0.4, "class_map": None},
    "train": {"lr0": 0.1, "lr_min": 0.0005, "momentum": 0.9,
              "weight_decay": 0.003, "batch_size": 128, "epochs": 60,
              "warmup_epochs": 9, "temperature": 2.0, "hidden_width": 64,
              "hidden_layers": 2, "code_bits": None, "bce_weight": 1.0},
    "selection": {"tau": 0.001, "small_loss_keep_ratio": None},
    "schedule": {"strategy": "jump_update", "effect_rate": 1.0, "jump_step": None},
    "seeds": [1],
    "strategies": None,
    "effect_rates": None,
    "out_dir": "runs",
    "dump_selection": False,
}


@dataclass
class DatasetConfig:
    kind: str = "blobs"
    classes: int | None = 10
    dim: int = 32
    per_class: int = 500
    spread: float = 1.0
    center_scale: float = 1.0
    train_path: str | None = None
    test_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("blobs", "csv"):
            raise ConfigError(f"dataset.kind must be 'blobs' or 'csv', got {self.kind!r}")
        if self.kind == "blobs":
            if self.classes is None or self.classes < 2:
                raise ConfigError(f"dataset.classes must be >= 2, got {self.classes}")
            if self.dim < 2:
                raise ConfigError(f"dataset.dim must be >= 2, got {self.dim}")
            if self.per_class < 2:
                raise ConfigError(f"dataset.per_class must be >= 2, got {self.per_class}")
            if self.spread <= 0:
                raise ConfigError(f"dataset.spread must be positive, got {self.spread}")
        else:
            if not self.train_path or not self.test_path:
                raise ConfigError("dataset.kind 'csv' requires train_path and test_path")


@dataclass
class NoiseConfig:
    kind: str = "symmetric"
    epsilon: float = 0.4
    class_map: dict | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise.kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigError(f"noise.epsilon must lie in [0, 1), got {self.epsilon}")
        if self.kind == "asymmetric" and not self.class_map:
            raise ConfigError("noise.kind 'asymmetric' requires noise.class_map")


@dataclass
class ExperimentConfig:
    version: int
    dataset: DatasetConfig
    noise: NoiseConfig
    train: TrainConfig
    selection: SelectionConfig
    schedule: ScheduleConfig
    seeds: list
    strategies: list | None
    effect_rates: list | None
    out_dir: str
    dump_selection: bool


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key {path}.{unknown[0]!r}"
                          if path else f"unknown config key {unknown[0]!r}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _merged_section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    _expect(isinstance(section, dict), f"{name} must be an object")
    _check_keys(section, DEFAULT_CONFIG[name].keys(), name)
    merged = copy.deepcopy(DEFAULT_CONFIG[name])
    merged.update(section)
    return merged


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill in defaults."""
    _expect(isinstance(raw, dict), "config root must be an object")
    _check_keys(raw, DEFAULT_CONFIG.keys(), "")
    version = raw.get("version", CONFIG_VERSION)
    _expect(version == CONFIG_VERSION,
            f"unsupported config version {version}, expected {CONFIG_VERSION}")

    ds = _merged_section(raw, "dataset")
    dataset = DatasetConfig(**ds)

    nz = _merged_section(raw, "noise")
    if nz["class_map"] is not None:
        _expect(isinstance(nz["class_map"], dict), "noise.class_map must be an object")
        try:
            nz["class_map"] = {int(k): int(v) for k, v in nz["class_map"].items()}
        except (TypeError, ValueError):
            raise ConfigError("noise.class_map keys and values must be integers") from None
    noise = NoiseConfig(**nz)

    tr = _merged_section(raw, "train")
    train = TrainConfig(**tr)

    sel = _merged_section(raw, "selection")
    if sel["small_loss_keep_ratio"] is None:
        sel["small_loss_keep_ratio"] = auto_keep_ratio(noise.epsilon)
    selection = SelectionConfig(**sel)

    sc = _merged_section(raw, "schedule")
    schedule = ScheduleConfig(**sc)

    seeds = raw.get("seeds", DEFAULT_CONFIG["seeds"])
    _expect(isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds),
            "seeds must be a non-empty list of integers")

    strategies = raw.get("strategies")
    if strategies is not None:
        _expect(isinstance(strategies, list) and strategies, "strategies must be a non-empty list")
        for s in strategies:
            _expect(s in STRATEGIES, f"strategies entry {s!r} not in {STRATEGIES}")

    effect_rates = raw.get("effect_rates")
    if effect_rates is not None:
        _expect(isinstance(effect_rates, list) and effect_rates,
                "effect_rates must be a non-empty list")
        for r in effect_rates:
            _expect(isinstance(r, (int, float)) and 0.0 < r <= 1.0,
                    f"effect_rates entry {r!r} must lie in (0, 1]")

    out_dir = raw.get("out_dir", DEFAULT_CONFIG["out_dir"])
    _expect(isinstance(out_dir, str) and out_dir, "out_dir must be a non-empty string")
    dump_selection = raw.get("dump_selection", False)
    _expect(isinstance(dump_selection, bool), "dump_selection must be a boolean")

    return ExperimentConfig(version=version, dataset=dataset, noise=noise,
                            train=train, selection=selection, schedule=schedule,
                            seeds=list(seeds), strategies=strategies,
                            effect_rates=effect_rates, out_dir=out_dir,
                            dump_selection=dump_selection)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataIOError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Everything the config hash covers, as plain JSON-safe types."""
    return {
        "version": cfg.version,
        "dataset": {"kind": cfg.dataset.kind, "classes": cfg.dataset.classes,
                    "dim": cfg.dataset.dim, "per_class": cfg.dataset.per_class,
                    "spread": cfg.dataset.spread,
                    "center_scale": cfg.dataset.center_scale,
                    "train_path": cfg.dataset.train_path,
                    "test_path": cfg.dataset.test_path},
        "noise": {"kind": cfg.noise.kind, "epsilon": cfg.noise.epsilon,
                  "class_map": ({str(k): cfg.noise.class_map[k]
                                 for k in sorted(cfg.noise.class_map)}
                                if cfg.noise.class_map else None)},
        "train": {"lr0": cfg.train.lr0, "lr_min": cfg.train.lr_min,
                  "momentum": cfg.train.momentum,
                  "weight_decay": cfg.train.weight_decay,
                  "batch_size": cfg.train.batch_size, "epochs": cfg.train.epochs,
                  "warmup_epochs": cfg.train.warmup_epochs,
                  "temperature": cfg.train.temperature,
                  "hidden_width": cfg.train.hidden_width,
                  "hidden_layers": cfg.train.hidden_layers,
                  "code_bits": cfg.train.code_bits,
                  "bce_weight": cfg.train.bce_weight},
        "selection": {"tau": cfg.selection.tau,
                      "small_loss_keep_ratio": cfg.selection.small_loss_keep_ratio},
        "schedule": {"strategy": cfg.schedule.strategy,
                     "effect_rate": cfg.schedule.effect_rate,
                     "jump_step": cfg.schedule.jump_step},
        "seeds": cfg.seeds,
        "strategies": cfg.strategies,
        "effect_rates": cfg.effect_rates,
    }


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
