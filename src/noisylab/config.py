"""Experiment configuration: the config dataclasses are the schema.

Each field's name, type and default is stated once, on ``ExperimentConfig``
or on the section dataclass it holds (``NoiseConfig``, ``TrainConfig``,
``SelectionConfig`` and ``ScheduleConfig`` live beside the code that reads
them: ``data``, ``model``, ``selection`` and ``schedule``).
:func:`parse_config` walks their fields to fill in defaults and type-check
every JSON value (:func:`from_json`); each ``__post_init__`` checks ranges
and cross-field rules.  Unknown keys anywhere are hard errors reported with
the full field path (a typo that silently fell back to a default would
invalidate an experiment).  The config hash covers every field except
out_dir and dump_selection, which change where results go, not what they are.
"""

import dataclasses
import hashlib
import json
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_origin

from .data import NoiseConfig, check_blob_geometry
from .errors import ConfigError, DataIOError
from .model import TrainConfig
from .schedule import STRATEGY_ROWS, ScheduleConfig
from .selection import SelectionConfig, auto_keep_ratio

CONFIG_VERSION = 1


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@dataclass
class DatasetConfig:
    kind: str = "blobs"
    classes: int | None = 10  # None (csv only): taken from the data
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
            check_blob_geometry(self.classes, self.dim, self.per_class, self.spread,
                                self.center_scale)
        elif not self.train_path or not self.test_path:
            raise ConfigError("dataset.kind 'csv' requires train_path and test_path")


@dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    seeds: list[int] = field(default_factory=lambda: [1])
    strategies: list[str] | None = None
    effect_rates: list[float] | None = None
    out_dir: str = "runs"
    dump_selection: bool = False

    def __post_init__(self):
        _expect(self.version == CONFIG_VERSION,
                f"unsupported config version {self.version}, expected {CONFIG_VERSION}")
        for s in self.seeds:
            _expect(s >= 0, f"seeds entry {s!r} must be a non-negative integer")
        for s in self.strategies or ():
            _expect(s in STRATEGY_ROWS, f"strategies entry {s!r} not in {tuple(STRATEGY_ROWS)}")
        for r in self.effect_rates or ():
            _expect(0.0 < r <= 1.0, f"effect_rates entry {r!r} must lie in (0, 1]")
        for name in ("seeds", "strategies", "effect_rates"):  # a repeat reruns a cell
            repeated = [v for v, k in Counter(getattr(self, name) or ()).items() if k > 1]
            _expect(not repeated, f"{name} lists {repeated[:1]} more than once")
        if self.effect_rates:  # a sweep runs schedule.strategy at each rate
            _expect(self.strategies is None, "set strategies or effect_rates, not both")
            _expect(STRATEGY_ROWS[self.schedule.strategy].selector is not None,
                    "effect_rates needs a selecting schedule.strategy (no selector draws no gate)")
        _expect(self.out_dir, "out_dir must be a non-empty string")
        if self.selection.small_loss_keep_ratio is None:
            self.selection = dataclasses.replace(
                self.selection, small_loss_keep_ratio=auto_keep_ratio(self.noise.epsilon))


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def from_json(value, tp, path: str):
    """Check a parsed JSON value against the annotation ``tp``; return it typed.

    ``int`` rejects floats and bools; ``float`` rejects bools, strings and
    non-finite values and keeps ints as ints (so config hashes do not move);
    lists must be non-empty; ``X | None`` allows null; ``dict[K, V]`` converts
    keys with ``K`` and refuses two keys that convert alike; a dataclass
    takes an object of its fields, defaulting the absent ones.
    """
    if isinstance(tp, types.UnionType):
        if value is None:
            return None
        (tp,) = [t for t in get_args(tp) if t is not type(None)]
    if dataclasses.is_dataclass(tp):
        _expect(isinstance(value, dict), f"{path or 'config root'} must be an object")
        prefix = f"{path}." if path else ""
        known = dataclasses.fields(tp)
        unknown = sorted(set(value) - {f.name for f in known})
        if unknown:
            raise ConfigError(f"unknown config key {prefix}{unknown[0]!r}")
        return tp(**{f.name: from_json(value[f.name], f.type, prefix + f.name)
                     for f in known if f.name in value})
    if get_origin(tp) is list:
        _expect(isinstance(value, list) and value, f"{path} must be a non-empty list")
        (item,) = get_args(tp)
        return [from_json(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    if get_origin(tp) is dict:
        _expect(isinstance(value, dict), f"{path} must be an object")
        key_tp, value_tp = get_args(tp)
        typed, spelled = {}, {}
        for k, v in value.items():
            try:
                key = key_tp(k)  # JSON object keys are strings
            except (TypeError, ValueError):
                raise ConfigError(f"{path} key {k!r} must be {_KINDS[key_tp]}") from None
            _expect(key not in typed, f"{path} keys {spelled.get(key)!r} and {k!r} both mean {key!r}")
            typed[key], spelled[key] = from_json(v, value_tp, f"{path}.{k}"), k
        return typed
    if tp is float:
        # Comparison with a float is exact for ints of any size and false for NaN.
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is tp
    _expect(ok, f"{path} must be {_KINDS[tp]}, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill in defaults."""
    return from_json(raw, ExperimentConfig, "")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(raw)


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Everything the config hash covers, as plain JSON-safe types."""
    d = dataclasses.asdict(cfg)
    del d["out_dir"], d["dump_selection"]
    class_map = cfg.noise.class_map
    d["noise"]["class_map"] = ({str(k): class_map[k] for k in sorted(class_map)}
                               if class_map else None)
    return d


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
