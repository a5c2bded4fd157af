"""Desk-scale laboratory for sample-selection training under label noise."""

from .codebook import HadamardCodebook, default_code_bits, derive_codebook
from .config import ExperimentConfig, load_config, parse_config
from .data import NoiseConfig, NoisyDataset, gen_blobs, inject_noise, load_csv, save_csv
from .errors import (CapacityError, ConfigError, DataIOError, EncodingError,
                     LabelError, NoisyLabError, NumericError, ParseError,
                     ShapeError)
from .experiment import compare_strategies, run_cell, run_experiment, start_run
from .metrics import evaluate, iou, selection_quality
from .model import DualHeadNet, TrainConfig, load_checkpoint, save_checkpoint
from .numeric import RngStream
from .schedule import IdentifierTable, ScheduleConfig, STRATEGIES
from .selection import SelectionConfig, batch_flags, small_loss_select

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigError", "DataIOError", "DualHeadNet",
    "EncodingError", "ExperimentConfig", "HadamardCodebook",
    "IdentifierTable", "LabelError", "NoiseConfig", "NoisyDataset",
    "NoisyLabError", "NumericError", "ParseError", "RngStream",
    "STRATEGIES", "ScheduleConfig", "SelectionConfig", "ShapeError",
    "TrainConfig", "batch_flags", "compare_strategies", "default_code_bits",
    "derive_codebook", "evaluate", "gen_blobs", "inject_noise", "iou",
    "load_checkpoint", "load_config", "load_csv", "parse_config", "run_cell",
    "run_experiment", "save_checkpoint", "save_csv", "selection_quality",
    "small_loss_select", "start_run",
]
