"""Desk-scale laboratory for sample-selection training under label noise.

Importing the package fixes glibc's malloc thresholds for the process
(:func:`_steady_heap`).
"""

import ctypes
import os

from .codebook import HadamardCodebook, default_code_bits, derive_codebook
from .config import ExperimentConfig, load_config, parse_config
from .data import NoiseConfig, NoisyDataset, gen_blobs, inject_noise, load_csv, save_csv
from .errors import (CapacityError, ConfigError, DataIOError, NoisyLabError,
                     NumericError, ParseError)
from .experiment import CellRun, compare_strategies, run_cell, run_experiment, start_run
from .metrics import evaluate, iou, selection_quality
from .model import DualHeadNet, TrainConfig, load_checkpoint, save_checkpoint
from .numeric import RngStream
from .schedule import IdentifierTable, ScheduleConfig, STRATEGIES
from .selection import SelectionConfig, batch_flags, small_loss_select


def _steady_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at
    256 MiB; does nothing off glibc.

    By default glibc moves both thresholds as blocks are freed, so the
    step's temporaries, whose sizes change with every mask, alternate
    between mmap'd blocks and heap memory that is trimmed and regrown; each
    round trip costs page faults.  Fixed, every block under 32 MiB comes from
    the heap, and the heap top is kept until 256 MiB of it lies free.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Parameter numbers from glibc's malloc.h.  32 MiB is the ceiling of
    # glibc's own dynamic mmap threshold on 64-bit systems.
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_steady_heap()

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "CellRun", "ConfigError", "DataIOError", "DualHeadNet",
    "ExperimentConfig", "HadamardCodebook", "IdentifierTable",
    "NoiseConfig", "NoisyDataset", "NoisyLabError", "NumericError",
    "ParseError", "RngStream", "STRATEGIES", "ScheduleConfig",
    "SelectionConfig", "TrainConfig", "batch_flags", "compare_strategies", "default_code_bits",
    "derive_codebook", "evaluate", "gen_blobs", "inject_noise", "iou",
    "load_checkpoint", "load_config", "load_csv", "parse_config", "run_cell",
    "run_experiment", "save_checkpoint", "save_csv", "selection_quality",
    "small_loss_select", "start_run",
]
