"""Exception hierarchy shared across the package.

Every package error belongs to one of three families, and each family is
one CLI exit code: ConfigError -> 2, NumericError -> 3, DataIOError -> 4.
Input is checked where it enters: config parsing, CLI arguments, the CSV,
JSON and checkpoint readers, and the public constructors ``NoisyDataset``
and ``DualHeadNet``.  Code below that boundary trusts what they built.
Every artifact is written through :func:`atomic_write`.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class NoisyLabError(Exception):
    """Base class for all package errors."""


class ConfigError(NoisyLabError):
    """Invalid configuration value or malformed config file."""


class CapacityError(ConfigError):
    """A requested size exceeds a fixed limit: more classes or code bits
    than a codebook holds, or more elements than a net or dataset may take."""


class NumericError(NoisyLabError):
    """Non-finite value produced where finite math is required."""


class DataIOError(NoisyLabError):
    """Dataset or report file could not be read or written, or holds data
    of the wrong shape or labels outside the class range."""


class ParseError(DataIOError):
    """Malformed data file; the message carries the 1-based line number."""


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file beside ``path`` (``mode`` "w" or "wb") that replaces
    ``path`` only when the block completes, so no reader sees a partial
    file and a failed write leaves ``path`` as it was and no temp file.
    Parent directories are created; an OSError becomes DataIOError.  The
    temp name ends in ``.tmp``, so no ``*.csv`` glob sees it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():  # the block or the replace failed
            tmp.unlink()
