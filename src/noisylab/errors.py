"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericError -> 3,
DataIOError -> 4.
"""


class NoisyLabError(Exception):
    """Base class for all package errors."""


class ShapeError(NoisyLabError):
    """Array dimensions do not match what an operation requires."""


class ConfigError(NoisyLabError):
    """Invalid configuration value or malformed config file."""


class CapacityError(ConfigError):
    """A requested size exceeds a fixed limit: more classes or code bits
    than a codebook holds, or more elements than a net or dataset may take."""


class LabelError(NoisyLabError):
    """Class label outside the valid range."""


class EncodingError(NoisyLabError):
    """Training target is not a valid bit vector."""


class NumericError(NoisyLabError):
    """Non-finite value produced where finite math is required."""


class DataIOError(NoisyLabError):
    """Dataset or report file could not be read or written."""


class ParseError(DataIOError):
    """Malformed data file; the message carries the 1-based line number."""
