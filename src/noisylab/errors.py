"""Exception hierarchy shared across the package.

Every package error belongs to one of three families, and each family is
one CLI exit code: ConfigError -> 2, NumericError -> 3, DataIOError -> 4.
Input is checked where it enters: config parsing, CLI arguments, the CSV,
JSON and checkpoint readers, and the public constructors ``NoisyDataset``
and ``DualHeadNet``.  Code below that boundary trusts what they built.
"""


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
