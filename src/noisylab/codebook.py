"""Hadamard class codebooks.

Classes are encoded as rows of a Sylvester-type Hadamard matrix.  Any two
distinct rows of such a matrix agree in exactly half their positions, so
every pair of class codewords sits at Hamming distance K/2: a wrong label
flips a fixed, large number of target bits, which is what the detection
criterion keys on.

Codewords are bipolar (+1/-1).  Training targets are the same rows remapped
bitwise via b -> (b+1)/2 into {0,1}, so they can supervise a detection head
whose outputs live in (0,1).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, atomic_write

MAX_CODE_BITS = 4096  # 2048 classes at the default width
MAX_ELEMENTS = 1 << 26  # the largest net arena or dataset: 512 MiB of float64


def next_pow2(v: int) -> int:
    """Smallest power of two >= v (1 for v <= 1)."""
    return 1 << max(int(v) - 1, 0).bit_length()


def sylvester_rows(rows: int, cols: int) -> np.ndarray:
    """The top-left ``rows x cols`` block of a Sylvester Hadamard matrix of
    any order at least ``max(rows, cols)``: entry (i, j) is
    ``(-1) ** popcount(i & j)``, as int64 +/-1, formed in ``rows x cols``
    memory.  The parity is summed bit by bit (``np.bitwise_count`` needs
    numpy 2)."""
    both = np.arange(rows)[:, None] & np.arange(cols)
    parity = np.zeros_like(both)
    for bit in range((max(rows, cols) - 1).bit_length()):
        parity ^= (both >> bit) & 1
    return 1 - 2 * parity


def default_code_bits(num_classes: int) -> int:
    """Smallest power of two >= max(16, 2 * num_classes)."""
    return next_pow2(max(16, 2 * num_classes))


@dataclass
class HadamardCodebook:
    """Class-to-codeword mapping with guaranteed pairwise distance K/2, for
    C <= K classes and codewords of K bits (a power of two >= 2).

    codewords:   C x K matrix of +/-1
    targets:     C x K matrix of {0, 1} floats, the bitwise remap of codewords
    """

    codewords: np.ndarray
    targets: np.ndarray


def derive_codebook(code_bits: int, num_classes: int) -> HadamardCodebook:
    """Select the first ``num_classes`` rows of the order-``code_bits``
    Sylvester matrix as codewords.

    Row selection is deterministic (rows 0..C-1): the distance guarantee
    holds for any subset, so nothing is lost and replays stay identical.
    Widths above MAX_CODE_BITS are refused before anything is built.
    """
    if code_bits < 2 or next_pow2(code_bits) != code_bits:
        raise ConfigError(f"code_bits must be a power of two >= 2, got {code_bits}")
    if code_bits > MAX_CODE_BITS:
        raise CapacityError(f"codebook of {code_bits} bits ({num_classes} classes) "
                            f"exceeds the {MAX_CODE_BITS}-bit limit")
    if num_classes < 1:
        raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
    if num_classes > code_bits:
        raise CapacityError(
            f"codebook with {code_bits} bits holds at most {code_bits} classes, "
            f"got {num_classes}")
    codewords = sylvester_rows(num_classes, code_bits)
    targets = ((codewords + 1) // 2).astype(np.float64)
    return HadamardCodebook(codewords, targets)


def save_codebook_csv(cb: HadamardCodebook, path) -> None:
    """Write the codebook as CSV: one row per class, entries +/-1."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in cb.codewords:
            writer.writerow(int(v) for v in row)
