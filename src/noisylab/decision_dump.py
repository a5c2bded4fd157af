"""The selection dump's CSV writer: every float as Python's ``repr`` writes it,
rendered by numpy rather than by one ``repr`` call per value.

Each float's shortest round-trip digits are found exactly in integer
arithmetic (Ryu-style, Adams 2018: :func:`_scaled`, :func:`_shortest`);
each row is laid out as NUL-padded byte fields, a table lookup per field
where one fits, and ``translate`` drops the NULs.  Values the integer path
cannot prove go through ``repr`` itself: NaN, the infinities, the zeros,
values outside [1e-7, 1e15) (negatives included), power-of-two mantissas
and exact ties between two shortest candidates.
"""

import numpy as np

from .errors import atomic_write

_HEADER = b"sample_index,variance,bce_loss,det_flag,cls_flag,combined_flag,is_truly_clean\n"
# A row's four 0/1 flag columns, indexed by det<<3 | cls<<2 | comb<<1 | clean.
_FLAG_TAILS = np.array([",".join(f"{code:04b}") + "\n" for code in range(16)], dtype="S8")
_PAIRS = np.array([f"{i:02d}" for i in range(100)], dtype="S2")
_P10 = np.array([10**i for i in range(19)], dtype=np.int64)  # 10**18 < 2**63
_P5 = np.array([5**i for i in range(25)], dtype=np.uint64)
# Nearest doubles to 10**-7 .. 10**14: searchsorted finds floor(log10 x) or, when
# the double for 10**i sits below it, one more; never one less.
_F10 = np.array([float(f"1e{i}") for i in range(-7, 15)])

# A float's field: a prefix, 17 digit columns each with a slot for the point
# after it, a suffix and the comma.  Tables of byte strings, so that a lookup
# copies one item per row.
_COLS = 17
_FIELD = 5 + 2 * _COLS + 4 + 1
_PREFIX = np.array(["", "0.", "0.0", "0.00", "0.000"], dtype="S5")
_SUFFIX = np.array([".0", "e-05", "e-06", "e-07", ""], dtype="S4")
_KEEP = np.array([b"\0" * (_COLS - n) + b"\xff" * n for n in range(_COLS + 1)],
                 dtype=f"S{_COLS}")  # row n: a mask keeping the last n columns
_DOTS = np.array([b"\0" * n + b"." for n in range(_COLS)] + [b""],
                 dtype=f"S{_COLS}")  # row n: the point after column n; row 17: none


def _layout(p: int, n: int) -> tuple:
    """``(prefix, shown, dot, suffix, zeros)`` rows of the tables above for a
    float whose shortest digits are n digits with point p (x ~ 0.digits *
    10**p): repr's fixed notation, from p -3 on, puts "0." and -p zeros before
    the digits, or ``zeros`` zeros after them up to the point and then ".0";
    its exponent notation puts the point after the first digit and the
    exponent after the last.  ``shown`` counts the digit columns written."""
    fixed = p > -4
    shown = p if fixed and p >= n else n
    before = p if fixed else 1  # shown digits before the point
    return (1 - p if fixed and p <= 0 else 0, shown,
            _COLS - 1 - shown + before if 0 < before < shown else _COLS,
            (0 if p >= n else 4) if fixed else -3 - p, max(p - n, 0))


# Indexed by (p + 6) * 17 + n - 1, for p -6..16 and n 1..17: all that occur in range.
_PREFIX_AT, _SHOWN, _DOT_AT, _SUFFIX_AT, _ZEROS = (np.array(column, dtype=np.int8) for column in
                                                   zip(*(_layout(p, n) for p in range(-6, 17)
                                                         for n in range(1, 18))))
_BLOCK = 2048  # rows rendered at once: bounds the temporaries, about 0.4 KB a row


def _bytes(items: np.ndarray) -> np.ndarray:
    """A 1-D array of byte strings as its ``(n, itemsize)`` uint8 bytes."""
    return items.view(np.uint8).reshape(items.size, items.itemsize)


def _digits(values: np.ndarray, width: int, shown: np.ndarray) -> np.ndarray:
    """ASCII digits of non-negative int64 ``values`` below 10**width, right-aligned
    in ``width`` (at most 17) columns, of which each row keeps its last ``shown``
    and the rest are NUL."""
    pairs = np.empty((values.size, (width + 1) // 2), np.uint8)
    for i in range(pairs.shape[1] - 1, -1, -1):
        high = values // 100
        pairs[:, i] = values - 100 * high
        values = high
    return _PAIRS[pairs].view(np.uint8)[:, -width:] & _bytes(_KEEP[shown])[:, -width:]


def _scaled(x: np.ndarray):
    """``(k, d, r, s)`` with x * 10**k = d + r / 2**s exactly, 0 <= r < 2**s, for
    positive floats x = m * 2**e in [1e-7, 1e15): k = 17 - floor(log10 x), or
    one less, so d has 17 or 18 digits, and s = -(k + e) >= 0.  d and r are
    m * 5**k, at most 2**109, split at bit s; the product is formed from
    32-bit limbs."""
    bits = x.view(np.uint64)
    k = 25 - np.searchsorted(_F10, x, side="right")
    s = 1075 - k
    s -= (bits >> 52).view(np.int64)
    ml, mh = bits & 0xFFFFFFFF, ((bits >> 32) & 0xFFFFF) | 0x100000  # m's limbs
    ph = _P5[k]
    pl = ph & 0xFFFFFFFF
    ph >>= 32
    mid = mh * pl  # + ml * ph below: less than 2**61
    mid += ml * ph
    mh *= ph  # the high limb, hi
    ml *= pl  # the low limb, lo
    mh += mid >> 32
    mid <<= 32
    ml += mid
    mh += ml < mid  # the carry
    s = s.view(np.uint64)
    mh <<= 64 - s
    mh |= ml >> s  # d, below 10**18
    ml &= (1 << s) - 1  # r
    return k, mh.view(np.int64), ml.view(np.int64), s.view(np.int64)


def _shortest(x: np.ndarray):
    """``(digits, ndig, point, exact)`` of positive floats in [1e-7, 1e15): the
    shortest digit string that reads back as x, and of two, the one nearer x
    (repr's choice), as an int of ndig digits with x ~ 0.digits * 10**point.
    ``exact`` is False where that is not proven: a power-of-two mantissa,
    whose lower neighbour is nearer than its upper, and two shortest
    candidates equally near x.

    An integer C reads back as x * 10**k = d + r / 2**s (:func:`_scaled`) iff
    |(C - d) * 2**(s+1) - 2r| < 5**k, and never with equality: the left side
    is even, the right odd.  So those C are the integers lo..hi below.
    """
    k, d, r, s = _scaled(x)
    r <<= 1  # 2r from here on
    lo = _P5[k].view(np.int64)
    hi = lo + r
    lo -= r
    s += 1
    lo >>= s
    hi >>= s
    s -= 1
    np.subtract(d, lo, out=lo)
    hi += d
    drop = np.zeros_like(d)  # trailing digits the shortest candidate drops
    for unit in _P10[1:]:
        fits = hi // unit * unit >= lo  # a multiple of unit lies in lo..hi
        if not fits.any():
            break
        drop += fits
    k -= drop
    unit = _P10[drop]
    below = d // unit
    below *= unit
    above = below + unit
    # above - x * 10**k less x * 10**k - below, as a sign: 2(d - below) - unit
    # + 2r / 2**s, where 2r / 2**s lies in [0, 2)
    d -= below
    d *= 2
    d -= unit
    lean = np.clip(d, -2, 1, out=d)
    lean *= 1 << s
    lean += r
    tie = (lean == 0) & (below >= lo) & (above <= hi)
    digits = np.where((above <= hi) & ((below < lo) | (lean > 0)), above, below)
    digits //= unit
    ndig = np.searchsorted(_P10, digits, side="right")
    return digits, ndig, ndig - k, ~tie & (x.view(np.uint64) & 0xFFFFFFFFFFFFF != 0)


def _render_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr(float(v)) + ","`` for each v of ``x`` into the rows of ``out``,
    a ``(x.size, _FIELD)`` uint8 view, padded with NULs."""
    in_range = (x >= 1e-7) & (x < 1e15)
    digits, ndig, point, exact = _shortest(np.where(in_range, x, 1.5))
    layout = (point + 6) * 17 + ndig - 1
    out[:, :5] = _bytes(_PREFIX[_PREFIX_AT[layout]])
    cells = out[:, 5:5 + 2 * _COLS].reshape(x.size, _COLS, 2)
    cells[:, :, 0] = _digits(digits * _P10[_ZEROS[layout]], _COLS, _SHOWN[layout])
    cells[:, :, 1] = _bytes(_DOTS[_DOT_AT[layout]])
    out[:, -5:-1] = _bytes(_SUFFIX[_SUFFIX_AT[layout]])
    out[:, -1] = ord(",")
    slow = ~(in_range & exact)
    if slow.any():
        out[slow, :-1] = _bytes(np.array([repr(v) for v in x[slow].tolist()],
                                         dtype=f"S{_FIELD - 1}"))


def write_decisions(path, flags, clean_mask) -> None:
    """Write :func:`noisylab.selection.dump_decisions_csv`'s file: ``flags``
    (a ``BatchFlags``) and ``clean_mask``, one row per sample."""
    n = clean_mask.size
    codes = (flags.detection << 3) | (flags.classifier << 2) | (flags.combined << 1) | clean_mask
    width = len(str(max(n - 1, 0)))
    index = np.arange(n)
    index = _digits(index, width, np.maximum(np.searchsorted(_P10, index, side="right"), 1))
    # A row is two equal units, one per float field: the index and its comma
    # before the first field, the flags after the second.
    lead = width + 1
    unit = lead + _FIELD + 8
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            buf = bytearray(2 * unit * (stop - start))
            rows = np.frombuffer(buf, np.uint8).reshape(stop - start, 2, unit)
            rows[:, 0, :width] = index[start:stop]
            rows[:, 0, width] = ord(",")
            rows[:, 1, -8:] = _bytes(_FLAG_TAILS[codes[start:stop]])
            _render_floats(np.stack((flags.variance[start:stop], flags.bce[start:stop]),
                                    axis=1).ravel(), rows.reshape(-1, unit)[:, lead:-8])
            fh.write(buf.translate(None, b"\0"))
