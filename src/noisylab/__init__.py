"""Desk-scale laboratory for sample-selection training under label noise.

Importing the package loads numpy, then fixes glibc's malloc thresholds for
the process (:func:`_steady_heap`).  ``numpy.random`` loads at the first
draw: annotations name ``np.random.Generator`` as strings, since an
attribute lookup would load it at import.
"""

import ctypes
import os

import numpy  # before _steady_heap(): loaded at glibc's defaults, it leaves a lower peak RSS


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
