"""Tier-1 test setup: one BLAS thread, as the benchmark runs.

The variables are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy.  Criterion 9 times epochs against
each other; a second BLAS thread would share the timed cells' cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
