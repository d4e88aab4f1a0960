"""Recursive masked sequence-tagging semantic parser toolkit."""

import os

# One BLAS thread unless the caller chose otherwise: sums split across
# threads round differently, so checkpoints would depend on the core
# count. This runs before any rucca module imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
