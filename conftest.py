"""Set-up for every test directory, loaded before any test module: BLAS
runs on one thread unless the caller chose otherwise, as it does under
the rucca command. Test modules import numpy before rucca, so the pin in
rucca/__init__.py would come too late for them."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
