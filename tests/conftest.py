"""Test-session defaults that must be in place before numpy loads.

pytest imports test modules, and with them numpy, before any `import
bandrec` can fix the BLAS thread pool, so the dense references of the tests
would otherwise run on OpenBLAS's default thread count. One thread keeps
them off cores that other work needs; a value the user exported is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
