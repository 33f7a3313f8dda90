"""bandrec: quasi-particle dispersions from finite-size ground-state energies.

The pipeline has three legs: generate energies (exact diagonalization of
small spin chains, or synthetically from a known band), invert the energy
series into cosine coefficients of the dispersion, and classify the four
statistics/boundary readings of the same data.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# The BLAS calls of the ED path (the Lanczos dot products and norms) are
# memory-bound: a second thread costs far more CPU time than it saves in wall
# time, and the summation order it brings makes the energies depend on the
# core count. The pool size is fixed when numpy loads, so the default can only
# be set before that; a value the user exported is kept.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .bands import MassiveSineBand
from .core import (
    ALL_HYPOTHESES,
    Hypothesis,
    NumericalError,
    Statistics,
    Twist,
    ValidationError,
)
from .inversion import convergence_curve, size_set_for
from .numtheory import b_coefficients, moebius_table
from .reconstruct import classify, criterion_check, extrapolate_e_inf, reconstruct_band
from .riemann import synth_energy_series
from .spinchain import SpinChain, energy_series

# exactly the names the command line and the README use
__all__ = [
    "ALL_HYPOTHESES",
    "Hypothesis",
    "MassiveSineBand",
    "NumericalError",
    "SpinChain",
    "Statistics",
    "Twist",
    "ValidationError",
    "b_coefficients",
    "classify",
    "convergence_curve",
    "criterion_check",
    "energy_series",
    "extrapolate_e_inf",
    "moebius_table",
    "reconstruct_band",
    "size_set_for",
    "synth_energy_series",
]
