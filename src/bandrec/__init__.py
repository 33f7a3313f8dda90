"""bandrec: quasi-particle dispersions from finite-size ground-state energies.

The pipeline has three legs: generate energies (exact diagonalization of
small spin chains, or synthetically from a known band), invert the energy
series into cosine coefficients of the dispersion, and classify the four
statistics/boundary readings of the same data.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# The BLAS products of the ED path (Lanczos dot products and projections) are
# memory-bound: a second thread costs far more CPU time than it saves in wall
# time, and the summation order it brings makes the energies depend on the
# core count. The pool size is fixed when numpy loads, so the default can only
# be set before that; a value the user exported is kept.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .bands import (
    AbsSineBand,
    FourierBand,
    MassiveSineBand,
    uniform_grid,
)
from .core import (
    ALL_HYPOTHESES,
    Hypothesis,
    NumericalError,
    Statistics,
    Twist,
    ValidationError,
)
from .inversion import (
    AllFrom1,
    EvenOnly,
    From2,
    convergence_curve,
    invert_coefficients,
    size_set_for,
)
from .lanczos import lowest_eigenpair
from .numtheory import b_coefficients, moebius_table
from .reconstruct import (
    MODEL_EXPONENTIAL,
    MODEL_POWER_LAW_2,
    classify,
    criterion_check,
    e_inf_sensitivity,
    extrapolate_e_inf,
    reconstruct_band,
)
from .riemann import (
    EnergySeries,
    momenta,
    residual_series,
    riemann_sum,
    synth_energy_series,
)
from .spinchain import (
    SectorBasis,
    SpinChain,
    SpinModelSpec,
    build_hamiltonian,
    energy_series,
)

__all__ = [
    "ALL_HYPOTHESES",
    "AbsSineBand",
    "AllFrom1",
    "EnergySeries",
    "EvenOnly",
    "FourierBand",
    "From2",
    "Hypothesis",
    "MODEL_EXPONENTIAL",
    "MODEL_POWER_LAW_2",
    "MassiveSineBand",
    "NumericalError",
    "SectorBasis",
    "SpinChain",
    "SpinModelSpec",
    "Statistics",
    "Twist",
    "ValidationError",
    "b_coefficients",
    "build_hamiltonian",
    "classify",
    "convergence_curve",
    "criterion_check",
    "e_inf_sensitivity",
    "energy_series",
    "extrapolate_e_inf",
    "invert_coefficients",
    "lowest_eigenpair",
    "moebius_table",
    "momenta",
    "reconstruct_band",
    "residual_series",
    "riemann_sum",
    "size_set_for",
    "synth_energy_series",
    "uniform_grid",
]
