"""Inverse problem at the physics level: energies -> dispersion hypotheses.

Under a hypothesis (statistics, twist) the per-site energies are read as
e_L = sign * (nu/2) * S_L(omega).  The residuals e_L - e_inf determine the
cosine coefficients of f = sign*(nu/2)*omega through the twist's inversion
weights; the band follows as omega = sign*(2/nu)*f.

The mean of the band is not an observable of the residuals: it is fixed by
e_inf and the hypothesis.  A band is reported admissible when it admits a
non-negative completion whose minimum sits at the zone center, the shape
every quasi-free reading produced by this inversion must have to describe
the observed data physically.  The completion is chosen in order of
preference: the literal mean sign*(2/nu)*e_inf if already non-negative,
the magnitude mean (2/nu)*|e_inf|, and finally the anchored mean that
lifts the minimum to zero.  Inadmissible hypotheses report the literal
band unchanged, so matched synthetic data round-trips exactly and a flipped
statistics sign returns the exact pointwise negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import FourierBand, GRID_SIZE, cosine_series_on_grid
from .core import ALL_HYPOTHESES, Hypothesis, Twist, ValidationError
from .inversion import SizeSet, invert_coefficients
from .riemann import EnergySeries, riemann_sum

#: relative positivity tolerance on the 4096-point grid
TOL_POS = 1e-9
#: relative tolerance for "minimum attained at the zone center"
TOL_ZONE = 1e-9

COMPLETION_LITERAL = "literal"
COMPLETION_MAGNITUDE = "magnitude"
COMPLETION_ANCHORED = "anchored"
COMPLETION_NONE = "none"


@dataclass
class ReconstructionResult:
    """Reconstructed band for one hypothesis, with admissibility diagnostics."""

    band: FourierBand
    hypothesis: Hypothesis
    admissible: bool
    min_band_value: float
    l2_residual_forward: float
    completion: str
    nu: float
    e_inf: float


@dataclass
class CriterionReport:
    """Defects of the quasi-free doubling identity E_2L = E_L(pbc) + E_L(abc)."""

    per_L_defect: dict[int, float]
    max_relative_defect: float


def reconstruct_band(
    series: EnergySeries,
    e_inf: float,
    nu: float,
    hypothesis: Hypothesis,
    size_set: SizeSet,
    data_twist: Twist | None = None,
) -> ReconstructionResult:
    """Reconstruct the dispersion consistent with a series under one hypothesis.

    `data_twist` names the boundary condition the energies were measured
    with; it defaults to `series.data_twist()`, the same for every
    hypothesis.  The hypothesis twist only selects the inversion weights:
    reinterpreting the same data under effective boundary conditions is the
    point of the classification.
    """
    if not (isinstance(e_inf, (int, float)) and math.isfinite(e_inf)):
        raise ValidationError(f"e_inf must be finite, got {e_inf!r}")
    if not (nu > 0):
        raise ValidationError(f"filling fraction must be positive, got {nu}")
    twist = series.data_twist(data_twist)
    residuals = {L: series.e(L, twist) - e_inf for L in size_set.sizes()}

    f_band = invert_coefficients(residuals, hypothesis.twist, size_set)
    scale = hypothesis.statistics.sign * 2.0 / nu
    omega_coeffs = scale * f_band.coeffs

    shape = cosine_series_on_grid(0.0, omega_coeffs, GRID_SIZE, Twist.PBC)
    shape_min = float(shape.min())
    shape_max = float(shape.max())
    spread = shape_max - shape_min
    mean_literal = scale * e_inf
    # a spread at rounding level means the shape is constant for all purposes
    noise_floor = 1e-12 * max(1.0, abs(mean_literal))
    if spread <= noise_floor:
        zone_center = True
    else:
        zone_center = shape[0] <= shape_min + TOL_ZONE * spread

    candidates = [
        (COMPLETION_LITERAL, mean_literal),
        (COMPLETION_MAGNITUDE, 2.0 / nu * abs(e_inf)),
        (COMPLETION_ANCHORED, -shape_min),
    ]
    completion = COMPLETION_NONE
    mean_used = mean_literal
    for name, mean in candidates:
        values = mean + shape
        if values.min() >= -TOL_POS * max(np.abs(values).max(), 1e-300):
            completion, mean_used = name, mean
            break

    admissible = bool(zone_center) and completion != COMPLETION_NONE
    if not admissible:
        completion, mean_used = COMPLETION_NONE, mean_literal

    band = FourierBand(float(mean_used), omega_coeffs, f_band.undetermined_a1)
    band_values = mean_used + shape
    min_band_value = float(band_values.min())

    sign_half_nu = hypothesis.statistics.sign * nu / 2.0
    defects = [
        sign_half_nu * riemann_sum(band, L, hypothesis.twist) - series.e(L, twist)
        for L in size_set.sizes()
    ]
    l2_residual = float(np.linalg.norm(defects))

    return ReconstructionResult(
        band=band,
        hypothesis=hypothesis,
        admissible=admissible,
        min_band_value=min_band_value,
        l2_residual_forward=l2_residual,
        completion=completion,
        nu=float(nu),
        e_inf=float(e_inf),
    )


def classify(
    series: EnergySeries,
    e_inf: float,
    nu: float,
    size_set: SizeSet,
    data_twist: Twist | None = None,
) -> list[ReconstructionResult]:
    """Reconstruct under all four hypotheses against the same observed data.

    Every hypothesis reads the energies of `series.data_twist(data_twist)`.
    """
    return [
        reconstruct_band(series, e_inf, nu, hypothesis, size_set, data_twist)
        for hypothesis in ALL_HYPOTHESES
    ]


def criterion_check(series: EnergySeries) -> CriterionReport:
    """Check the quasi-free doubling identity on every size triple present.

    For each L with a pbc entry at both L and 2L, the abc entry at L must
    exist; the defect E_2L(pbc) - E_L(pbc) - E_L(abc) vanishes identically
    for quasi-free data.
    """
    pbc_sizes = set(series.sizes(Twist.PBC))
    candidates = sorted(L for L in pbc_sizes if 2 * L in pbc_sizes)
    if not candidates:
        raise ValidationError(
            "criterion needs entries (L, pbc) and (2L, pbc) for at least one L"
        )
    defects: dict[int, float] = {}
    max_rel = 0.0
    for L in candidates:
        if not series.has(L, Twist.ABC):
            raise ValidationError(
                f"criterion triple incomplete: missing ({L}, abc) to go with "
                f"({L}, pbc) and ({2 * L}, pbc)"
            )
        defect = series.E(2 * L, Twist.PBC) - series.E(L, Twist.PBC) - series.E(L, Twist.ABC)
        defects[L] = defect
        max_rel = max(max_rel, abs(defect) / max(abs(series.E(2 * L, Twist.PBC)), 1e-30))
    return CriterionReport(per_L_defect=defects, max_relative_defect=max_rel)


MODEL_EXPONENTIAL = "exponential"
MODEL_POWER_LAW_2 = "power-law-2"


@dataclass
class ExtrapolationResult:
    """Estimated infinite-size energy density with a fit-quality diagnostic.

    `fallback` marks an estimate that is only the last value of the series:
    the exponential model does so when the series is flat to rounding or
    its step ratio leaves (0, 1).
    """

    e_inf: float
    fit_residual: float
    model: str
    fallback: bool = False


def extrapolate_e_inf(series: EnergySeries, model: str) -> ExtrapolationResult:
    """Estimate e_inf from the largest four sizes of the data twist.  Experimental.

    'exponential' fits e_L = e_inf + A*rho^L (equally spaced sizes required);
    'power-law-2' fits e_L = e_inf + B/L^2.  The estimate is returned, never
    fed into a reconstruction implicitly.
    """
    twist = series.data_twist()
    sizes = series.sizes(twist)
    if len(sizes) < 4:
        raise ValidationError(f"extrapolation needs >= 4 sizes, got {len(sizes)}")
    L = np.array(sizes[-4:], dtype=float)
    e = np.array([series.e(int(l), twist) for l in L])

    if model == MODEL_POWER_LAW_2:
        basis = np.column_stack([np.ones_like(L), 1.0 / L**2])
        coef, *_ = np.linalg.lstsq(basis, e, rcond=None)
        fit = basis @ coef
        return ExtrapolationResult(float(coef[0]), float(np.sqrt(np.mean((e - fit) ** 2))), model)

    if model == MODEL_EXPONENTIAL:
        steps = np.diff(L)
        if not np.allclose(steps, steps[0]):
            raise ValidationError("exponential extrapolation requires equally spaced sizes")
        h = steps[0]
        d = np.diff(e)
        scale = max(1.0, float(np.max(np.abs(e))))
        flat = abs(d[0] + d[1]) < 1e-14 * scale
        r = 0.0 if flat else (d[1] + d[2]) / (d[0] + d[1])
        if not (0.0 < r < 1.0):
            return ExtrapolationResult(float(e[-1]), float(np.max(np.abs(d))), model, True)
        rho = r ** (1.0 / h)
        amp = d[0] / (rho ** L[0] * (rho**h - 1.0))
        e_inf = float(np.mean(e - amp * rho**L))
        fit = e_inf + amp * rho**L
        return ExtrapolationResult(e_inf, float(np.sqrt(np.mean((e - fit) ** 2))), model)

    raise ValidationError(f"unknown extrapolation model {model!r}")

