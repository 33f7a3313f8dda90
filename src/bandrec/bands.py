"""Band representations: cosine series and closed-form dispersions.

A band is a `FourierBand`, which stores its mean value and cosine
coefficients, or a closed form with ``mean()`` and a vectorized, 2pi-periodic
``evaluate(k)`` that is even about k=0.  Every band is sampled one way,
through `sample(band, L, twist)`: its values at the L twisted momenta
`momenta(L, twist)`.  A cosine series gets there by folding its coefficients
mod L and one FFT, the same aliasing that makes its Riemann sums exact; a
closed form is evaluated at the momenta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Twist

#: number of momenta used for positivity checks, projections and error curves
GRID_SIZE = 4096


def momenta(L: int, twist: Twist) -> np.ndarray:
    """The L twisted Brillouin-zone momenta k_j = (2*pi*j + theta)/L, j = 0..L-1."""
    return (2.0 * np.pi * np.arange(L) + twist.theta) / L


def sample(band: Band, L: int, twist: Twist) -> np.ndarray:
    """The band's values at `momenta(L, twist)`."""
    if isinstance(band, FourierBand):
        return cosine_series_on_grid(band.c0, band.coeffs, L, twist)
    return np.asarray(band.evaluate(momenta(L, twist)), dtype=float)


def cosine_series_on_grid(c0: float, coeffs: np.ndarray, L: int, twist: Twist) -> np.ndarray:
    """Evaluate c0 + sum_n coeffs[n-1] * cos(n*k) on the L twisted momenta (2*pi*j + theta)/L.

    With n = l*L + r, cos(n*k_j) = Re q^l e^{i*theta*r/L} e^{2*pi*i*r*j/L}: the
    coefficients fold mod L with sign q^l, take the phase of their residue,
    and one FFT does the rest, so the cost is O(M + L log L).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows = -(-(coeffs.size + 1) // L)
    padded = np.zeros(rows * L)
    padded[1 : coeffs.size + 1] = coeffs
    folded = (float(twist.q) ** np.arange(rows)) @ padded.reshape(rows, L)
    phased = folded * np.exp(1j * twist.theta / L * np.arange(L))
    return c0 + np.fft.fft(phased.conj()).real


class FourierBand:
    """A real even 2pi-periodic function: mean value plus cosine coefficients.

    When `undetermined_a1` is set, the stored first coefficient is zero and
    the band is only known modulo an additive cos(k) term.
    """

    __slots__ = ("c0", "coeffs", "undetermined_a1")

    def __init__(self, c0: float, coeffs=(), undetermined_a1: bool = False):
        arr = np.array(coeffs, dtype=float).reshape(-1)
        if undetermined_a1:
            if arr.size == 0:
                arr = np.zeros(1)
            arr[0] = 0.0
        arr.setflags(write=False)
        self.c0 = float(c0)
        self.coeffs = arr
        self.undetermined_a1 = bool(undetermined_a1)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def mean(self) -> float:
        return self.c0

    def __repr__(self) -> str:
        return (
            f"FourierBand(c0={self.c0!r}, degree={self.degree}, "
            f"undetermined_a1={self.undetermined_a1})"
        )


@dataclass(frozen=True)
class MassiveSineBand:
    """J * sqrt(sin^2(k/2) + m^2): a periodic massive dispersion, gapless at m=0."""

    J: float = 1.0
    m: float = 0.0

    def evaluate(self, k):
        k = np.asarray(k, dtype=float)
        return self.J * np.sqrt(np.sin(k / 2.0) ** 2 + self.m**2)

    def mean(self) -> float:
        """(2J/pi) * sqrt(1+m^2) * E(k), k^2 = 1/(1+m^2), with E from two AGMs (A&S 17.6).

        Legendre's relation gives E(k) = M(1, k) + K(k) * (K' - E')/K', a sum of
        positive terms, so no digits cancel as m -> 0 where K(k) diverges.
        """
        if self.m == 0.0:
            return 2.0 * self.J / math.pi
        s = math.hypot(1.0, self.m)
        k, k_comp = 1.0 / s, abs(self.m) / s
        agm_k_comp, _ = _agm(k_comp, k)  # K(k) = pi / (2 agm_k_comp)
        agm_k, deficit = _agm(k, k_comp)  # (K' - E')/K' = deficit
        return self.J * s * (2.0 * agm_k / math.pi + deficit / agm_k_comp)


def _agm(b: float, c: float) -> tuple[float, float]:
    """M(1, b) and sum_{n>=0} 2^(n-1) c_n^2 for c = c_0 = sqrt(1 - b^2)."""
    a, weighted = 1.0, 0.5 * c * c
    for n in range(1, 64):
        # c_{n+1} = c_n^2 / (4 a_{n+1}) equals (a_n - b_n)/2 without the cancellation
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), c * c / (2.0 * (a + b))
        weighted += 2.0 ** (n - 1) * c * c
        if c <= 1e-17 * a:
            break
    return a, weighted


@dataclass(frozen=True)
class AbsSineBand:
    """amplitude * |sin k|; pi-periodic, so only even cosine coefficients."""

    amplitude: float = 1.0

    def evaluate(self, k):
        return self.amplitude * np.abs(np.sin(np.asarray(k, dtype=float)))

    def mean(self) -> float:
        return 2.0 * self.amplitude / math.pi


Band = FourierBand | MassiveSineBand | AbsSineBand
