"""Forward model: partial Riemann sums over the discretized Brillouin zone.

The average of a band over the L twisted momenta k_n = (2*pi*n + theta)/L
converges to the band mean; for a cosine series it collapses to the finite
aliasing sum  c0 + sum_l q^l a_{lL},  which is used for exact evaluation.
A closed form is averaged over its samples, `bands.sample`.
`synth_energy_series` turns a non-negative dispersion into the ground-state
energies of the corresponding quasi-free chain; its positivity check reads
the same samples for every kind of band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .bands import Band, FourierBand, sample
from .core import Statistics, Twist, ValidationError, sorted_sizes


def riemann_sum(band: Band, L: int, twist: Twist) -> float:
    """Average of the band over the L twisted momenta.

    Cosine-series bands are evaluated exactly through the aliasing sum;
    closed forms by averaging their samples.
    """
    if isinstance(band, FourierBand):
        q = twist.q
        total = band.c0
        sign = q
        for idx in range(L, band.degree + 1, L):
            total += sign * band.coeffs[idx - 1]
            sign *= q
        return float(total)
    return float(np.mean(sample(band, L, twist)))


def residual_series(band: Band, sizes: Iterable[int], twist: Twist) -> dict[int, float]:
    """Riemann-sum residuals S_L - c0 for each requested size."""
    c0 = band.mean()
    return {L: riemann_sum(band, L, twist) - c0 for L in sorted(set(sizes))}


@dataclass
class EnergySeries:
    """Ground-state energies indexed by (size, twist).

    Only totals are stored; per-site values are derived, so the two agree
    to within one rounding.  Iteration over one twist is by ascending size.
    """

    nu: float | None = None
    e_inf: float | None = None
    model: str | None = None
    _entries: dict[tuple[int, Twist], float] = field(default_factory=dict, repr=False)

    def add(self, L: int, twist: Twist, E_total: float) -> None:
        if L < 1:
            raise ValidationError(f"size must be positive, got {L}")
        if not np.isfinite(E_total):
            raise ValidationError(f"non-finite energy for L={L}, {twist}")
        key = (L, twist)
        if key in self._entries:
            raise ValidationError(f"duplicate entry for L={L}, twist={twist}")
        self._entries[key] = float(E_total)

    def has(self, L: int, twist: Twist) -> bool:
        return (L, twist) in self._entries

    def E(self, L: int, twist: Twist) -> float:
        """Total ground-state energy."""
        try:
            return self._entries[(L, twist)]
        except KeyError:
            raise ValidationError(f"series has no entry for L={L}, twist={twist}") from None

    def e(self, L: int, twist: Twist) -> float:
        """Ground-state energy per site."""
        return self.E(L, twist) / L

    def sizes(self, twist: Twist) -> tuple[int, ...]:
        return tuple(sorted(L for (L, tw) in self._entries if tw is twist))

    def twists(self) -> tuple[Twist, ...]:
        present = {tw for (_, tw) in self._entries}
        return tuple(tw for tw in (Twist.PBC, Twist.ABC) if tw in present)

    def data_twist(self, explicit: Twist | None = None) -> Twist:
        """The twist the energies were measured with.

        That is `explicit` when given, else the one twist present, else pbc.
        """
        if explicit is not None:
            return explicit
        present = self.twists()
        if not present:
            raise ValidationError("energy series is empty")
        return present[0] if len(present) == 1 else Twist.PBC

    def items(self) -> Iterator[tuple[int, Twist, float]]:
        for tw in (Twist.PBC, Twist.ABC):
            for L in self.sizes(tw):
                yield L, tw, self._entries[(L, tw)]


def synth_energy_series(
    dispersion: Band,
    statistics: Statistics,
    nu: float,
    twist: Twist,
    sizes: Iterable[int],
) -> EnergySeries:
    """Energy series of the quasi-free chain with the given one-particle band.

    Per-site energy is  sign(statistics) * (nu/2) * S_L(dispersion).  The
    dispersion must be non-negative on every sampling grid used.
    """
    if nu <= 0:
        raise ValidationError(f"filling fraction must be positive, got {nu}")
    sizes = sorted_sizes(sizes)
    if not sizes:
        raise ValidationError("no sizes requested")
    if sizes[0] < 1:
        raise ValidationError(f"sizes must be >= 1, got {sizes[0]}")
    for L in sizes:
        samples = sample(dispersion, L, twist)
        scale = max(1.0, float(np.max(np.abs(samples))))
        if samples.min() < -1e-12 * scale:
            raise ValidationError(
                f"dispersion is negative on the L={L} grid (min {samples.min():.3g}); "
                "not a physical band"
            )
    factor = statistics.sign * nu / 2.0
    series = EnergySeries(nu=nu, e_inf=factor * dispersion.mean())
    for L in sizes:
        e_site = factor * riemann_sum(dispersion, L, twist)
        series.add(L, twist, L * e_site)
    return series
