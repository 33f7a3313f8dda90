"""Recover cosine coefficients of a band from its Riemann-sum residuals.

The residual of the L-point sum aliases the coefficients as
R_L = sum_l q^l a_{lL}; on a triangular index set this relation inverts
exactly through the integer weights of `numtheory.b_coefficients`:

    a_k = sum_{n=1..floor(M/k)} b(n) R_{n*k}.

Every layout, and every cutoff of `convergence_curve`, applies this integer
linear map through one function, `_apply_weights`: a single `bincount` over
the pairs (n, k) with n*k <= M that sums each a_k in ascending n.

A `SizeSet(kind, last)` names one of three size layouts, each the sizes
first, first + step, .., last.  'all-from-1' uses sizes 1..M directly.
'even-only' handles pi-periodic bands from even sizes: relabeling m = L/step
maps the problem onto the same inversion for the half-period coefficients,
which land on every step-th coefficient.  'from-2' omits size 1, which only
ever enters a_1, so everything except the cos(k) coefficient is still
determined: it applies the same map with R_1 = 0 and flags a_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bands import GRID_SIZE, FourierBand, cosine_series_on_grid, sample
from .core import Twist, ValidationError
from .numtheory import b_coefficients
from .riemann import residual_series


#: each layout's sizes run first, first + step, .., last
_LAYOUTS = {"all-from-1": (1, 1), "even-only": (2, 2), "from-2": (2, 1)}


@dataclass(frozen=True)
class SizeSet:
    """One of the three size layouts, up to and including size `last`."""

    kind: str
    last: int

    def __post_init__(self):
        if self.kind not in _LAYOUTS:
            raise ValidationError(f"unknown size-set kind {self.kind!r}")

    def sizes(self) -> tuple[int, ...]:
        first, step = _LAYOUTS[self.kind]
        return tuple(range(first, self.last + 1, step))


def size_set_for(sizes, kind: str | None = None) -> SizeSet:
    """Build a size set from observed sizes, optionally forcing a kind.

    `kind` is one of 'all-from-1', 'even-only', 'from-2' or None (infer).
    Arbitrary non-contiguous size sets are rejected.
    """
    sizes = tuple(sorted(set(int(s) for s in sizes)))
    if not sizes:
        raise ValidationError("empty size set")
    if kind in (None, "auto"):
        if sizes[0] == 1:
            kind = "all-from-1"
        elif all(s % 2 == 0 for s in sizes):
            kind = "even-only"
        else:
            kind = "from-2"
    candidate = SizeSet(kind, sizes[-1])
    if candidate.sizes() != sizes:
        raise ValidationError(
            f"unsupported size set {sizes}: expected {candidate.sizes()} for "
            f"kind {kind!r}; arbitrary size sets are not invertible"
        )
    return candidate


def _checked_residual_vector(
    residuals: Mapping[int, float], sizes: tuple[int, ...]
) -> np.ndarray:
    missing = [L for L in sizes if L not in residuals]
    if missing:
        raise ValidationError(f"residuals missing required sizes {missing}")
    vec = np.array([residuals[L] for L in sizes], dtype=float)
    if not np.all(np.isfinite(vec)):
        bad = [L for L, v in zip(sizes, vec) if not np.isfinite(v)]
        raise ValidationError(f"non-finite residuals at sizes {bad}")
    return vec


def _apply_weights(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply a_k = sum_n b(n) R_{nk} on sizes 1..M (R and b are 0-indexed by size-1).

    The pairs (n, k) with n*k <= M are listed n-major, so `bincount` adds the
    terms of each a_k in ascending n onto +0.0, exactly as a scalar loop over
    n would.  A per-k `cumsum` would turn some zero sums into -0.0, and a
    BLAS dot product may reorder the terms; both would change output bytes.
    The pair indices are int32 and the terms are weighted in place, so the
    transient arrays hold about 26 bytes per pair (50 with int64 indices).
    """
    M = R.size
    counts = M // np.arange(1, M + 1, dtype=np.int32)
    if counts.sum() >= 2**31:  # about M ln M pairs: M beyond 10^8
        raise ValidationError(f"{M} sizes are too many to invert")
    n0 = np.repeat(np.arange(M, dtype=np.int32), counts)  # n - 1
    k0 = np.arange(n0.size, dtype=np.int32)  # k - 1
    k0 -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
    terms = R[(n0 + 1) * (k0 + 1) - 1]
    terms *= b[n0]  # b(n) * R_{nk}: exact integers as floats, so bit for bit
    return np.bincount(k0, weights=terms, minlength=M)


def invert_coefficients(
    residuals: Mapping[int, float], twist: Twist, size_set: SizeSet
) -> FourierBand:
    """Cosine coefficients consistent with the given residuals.

    Returns a FourierBand with zero mean (the mean is not recoverable from
    residuals); for 'from-2' the cos(k) coefficient is stored as zero and
    flagged undetermined.
    """
    first, step = _LAYOUTS[size_set.kind]
    # sizes step, 2*step, .., last carry the residuals; those below `first`
    # (R_1 of from-2) only ever enter a_1, which is then flagged undetermined
    R = np.zeros(size_set.last // step)
    R[first // step - 1 :] = _checked_residual_vector(residuals, size_set.sizes())
    coeffs = np.zeros(size_set.last)
    coeffs[step - 1 :: step] = _apply_weights(R, b_coefficients(twist, R.size))
    return FourierBand(0.0, coeffs, undetermined_a1=first > step)


def convergence_curve(
    band,
    cutoffs,
    twist: Twist = Twist.PBC,
) -> list[tuple[int, float]]:
    """Squared L2([0,2pi]) reconstruction error versus inversion cutoff.

    For each cutoff L the residuals of sizes 1..L are inverted and the
    reconstructed function compared to the band on the GRID_SIZE periodic
    momenta.  Both sides are `bands` samples: the band through `sample`, each
    reconstruction through the fold and one FFT of `cosine_series_on_grid`.
    The residuals are checked and the weights computed once, at the largest
    cutoff; each cutoff applies a prefix of the weights to a prefix of the
    residuals.
    """
    cutoffs = sorted(set(int(L) for L in cutoffs))
    if not cutoffs or cutoffs[0] < 1:
        raise ValidationError("cutoffs must be positive sizes")
    sizes = tuple(range(1, cutoffs[-1] + 1))
    R = _checked_residual_vector(residual_series(band, sizes, twist), sizes)
    c0 = band.mean()
    f_exact = sample(band, GRID_SIZE, Twist.PBC)
    b = b_coefficients(twist, sizes[-1])  # b(n) does not depend on the cutoff
    dk = 2.0 * np.pi / GRID_SIZE
    out = []
    for L in cutoffs:
        coeffs = _apply_weights(R[:L], b[:L])
        f_approx = cosine_series_on_grid(c0, coeffs, GRID_SIZE, Twist.PBC)
        out.append((L, float(np.sum((f_approx - f_exact) ** 2) * dk)))
    return out
