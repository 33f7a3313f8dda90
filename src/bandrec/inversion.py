"""Recover cosine coefficients of a band from its Riemann-sum residuals.

The residual of the L-point sum aliases the coefficients as
R_L = sum_l q^l a_{lL}; on a triangular index set this relation inverts
exactly through the integer weights of `numtheory.b_coefficients`:

    a_k = sum_{n=1..floor(M/k)} b(n) R_{n*k}.

Every layout, and every cutoff of `convergence_curve`, applies this integer
linear map through one function, `_apply_weights`: a single `bincount` over
the pairs (n, k) with n*k <= M that sums each a_k in ascending n.

Three size layouts are supported.  `AllFrom1` uses sizes 1..M directly.
`EvenOnly` handles pi-periodic bands from even sizes: relabeling m = L/2
maps the problem onto the same inversion for the half-period coefficients.
`From2` omits size 1, which only ever enters a_1, so everything except the
cos(k) coefficient is still determined: it applies the same map with R_1 = 0
and drops a_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bands import FourierBand, GRID_SIZE, uniform_grid
from .core import Twist, ValidationError
from .numtheory import b_coefficients
from .riemann import residual_series


@dataclass(frozen=True)
class AllFrom1:
    """Sizes 1..M, recovering coefficients a_1..a_M."""

    M: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(range(1, self.M + 1))


@dataclass(frozen=True)
class EvenOnly:
    """Even sizes 2, 4, .., 2*M_even, recovering a_2, a_4, .., a_{2*M_even}."""

    M_even: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(range(2, 2 * self.M_even + 1, 2))


@dataclass(frozen=True)
class From2:
    """Sizes 2..M; a_1 is undetermined and reported as zero with a flag."""

    M: int

    def sizes(self) -> tuple[int, ...]:
        return tuple(range(2, self.M + 1))


SizeSet = AllFrom1 | EvenOnly | From2


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
    if kind == "all-from-1":
        candidate: SizeSet = AllFrom1(sizes[-1])
    elif kind == "even-only":
        if sizes[-1] % 2:
            raise ValidationError("even-only size set requires even sizes")
        candidate = EvenOnly(sizes[-1] // 2)
    elif kind == "from-2":
        candidate = From2(sizes[-1])
    else:
        raise ValidationError(f"unknown size-set kind {kind!r}")
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
    residuals); for `From2` the cos(k) coefficient is stored as zero and
    flagged undetermined.
    """
    if isinstance(size_set, AllFrom1):
        R = _checked_residual_vector(residuals, size_set.sizes())
        return FourierBand(0.0, _apply_weights(R, b_coefficients(twist, R.size)))
    if isinstance(size_set, EvenOnly):
        R_half = _checked_residual_vector(residuals, size_set.sizes())
        a_half = _apply_weights(R_half, b_coefficients(twist, R_half.size))
        coeffs = np.zeros(2 * size_set.M_even)
        coeffs[1::2] = a_half
        return FourierBand(0.0, coeffs)
    if isinstance(size_set, From2):
        R = np.zeros(size_set.M)  # R_1 only ever enters a_1, which is dropped
        R[1:] = _checked_residual_vector(residuals, size_set.sizes())
        return FourierBand(
            0.0, _apply_weights(R, b_coefficients(twist, R.size)), undetermined_a1=True
        )
    raise ValidationError(f"unsupported size set {size_set!r}")


def convergence_curve(
    band,
    cutoffs,
    twist: Twist = Twist.PBC,
) -> list[tuple[int, float]]:
    """Squared L2([0,2pi]) reconstruction error versus inversion cutoff.

    For each cutoff L the residuals of sizes 1..L are inverted and the
    reconstructed function compared to the band on a uniform grid.  The
    residuals are checked and the weights computed once, at the largest cutoff;
    each cutoff applies a prefix of the weights to a prefix of the residuals.
    """
    cutoffs = sorted(set(int(L) for L in cutoffs))
    if not cutoffs or cutoffs[0] < 1:
        raise ValidationError("cutoffs must be positive sizes")
    sizes = tuple(range(1, cutoffs[-1] + 1))
    R = _checked_residual_vector(residual_series(band, sizes, twist), sizes)
    c0 = band.mean()
    k = uniform_grid()
    f_exact = np.asarray(band.evaluate(k), dtype=float)
    cos_table = np.cos(np.multiply.outer(np.arange(1, sizes[-1] + 1), k))
    b = b_coefficients(twist, sizes[-1])  # b(n) does not depend on the cutoff
    dk = 2.0 * np.pi / GRID_SIZE
    out = []
    for L in cutoffs:
        f_approx = c0 + _apply_weights(R[:L], b[:L]) @ cos_table[:L]
        out.append((L, float(np.sum((f_approx - f_exact) ** 2) * dk)))
    return out
