"""Exact integer arithmetic behind the coefficient inversion.

Moebius function, Mertens function, divisor enumeration, and the
twist-dependent inversion weights b(n) that solve the divisor-sum identity

    sum_{m | j} q^(j/m) b(m) = delta_{1,j},    q = +1 (pbc) or -1 (abc).

The weights have a closed form in the Moebius function: b_pbc = mu, and
b_abc(n) = -mu(n) for odd n, b_abc(2^k m) = -2^(k-1) mu(m) for odd m, k >= 1.
mu(1..M) comes from one numpy sieve and Mertens from its cumulative sum.  The
tables grow geometrically and each new pair replaces the old one in a single
assignment, so concurrent readers always see a complete table without a lock.
`moebius` reads the table when it already covers n and otherwise, like
`divisors`, factors by trial division: a single large argument builds no sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Twist, ValidationError

def _sieve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only mu(0..n) and its cumulative sum, by an Eratosthenes sieve over primes."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    mertens = np.cumsum(mu)
    mu.setflags(write=False)
    mertens.setflags(write=False)
    return mu, mertens


# (mu, mertens) with mu[n] = mu(n) and mertens[n] = M(n) for n < len(mu); index 0 unused
_tables = _sieve(1)


def _tables_upto(M: int) -> tuple[np.ndarray, np.ndarray]:
    global _tables
    tables = _tables
    if len(tables[0]) <= M:
        tables = _sieve(max(M, 2 * len(tables[0]), 1024))
        _tables = tables
    return tables


def moebius_table(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 arrays mu(1..M) and mertens(1..M)."""
    if M < 1:
        raise ValidationError(f"moebius_table requires M >= 1, got {M}")
    mu, mertens = _tables_upto(M)
    return mu[1 : M + 1], mertens[1 : M + 1]


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending, by trial division."""
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def moebius(n: int) -> int:
    """Moebius function: (-1)^r for squarefree n with r prime factors, else 0."""
    if n < 1:
        raise ValidationError(f"moebius requires n >= 1, got {n}")
    mu = _tables[0]
    if n < len(mu):
        return int(mu[n])
    factors = _factorize(n)
    return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)


def mertens(x: int) -> int:
    """Partial sum of the Moebius function over 1..x."""
    if x < 1:
        raise ValidationError(f"mertens requires x >= 1, got {x}")
    return int(_tables_upto(x)[1][x])


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValidationError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, k in _factorize(n):
        powers = [p**e for e in range(1, k + 1)]
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs


@dataclass(frozen=True)
class BCoefficients:
    """Inversion weights b(1..M) for one twist; values are exact integers."""

    twist: Twist
    values: tuple[int, ...]

    def value(self, n: int) -> int:
        """b(n), 1-indexed."""
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)


def _b_weights(twist: Twist, M: int) -> np.ndarray:
    """b(1..M) as an int64 array (read-only for pbc), from the closed form in mu."""
    if M < 1:
        raise ValidationError(f"b_coefficients requires M >= 1, got {M}")
    mu = _tables_upto(M)[0]
    if twist is Twist.PBC:
        return mu[1 : M + 1]
    n = np.arange(1, M + 1)
    two_k = n & -n  # largest power of two dividing n
    return -mu[n // two_k] * np.maximum(two_k // 2, 1)


def b_coefficients(twist: Twist, M: int) -> BCoefficients:
    """First M inversion weights for the given twist, from the closed form in mu."""
    return BCoefficients(twist, tuple(_b_weights(twist, M).tolist()))
