"""Exact integer arithmetic behind the coefficient inversion.

The Moebius and Mertens functions, and the twist-dependent inversion weights
b(n) that solve the divisor-sum identity

    sum_{m | j} q^(j/m) b(m) = delta_{1,j},    q = +1 (pbc) or -1 (abc).

The weights have a closed form in the Moebius function: b_pbc = mu, and
b_abc(n) = -mu(n) for odd n, b_abc(2^k m) = -2^(k-1) mu(m) for odd m, k >= 1.
Every call runs one fresh numpy sieve for mu(1..M); Mertens is its
cumulative sum.  Nothing is cached, and b(n) does not depend on M, so a
prefix of b(1..M) is b(1..M') for every M' <= M.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Twist, ValidationError


def _moebius_upto(M: int) -> np.ndarray:
    """mu(0..M) as int64, by an Eratosthenes sieve over primes; mu(0) = 0."""
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    is_prime = np.ones(M + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(M) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mu = np.ones(M + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    return mu


def moebius_table(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 arrays mu(1..M) and mertens(1..M)."""
    mu = _moebius_upto(M)[1:]
    mertens = np.cumsum(mu)
    mu.setflags(write=False)
    mertens.setflags(write=False)
    return mu, mertens


def b_coefficients(twist: Twist, M: int) -> np.ndarray:
    """Read-only int64 inversion weights b(1..M) for one twist, from the closed form in mu."""
    mu = _moebius_upto(M)
    if twist is Twist.PBC:
        b = mu[1:]
    else:
        n = np.arange(1, M + 1)
        two_k = n & -n  # largest power of two dividing n
        b = -mu[n // two_k] * np.maximum(two_k // 2, 1)
    b.setflags(write=False)
    return b
