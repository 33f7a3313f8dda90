"""Lanczos iteration for the lowest eigenvalue of a symmetric operator.

Every new Lanczos vector is fully reorthogonalized: desk-scale Krylov
bases are small enough that keeping them exactly orthogonal is cheap, and
ghost copies of converged eigenvalues would corrupt the degeneracy warning.
Each new vector gets one block-wise classical Gram-Schmidt pass against
the stored basis, and a second one only when the DGKS test asks for it:
when the first pass shrank the vector below 1/sqrt(2) of its norm, so
that cancellation may have left it with a visible component along the
basis (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772, 1976).
The start vector is drawn from a seeded generator so runs are reproducible.
SciPy's tridiagonal eigensolvers are imported on first use, so importing
this module (and the package) needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalError, ValidationError


#: Krylov rows are stored in blocks of this many, each reserved when the
#: iterations reach it: never max_iter * dim up front, and no row is copied.
KRYLOV_BLOCK = 64

#: DGKS test: a reorthogonalization pass that keeps at least this share of
#: the norm of w needs no second pass
DGKS_RATIO = 0.5**0.5


@dataclass(frozen=True)
class LanczosConfig:
    tol_energy: float = 1e-12
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.tol_energy <= 0:
            raise ValidationError("tol_energy must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


@dataclass
class LanczosResult:
    energy: float
    residual_norm: float
    degeneracy_warning: bool
    iterations: int


def lowest_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    config: LanczosConfig | None = None,
) -> tuple[LanczosResult, np.ndarray]:
    """Ground eigenvalue and eigenvector of a real symmetric operator.

    Raises NumericalError (with `best_estimate` attached) if the Ritz value
    has not settled within `max_iter` iterations, or if the Krylov space
    became invariant without the Ritz pair passing the residual bound.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    config = config or LanczosConfig()
    if dim < 1:
        raise ValidationError("operator dimension must be >= 1")
    if dim == 1:
        v = np.ones(1)
        energy = float(matvec(v)[0])
        return LanczosResult(energy, 0.0, False, 1), v

    rng = np.random.default_rng(config.seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    max_steps = min(config.max_iter, dim)
    block = min(max_steps, KRYLOV_BLOCK)
    blocks = [np.empty((block, dim))]

    def row(i: int) -> np.ndarray:
        return blocks[i // block][i % block]

    alphas: list[float] = []
    betas: list[float] = []
    row(0)[:] = v
    prev_theta = np.inf
    stable = 0
    converged = False
    steps = 0
    exhausted = False

    for j in range(max_steps):
        w = matvec(row(j))
        alpha = float(row(j) @ w)
        alphas.append(alpha)
        w -= alpha * row(j)
        if j > 0:
            w -= betas[-1] * row(j - 1)
        beta = float(np.linalg.norm(w))
        for _ in range(2):
            before = beta
            for k, blk in enumerate(blocks):
                basis = blk[: j + 1 - k * block]
                w -= basis.T @ (basis @ w)
            beta = float(np.linalg.norm(w))
            if beta >= DGKS_RATIO * before:
                break
        steps = j + 1

        ritz_vals = eigvalsh_tridiagonal(np.array(alphas), np.array(betas[:j]))
        theta = float(ritz_vals[0])
        norm_est = max(1.0, abs(ritz_vals[0]), abs(ritz_vals[-1]))
        if abs(theta - prev_theta) <= config.tol_energy * max(1.0, abs(theta)):
            stable += 1
        else:
            stable = 0
        prev_theta = theta

        if beta <= 1e-14 * norm_est:
            exhausted = True  # the Krylov space looks invariant: T is exact on it
            break
        if stable >= 2 and steps >= 3:
            # the Ritz value has settled; accept once the residual bound
            # |beta * y_last| guarantees the eigenpair itself is converged
            _, y = _ground_ritz_pair(alphas, betas[:j])
            if beta * abs(y[-1]) <= 0.5e-8 * norm_est:
                converged = True
                break
        if j + 1 < max_steps:
            if (j + 1) % block == 0:
                blocks.append(np.empty((block, dim)))
            row(j + 1)[:] = w / beta
            betas.append(beta)

    if steps == dim and not exhausted:
        converged = True  # full Krylov basis reached

    theta, y = _ground_ritz_pair(alphas, betas[: steps - 1])
    parts = np.split(y, range(block, steps, block))  # one part of y per block
    vector = sum(part @ blk[: len(part)] for part, blk in zip(parts, blocks))
    vector /= np.linalg.norm(vector)
    residual = float(np.linalg.norm(matvec(vector) - theta * vector))

    if exhausted:
        # beta was judged against the widest Ritz value, so a very wide
        # spectrum can stop here far from the ground state: check the pair
        converged = residual <= 0.5e-8 * max(1.0, abs(theta))
    if not converged:
        err = NumericalError(
            f"Lanczos did not converge in {steps} iterations "
            f"(best estimate {theta:.15g}, residual {residual:.3g})"
        )
        err.best_estimate = theta
        raise err

    ritz = eigvalsh_tridiagonal(np.array(alphas), np.array(betas[: steps - 1]))
    degenerate = bool(len(ritz) >= 2 and ritz[1] - ritz[0] <= 1e-10)
    return LanczosResult(float(theta), residual, degenerate, steps), vector


def _ground_ritz_pair(alphas: list[float], betas: list[float]) -> tuple[float, np.ndarray]:
    from scipy.linalg import eigh_tridiagonal

    vals, vecs = eigh_tridiagonal(np.array(alphas), np.array(betas))
    return float(vals[0]), vecs[:, 0]
