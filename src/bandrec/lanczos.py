"""Lanczos iteration for the lowest eigenvalue of a symmetric operator.

The Krylov basis is kept semi-orthogonal rather than fully orthogonal:
Simon (Math. Comp. 42, 115, 1984) shows that while every overlap between
Lanczos vectors stays below sqrt(eps), the tridiagonal matrix is the
projection of the operator onto an orthonormal basis of the Krylov space
to working precision, so no ghost copies of converged eigenvalues appear
(they would corrupt the degeneracy warning).  The overlaps are measured,
not estimated: a two-row Gaussian sketch U = C Q of the stored basis Q is
updated with each new row, and U w estimates the overlaps Q^T w of the
new vector w without reading Q.  Only when the sketch puts them above
sqrt(eps) |w| does w get a block-wise classical Gram-Schmidt pass against
the stored basis, with a second pass only when the DGKS test asks for it:
when the first pass shrank the vector below 1/sqrt(2) of its norm, so
that cancellation may have left it with a visible component along the
basis (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772, 1976).
The start vector and the sketch are drawn from separate seeded streams,
so runs are reproducible.  The Ritz values of every step come from LAPACK
dsterf, called directly; it is the routine SciPy's eigvalsh_tridiagonal
reaches through dstevd, so the values are the same.  SciPy's LAPACK and
BLAS wrappers are imported on first use, so importing this module (and the
package) needs only numpy.
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

#: semi-orthogonality level: a new vector whose sketched overlaps with the
#: stored basis stay below sqrt(eps) of its norm skips Gram-Schmidt
SEMI_ORTHOGONAL = np.finfo(float).eps ** 0.5

#: rows of the Gaussian sketch of the stored basis
SKETCH_ROWS = 2


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
    reorth_steps: int  # steps that ran a Gram-Schmidt pass


def lowest_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    config: LanczosConfig | None = None,
) -> tuple[LanczosResult, np.ndarray]:
    """Ground eigenvalue and eigenvector of a real symmetric operator.

    Raises NumericalError (with `best_estimate` attached) if the Ritz value
    has not settled within `max_iter` iterations, or if the Krylov space
    became invariant without the Ritz pair passing the residual bound; and
    (without it) if dsterf reports a failure.
    """
    from scipy.linalg.blas import dger
    from scipy.linalg.lapack import dsterf

    config = config or LanczosConfig()
    if dim < 1:
        raise ValidationError("operator dimension must be >= 1")
    if dim == 1:
        v = np.ones(1)
        energy = float(matvec(v)[0])
        return LanczosResult(energy, 0.0, False, 1, 0), v

    rng = np.random.default_rng(config.seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    max_steps = min(config.max_iter, dim)
    block = min(max_steps, KRYLOV_BLOCK)
    blocks = [np.empty((block, dim))]

    def row(i: int) -> np.ndarray:
        return blocks[i // block][i % block]

    # the sketch U = C Q of the stored rows, with C Gaussian from a stream of
    # the seed that leaves the start vector's draws untouched; it is held as
    # the Fortran-ordered U^T, which the rank-one update dger changes in place
    sketch_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    coeffs = sketch_rng.standard_normal((max_steps, SKETCH_ROWS))
    sketch_t = np.zeros((dim, SKETCH_ROWS), order="F")
    work = np.empty(dim)

    def store(i: int) -> None:
        dger(1.0, row(i), coeffs[i], a=sketch_t, overwrite_a=True)

    alphas: list[float] = []
    betas: list[float] = []
    row(0)[:] = v
    store(0)
    prev_theta = np.inf
    stable = 0
    converged = False
    steps = 0
    reorth_steps = 0
    exhausted = False
    pair = None  # the ground Ritz pair the loop accepted

    for j in range(max_steps):
        w = matvec(row(j))
        alpha = float(row(j) @ w)
        alphas.append(alpha)
        w -= np.multiply(row(j), alpha, out=work)
        if j > 0:
            w -= np.multiply(row(j - 1), betas[-1], out=work)
        beta = float(np.linalg.norm(w))
        if np.abs(sketch_t.T @ w).max() > SEMI_ORTHOGONAL * beta:
            reorth_steps += 1
            for _ in range(2):
                before = beta
                for k, blk in enumerate(blocks):
                    basis = blk[: j + 1 - k * block]
                    w -= basis.T @ (basis @ w)
                beta = float(np.linalg.norm(w))
                if beta >= DGKS_RATIO * before:
                    break
        steps = j + 1

        # T is 1x1 on the first step, and dsterf's wrapper rejects its empty off-diagonal
        if j == 0:
            ritz_vals = np.array(alphas)
        else:
            ritz_vals, info = dsterf(np.array(alphas), np.array(betas[:j]))
            if info:
                raise NumericalError(f"dsterf failed on the {j + 1}-step tridiagonal (info={info})")
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
            candidate = _ground_ritz_pair(alphas, betas[:j])
            if beta * abs(candidate[1][-1]) <= 0.5e-8 * norm_est:
                pair = candidate
                converged = True
                break
        if j + 1 < max_steps:
            if (j + 1) % block == 0:
                blocks.append(np.empty((block, dim)))
            np.divide(w, beta, out=row(j + 1))  # beta > 0: the exhaustion stop came first
            store(j + 1)
            betas.append(beta)

    if steps == dim and not exhausted:
        converged = True  # full Krylov basis reached

    theta, y = pair or _ground_ritz_pair(alphas, betas[: steps - 1])
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

    # the last step's Ritz values are those of the final tridiagonal matrix
    degenerate = bool(len(ritz_vals) >= 2 and ritz_vals[1] - ritz_vals[0] <= 1e-10)
    result = LanczosResult(float(theta), residual, degenerate, steps, reorth_steps)
    return result, vector


def _ground_ritz_pair(alphas: list[float], betas: list[float]) -> tuple[float, np.ndarray]:
    from scipy.linalg import eigh_tridiagonal

    vals, vecs = eigh_tridiagonal(np.array(alphas), np.array(betas))
    return float(vals[0]), vecs[:, 0]
