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
The start vector and the sketch are drawn from separate streams of one
seed, so runs are reproducible.  A caller that knows where the ground
state lies may scale the start's Gaussian components by positive
weights: `spinchain` weights each configuration by its diagonal energy,
so a ground state near the diagonal minimum starts with most of the
start vector's weight.  The stopping rule is fixed by module constants:
the Ritz value must settle to TOL_ENERGY relative within MAX_ITER steps.
The Ritz values of every step come from numpy's eigvalsh of the dense
tridiagonal matrix: for eigenvalues alone LAPACK dsyevd leaves a
tridiagonal matrix as it is and ends in dsterf, the tridiagonal QR
routine.  The module needs numpy alone.  A solve's working set is the
Krylov rows, the operator and four vectors of its dimension: the two
sketch rows, one work vector and the current product.  Start weights that
the caller does not hold go once the start is formed, each product once
it has become the next row, and a Gram-Schmidt pass forms its projection
in the work vector.  Once the loop ends, its vectors are released before
the Ritz vector is formed, and the Krylov rows before the residual
product.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalError, ValidationError


#: relative change of the ground Ritz value, on two steps running, that
#: counts as settled
TOL_ENERGY = 1e-12

#: iterations before a solve that has not settled fails
MAX_ITER = 500

#: Krylov rows are stored in blocks of this many, each reserved when the
#: iterations reach it: never MAX_ITER * dim up front, and no row is copied.
KRYLOV_BLOCK = 64

#: DGKS test: a reorthogonalization pass that keeps at least this share of
#: the norm of w needs no second pass
DGKS_RATIO = 0.5**0.5

#: semi-orthogonality level: a new vector whose sketched overlaps with the
#: stored basis stay below sqrt(eps) of its norm skips Gram-Schmidt
SEMI_ORTHOGONAL = np.finfo(float).eps ** 0.5

#: rows of the Gaussian sketch of the stored basis
SKETCH_ROWS = 2


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
    seed: int = 0,
    start_weights: np.ndarray | None = None,
) -> tuple[LanczosResult, np.ndarray]:
    """Ground eigenvalue and eigenvector of a real symmetric operator.

    `seed`, a non-negative integer, fixes the start vector and the sketch.
    `start_weights`, finite and positive of shape (dim,), multiply the start
    vector's Gaussian components; only their ratios matter, and None or all
    ones keep the plain Gaussian start bit for bit.
    Raises NumericalError (with `best_estimate` attached) if the Ritz value
    has not settled within MAX_ITER iterations, or if the Krylov space
    became invariant or reached the full dimension without the Ritz pair
    passing the residual bound; and
    (without it) if LAPACK fails on the tridiagonal matrix.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, not {seed!r}")
    if dim < 1:
        raise ValidationError("operator dimension must be >= 1")
    if start_weights is not None:
        try:
            start_weights = np.asarray(start_weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"start weights must be real numbers ({exc})") from exc
        if start_weights.shape != (dim,):
            raise ValidationError(
                f"start weights must have shape ({dim},), not {start_weights.shape}"
            )
        if not (np.isfinite(start_weights).all() and (start_weights > 0).all()):
            raise ValidationError("start weights must be finite and > 0")

    max_steps = min(MAX_ITER, dim)
    block = min(max_steps, KRYLOV_BLOCK)
    blocks = [np.empty((block, dim))]

    def row(i: int) -> np.ndarray:
        return blocks[i // block][i % block]

    # the start vector is drawn straight into the first row
    start = np.random.default_rng(seed).standard_normal(out=row(0))
    if start_weights is not None:
        # scaled to a largest weight of 1, so the norm can neither overflow
        # nor underflow
        start *= start_weights / start_weights.max()
        del start_weights  # freed here unless the caller still holds them
    start /= np.linalg.norm(start)

    # the sketch U = C Q of the stored rows, with C Gaussian from a stream of
    # the seed that leaves the start vector's draws untouched
    sketch_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    coeffs = sketch_rng.standard_normal((max_steps, SKETCH_ROWS))
    sketch = np.zeros((SKETCH_ROWS, dim))
    work = np.empty(dim)

    def store(i: int) -> None:
        for sketch_row, c in zip(sketch, coeffs[i]):
            sketch_row += np.multiply(row(i), c, out=work)

    alphas: list[float] = []
    betas: list[float] = []
    store(0)
    prev_theta = np.inf
    stable = 0
    converged = False
    steps = 0
    reorth_steps = 0
    exhausted = False

    for j in range(max_steps):
        w = matvec(row(j))
        alpha = float(row(j) @ w)
        alphas.append(alpha)
        w -= np.multiply(row(j), alpha, out=work)
        if j > 0:
            w -= np.multiply(row(j - 1), betas[-1], out=work)
        beta = float(np.linalg.norm(w))
        if np.abs(sketch @ w).max() > SEMI_ORTHOGONAL * beta:
            reorth_steps += 1
            for _ in range(2):
                before = beta
                for k, blk in enumerate(blocks):
                    basis = blk[: j + 1 - k * block]
                    w -= np.matmul(basis @ w, basis, out=work)
                beta = float(np.linalg.norm(w))
                if beta >= DGKS_RATIO * before:
                    break
        steps = j + 1

        ritz_vals = _tridiagonal_eig(np.linalg.eigvalsh, alphas, betas[:j])
        theta = float(ritz_vals[0])
        norm_est = max(1.0, abs(ritz_vals[0]), abs(ritz_vals[-1]))
        if abs(theta - prev_theta) <= TOL_ENERGY * max(1.0, abs(theta)):
            stable += 1
        else:
            stable = 0
        prev_theta = theta

        if beta <= 1e-14 * norm_est:
            exhausted = True  # the Krylov space looks invariant: T is exact on it
            break
        if stable >= 2:
            # the Ritz value has settled; accept once the residual bound
            # |beta * y_last| guarantees the eigenpair itself is converged
            _, y = _ground_ritz_pair(alphas, betas[:j])
            if beta * abs(y[-1]) <= 0.5e-8 * norm_est:
                converged = True
                break
        if j + 1 < max_steps:
            if (j + 1) % block == 0:
                blocks.append(np.empty((block, dim)))
            np.divide(w, beta, out=row(j + 1))  # beta > 0: the exhaustion stop came first
            del w  # spent: the next matvec does not run beside it
            store(j + 1)
            betas.append(beta)
    del w, sketch  # the loop's vectors go before the Ritz vector is formed

    theta, y = _ground_ritz_pair(alphas, betas[: steps - 1])
    parts = np.split(y, range(block, steps, block))  # one part of y per block
    vector = parts[0] @ blocks[0][: len(parts[0])]
    for part, blk in zip(parts[1:], blocks[1:]):
        vector += np.matmul(part, blk[: len(part)], out=work)
    del blocks  # and the Krylov rows before the residual product
    vector /= np.linalg.norm(vector)
    residual_vector = matvec(vector)
    residual_vector -= np.multiply(vector, theta, out=work)
    residual = float(np.linalg.norm(residual_vector))

    if exhausted or (steps == dim and not converged):
        # beta was judged against the widest Ritz value, so a very wide
        # spectrum can stop here far from the ground state; and a full
        # Krylov basis is exact only while it stays orthogonal: check the pair
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


def _tridiagonal_eig(eig: Callable, alphas: list[float], betas: list[float]):
    """numpy's `eig` (eigh or eigvalsh) of the Lanczos tridiagonal matrix T.

    T is written into the lower triangle, the one both routines read; a
    LAPACK failure becomes a NumericalError.
    """
    n = len(alphas)
    t = np.zeros((n, n))
    t.flat[:: n + 1] = alphas
    t.flat[n :: n + 1] = betas
    try:
        return eig(t)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failed on the {n}-step tridiagonal matrix ({exc})") from exc


def _ground_ritz_pair(alphas: list[float], betas: list[float]) -> tuple[float, np.ndarray]:
    vals, vecs = _tridiagonal_eig(np.linalg.eigh, alphas, betas)
    return float(vals[0]), vecs[:, 0]
