"""Lanczos iteration for the lowest eigenvalue of a symmetric operator.

A solve keeps no Krylov rows.  The three-term recurrence reads only the two
latest Lanczos vectors, and the ground energy comes from the tridiagonal
matrix T of the coefficients (alpha, beta) alone, so the loop holds
v_{j-1}, v_j, the current product and those coefficients, whatever the
iteration count: three vectors and a scratch of 2^15 doubles for the scaled
ones subtracted.  No name keeps the start: it is v_0, and goes once the
recurrence has moved past it.  The vectors are not reorthogonalized: a
solve stops as soon as its ground Ritz value settles, and Paige (J. Inst.
Math. Appl. 18, 341, 1976) ties the loss of orthogonality to Ritz pairs
that have converged, which leaves a solve that stops at convergence little
room for ghost copies of its eigenvalue.  The stopping rule is fixed by
module constants: the ground Ritz value must settle to TOL_ENERGY relative
within MAX_ITER steps, and its Ritz estimate beta |y_last| of the residual,
with y the ground eigenvector of T, must pass TOL_RESIDUAL of the widest
Ritz value.  That estimate is the reported residual;
no vector of the full space is formed and no residual product is taken.
A settled value is not yet a converged one: on a near-degenerate ground
cluster the Ritz value can rest for a dozen steps on a mixture of the
cluster's states before the recurrence resolves them, and such a mixture
keeps a residual near the cluster's spacing times its mixing.  On the
spin-1 ring with J = -1, D = 7.4 and L = 8 (ground state 5.5e-7 below a
doublet, Ritz width 64) those rests reach Ritz estimates of 3e-9 of the
width, so TOL_RESIDUAL lies 30 times below them.  A start that all but
misses the ground state (an overlap of 2e-3 or less) can still converge
on the cluster's next level, as a single-vector Krylov solve can.

A solve whose Krylov space looks exhausted, or that ran as many steps as the
operator has dimensions without settling, is not taken on the estimate:
beta was judged against the widest Ritz value, and a full basis is exact
only while it stays orthogonal.  Such a solve forms the start again, by the
one helper pass one used, and replays the recurrence from it with the stored
coefficients, which forms pass one's vectors again bit for bit, adds y_j v_j
into the Ritz vector and judges its explicit residual against
0.5e-8 max(1, |theta|).

The start vector is drawn from the seed's Gaussian stream, so runs are
reproducible.  The start's Gaussian components are scaled by positive
weights, passed as a zero-argument callable that returns them (all ones
keep the plain Gaussian start bit for bit): `spinchain` passes the bound
method that weights each configuration by its diagonal energy, so a ground
state near the diagonal minimum starts with most of the start vector's
weight.  The solve calls it whenever it forms the start, once, or twice
with a replay, and keeps no array of weights past the start.  The Ritz
values of every step come from numpy's eigvalsh of the dense tridiagonal
matrix: for eigenvalues alone LAPACK dsyevd leaves a tridiagonal matrix as
it is and ends in dsterf, the tridiagonal QR routine.
The module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalError


#: relative change of the ground Ritz value, on two steps running, that
#: counts as settled
TOL_ENERGY = 1e-12

#: Ritz estimate beta |y_last|, relative to the widest Ritz value, below
#: which a settled ground pair is accepted
TOL_RESIDUAL = 1e-10

#: iterations before a solve that has not settled fails
MAX_ITER = 500


@dataclass
class LanczosResult:
    energy: float
    residual_norm: float  # beta |y_last|; the explicit residual of a replayed solve
    iterations: int


def lowest_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    seed: int,
    start_weights: Callable[[], np.ndarray],
) -> tuple[LanczosResult, np.ndarray]:
    """Ground eigenvalue of a real symmetric operator, and its Ritz pair's y.

    y is the ground eigenvector of the tridiagonal matrix: the Ritz vector in
    the coordinates of the Lanczos vectors, which the solve does not keep.
    `dim` is at least 1, and `seed`, a non-negative integer, fixes the start
    vector.
    `start_weights`, a zero-argument callable, returns weights that
    multiply the start vector's Gaussian components: a float array of shape
    (dim,), finite and positive.  Only their ratios matter, and all ones
    keep the plain Gaussian start bit for bit.  The start is formed
    again for a replay, so the callable runs once or twice and must return
    the same weights each time.  None of this is checked: the caller,
    `spinchain.energy_series`, meets it.
    Raises NumericalError (with `best_estimate` attached) if the Ritz value
    has not settled within MAX_ITER iterations, or if the Krylov space
    became invariant or reached the full dimension without the Ritz pair
    passing the residual bound; and
    (without it) if a step's alpha or beta overflows to inf or NaN, or if
    LAPACK fails on the tridiagonal matrix.
    """
    max_steps = min(MAX_ITER, dim)
    work = np.empty(min(dim, 2**15))  # the scratch of `_axpy`
    alphas: list[float] = []
    betas: list[float] = []
    # no name keeps the start: it goes once v_prev moves past it
    v_prev, v = None, _start(dim, seed, start_weights)
    prev_theta = np.inf
    stable = 0
    converged = False
    exhausted = False

    for j in range(max_steps):
        w, alpha = _step(matvec, v, v_prev, betas[-1] if j else 0.0, work)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise NumericalError(
                f"Lanczos step {j + 1} overflowed: alpha = {alpha:.3g}, beta = {beta:.3g} "
                "(the operator's entries are too large for float64)"
            )

        ritz_vals = _tridiagonal_eig(np.linalg.eigvalsh, alphas, betas)
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
            _, y = _ground_ritz_pair(alphas, betas)
            if beta * abs(y[-1]) <= TOL_RESIDUAL * norm_est:
                converged = True
                break
        if j + 1 < max_steps:
            # beta > 0: the exhaustion stop came first
            v_prev, v = v, np.divide(w, beta, out=w)
            del w  # now v: the next matvec runs beside v_prev and v alone
            betas.append(beta)
    steps = len(alphas)
    del v_prev, v, w  # pass one's vectors go before any replay

    theta, y = _ground_ritz_pair(alphas, betas)
    residual = beta * abs(float(y[-1]))
    if exhausted or (steps == dim and not converged):
        # beta was judged against the widest Ritz value, so a very wide
        # spectrum can stop here far from the ground state; and a full
        # Krylov basis is exact only while it stays orthogonal: check the pair
        residual = _replayed_residual(
            matvec, dim, seed, start_weights, work, alphas, betas, y, theta
        )
        converged = residual <= 0.5e-8 * max(1.0, abs(theta))
    if not converged:
        err = NumericalError(
            f"Lanczos did not converge in {steps} iterations "
            f"(best estimate {theta:.15g}, residual {residual:.3g})"
        )
        err.best_estimate = theta
        raise err
    return LanczosResult(theta, residual, steps), y


def _start(dim: int, seed: int, start_weights: Callable[[], np.ndarray]) -> np.ndarray:
    """The normalized start: seed's Gaussian vector, scaled by the weights."""
    start = np.random.default_rng(seed).standard_normal(dim)
    weights = start_weights()
    # scaled to a largest weight of 1, so the norm can neither overflow nor
    # underflow; in place, so no scaled copy of the weights is made
    start /= weights.max()
    start *= weights
    start /= np.linalg.norm(start)
    return start


def _replayed_residual(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    seed: int,
    start_weights: Callable[[], np.ndarray],
    work: np.ndarray,
    alphas: list[float],
    betas: list[float],
    y: np.ndarray,
    theta: float,
) -> float:
    """|H x - theta x| for the normalized Ritz vector x = sum_j y_j v_j.

    The Lanczos vectors v_j are formed again from the start, rebuilt as pass
    one built it, by pass one's `_step` with its stored coefficients, so the
    operator sees the same vectors bit for bit.
    """
    v_prev, v = None, _start(dim, seed, start_weights)
    x = v * y[0]
    for j, beta in enumerate(betas):
        w, _ = _step(matvec, v, v_prev, betas[j - 1] if j else 0.0, work, alphas[j])
        v_prev, v = v, np.divide(w, beta, out=w)
        del w
        _axpy(np.add, x, v, y[j + 1], work)
    del v_prev, v  # and before the residual product
    x /= np.linalg.norm(x)
    residual = matvec(x)
    _axpy(np.subtract, residual, x, theta, work)
    return float(np.linalg.norm(residual))


def _axpy(op: np.ufunc, out: np.ndarray, v: np.ndarray, scale: float, work: np.ndarray) -> None:
    """out = op(out, v * scale) in place through `work`, chunk by chunk, with the same bytes."""
    for lo in range(0, out.size, work.size):
        hi = min(lo + work.size, out.size)
        op(out[lo:hi], np.multiply(v[lo:hi], scale, out=work[: hi - lo]), out=out[lo:hi])


def _step(matvec: Callable, v: np.ndarray, v_prev, beta_prev: float, work, alpha=None):
    """w = H v - alpha v - beta_prev v_prev, the unnormalized next Lanczos vector.

    alpha is v.w unless given: the replay passes pass one's, so both passes
    run the same operations in the same order through `work`, and dividing
    w by the stored beta in place gives the same v_{j+1} bit for bit.
    """
    w = matvec(v)
    if alpha is None:
        alpha = float(v @ w)
    _axpy(np.subtract, w, v, alpha, work)
    if v_prev is not None:
        _axpy(np.subtract, w, v_prev, beta_prev, work)
    return w, alpha


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
