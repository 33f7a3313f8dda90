"""Bethe-ansatz ground energy of the spin-1/2 Heisenberg ring, independent of the ED.

H = sum_i S_i . S_{i+1} on a ring of even length L, in its S^z = 0 sector:
M = L/2 rapidities lambda_j solve the Bethe equations in log form
(Karbach & Mueller, arXiv:cond-mat/9809162)

    2L atan(2 lambda_j) = 2 pi c_j + 2 sum_k atan(lambda_j - lambda_k),

and E = L/4 - sum_j 2 / (4 lambda_j^2 + 1).  The ground state takes the
symmetric quantum numbers c_j = -(M-1)/2, ..., (M-1)/2.  The abc twist
(boundary phase pi) shifts every c_j by 1/2; that leaves no symmetric set,
and the two nearest ones, c_j + 1/2 and c_j - 1/2, are mirror images
(lambda -> -lambda) with the same energy, so the shift is taken upwards.
Newton's method on the M x M Jacobian solves the equations from the
thermodynamic-limit rapidities in 5-6 steps for L = 4..200, with a
step-count guard.
"""

import numpy as np

from bandrec import Twist

#: Newton steps before a solve counts as failed
MAX_STEPS = 30


def rapidities(L: int, twist: Twist = Twist.PBC) -> np.ndarray:
    """The ground-state rapidities of the L-site ring with the given twist."""
    if L < 4 or L % 2:
        raise ValueError(f"the oracle needs an even L >= 4, not {L}")
    M = L // 2
    c = np.arange(M) - (M - 1) / 2
    if twist is Twist.ABC:
        c = c + 0.5
    # thermodynamic counting c/L = atan(sinh(pi lambda)) / (2 pi), pulled in
    # from the edge, where the largest shifted c_j would put lambda at infinity
    lam = np.arcsinh(np.tan(2 * np.pi * c / (L + 2))) / np.pi
    for _ in range(MAX_STEPS):
        diff = lam[:, None] - lam[None, :]
        residual = 2 * L * np.arctan(2 * lam) - 2 * np.arctan(diff).sum(axis=1) - 2 * np.pi * c
        jacobian = 2 / (1 + diff**2)
        np.fill_diagonal(jacobian, 4 * L / (1 + 4 * lam**2) - (jacobian.sum(axis=1) - 2))
        step = np.linalg.solve(jacobian, residual)
        lam = lam - step
        if np.abs(step).max() <= 1e-10 * max(1.0, np.abs(lam).max()):
            return lam  # converging quadratically: the error left is near 1e-20
    raise RuntimeError(f"Bethe equations at L={L} ({twist}) unsolved after {MAX_STEPS} Newton steps")


def ground_energy(L: int, twist: Twist = Twist.PBC) -> float:
    """E0 of the L-site spin-1/2 Heisenberg ring (J = 1) in the S^z = 0 sector."""
    lam = rapidities(L, twist)
    return L / 4 - float(np.sum(2 / (4 * lam**2 + 1)))
