"""Direct single-sector solves and dense matrices, the references the ED is checked against."""

import numpy as np

from bandrec.lanczos import lowest_eigenpair
from bandrec.spinchain import SectorBasis, build_hamiltonian


def hamiltonian(spec, L):
    """The S^z = 0 sector Hamiltonian of one model, twist and size, with its basis built anew."""
    return build_hamiltonian(spec, L, SectorBasis.build(L, spec.model.local_dim))


def ground_energy(spec, L):
    """Lanczos result of the S^z = 0 sector of one model, twist and size, built anew."""
    ham = hamiltonian(spec, L)
    return lowest_eigenpair(ham.matvec, ham.diag.size)[0]


def dense(ham):
    """H = D + A + A^T as a dense array; entries of A at one position add up (the L=2 ring)."""
    n = ham.diag.size
    lower = np.zeros((n, n))
    np.add.at(lower, (np.repeat(np.arange(n), np.diff(ham.indptr)), ham.indices), ham.data)
    return np.diag(ham.diag) + lower + lower.T
