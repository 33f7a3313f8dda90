"""Direct single-sector solves, the reference that energy_series is checked against."""

from bandrec import build_hamiltonian, lowest_eigenpair


def ground_energy(spec, L):
    """Lanczos result of the S^z = 0 sector of one model, twist and size, built anew."""
    ham = build_hamiltonian(spec, L)
    return lowest_eigenpair(ham.matvec, ham.diag.size)[0]
