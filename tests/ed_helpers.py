"""Direct single-sector solves and dense matrices, the references the ED is checked against.

Also `traced_peak`, the tracemalloc measurement the memory bounds of the tests read, and
`adder` and `apply`, which turn a matrix into the accumulating matvec the solver takes and
an accumulating matvec back into a product.
"""

import tracemalloc

import numpy as np

from bandrec.core import Twist
from bandrec.lanczos import lowest_eigenpair
from bandrec.spinchain import SectorBasis, SectorHamiltonian, build_hamiltonian


def hamiltonian(spec, L):
    """The S^z = 0 sector Hamiltonian of one model, twist and size, with its basis built anew."""
    return build_hamiltonian(spec, L, SectorBasis.build(L, spec.model.local_dim))


def ground_energy(spec, L):
    """Lanczos result of the S^z = 0 sector of one model, twist and size, built anew.

    The start is weighted as `energy_series` weights it, so the two agree bit for bit.
    """
    ham = hamiltonian(spec, L)
    return lowest_eigenpair(ham.matvec, ham.diag.size, 0, ham.start_weights)[0]


def adder(op):
    """matvec(v, out), which adds op v into out: the operator form `lowest_eigenpair` takes.

    `op` is a matrix or, as a 1-D array, the diagonal of one.  It is applied
    2^12 rows at a time, so a product allocates no array of the operator's
    dimension.
    """

    def matvec(v, out):
        for lo in range(0, v.size, 2**12):
            rows = slice(lo, lo + 2**12)
            out[rows] += op[rows] * v[rows] if op.ndim == 1 else op[rows] @ v

    return matvec


def apply(matvec, v):
    """The product that an accumulating matvec adds, as a new array."""
    out = np.zeros_like(v)
    matvec(v, out)
    return out


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while fn ran, in bytes)."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def codes(sector):
    """Each state's base-d code (int64), joined from its high and low parts."""
    return sector.high.astype(np.int64) * sector.local_dim ** (sector.L // 2) + sector.low


def entries(ham):
    """(rows, columns, values) of every off-diagonal entry of A + A^T + (+)_s (C_s (x) 1 + 1 (x) B_s).

    Entry (i, j) of C_s couples the states (i, k) and (j, k) of class s's
    row-major block, for every column k; entry (i, j) of B_s couples the
    states (k, i) and (k, j), for every row k.
    """
    parts = [(ham.rows, ham.cols, ham.data), (ham.cols, ham.rows, ham.data)]
    for row, end, low, low_end, start, stop in ham.classes:
        width = low_end - low
        assert (end - row) * width == stop - start
        at = slice(ham.high_indptr[row], ham.high_indptr[end])
        i = np.repeat(np.arange(end - row), np.diff(ham.high_indptr[row : end + 1]))
        k = np.arange(width)
        parts.append((
            (start + i[:, None] * width + k).ravel(),
            (start + ham.high_indices[at, None] * width + k).ravel(),
            np.repeat(ham.high_data[at], width),
        ))
        at = slice(ham.low_indptr[low], ham.low_indptr[low_end])
        i = np.repeat(np.arange(width), np.diff(ham.low_indptr[low : low_end + 1]))
        k = np.arange(end - row)[:, None] * width
        parts.append((
            (start + k + i).ravel(),
            (start + k + ham.low_indices[at]).ravel(),
            np.tile(ham.low_data[at], end - row),
        ))
    return tuple(np.concatenate(column) for column in zip(*parts))


def dense(ham):
    """H as a dense array; entries at one position add up (the L=2 ring)."""
    out = np.diag(ham.diag)
    rows, cols, values = entries(ham)
    np.add.at(out, (rows, cols), values)
    return out


def reference_hamiltonian(spec, L, sector, bonds=None):
    """The sector matrix built the plain way, in code order: the reference of `build_hamiltonian`.

    The states are the basis's codes sorted; the diagonal adds the same terms
    in the build's grouping.  A holds one hop of each of
    `bonds`, bond by bond in coordinate form (every bond by default;
    (L // 2 - 1, L - 1) gives the two that cross the split, which
    `build_hamiltonian` keeps in its A), the last bond from `twist_start`
    on, and B and C are empty.  Per-site levels from `states // d**site % d`,
    S^z looked up as floats, a binary search over the sorted states for
    every hop's target, and each hop's amplitude written as it is found.
    """
    model = spec.model
    d = model.local_dim
    s2 = d - 1
    couplings = model.bond_couplings(L)
    states = np.sort(codes(sector))
    digits = [(states // d**site % d).astype(np.int8) for site in range(L)]
    m = [(np.arange(d) - s2 / 2.0)[level] for level in digits]
    h = L // 2

    def bond(b):
        return couplings[b] * m[b] * m[(b + 1) % L]

    def half(sites):  # its bonds, then its sites
        energy = np.zeros(sector.dim)
        for b in sites[:-1]:
            energy += bond(b)
        for i in sites if model.D else ():
            energy += model.J * model.D * m[i] ** 2
        return energy

    # the build's grouping: the high half's energy plus the low half's, then the
    # bond across the split and the twist bond
    diag = half(range(h, L)) + half(range(h))
    for b in (h - 1, L - 1):
        diag += bond(b)
    raise_amp = np.sqrt(s2)
    rows, cols, data, twist_start = [], [], [], 0
    for b in range(L) if bonds is None else bonds:
        up_site, down_site = (b, b + 1) if b < L - 1 else (0, L - 1)
        src = np.flatnonzero((digits[up_site] < d - 1) & (digits[down_site] > 0))
        twist_start = sum(a.size for a in rows)
        rows.append(src.astype(np.int32))
        cols.append(np.searchsorted(states, states[src] + d**up_site - d**down_site).astype(np.int32))
        data.append(np.full(src.size, 0.5 * couplings[b] * raise_amp * raise_amp))
    empty = np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)
    rows, cols, data = map(np.concatenate, (rows, cols, data))
    ham = SectorHamiltonian(diag, rows, cols, data, twist_start, *empty, *empty, ())
    if spec.boundary_twist is Twist.ABC:
        ham.data[twist_start:] = -ham.data[twist_start:]
    return ham
