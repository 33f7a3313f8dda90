"""Sector-restricted exact diagonalization of three 1D spin chains.

One spec, `SpinChain`, names the spin-1/2 exchange ring, its bond-alternating
variant and the spin-1 ring with a single-ion (S^z)^2 term.  All conserve
total S^z; the S^z = 0 sector's configurations are the base-d codes with a
fixed digit sum, listed in ascending order and ranked from one split of
the code at L // 2 digits, without visiting the other d^L codes.  The
real symmetric sector Hamiltonian is held once, as
H = D + A + A^T: its diagonal D and three numpy arrays, the CSR form (int32
offsets and indices) of its strictly lower triangle A, one hop per bond and
state (the sector ED of Sandvik, AIP Conf. Proc. 1297, 135, 2010,
arXiv:1101.3281).  The build reads the codes once into int8 rows of 2 S^z
per site, ranks each hop's target with the basis's tables and gathers the
values from an int8 bond id per entry: beyond the finished matrix it holds
under one int64 vector of the sector.  Only SciPy's `_sparsetools`
extension is loaded, for its two CSR kernels, and no `scipy` module is left
in `sys.modules`.

Antiperiodic boundary conditions flip the sign of the transverse part of
the boundary bond (S+_L S-_1) and leave S^z_L S^z_1 unchanged: the abc
matrix is the pbc one with the boundary-bond hops, whose positions it
carries, negated in place (`_negate_twist_bond`): the exact flip that
`energy_series` also uses, once it has released the basis.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterable

import numpy as np

from .core import Twist, ValidationError
from .lanczos import lowest_eigenpair
from .riemann import EnergySeries


# local dimension and filling hint of each model, by its CLI and CSV name
_MODELS = {"heisenberg": (2, 1.0), "dimerized": (2, 3.0), "single-ion": (3, 2.0)}


@dataclass(frozen=True)
class SpinChain:
    """One of the three exchange rings, named by `kind`.

    Bond b couples sites (b, b+1) with J*(1 -+ delta), alternating from
    1 - delta on bond 0; only `dimerized` takes delta.  Only `single-ion`
    (spin 1) takes D, which adds J*D*(S^z)^2 on every site.
    """

    kind: str
    J: float = 1.0
    delta: float = 0.0
    D: float = 0.0

    def __post_init__(self):
        if self.kind not in _MODELS:
            raise ValidationError(f"unknown model {self.kind!r}")
        if self.delta and self.kind != "dimerized":
            raise ValidationError(f"the {self.kind} model takes no delta")
        if self.D and self.kind != "single-ion":
            raise ValidationError(f"the {self.kind} model takes no D")
        if not all(map(math.isfinite, (self.J, self.delta, self.D))):
            raise ValidationError(f"J, delta and D must be finite, got {self!r}")
        if not abs(self.delta) < 1:
            raise ValidationError(f"|delta| must be < 1, got {self.delta}")

    @property
    def local_dim(self) -> int:
        return _MODELS[self.kind][0]

    @property
    def nu_hint(self) -> float:
        return _MODELS[self.kind][1]

    def bond_couplings(self, L: int) -> np.ndarray:
        signs = np.where(np.arange(L) % 2 == 0, -1.0, 1.0)
        return self.J * (1.0 + self.delta * signs)


@dataclass(frozen=True)
class SpinModelSpec:
    """A spin model together with its physical boundary twist."""

    model: SpinChain
    boundary_twist: Twist


@dataclass(frozen=True)
class SectorBasis:
    """The configurations with total S^z = 0 and Lin's tables (PRB 42, 6561) that rank them.

    Codes are base-`local_dim` integers whose digit at site i is the local
    level (0 .. d-1, level = m + s).  With h = L // 2, a code's index in the
    sorted `states` is first[code // d^h] + within[code % d^h] (int32).
    """

    L: int
    local_dim: int
    states: np.ndarray
    first: np.ndarray
    within: np.ndarray

    @classmethod
    def build(cls, L: int, local_dim: int) -> "SectorBasis":
        d, h = local_dim, L // 2
        sums = np.zeros(1, dtype=np.int64)
        for _ in range(L - h):  # the digit sums of the high parts; the first d^h are the low parts'
            sums = (np.arange(d)[:, None] + sums).ravel()
        order = np.argsort(sums[: d**h], kind="stable")  # the low parts grouped by digit sum
        count = np.bincount(sums[: d**h], minlength=L * (d - 1) + 1)
        starts = count.cumsum() - count  # where each digit sum's group begins in `order`
        need = L * (d - 1) - 2 * sums  # twice the digit sum each high part leaves to its low part
        # the low parts' digit sum under each high part, or L (d-1), which none has
        low_sum = np.where((need >= 0) & (need % 2 == 0), need // 2, L * (d - 1))
        per_high = count[low_sum]
        within = np.empty(d**h, dtype=np.int32)
        within[order] = np.arange(d**h) - np.repeat(starts, count)  # inverse of the sort
        # each high part in turn, then the low parts that complete its digit sum
        states = np.repeat(np.arange(d ** (L - h)) * d**h, per_high)
        groups = np.split(order, starts[1:])
        states += np.concatenate([groups[s] for s in low_sum.tolist()])
        states.setflags(write=False)
        first = np.concatenate(([0], per_high[:-1].cumsum())).astype(np.int32)
        return cls(L=L, local_dim=d, states=states, first=first, within=within)

    @property
    def dim(self) -> int:
        return self.states.size


@functools.cache
def _csr_kernels():
    """SciPy's `csr_matvec` and `csc_matvec`, from the `_sparsetools` extension's file.

    The extension enters itself in `sys.modules` as it loads, before any
    `scipy.sparse` package exists; that entry is removed again and the
    module is held only here, so a later `import scipy.sparse` loads it as
    its own attribute.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # SciPy's own import came first
        module = sys.modules[name]
    else:
        if (scipy := importlib.util.find_spec("scipy")) is None:
            raise ImportError("SciPy is not installed", name="scipy")
        directory = os.path.join(os.path.dirname(scipy.origin), "sparse")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension in {directory}", name=name, path=directory)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    return module.csr_matvec, module.csc_matvec


@dataclass(frozen=True)
class SectorHamiltonian:
    """A real symmetric sector Hamiltonian H = D + A + A^T.

    `diag` holds D; `indptr`, `indices` (int32) and `data` are the CSR arrays
    of the strictly lower triangle A, in bond order within a row, and
    `twist_entries` (int32) the positions in `data` of the twist bond L-1's
    hops.  The L=2 ring's two bonds share one position; both products sum them.
    """

    diag: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    twist_entries: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v as one new array: D v, then A v and A^T v added into it."""
        csr_matvec, csc_matvec = _csr_kernels()
        out = self.diag * v
        n, lower = self.diag.size, (self.indptr, self.indices, self.data)
        csr_matvec(n, n, *lower, v, out)
        # A's arrays read as compressed columns are A^T
        csc_matvec(n, n, *lower, v, out)
        return out

    def start_weights(self) -> np.ndarray:
        """Lanczos start weights exp(-(H_ii - min H_ii) / max|A_ij|).

        A configuration whose diagonal energy lies many hop amplitudes above
        the lowest carries little of a ground state near the diagonal
        minimum, so it starts with little weight.  The weights depend on
        D / max|A| alone: scaling or shifting H leaves them as they are, and
        so does the twist above two sites (the two-site ring keeps both
        bonds' hops at one position, the twist bond's right after bond 0's in
        the row; they add up to A_ij, and the abc twist cancels them).  They
        are floored at the smallest normal float, so no component of the
        start vanishes, and are all ones when A has no nonzero entry (a
        diagonal H).
        """
        data, twist = self.data, self.twist_entries
        # twist hops with the column of the entry before them in their row
        twist = twist[self.indices[twist - 1] == self.indices[twist]]
        twist = twist[twist > self.indptr[np.searchsorted(self.indptr, twist, "right") - 1]]
        if twist.size:
            data = data.copy()
            data[twist - 1] += data[twist]
            data[twist] = 0.0
        scale = max(data.max(initial=0.0), -data.min(initial=0.0))  # no |data| copy
        if not scale:
            return np.ones(self.diag.size)
        weights = np.subtract(self.diag.min(), self.diag)
        weights /= scale
        np.exp(weights, out=weights)
        return np.maximum(weights, np.finfo(float).tiny, out=weights)


def _row_pointers(row_nnz: np.ndarray, L: int) -> np.ndarray:
    """CSR row offsets as int32, refusing a pair count that would wrap."""
    indptr = np.concatenate(([0], np.cumsum(row_nnz, dtype=np.int64)))
    if indptr[-1] >= 2**31:
        raise ValidationError(f"L={L}: {indptr[-1]} stored pairs overflow int32 offsets")
    return indptr.astype(np.int32)


def build_hamiltonian(spec: SpinModelSpec, L: int, sector: SectorBasis) -> SectorHamiltonian:
    """The sector-restricted Hamiltonian of one model, as D + A + A^T.

    Each bond stores one hop: the one that raises its less significant site
    and lowers the other.  That hop lowers the code, so its entry lies below
    the diagonal, in the row of the source state; its column is the
    target's rank from the basis's tables.  The matrix keeps the
    positions of bond L-1's hops (raise site 0, lower site L-1); with the
    abc twist, `_negate_twist_bond` then gives them the antiperiodic sign.
    """
    model = spec.model
    if L < 2:
        raise ValidationError("chains below two sites are not supported")
    if sector.L != L or sector.local_dim != model.local_dim:
        raise ValidationError(
            f"sector (L={sector.L}, d={sector.local_dim}) does not match "
            f"model (L={L}, d={model.local_dim})"
        )
    d = model.local_dim
    s2 = d - 1  # twice the site spin
    couplings = model.bond_couplings(L)

    # twice the S^z of every site and state, one int8 row per site
    m2 = np.empty((L, sector.dim), dtype=np.int8)
    codes = sector.states.copy()
    for site in range(L):  # codes //= d in place, and its remainder into the site's row
        np.divmod(codes, d, out=(codes, m2[site]), casting="unsafe")
    del codes
    m2 *= 2
    m2 -= s2

    # S^z is 0, +-1/2 or +-1, so (J/4) (2 S^z_b)(2 S^z_b+1) is J S^z_b S^z_b+1 exactly
    diag = np.zeros(sector.dim)
    for b in range(L):
        diag += (0.25 * couplings[b]) * (m2[b] * m2[(b + 1) % L])
    if onsite := model.J * model.D:
        for i in range(L):
            diag += np.float64(0.25 * onsite) * (m2[i] * m2[i])

    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1)) is sqrt(2s) for every m of spin 1/2
    # and of spin 1, so each hop has one amplitude (amp * r) * r
    raise_amp = math.sqrt(s2)
    amps = 0.5 * couplings * raise_amp * raise_amp

    # each bond's hop raises its less significant site: (raised, lowered) sites
    bonds = [(b, b + 1) if b < L - 1 else (0, L - 1) for b in range(L)]
    row_nnz = np.zeros(sector.dim, dtype=np.int8)
    for up, down in bonds:  # the states each bond's hop leaves in the sector, bond by bond
        row_nnz += (m2[up] < s2) & (m2[down] > -s2)
    indptr = _row_pointers(row_nnz, L)
    del row_nnz
    indices = np.empty(indptr[-1], dtype=np.int32)
    bond_of = np.empty(indptr[-1], dtype=np.int8)
    slot = indptr[:-1].copy()  # next free position of every row
    for b, (up, down) in enumerate(bonds):
        src = np.flatnonzero((m2[up] < s2) & (m2[down] > -s2))
        at = slot[src]
        high = sector.states[src]
        high += d**up - d**down  # the target, split in place at the basis's table sizes
        high, low = np.divmod(high, sector.within.size, out=(high, None))
        indices[at] = sector.first[high] + sector.within[low]
        bond_of[at] = b
        slot[src] = at + 1
    del m2, slot, src, high, low  # before the data is gathered
    # the loop ends on bond L-1, so `at` holds the twist bond's positions
    ham = SectorHamiltonian(diag, indptr, indices, amps[bond_of], twist_entries=at)
    if spec.boundary_twist is Twist.ABC:
        _negate_twist_bond(ham)
    return ham


def _negate_twist_bond(ham: SectorHamiltonian) -> None:
    """Turn a pbc sector matrix into the abc one, or back, in place.

    Only the twist bond's hops, at `twist_entries`, change sign.  Negation
    is exact, so the result equals the matrix built with the other twist,
    signed zeros included.
    """
    ham.data[ham.twist_entries] = -ham.data[ham.twist_entries]


def _stored_pairs(L: int, d: int) -> int:
    """A's entries in the S^z = 0 sector: one per bond and state whose raised site's level
    is a < d - 1 and lowered site's b >= 1; strings[s] counts the other sites' sum s."""
    strings = [1]
    for _ in range(L - 2):
        strings = [sum(strings[max(s - d + 1, 0) : s + 1]) for s in range(len(strings) + d - 1)]
    sums = [L * (d - 1) // 2 - a - b for a in range(d - 1) for b in range(1, d)]
    return L * sum(strings[s] for s in sums if 0 <= s < len(strings))


def _check_size(model: SpinChain, L: int) -> None:
    if L < 2:
        raise ValidationError(f"sizes must be >= 2, got {L}")
    if model.local_dim == 2 and L % 2:
        raise ValidationError(f"spin-1/2 sizes must be even (odd L has no S^z=0 sector), got L={L}")
    d = model.local_dim
    # the central count of the other sites is at least their mean: far larger L goes uncounted
    if (L - 2) * math.log2(d) - math.log2((L - 2) * (d - 1) + 1) >= 31:
        raise ValidationError(f"L={L}: over 2^31 stored pairs overflow int32 offsets")
    if (stored := _stored_pairs(L, d)) >= 2**31:
        raise ValidationError(f"L={L}: {stored} stored pairs overflow int32 offsets")


def energy_series(
    model: SpinChain,
    sizes: Iterable[int],
    twists: Iterable[Twist] = (Twist.PBC,),
    seed: int = 0,
) -> EnergySeries:
    """Ground-state energy series of one model over sizes and twists.

    The sizes are built and solved largest first, so each smaller size
    reuses heap that a larger one freed rather than being built on top of
    another size's leftovers; the series iterates by ascending size all the
    same.  Each size's basis and Hamiltonian are built once, with the first
    twist, and the basis is freed before the solves; every further twist
    flips the twist-bond hops in place, so the energies equal those of
    separate `build_hamiltonian` calls bit for bit.  Every solve starts from
    `seed`'s Gaussian vector scaled by the weights of the bound method
    `SectorHamiltonian.start_weights`, which the solver calls when it forms
    the start (and again for a replay), so no array of weights outlives the
    start; above two sites the twist leaves the diagonal and |A| as they
    are, so every twist's weights are the same bytes.
    """
    sizes = sorted(set(int(s) for s in sizes))
    twists = tuple(twists)
    if not sizes:
        raise ValidationError("no sizes requested")
    if not twists:
        raise ValidationError("no twists requested")
    if len(set(twists)) < len(twists):
        raise ValidationError(f"duplicate twists {[str(t) for t in twists]}")
    for L in sizes:
        _check_size(model, L)
    series = EnergySeries(nu=model.nu_hint, model=model.kind)
    spec = SpinModelSpec(model, twists[0])
    for L in reversed(sizes):
        ham = build_hamiltonian(spec, L, SectorBasis.build(L, model.local_dim))
        for i, twist in enumerate(twists):
            if i:
                _negate_twist_bond(ham)
            result = lowest_eigenpair(
                ham.matvec, ham.diag.size, seed, start_weights=ham.start_weights
            )[0]
            series.add(L, twist, result.energy)
        del ham  # freed before the next size is built
    return series
