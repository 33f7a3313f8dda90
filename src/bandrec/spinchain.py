"""Sector-restricted exact diagonalization of three 1D spin chains.

Models: the spin-1/2 exchange ring, its bond-alternating variant, and the
spin-1 ring with a single-ion (S^z)^2 term.  They differ only in local
dimension, bond couplings and the on-site term, so one spec, `SpinChain`,
holds all three.  All conserve total S^z, so the Hamiltonian acts inside
one magnetization sector.  Its configurations are base-d digit codes with
a fixed digit sum, built in ascending order digit by digit without visiting
the other d^L codes.  The sector Hamiltonian is real
symmetric and is held once, as H = D + A + A^T: its diagonal D and one
`scipy.sparse` CSR matrix A (int32 indices) of its strictly lower triangle,
one stored hop per bond and state (the sector ED of Sandvik, AIP Conf.
Proc. 1297, 135, 2010, arXiv:1101.3281).  SciPy is imported only when a
Hamiltonian is built.

Antiperiodic boundary conditions flip the sign of the transverse part of
the boundary bond (S+_L S-_1 terms) and leave S^z_L S^z_1 unchanged.  So
`energy_series` builds one basis and one matrix per size, solves the first
twist on it, and reaches the other by negating the boundary-bond hops of A
in place: an exact flip, with no second matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Twist, ValidationError
from .lanczos import LanczosConfig, LanczosResult, lowest_eigenpair
from .riemann import SOURCE_EXACT_DIAG, EnergySeries


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
    boundary_twist: Twist = Twist.PBC


def _codes_with_digit_sum(L: int, d: int, total: int) -> np.ndarray:
    """Ascending L-digit base-d codes whose digits sum to `total`.

    The n+1-digit codes of sum s are, for top digit t = 0 .. d-1 in turn,
    t*d^n + (n-digit codes of sum s-t); each part is ascending and lies
    below the next, so their concatenation is sorted.  Only the sums
    from which `total` is still reachable are kept at each length.
    """
    by_sum = {0: np.zeros(1, dtype=np.int64)}
    for n in range(L):
        lowest = total - (L - n - 1) * (d - 1)
        by_sum = {
            s: np.concatenate([t * d**n + by_sum[s - t] for t in range(d) if s - t in by_sum])
            for s in range(max(lowest, 0), min(total, (n + 1) * (d - 1)) + 1)
        }
    return by_sum.get(total, np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class SectorBasis:
    """Ranked enumeration of the configurations with fixed total S^z.

    Configurations are encoded as base-`local_dim` integers whose digit at
    site i is the local level (0 .. d-1, level = m + s).  `states` is sorted
    ascending, so rank and unrank are mutual inverses via binary search.
    """

    L: int
    local_dim: int
    sz2_total: int  # twice the total S^z, always an integer
    states: np.ndarray

    @classmethod
    def build(cls, L: int, local_dim: int, sz2_total: int = 0) -> "SectorBasis":
        if L < 1:
            raise ValidationError("chain length must be >= 1")
        if local_dim not in (2, 3):
            raise ValidationError("local dimension must be 2 (spin-1/2) or 3 (spin-1)")
        target = sz2_total + L * (local_dim - 1)  # twice the digit sum
        if target % 2:
            states = np.empty(0, dtype=np.int64)
        else:
            states = _codes_with_digit_sum(L, local_dim, target // 2)
        states.setflags(write=False)
        return cls(L=L, local_dim=local_dim, sz2_total=sz2_total, states=states)

    @property
    def dim(self) -> int:
        return self.states.size

    def rank(self, code: int) -> int:
        idx = int(np.searchsorted(self.states, code))
        if idx >= self.dim or self.states[idx] != code:
            raise ValidationError(f"configuration {code} is not in the sector")
        return idx

    def unrank(self, index: int) -> int:
        return int(self.states[index])

    def digits(self, site: int) -> np.ndarray:
        """Local level of every basis state at one site."""
        return (self.states // self.local_dim**site) % self.local_dim


@dataclass(frozen=True)
class SectorHamiltonian:
    """A real symmetric sector Hamiltonian H = D + A + A^T.

    `diag` holds D; `A` is a CSR matrix (int32 indices) of the strictly
    lower triangle, so each off-diagonal pair is stored once.  Each row
    holds its entries in bond order, and the L=2 ring keeps one entry per
    bond at the same position; both products below sum them.
    """

    diag: np.ndarray
    A: "scipy.sparse.csr_matrix"

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v as one new array: D v, then A v and A^T v added into it."""
        # the kernels behind SciPy's own sparse products (private module);
        # both add into `out`, so no temporary per product
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec

        out = self.diag * v
        n, A = self.diag.size, self.A
        csr_matvec(n, n, A.indptr, A.indices, A.data, v, out)
        # A's arrays read as compressed columns are A^T
        csc_matvec(n, n, A.indptr, A.indices, A.data, v, out)
        return out

    def toarray(self) -> np.ndarray:
        lower = self.A.toarray()
        return np.diag(self.diag) + lower + lower.T


def build_hamiltonian(
    spec: SpinModelSpec, L: int, sector: SectorBasis | None = None
) -> SectorHamiltonian:
    """The sector-restricted Hamiltonian of one model, as D + A + A^T.

    Each bond stores one hop: the one that raises its less significant site
    and lowers the other.  That hop lowers the code, so its entry lies below
    the diagonal, in the row of the source state.  The hops are filled in
    bond order, so bond L-1's (raise site 0, lower site L-1) is the last
    entry of its row.  With the abc twist, that boundary bond carries the
    antiperiodic sign.
    """
    model = spec.model
    if L < 2:
        raise ValidationError("chains below two sites are not supported")
    if sector is None:
        sector = SectorBasis.build(L, model.local_dim)
    if sector.L != L or sector.local_dim != model.local_dim:
        raise ValidationError(
            f"sector (L={sector.L}, d={sector.local_dim}) does not match "
            f"model (L={L}, d={model.local_dim})"
        )
    d = model.local_dim
    s2 = d - 1  # twice the site spin
    couplings = model.bond_couplings(L)
    transverse_sign = np.ones(L)
    if spec.boundary_twist is Twist.ABC:
        transverse_sign[L - 1] = -1.0

    digits = [sector.digits(i).astype(np.int8) for i in range(L)]
    # S^z eigenvalue of each level, looked up bond by bond: float64 whatever
    # numpy's promotion of int8 arrays with Python floats, with no per-site
    # arrays kept
    m_of_level = np.arange(d) - s2 / 2.0

    diag = np.zeros(sector.dim)
    for b in range(L):
        diag += couplings[b] * m_of_level[digits[b]] * m_of_level[digits[(b + 1) % L]]
    onsite = model.J * model.D
    if onsite:
        for i in range(L):
            diag += onsite * m_of_level[digits[i]] ** 2

    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1)) is sqrt(2s) for every m of spin 1/2
    # and of spin 1, so each hop has one amplitude (amp * r) * r
    raise_amp = math.sqrt(s2)

    from scipy.sparse import csr_matrix

    powers = [d**i for i in range(L)]
    # (raised site, lowered site, amplitude, mask of the source states) in
    # bond order; the raised site is the less significant one of the bond
    hops = []
    for b in range(L):
        up_site, down_site = (b, b + 1) if b < L - 1 else (0, L - 1)
        amp = 0.5 * couplings[b] * transverse_sign[b]
        mask = (digits[up_site] < d - 1) & (digits[down_site] > 0)
        hops.append((up_site, down_site, amp, mask))
    del digits  # L arrays, freed before the matrix is allocated

    # the row lengths are known before any destination is looked up
    row_nnz = np.zeros(sector.dim, dtype=np.int64)
    for *_, mask in hops:
        row_nnz += mask
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    del row_nnz
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    slot = indptr[:-1].copy()  # next free position of every row
    for up_site, down_site, amp, mask in hops:
        src = np.flatnonzero(mask)
        at = slot[src]
        dst_codes = sector.states[src] + powers[up_site] - powers[down_site]
        indices[at] = np.searchsorted(sector.states, dst_codes)
        data[at] = amp * raise_amp * raise_amp
        slot[src] += 1
    lower = csr_matrix((data, indices, indptr), shape=(sector.dim, sector.dim))
    return SectorHamiltonian(diag, lower)


def _negate_twist_bond(ham: SectorHamiltonian, sector: SectorBasis) -> None:
    """Turn the pbc matrix of `build_hamiltonian` into the abc one, or back, in place.

    Only the hops of the twist bond L-1 change sign.  Its one stored hop
    (raise site 0, lower site L-1) is the last entry of every row whose
    state allows it, for every L >= 2.  Negation is exact, so the result
    equals the matrix built with the other twist, signed zeros included.
    """
    d = sector.local_dim
    rows = (sector.digits(0) < d - 1) & (sector.digits(sector.L - 1) > 0)
    at = ham.A.indptr[1:][rows] - 1
    ham.A.data[at] = -ham.A.data[at]


def _check_size(model: SpinChain, L: int) -> None:
    if L < 2:
        raise ValidationError(f"sizes must be >= 2, got {L}")
    if model.local_dim == 2 and L % 2:
        raise ValidationError(
            f"spin-1/2 sizes must be even (odd L has no S^z=0 sector), got L={L}"
        )


def ground_energy(
    spec: SpinModelSpec, L: int, config: LanczosConfig | None = None
) -> LanczosResult:
    """Lowest energy in the S^z = 0 sector (spin-1/2: even L only).

    Nothing is cached: every call builds and solves the sector anew.  The
    Lanczos start vector is seeded, so repeated calls are bit-identical.
    """
    _check_size(spec.model, L)
    ham = build_hamiltonian(spec, L)
    return lowest_eigenpair(ham.matvec, ham.diag.size, config)[0]


def energy_series(
    model: SpinChain,
    sizes: Iterable[int],
    twists: Iterable[Twist] = (Twist.PBC,),
    config: LanczosConfig | None = None,
    nu: float | None = None,
) -> EnergySeries:
    """Ground-state energy series of one model over sizes and twists.

    Each size's sector basis and Hamiltonian are built once, with the first
    twist; every further twist negates the twist-bond hops in place
    (`_negate_twist_bond`, for every L >= 2), so both twists share one
    matrix and the energies equal those of `ground_energy` bit for bit.
    """
    sizes = sorted(set(int(s) for s in sizes))
    twists = tuple(twists)
    if not sizes:
        raise ValidationError("no sizes requested")
    if len(set(twists)) < len(twists):
        raise ValidationError(f"duplicate twists {[str(t) for t in twists]}")
    for L in sizes:
        _check_size(model, L)
    series = EnergySeries(
        nu=model.nu_hint if nu is None else nu,
        source=SOURCE_EXACT_DIAG,
        model=model.kind,
    )
    for L in sizes:
        basis = SectorBasis.build(L, model.local_dim)
        ham = None
        for twist in twists:
            if ham is None:
                ham = build_hamiltonian(SpinModelSpec(model, twist), L, basis)
            else:
                _negate_twist_bond(ham, basis)
            series.add(L, twist, lowest_eigenpair(ham.matvec, ham.diag.size, config)[0].energy)
        del ham, basis  # freed before the next size is built
    return series
