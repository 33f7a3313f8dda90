"""Sector-restricted exact diagonalization of three 1D spin chains.

One spec, `SpinChain`, names the spin-1/2 exchange ring, its bond-alternating
variant and the spin-1 ring with a single-ion (S^z)^2 term.  All conserve
total S^z; the S^z = 0 sector's configurations are the base-d codes with a
fixed digit sum, built in ascending order without visiting the other d^L
codes.  The real symmetric sector Hamiltonian is held once, as
H = D + A + A^T: its diagonal D and three numpy arrays, the CSR form (int32
offsets and indices) of its strictly lower triangle A, one hop per bond and
state (the sector ED of Sandvik, AIP Conf. Proc. 1297, 135, 2010,
arXiv:1101.3281).  Only SciPy's `_sparsetools` extension is loaded, for its
two CSR kernels, and no `scipy` module is left in `sys.modules`.

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
    """Ranked enumeration of the configurations with total S^z = 0.

    Configurations are encoded as base-`local_dim` integers whose digit at
    site i is the local level (0 .. d-1, level = m + s).  `states` is sorted
    ascending, so a code's index is found by binary search.
    """

    L: int
    local_dim: int
    states: np.ndarray

    @classmethod
    def build(cls, L: int, local_dim: int) -> "SectorBasis":
        target = L * (local_dim - 1)  # twice the digit sum
        if target % 2:  # odd spin-1/2 rings have no S^z = 0 state
            states = np.empty(0, dtype=np.int64)
        else:
            states = _codes_with_digit_sum(L, local_dim, target // 2)
        states.setflags(write=False)
        return cls(L=L, local_dim=local_dim, states=states)

    @property
    def dim(self) -> int:
        return self.states.size

    def digits(self, site: int) -> np.ndarray:
        """Local level of every basis state at one site."""
        return (self.states // self.local_dim**site) % self.local_dim


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
        so does the twist.  They are floored at the smallest normal float, so
        no component of the start vanishes, and are all ones when A has no
        nonzero entry (a diagonal H).
        """
        scale = max(self.data.max(initial=0.0), -self.data.min(initial=0.0))  # no |data| copy
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
    the diagonal, in the row of the source state.  The matrix keeps the
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

    digits = [sector.digits(i).astype(np.int8) for i in range(L)]
    # S^z of each level, looked up bond by bond: float64 whatever numpy's
    # promotion of int8 arrays with Python floats, and no per-site arrays
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

    # (code shift, amplitude, source-state mask) in bond order, each hop raising
    # its bond's less significant site; the masks give the row lengths
    hops, row_nnz = [], np.zeros(sector.dim, dtype=np.int64)
    for b in range(L):
        up_site, down_site = (b, b + 1) if b < L - 1 else (0, L - 1)
        mask = (digits[up_site] < d - 1) & (digits[down_site] > 0)
        hops.append((d**up_site - d**down_site, 0.5 * couplings[b], mask))
        row_nnz += mask
    del digits  # L arrays, freed before the matrix is allocated
    indptr = _row_pointers(row_nnz, L)
    del row_nnz
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    slot = indptr[:-1].copy()  # next free position of every row
    for shift, amp, mask in hops:
        src = np.flatnonzero(mask)
        at = slot[src]
        indices[at] = np.searchsorted(sector.states, sector.states[src] + shift)
        data[at] = amp * raise_amp * raise_amp
        slot[src] += 1
    # the loop ends on bond L-1, so `at` holds the twist bond's positions
    ham = SectorHamiltonian(diag, indptr, indices, data, twist_entries=at)
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


def _check_size(model: SpinChain, L: int) -> None:
    if L < 2:
        raise ValidationError(f"sizes must be >= 2, got {L}")
    if model.local_dim == 2 and L % 2:
        raise ValidationError(f"spin-1/2 sizes must be even (odd L has no S^z=0 sector), got L={L}")


def energy_series(
    model: SpinChain,
    sizes: Iterable[int],
    twists: Iterable[Twist] = (Twist.PBC,),
    seed: int = 0,
) -> EnergySeries:
    """Ground-state energy series of one model over sizes and twists.

    Each size's basis and Hamiltonian are built once, with the first twist,
    and the basis is freed before the solves; every further twist flips the
    twist-bond hops in place, so the energies equal those of separate
    `build_hamiltonian` calls bit for bit.  Every solve starts from `seed`'s
    Gaussian vector scaled by the size's `SectorHamiltonian.start_weights`,
    derived once: the twist leaves the diagonal and |A| as they are.
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
    for L in sizes:
        ham = build_hamiltonian(spec, L, SectorBasis.build(L, model.local_dim))
        weights = ham.start_weights()
        for i, twist in enumerate(twists):
            if i:
                _negate_twist_bond(ham)
            result = lowest_eigenpair(ham.matvec, ham.diag.size, seed, start_weights=weights)[0]
            series.add(L, twist, result.energy)  # the ground vector is dropped at once
        del ham, weights  # freed before the next size is built
    return series
