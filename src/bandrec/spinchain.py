"""Sector-restricted exact diagonalization of three 1D spin chains.

One spec, `SpinChain`, names the spin-1/2 exchange ring, its bond-alternating
variant and the spin-1 ring with a single-ion (S^z)^2 term.  All conserve
total S^z; the S^z = 0 sector's configurations are the base-d codes with a
fixed digit sum, built and ranked from one split of the code into a low
part (the first h = L // 2 sites) and a high part, without visiting the
other d^L codes.  The states are laid out class-major: the high parts
grouped by digit sum, each followed by the low parts that complete it, so
the high parts of one digit sum and their low parts form one row-major
block X_s.  The real symmetric sector Hamiltonian is held as
H = D + A + A^T + (+)_s (C_s (x) 1 + 1 (x) B_s) (the sector ED of Sandvik,
AIP Conf. Proc. 1297, 135, 2010, arXiv:1101.3281).  D is its diagonal.  A
bond inside one half changes that half's part alone, so on each block the
bonds inside the high half act as one small matrix C_s on the rows of X_s
and those inside the low half as one small B_s on its columns, the
superblock product of DMRG (White, PRB 48, 10345, 1993).  A holds one hop
per state of the two bonds that cross the split, (h-1, h) and then the
twist bond (0, L-1), as coordinate arrays (int32 rows and columns).  Only
SciPy's `_sparsetools` extension is loaded, for its `coo_matvec` and
`csr_matvecs` kernels, and no `scipy` module is left in `sys.modules`.

Antiperiodic boundary conditions flip the sign of the transverse part of
the boundary bond (S+_L S-_1) and leave S^z_L S^z_1 unchanged: the abc
matrix is the pbc one with the twist bond's hops, the tail of A, negated
in place (`_negate_twist_bond`), the exact flip that `energy_series` also
uses.  B and C are the same for both twists.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterable

import numpy as np

from .core import Twist, ValidationError, sorted_sizes
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
    """The configurations with total S^z = 0, laid out class-major, and Lin's tables that rank them.

    A code is the base-`local_dim` integer whose digit at site i is the
    local level (0 .. d-1, level = m + s).  With h = L // 2 it splits into a
    low part (sites 0 .. h-1) and a high part (sites h .. L-1), which `low`
    and `high` hold for every state (int32 codes below d^h and d^(L-h)).
    The high parts are grouped by digit sum, ascending, and by code within
    a sum; each is followed by the low parts that complete the sector's
    digit sum, ascending.  The high parts of one digit sum thus form a
    class: one row-major block of |high parts| x |low parts| states, given
    in `blocks` as (start, stop, row length).  The state (hi, lo) has index
    first[hi] + within[lo] (int32; H. Q. Lin, PRB 42, 6561, 1990).
    """

    L: int
    local_dim: int
    high: np.ndarray
    low: np.ndarray
    first: np.ndarray
    within: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(cls, L: int, local_dim: int) -> "SectorBasis":
        d, h = local_dim, L // 2
        _check_pairs(L, d)
        sums = np.zeros(1, dtype=np.int64)
        for _ in range(L - h):  # the digit sums of the high parts; the first d^h are the low parts'
            sums = (np.arange(d)[:, None] + sums).ravel()
        # the codes by digit sum, then by code: the low parts of a sum come first
        order = np.argsort(sums, kind="stable").astype(np.int32)
        count = np.bincount(sums)
        starts = count.cumsum() - count
        rank = np.empty(sums.size, dtype=np.int32)  # a code's place among the codes of its sum
        rank[order] = np.arange(sums.size) - np.repeat(starts, count)
        need = L * (d - 1) - 2 * np.arange(count.size)  # twice the low sum each high sum leaves
        low_sum = np.where((need >= 0) & (need % 2 == 0), need // 2, -1)
        width = np.bincount(sums[: d**h], minlength=count.size)[low_sum]  # low parts per row
        width[low_sum < 0] = 0
        size = count * width
        offset = size.cumsum() - size
        first = (offset[sums] + rank * width[sums]).astype(np.int32)
        high = np.empty(size.sum(), dtype=np.int32)
        low = np.empty(size.sum(), dtype=np.int32)
        classes = np.flatnonzero(size).tolist()
        for s in classes:  # a high part per row, the low parts of the complementary sum across
            rows = high[offset[s] : offset[s] + size[s]].reshape(count[s], width[s])
            rows[:] = order[starts[s] : starts[s] + count[s], None]
            rows = low[offset[s] : offset[s] + size[s]].reshape(count[s], width[s])
            rows[:] = order[starts[low_sum[s]] : starts[low_sum[s]] + width[s]]
        high.setflags(write=False)
        low.setflags(write=False)
        blocks = tuple((int(offset[s]), int(offset[s] + size[s]), int(width[s])) for s in classes)
        return cls(L, d, high, low, first, rank[: d**h], blocks)

    @property
    def dim(self) -> int:
        return self.high.size


@functools.cache
def _sparse_kernels():
    """SciPy's `coo_matvec` and `csr_matvecs`, from the `_sparsetools` file.

    `coo_matvec` adds A v from A's coordinate arrays, and A^T v from the
    same arrays with rows and columns swapped; `csr_matvecs` adds C X for a
    row-major block X of vectors: each class's C_s X_s and B_s X_s^T.  The
    extension enters itself in `sys.modules` as it loads, before any
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
    return module.coo_matvec, module.csr_matvecs


@dataclass(frozen=True)
class SectorHamiltonian:
    """A real symmetric sector Hamiltonian H = D + A + A^T + (+)_s (C_s (x) 1 + 1 (x) B_s).

    `diag` holds D; `rows`, `cols` (int32) and `data` are the coordinate
    arrays of the strictly lower triangle A, bond by bond: a hop of the
    bond (h-1, h) across the split per state that has one, then from
    `twist_start` on the hops of the twist bond (0, L-1).  On the L=2 ring
    the two bonds' hops have the same coordinates, and both products sum
    them.  On class s, the row-major block X_s of the basis, the bonds
    inside the high half act as C_s X_s and those inside the low half as
    X_s B_s.  `high_*` and `low_*` are the CSR arrays, both hops of each
    bond, of the block-diagonal C over the classes' high parts and B over
    their low parts, in class order, with columns counted from the class's
    first row.  Each of `classes` is (first row, end row of C, first row,
    end row of B, start, stop): one class's rows and states.  B and C hold
    no twist-bond hop, so they are the same for both twists.
    """

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    twist_start: int
    high_indptr: np.ndarray
    high_indices: np.ndarray
    high_data: np.ndarray
    low_indptr: np.ndarray
    low_indices: np.ndarray
    low_data: np.ndarray
    classes: tuple[tuple[int, int, int, int, int, int], ...]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v as one new array: D v, then A v, A^T v, C_s X_s and X_s B_s added into it."""
        coo_matvec, csr_matvecs = _sparse_kernels()
        out = self.diag * v
        coo_matvec(self.data.size, self.rows, self.cols, self.data, v, out)
        coo_matvec(self.data.size, self.cols, self.rows, self.data, v, out)  # A^T
        for row, end, low, low_end, start, stop in self.classes:
            rows, width = end - row, low_end - low
            x, y = v[start:stop].reshape(rows, width), out[start:stop].reshape(rows, width)
            high = self.high_indptr[row : end + 1], self.high_indices, self.high_data
            csr_matvecs(rows, rows, width, *high, x, y)
            low_csr = self.low_indptr[low : low_end + 1], self.low_indices, self.low_data
            step = -(-(2**16) // width)  # X_s B_s = (B_s X_s^T)^T, 2^16 states at a time
            for r in range(0, rows, step):
                xt = x[r : r + step].T.copy()
                yt = np.zeros_like(xt)
                csr_matvecs(width, width, xt.shape[1], *low_csr, xt, yt)
                y[r : r + step] += yt.T
        return out

    def start_weights(self) -> np.ndarray:
        """Lanczos start weights exp(-(H_ii - min H_ii) / max|H_ij|), i != j.

        A configuration whose diagonal energy lies many hop amplitudes above
        the lowest carries little of a ground state near the diagonal
        minimum, so it starts with little weight.  The largest hop is read
        from A, B and C alike.  The weights depend on D / max|H_ij| alone:
        scaling or shifting H leaves them as they are, and so does the twist
        above two sites (on the two-site ring A's two halves have the same
        coordinates; they add up to A_ij, and the abc twist cancels them).
        They are floored at the smallest normal float, so no component of
        the start vanishes, and are all ones when H has no nonzero
        off-diagonal entry.
        """
        data, t = self.data, self.twist_start
        if 2 * t == data.size and all(np.array_equal(a[:t], a[t:]) for a in (self.rows, self.cols)):
            data = data[:t] + data[t:]
        arrays = data, self.low_data, self.high_data  # no |data| copy
        scale = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays)
        if not scale:
            return np.ones(self.diag.size)
        weights = np.subtract(self.diag.min(), self.diag)
        weights /= scale
        np.exp(weights, out=weights)
        return np.maximum(weights, np.finfo(float).tiny, out=weights)


def build_hamiltonian(spec: SpinModelSpec, L: int, sector: SectorBasis) -> SectorHamiltonian:
    """The sector-restricted Hamiltonian of one model, in the form of `SectorHamiltonian`.

    A stores one hop of each of its two bonds: the one that raises the less
    significant site and lowers the other.  That hop lowers the low part's
    code, or moves a unit of digit sum from the high part to the low one,
    so its target comes earlier in the basis and its entry lies below the
    diagonal, in the row of the source state.  Its column is
    first[hi + dh] + within[lo + dl], the shifted parts ranked by the
    basis's tables.  A site's 2 S^z is read from a table over one half's
    codes, gathered by the state's part.  C and B hold both hops of each
    bond inside their half, from every part of a class to its target's row
    in that class (for B, its `within` rank).  A holds bond L-1's hops
    (raise site 0, lower site L-1) last; with the abc twist,
    `_negate_twist_bond` then gives them the antiperiodic sign.  The caller
    builds `sector` for the same L >= 2 and the model's local dimension.
    """
    model = spec.model
    d, h = model.local_dim, L // 2
    s2 = d - 1  # twice the site spin
    couplings = model.bond_couplings(L)
    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1)) is sqrt(2s) for every m of spin 1/2
    # and of spin 1, so each hop has one amplitude (amp * r) * r
    raise_amp = math.sqrt(s2)
    amps = 0.5 * couplings * raise_amp * raise_amp

    # twice the S^z of each site of every low part and every high part, one int8 row per site
    halves = []
    for sites in (h, L - h):
        codes = np.arange(d**sites)
        halves.append(np.array([codes // d**k % d * 2 - s2 for k in range(sites)], dtype=np.int8))
    low_m2, high_m2 = halves

    def half(site):  # the site's row over its half's codes, and each state's code in that half
        return (low_m2[site], sector.low) if site < h else (high_m2[site - h], sector.high)

    def per_state(f, i, j):  # f of the rows of sites i and j in every state
        (row_i, part_i), (row_j, part_j) = half(i), half(j)
        if part_i is part_j:  # one half: f over its codes, gathered once
            return np.take(f(row_i, row_j), part_i)
        return f(np.take(row_i, part_i), np.take(row_j, part_j))

    def step(site):  # (high, low) code change of raising one site's level
        return (0, d**site) if site < h else (d ** (site - h), 0)

    # S^z is 0, +-1/2 or +-1, so (J/4) (2 S^z_b)(2 S^z_b+1) is J S^z_b S^z_b+1 exactly;
    # the terms are added bond by bond, then site by site
    diag = np.zeros(sector.dim)
    for b in range(L):
        diag += per_state(lambda m, n: (0.25 * couplings[b]) * (m * n), b, (b + 1) % L)
    if onsite := model.J * model.D:
        for i in range(L):
            diag += per_state(lambda m, n: np.float64(0.25 * onsite) * (m * n), i, i)

    def can_hop(m, n):  # the level of 2 S^z = m can rise and that of n fall
        return (m < s2) & (n > -s2)

    # A: the bond across the split, then the twist bond, as (bond, raised site, lowered site)
    bonds = [(h - 1, h - 1, h), (L - 1, 0, L - 1)]
    masks = [per_state(can_hop, up, down) for _, up, down in bonds]  # the states each hop leaves
    hops = [int(np.count_nonzero(mask)) for mask in masks]
    # int32 holds every state: `SectorBasis.build` refused a sector whose pairs it would not
    rows = np.empty(sum(hops), dtype=np.int32)
    cols = np.empty(sum(hops), dtype=np.int32)
    data = np.repeat(amps[[b for b, _, _ in bonds]], hops)
    at = 0
    for mask, (_, up, down) in zip(masks, bonds):
        (high_up, low_up), (high_down, low_down) = step(up), step(down)
        for lo in range(0, sector.dim, 2**16):  # take reads its indices as intp: a chunk at a time
            src = np.flatnonzero(mask[lo : lo + 2**16]) + lo
            target = np.take(sector.first, np.take(sector.high, src) + (high_up - high_down))
            target += np.take(sector.within, np.take(sector.low, src) + (low_up - low_down))
            rows[at : at + src.size] = src
            cols[at : at + src.size] = target
            at += src.size

    def per_class(m2, parts, bond_amps):  # both hops of every bond inside one half
        sizes = [part.size for part in parts]
        first_row = np.cumsum([0] + sizes)  # each class's first row, then the row count
        rows = np.concatenate([np.zeros(0, dtype=np.int32), *parts])
        column = np.zeros(m2.shape[1], dtype=np.int32)  # a part's row within its class
        column[rows] = np.arange(rows.size) - np.repeat(first_row[:-1], sizes)
        found = [(np.zeros(0, dtype=np.int32),) * 3]  # no bond: no hop
        for i in range(len(m2) - 1):  # the bond of the half's sites i, i + 1 has bond_amps[i]
            for up, down in ((i, i + 1), (i + 1, i)):
                src = np.flatnonzero(can_hop(m2[up][rows], m2[down][rows]))
                found.append((src, column[rows[src] + (d**up - d**down)], np.full(src.size, i)))
        hop_rows, hop_cols, hop_bonds = map(np.concatenate, zip(*found))
        by_row = np.argsort(hop_rows, kind="stable")  # bond by bond within a row
        indptr = np.concatenate(([0], np.bincount(hop_rows, minlength=rows.size).cumsum()))
        csr = indptr.astype(np.int32), hop_cols[by_row], bond_amps[hop_bonds[by_row]]
        return first_row.tolist(), csr

    # C over the high part of each row of a class, B over the low parts of one of its rows
    blocks = sector.blocks
    c_rows, high = per_class(high_m2, [sector.high[a:z:w] for a, z, w in blocks], amps[h:])
    b_rows, low = per_class(low_m2, [sector.low[a : a + w] for a, _, w in blocks], amps)
    classes = tuple(
        (row, end, low_row, low_end, start, stop)
        for row, end, low_row, low_end, (start, stop, _)
        in zip(c_rows, c_rows[1:], b_rows, b_rows[1:], blocks)
    )
    ham = SectorHamiltonian(diag, rows, cols, data, hops[0], *high, *low, classes)
    if spec.boundary_twist is Twist.ABC:
        _negate_twist_bond(ham)
    return ham


def _negate_twist_bond(ham: SectorHamiltonian) -> None:
    """Turn a pbc sector matrix into the abc one, or back, in place.

    Only the twist bond's hops, `data[twist_start:]`, change sign.
    Negation is exact, so the result equals the matrix built with the other
    twist, signed zeros included.
    """
    twist = ham.data[ham.twist_start :]
    np.negative(twist, out=twist)


def _stored_pairs(L: int, d: int) -> int:
    """The S^z = 0 sector's lower-triangle pairs: one per bond and state whose raised site's
    level is a < d - 1 and lowered site's b >= 1; strings[s] counts the other sites' sum s."""
    strings = [1]
    for _ in range(L - 2):
        strings = [sum(strings[max(s - d + 1, 0) : s + 1]) for s in range(len(strings) + d - 1)]
    sums = [L * (d - 1) // 2 - a - b for a in range(d - 1) for b in range(1, d)]
    return L * sum(strings[s] for s in sums if 0 <= s < len(strings))


def _check_pairs(L: int, d: int) -> None:
    """Refuse a sector whose lower-triangle pairs reach 2^31, before anything is allocated.

    The count bounds the states, A's entries (a part of the pairs) and B's
    and C's offsets, so int32 holds every state index and offset.
    """
    # the central count of the other sites is at least their mean: far larger L goes uncounted
    if L > 2 and (L - 2) * math.log2(d) - math.log2((L - 2) * (d - 1) + 1) >= 31:
        raise ValidationError(f"L={L}: over 2^31 lower-triangle pairs overflow int32 indices")
    if (pairs := _stored_pairs(L, d)) >= 2**31:
        raise ValidationError(f"L={L}: {pairs} lower-triangle pairs overflow int32 indices")


def _check_size(model: SpinChain, L: int) -> None:
    if L < 2:
        raise ValidationError(f"sizes must be >= 2, got {L}")
    if model.local_dim == 2 and L % 2:
        raise ValidationError(f"spin-1/2 sizes must be even (odd L has no S^z=0 sector), got L={L}")
    _check_pairs(L, model.local_dim)


def energy_series(
    model: SpinChain,
    sizes: Iterable[int],
    twists: Iterable[Twist] = (Twist.PBC,),
    seed: int = 0,
) -> EnergySeries:
    """Ground-state energy series of one model over sizes and twists.

    The sizes are built and solved largest first, so each smaller size
    reuses heap that a larger one freed; the series iterates by ascending
    size all the same.  Every size is checked before anything is built: each
    must be an integer of any integer type, and then, smallest first, in
    range, so of several sizes beyond int32 the smallest is named; then the
    seed, a non-negative integer of any integer type.
    Each size's basis and Hamiltonian are built once, with the first twist,
    and the basis is freed before the solves; every further twist flips the
    twist-bond hops in place, so the energies equal those of separate
    `build_hamiltonian` calls bit for bit.  Every solve starts from `seed`'s
    Gaussian vector, in the basis's order, scaled by the weights of the
    bound method `SectorHamiltonian.start_weights`, which the solver calls
    when it forms the start, so no array of weights outlives the start.
    """
    sizes = sorted_sizes(sizes)
    twists = tuple(twists)
    if not sizes:
        raise ValidationError("no sizes requested")
    if not twists:
        raise ValidationError("no twists requested")
    if len(set(twists)) < len(twists):
        raise ValidationError(f"duplicate twists {[str(t) for t in twists]}")
    for L in sizes:
        _check_size(model, L)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, not {seed!r}")
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
