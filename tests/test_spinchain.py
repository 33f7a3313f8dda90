import dataclasses
import gc
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from bandrec import lanczos, spinchain
from bandrec import NumericalError, SpinChain, Twist, ValidationError, energy_series
from bandrec.lanczos import lowest_eigenpair
from bandrec.spinchain import SectorBasis, SectorHamiltonian, SpinModelSpec, build_hamiltonian
from ed_helpers import (
    codes,
    dense,
    entries,
    ground_energy,
    hamiltonian,
    adder,
    apply,
    reference_hamiltonian,
    traced_peak,
)


# ---------------------------------------------------------------------------
# independent dense oracle: build the full 2^L / 3^L Hamiltonian from Kronecker
# products of single-site spin matrices, with the same twist convention
# ---------------------------------------------------------------------------


def spin_matrices(local_dim):
    s = (local_dim - 1) / 2.0
    m = np.arange(s, -s - 1.0, -1.0)
    sz = np.diag(m)
    sp = np.zeros((local_dim, local_dim))
    for i in range(1, local_dim):
        sp[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    return sz, sp, sp.T


def site_operator(op, site, L, local_dim):
    mats = [np.eye(local_dim)] * L
    mats[site] = op
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def dense_kron_hamiltonian(model, L, twist, sign_bond=-1):
    # with the abc twist, bond `sign_bond` (default: the last) carries the sign
    d = model.local_dim
    sz, sp, sm = spin_matrices(d)
    couplings = model.bond_couplings(L)
    H = np.zeros((d**L, d**L))
    for b in range(L):
        i, j = b, (b + 1) % L
        sign = -1.0 if (twist is Twist.ABC and b == sign_bond % L) else 1.0
        H += couplings[b] * site_operator(sz, i, L, d) @ site_operator(sz, j, L, d)
        H += (
            0.5
            * couplings[b]
            * sign
            * (
                site_operator(sp, i, L, d) @ site_operator(sm, j, L, d)
                + site_operator(sm, i, L, d) @ site_operator(sp, j, L, d)
            )
        )
    if model.D:
        for i in range(L):
            szi = site_operator(sz, i, L, d)
            H += model.J * model.D * szi @ szi
    return H


def projected_kron_oracle(model, L, twist, sign_bond=-1):
    """The Kronecker oracle restricted to the S^z = 0 sector, in sector order.

    Kron order puts site 0 leftmost with m descending; the sector codes put
    site 0 in the lowest digit with m ascending.
    """
    d = model.local_dim
    full_indices = []
    for code in codes(SectorBasis.build(L, d)):
        idx = 0
        for site in range(L):
            level = (code // d**site) % d
            idx += (d - 1 - level) * d ** (L - 1 - site)
        full_indices.append(idx)
    H_full = dense_kron_hamiltonian(model, L, twist, sign_bond)
    return H_full[np.ix_(full_indices, full_indices)]


def dense_sector(model, L, twist):
    spec = SpinModelSpec(model, twist)
    return dense(hamiltonian(spec, L))


ALL_MODELS = [
    SpinChain("heisenberg", 1.0),
    SpinChain("dimerized", 1.0, delta=0.3),
    SpinChain("single-ion", 1.0, D=2.5),
]


# edge values of the parameters: signed zeros, negative couplings, delta = 0
LITERAL_MODELS = [
    SpinChain("heisenberg", -0.0),
    SpinChain("heisenberg", -2.5),
    SpinChain("dimerized", 0.7, delta=0.0),
    SpinChain("dimerized", -1.3, delta=-0.048),
    SpinChain("single-ion", 1.7, D=-7.4),
]


def literal_couplings(model, L):
    """Bond couplings written out per model: uniform J, or J(1 -+ delta) from bond 0."""
    if model.kind == "dimerized":
        J, delta = model.J, model.delta
        return np.where(np.arange(L) % 2 == 0, J * (1 - delta), J * (1 + delta))
    return np.full(L, model.J)


def unit(dim):
    """All-ones start weights: the plain uniform start, bit for bit."""
    return lambda: np.ones(dim)


def splitmix64_uniform(seed, n):
    """The plain start's first n components before the norm, in pure Python.

    Output i of the SplitMix64 generator seeded with seed mod 2^64, z, as
    ((z >> 11) | 1) 2^-52 - 1.
    """
    mask, state, out = 2**64 - 1, int(seed) % 2**64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(((z ^ (z >> 31)) >> 11 | 1) / 2**52 - 1.0)
    return out


def _code_order_entries(ham, rank):
    """Every off-diagonal entry as (row, column, value) in code order, sorted, value bits last."""
    rows, cols, values = entries(ham)
    rows, cols = rank[rows], rank[cols]
    order = np.lexsort((values.view(np.int64), cols, rows))
    return rows[order], cols[order], values[order]


def _assert_same_entries(spec, L):
    # A + A^T + (+)_s (C_s (x) 1 + 1 (x) B_s) and the reference's A + A^T, both
    # in code order: the same positions with the same value bytes, and the
    # same diagonal bytes; A alone is the reference's two crossing bonds
    basis = SectorBasis.build(L, spec.model.local_dim)
    ham, ref = build_hamiltonian(spec, L, basis), reference_hamiltonian(spec, L, basis)
    by_code = np.argsort(codes(basis))
    rank = np.empty(basis.dim, dtype=np.int64)
    rank[by_code] = np.arange(basis.dim)
    assert ham.diag.dtype == ref.diag.dtype and ham.diag[by_code].tobytes() == ref.diag.tobytes(), L
    for name in ("rows", "cols", "high_indptr", "high_indices", "low_indptr", "low_indices"):
        assert getattr(ham, name).dtype == np.int32, (name, L)
    assert ham.data.dtype == ham.high_data.dtype == ham.low_data.dtype == np.float64
    # A alone, with B and C emptied, against the reference of the two crossing bonds
    empty = np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)
    a_only = SectorHamiltonian(
        ham.diag, ham.rows, ham.cols, ham.data, ham.twist_start, *empty, *empty, ()
    )
    crossing = reference_hamiltonian(spec, L, basis, bonds=(L // 2 - 1, L - 1))
    for built, expected in ((ham, ref), (a_only, crossing)):
        built = _code_order_entries(built, rank)
        expected = _code_order_entries(expected, np.arange(basis.dim))
        assert np.array_equal(built[0], expected[0]) and np.array_equal(built[1], expected[1]), L
        assert built[2].tobytes() == expected[2].tobytes(), L


class TestSpinChain:
    def test_table(self):
        assert [(m.kind, m.local_dim, m.nu_hint) for m in ALL_MODELS] == [
            ("heisenberg", 2, 1.0),
            ("dimerized", 2, 3.0),
            ("single-ion", 3, 2.0),
        ]

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("heisenberg", {"delta": 0.3}),
            ("heisenberg", {"D": 5.0}),
            ("single-ion", {"delta": 0.1, "D": 2.0}),
            ("dimerized", {"delta": 0.1, "D": 2.0}),
            ("dimerized", {"delta": 1.0}),
            ("dimerized", {"delta": float("nan")}),
            ("xxz", {}),
        ],
    )
    def test_rejects_parameters_its_model_does_not_take(self, kind, params):
        with pytest.raises(ValidationError):
            SpinChain(kind, 1.0, **params)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "kind, param",
        [("heisenberg", "J"), ("dimerized", "J"), ("single-ion", "J"), ("single-ion", "D")],
    )
    def test_rejects_non_finite_parameters(self, kind, param, value, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(spinchain.SectorBasis, "build", build)
        params = {"delta": 0.1} if kind == "dimerized" else {}
        with pytest.raises(ValidationError, match="must be finite"):
            SpinChain(kind, **params, **{param: value})

    def test_zero_parameters_are_accepted_on_every_model(self):
        for kind in ("heisenberg", "dimerized", "single-ion"):
            assert SpinChain(kind, 1.0, delta=0.0, D=0.0).kind == kind


class TestSectorBasis:
    def test_dimensions(self):
        assert SectorBasis.build(4, 2).dim == 6  # C(4,2)
        assert SectorBasis.build(2, 3).dim == 3
        assert SectorBasis.build(4, 3).dim == 19  # central trinomial
        assert SectorBasis.build(3, 2).dim == 0  # odd spin-1/2 chain, Sz=0 empty

    def test_rank_unrank_roundtrip(self):
        # the codes are distinct, and the tables rank a code to its place (TestRankTables)
        basis = SectorBasis.build(6, 3)
        code = codes(basis)
        assert np.unique(code).size == basis.dim
        idx = np.arange(0, basis.dim, 7)
        high, low = np.divmod(code[idx], 3**3)
        assert np.array_equal(basis.first[high] + basis.within[low], idx)

    def test_all_states_have_target_magnetization(self):
        basis = SectorBasis.build(5, 3)
        assert basis.dim == 51  # central trinomial of 5
        for code in codes(basis):
            digits = [code // 3**site % 3 for site in range(5)]
            assert sum(d - 1 for d in digits) == 0  # total S^z = 0

    @pytest.mark.parametrize(
        "d, L", [(2, L) for L in range(1, 17)] + [(3, L) for L in range(1, 12)]
    )
    def test_matches_filtered_full_space(self, d, L):
        # odd spin-1/2 rings give the empty sector.  Class-major: by the high
        # part's digit sum, then by code
        full = np.arange(d**L)
        digit_sum = sum((full // d**site) % d for site in range(L))
        sector = full[2 * digit_sum == L * (d - 1)]
        high_sum = sum((sector // d**site) % d for site in range(L // 2, L))
        basis = SectorBasis.build(L, d)
        assert basis.high.dtype == basis.low.dtype == np.int32
        assert np.array_equal(codes(basis), sector[np.argsort(high_sum, kind="stable")])

    def test_build_does_not_allocate_the_full_space(self):
        # in int64 vectors of the sector: the int32 high and low parts, filled
        # class by class in place, beside tables of 3^7 and 3^6 entries; the
        # int64 codes and the low parts gathered into them held 2.07, the
        # digit-sum recursion 3.00
        basis, peak = traced_peak(lambda: SectorBasis.build(13, 3))
        assert basis.dim == 212_941  # central trinomial coefficient of 13
        assert peak < 1.25 * 8 * basis.dim


class TestRankTables:
    @pytest.mark.parametrize(
        "d, L", [(2, L) for L in range(2, 17)] + [(3, L) for L in range(2, 11)]
    )
    def test_tables_rank_every_state_as_binary_search_does(self, d, L):
        # odd spin-1/2 rings give the empty sector, whose tables rank nothing.
        # Binary search over the codes sorted by (high digit sum, code) ranks
        # each state at its place, and so do the tables
        basis = SectorBasis.build(L, d)
        first, within = basis.first, basis.within
        assert first.dtype == within.dtype == np.int32
        assert (first.size, within.size) == (d ** (L - L // 2), d ** (L // 2))
        high_sum = sum((basis.high // d**k) % d for k in range(L - L // 2))
        key = high_sum.astype(np.int64) * d**L + codes(basis)
        assert np.array_equal(np.searchsorted(np.sort(key), key), np.arange(basis.dim))
        assert np.array_equal(first[basis.high] + within[basis.low], np.arange(basis.dim))
        # each block is one high digit sum: rows of one high part, each row every low part
        for start, stop, width in basis.blocks:
            high = basis.high[start:stop].reshape(-1, width)
            low = basis.low[start:stop].reshape(-1, width)
            assert (high == high[:, :1]).all() and (low == low[:1]).all()
            assert np.unique(high_sum[start:stop]).size == 1
        assert sum(stop - start for start, stop, _ in basis.blocks) == basis.dim


class TestHamiltonian:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_kron_oracle_on_sector(self, model, twist, L):
        # entry by entry; at L=2 both bonds couple the same pair of sites
        if model.local_dim == 2 and L % 2:
            pytest.skip("odd spin-1/2 sector is empty")
        if model.local_dim == 3 and L > 6:
            pytest.skip("keep dense sizes small")
        H_sector = dense_sector(model, L, twist)
        assert np.max(np.abs(H_sector - projected_kron_oracle(model, L, twist))) < 1e-12

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_doubled_bond_is_one_summed_entry(self, twist):
        # both bonds of the L=2 ring couple sites 0 and 1: A keeps one entry
        # per bond at the one position below the diagonal, and both products
        # read them as one entry, J (pbc) or 0 (abc)
        ham = hamiltonian(SpinModelSpec(SpinChain("heisenberg", 1.0), twist), 2)
        assert ham.rows.dtype == np.int32 and ham.cols.dtype == np.int32
        assert ham.data.size == 2 and ham.twist_start == 1
        assert np.array_equal(ham.rows, [1, 1]) and np.array_equal(ham.cols, [0, 0])
        expected = 1.0 if twist is Twist.PBC else 0.0
        assert np.array_equal(dense(ham), [[-0.5, expected], [expected, -0.5]])
        assert np.array_equal(apply(ham.matvec, np.array([1.0, 0.0])), [-0.5, expected])
        assert np.array_equal(apply(ham.matvec, np.array([0.0, 1.0])), [expected, -0.5])

    @pytest.mark.parametrize("model", [SpinChain("heisenberg", 1.0), SpinChain("single-ion", 1.0, D=7.4)])
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_no_position_repeats_from_three_sites(self, model, twist):
        # A is strictly lower triangular, int32-indexed and, from L=3 on,
        # holds each position once
        for L in range(3, 9):
            if model.local_dim == 2 and L % 2:
                continue  # odd spin-1/2 rings have no S^z = 0 state
            sector = SectorBasis.build(L, model.local_dim)
            ham = build_hamiltonian(SpinModelSpec(model, twist), L, sector)
            assert sector.dim > 0 and ham.data.size > 0
            assert ham.rows.dtype == np.int32 and ham.cols.dtype == np.int32
            assert ham.rows.size == ham.cols.size == ham.data.size
            assert np.all(ham.cols < ham.rows), (model.kind, twist, L)
            positions = ham.rows.astype(np.int64) * sector.dim + ham.cols
            assert np.unique(positions).size == positions.size, (model.kind, twist, L)

    @pytest.mark.parametrize("model", ALL_MODELS + [SpinChain("heisenberg", -0.0)])
    def test_twist_tail_is_where_the_twists_differ(self, model):
        # every entry of a -0.0 ring is a signed zero, told apart by its sign bit
        for L in range(2, 10):
            if model.local_dim == 2 and L % 2:
                continue  # odd spin-1/2 rings have no S^z = 0 state
            pbc = hamiltonian(SpinModelSpec(model, Twist.PBC), L)
            abc = hamiltonian(SpinModelSpec(model, Twist.ABC), L)
            t = pbc.twist_start
            assert 0 < t < pbc.data.size and abc.twist_start == t
            assert np.array_equal(abc.rows, pbc.rows) and np.array_equal(abc.cols, pbc.cols)
            differ = np.flatnonzero(np.signbit(pbc.data) != np.signbit(abc.data))
            assert np.array_equal(differ, np.arange(t, pbc.data.size)), (model.kind, L)
            assert np.array_equal(np.abs(pbc.data), np.abs(abc.data))
            # B and C hold no twist-bond hop
            assert pbc.high_data.tobytes() == abc.high_data.tobytes()
            assert pbc.low_data.tobytes() == abc.low_data.tobytes()
            assert pbc.classes == abc.classes
            if L == 2:
                # each twist hop shares its matrix position with bond 0's hop
                assert np.array_equal(pbc.rows[t:], pbc.rows[:t])
                assert np.array_equal(pbc.cols[t:], pbc.cols[:t])
            data = pbc.data.tobytes()
            spinchain._negate_twist_bond(pbc)
            assert pbc.data.tobytes() == abc.data.tobytes()
            spinchain._negate_twist_bond(pbc)
            assert pbc.data.tobytes() == data

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_hermiticity_on_random_vectors(self, model):
        for L in (4, 6, 8, 10):
            if model.local_dim == 3 and L > 8:
                continue
            ham = hamiltonian(SpinModelSpec(model, Twist.ABC), L)
            rng = np.random.default_rng(L)
            for _ in range(3):
                u = rng.standard_normal(ham.diag.size)
                v = rng.standard_normal(ham.diag.size)
                lhs = u @ apply(ham.matvec, v)
                rhs = apply(ham.matvec, u) @ v
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_matvec_equals_dense_product(self, model, twist):
        for L in range(2, 11 if model.local_dim == 2 else 8):
            if model.local_dim == 2 and L % 2:
                continue
            ham = hamiltonian(SpinModelSpec(model, twist), L)
            H = dense(ham)
            v = np.random.default_rng(L).standard_normal(ham.diag.size)
            out = apply(ham.matvec, v)
            assert out is not v and out.shape == v.shape
            assert np.max(np.abs(out - H @ v)) <= 1e-13 * max(1.0, np.max(np.abs(H @ v))), L
            # the product is added into what `out` holds, and nothing is returned
            w = np.random.default_rng(L + 100).standard_normal(ham.diag.size)
            added = w.copy()
            assert ham.matvec(v, added) is None
            assert np.max(np.abs(added - (w + H @ v))) <= 1e-13 * max(1.0, np.max(np.abs(w + H @ v)))

    def test_a_product_allocates_chunks_only(self):
        # D v goes 2^15 states at a time, X_s B_s through a transposed copy
        # and a zeroed buffer of 2^16 states: 0.28 vectors at Heisenberg L=22
        # (dim 705,432), where a product into a new array would add one
        ham = hamiltonian(SpinModelSpec(SpinChain("heisenberg"), Twist.PBC), 22)
        v = np.random.default_rng(0).standard_normal(ham.diag.size)
        out = np.zeros_like(v)
        ham.matvec(v, out)  # the kernels loaded before tracing
        _, peak = traced_peak(lambda: ham.matvec(v, out))
        assert peak < 0.3 * v.nbytes, peak / v.nbytes

    @pytest.mark.parametrize("model", ALL_MODELS + LITERAL_MODELS)
    def test_bond_couplings_keep_the_literal_formulas(self, model):
        for L in range(2, 12):
            couplings = model.bond_couplings(L)
            expected = literal_couplings(model, L)
            assert couplings.dtype == np.float64 and couplings.shape == (L,)
            assert np.array_equal(couplings, expected)
            assert np.array_equal(np.signbit(couplings), np.signbit(expected))

    @pytest.mark.parametrize("model", ALL_MODELS + LITERAL_MODELS)
    def test_diagonal_keeps_the_per_site_arithmetic(self, model):
        # the per-site S^z products, grouped as the build groups them: each
        # half's bonds, then its on-site terms (spin 1 only), the high half's
        # sum plus the low half's, then the bond across the split and the
        # twist bond.  The plain bond-by-bond sum differs by rounding alone
        eps = np.finfo(float).eps
        for L in range(2, 11 if model.local_dim == 2 else 9):
            if model.local_dim == 2 and L % 2:
                continue  # odd spin-1/2 rings have no S^z = 0 state
            basis = SectorBasis.build(L, model.local_dim)
            d, h = model.local_dim, L // 2
            m = [(codes(basis) // d**i) % d - (d - 1) / 2.0 for i in range(L)]
            couplings = literal_couplings(model, L)
            bonds = [couplings[b] * m[b] * m[(b + 1) % L] for b in range(L)]
            sites = [model.J * model.D * m[i] ** 2 for i in range(L)] if model.kind == "single-ion" else []
            halves = []
            for first, end in ((h, L), (0, h)):
                halves.append(np.zeros(basis.dim))
                for term in bonds[first : end - 1] + sites[first:end]:
                    halves[-1] += term
            expected = halves[0] + halves[1] + bonds[h - 1] + bonds[L - 1]
            diag = build_hamiltonian(SpinModelSpec(model, Twist.ABC), L, basis).diag
            assert diag.dtype == np.float64
            assert np.array_equal(diag, expected) and np.array_equal(np.signbit(diag), np.signbit(expected))
            plain, scale = np.zeros(basis.dim), np.zeros(basis.dim)
            for term in bonds + sites:
                plain += term
                scale += np.abs(term)
            assert np.all(np.abs(diag - plain) <= 4 * L * eps * scale), L

    @pytest.mark.parametrize("model", ALL_MODELS + LITERAL_MODELS)
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_arrays_equal_the_plain_build_byte_for_byte(self, model, twist):
        # per-site digits, float S^z, binary search and a per-hop amplitude
        # (ed_helpers.reference_hamiltonian) give the same diagonal bytes and
        # the same entries, value bytes included, in code order
        spec = SpinModelSpec(model, twist)
        for L in range(2, 13 if model.local_dim == 2 else 10):
            _assert_same_entries(spec, L)

    def test_single_ion_fourteen_sites_equal_the_plain_build(self):
        _assert_same_entries(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.ABC), 14)

    @pytest.mark.parametrize(
        "model, L", [(SpinChain("single-ion", 1.0, D=7.4), 13), (SpinChain("heisenberg"), 20)]
    )
    def test_build_holds_little_beyond_the_finished_matrix(self, model, L):
        # in int64 vectors of the sector: per-site int64 digits, the L hop
        # masks and the float scatter held 3.5-3.8.  B and C count as matrix
        basis = SectorBasis.build(L, model.local_dim)
        spec = SpinModelSpec(model, Twist.PBC)
        ham, peak = traced_peak(lambda: build_hamiltonian(spec, L, basis))
        arrays = (ham.diag, ham.rows, ham.cols, ham.data)
        arrays += (ham.high_indptr, ham.high_indices, ham.high_data)
        arrays += (ham.low_indptr, ham.low_indices, ham.low_data)
        matrix = sum(a.nbytes for a in arrays)
        assert (peak - matrix) / (8 * basis.dim) < 1.5, (peak, matrix, basis.dim)

    def test_each_offdiagonal_pair_is_stored_once(self):
        # diag (8 bytes a state) and A's data, rows and columns (16 bytes a
        # pair), beside the small B and C; the pairs are counted
        # combinatorially, and each of A's two bonds holds 1/L of them
        L, d = 11, 3
        count = np.zeros((L + 1, L * (d - 1) + 1), dtype=np.int64)  # digit strings by sum
        count[0, 0] = 1
        for n in range(1, L + 1):
            for digit in range(d):
                count[n, digit:] += count[n - 1, : count.shape[1] - digit]
        half = L * (d - 1) // 2
        dim = int(count[L, half])
        # a pair per bond and state whose raised site is below d-1 and lowered site above 0
        pairs = L * int(sum(count[L - 2, half - a - b] for a in range(d - 1) for b in range(1, d)))
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.PBC), L)
        assert ham.diag.size == dim and ham.data.size * L == 2 * pairs
        # A + A^T + (+)_s (C_s (x) 1 + 1 (x) B_s) holds every pair at two positions, once each
        rows, cols, _ = entries(ham)
        assert rows.size == 2 * pairs and np.unique(rows * dim + cols).size == rows.size
        small = sum(a.nbytes for a in (ham.high_indptr, ham.high_indices, ham.high_data))
        small += sum(a.nbytes for a in (ham.low_indptr, ham.low_indices, ham.low_data))
        stored = ham.diag.nbytes + ham.data.nbytes + ham.rows.nbytes + ham.cols.nbytes
        assert stored <= 8 * dim + 16 * ham.data.size, (stored, dim, pairs)
        # B and C hold their L - 2 bonds in under 5% of the 12 bytes a pair that A would take
        assert small < 0.05 * 12 * (L - 2) * pairs / L, (small, pairs)

    def test_a_holds_the_two_bonds_that_cross_the_split(self):
        # single-ion L=13: A holds 2 of the 13 bonds, (h-1, h) and the twist
        # bond, so 2/L of the sector's pairs; every class's rows of C point
        # into that class only
        L, d = 13, 3
        basis = SectorBasis.build(L, d)
        ham = build_hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.PBC), L, basis)
        assert ham.data.size * L == 2 * spinchain._stored_pairs(L, d) == 2 * 1_292_746
        assert ham.twist_start * 2 == ham.data.size
        assert ham.high_indptr.size - 1 == sum((stop - start) // row for start, stop, row in basis.blocks)
        held = 0
        for row, end, _, _, start, stop in ham.classes:
            assert (start, stop) in {block[:2] for block in basis.blocks}
            cols = ham.high_indices[ham.high_indptr[row] : ham.high_indptr[end]]
            assert cols.min() >= 0 and cols.max() < end - row, (row, end)
            held += cols.size
        assert held == ham.high_indices.size > 0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    @pytest.mark.parametrize("L", [4, 6, 9, 10])
    def test_b_holds_both_hops_of_each_low_bond_per_class(self, model, L):
        # B_s has one row per low part of class s, taken from its block's
        # first row, columns inside the class (their `within` ranks), and
        # both hops of each bond 0 .. h-2, bond by bond within a row, at
        # that bond's amplitude; it is symmetric
        d, h = model.local_dim, L // 2
        if d == 2 and L % 2:
            pytest.skip("odd spin-1/2 sector is empty")
        basis = SectorBasis.build(L, d)
        ham = build_hamiltonian(SpinModelSpec(model, Twist.PBC), L, basis)
        amps = 0.5 * model.bond_couplings(L) * np.sqrt(d - 1.0) * np.sqrt(d - 1.0)
        assert ham.low_indptr.size - 1 == sum(width for *_, width in basis.blocks)
        assert [c[4:] for c in ham.classes] == [block[:2] for block in basis.blocks]
        for row, end, low, low_end, start, stop in ham.classes:
            parts = basis.low[start : start + low_end - low]
            assert np.array_equal(basis.within[parts], np.arange(parts.size))
            B = np.zeros((parts.size, parts.size))
            for i, part in enumerate(parts.tolist()):
                expected = []
                for b in range(h - 1):
                    digits = [part // d**b % d, part // d ** (b + 1) % d]
                    for up, down in ((0, 1), (1, 0)):
                        if digits[up] < d - 1 and digits[down] > 0:
                            target = part + d ** (b + up) - d ** (b + down)
                            expected.append((int(np.flatnonzero(parts == target)[0]), amps[b]))
                at = slice(ham.low_indptr[low + i], ham.low_indptr[low + i + 1])
                built = list(zip(ham.low_indices[at].tolist(), ham.low_data[at].tolist()))
                assert built == expected, (L, i)
                B[i, ham.low_indices[at]] = ham.low_data[at]
            assert np.array_equal(B, B.T)
        assert ham.low_data.size > 0

    @pytest.mark.parametrize("model", [SpinChain("heisenberg"), SpinChain("single-ion", 1.0, D=7.4)], ids=str)
    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_two_and_three_site_rings_have_an_empty_b(self, model, L, twist):
        # h = 1: the low half has one site and no bond, so B is empty, every
        # class has one low part, and A and C give the dense product
        if model.local_dim == 2 and L % 2:
            pytest.skip("odd spin-1/2 sector is empty")
        ham = hamiltonian(SpinModelSpec(model, twist), L)
        assert ham.low_data.size == ham.low_indices.size == 0
        assert ham.low_indptr.size == len(ham.classes) + 1 and not ham.low_indptr.any()
        assert [low_end - low for _, _, low, low_end, _, _ in ham.classes] == [1] * len(ham.classes)
        H = projected_kron_oracle(model, L, twist)
        for v in np.eye(ham.diag.size):
            assert np.max(np.abs(apply(ham.matvec, v) - H @ v)) <= 1e-13

    @pytest.mark.parametrize(
        "model, L, bound",
        [(SpinChain("single-ion", 1.0, D=7.4), 13, 5.3e6), (SpinChain("heisenberg"), 20, 3.4e6)],
        ids=["single-ion-13", "heisenberg-20"],
    )
    def test_stored_bytes_stay_under_the_two_bond_bound(self, model, L, bound):
        # diag + A + B + C: 5.08 MB at single-ion L=13 and 3.15 MB at
        # Heisenberg L=20 with A in coordinate form; in CSR form, with its
        # int32 row offsets, they made 5.53 MB and 3.70 MB, and with every
        # bond that touches the low half 11.45 MB and 8.89 MB
        ham = hamiltonian(SpinModelSpec(model, Twist.PBC), L)
        arrays = (ham.diag, ham.rows, ham.cols, ham.data)
        arrays += (ham.high_indptr, ham.high_indices, ham.high_data)
        arrays += (ham.low_indptr, ham.low_indices, ham.low_data)
        stored = sum(a.nbytes for a in arrays)
        assert stored < bound, stored

    def test_missing_kernel_file_names_its_path(self, tmp_path, monkeypatch):
        # a SciPy whose sparse directory lacks the extension
        (tmp_path / "scipy" / "sparse").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "sparse"))):
            spinchain._sparse_kernels.__wrapped__()  # past the kernels an earlier solve cached
        assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_sector_contains_full_space_minimum(self, L):
        model = SpinChain("heisenberg", 1.0)
        sector_min = np.linalg.eigvalsh(dense_sector(model, L, Twist.PBC))[0]
        full_min = np.linalg.eigvalsh(dense_kron_hamiltonian(model, L, Twist.PBC))[0]
        assert sector_min == pytest.approx(full_min, abs=1e-10)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_translation_invariance_of_pbc_spectrum(self, model):
        L = 6 if model.local_dim == 2 else 4
        basis = SectorBasis.build(L, model.local_dim)
        H = dense_sector(model, L, Twist.PBC)
        # conjugate by the cyclic site relabeling; dimerized couplings shift by
        # one bond, which maps delta -> -delta (same spectrum family)
        d = model.local_dim
        rotated_codes = (codes(basis) // d) + (codes(basis) % d) * d ** (L - 1)
        high, low = np.divmod(rotated_codes, d ** (L // 2))
        perm = basis.first[high] + basis.within[low]
        if model.kind == "dimerized":
            H_rot = dense_sector(dataclasses.replace(model, delta=-model.delta), L, Twist.PBC)
        else:
            H_rot = H
        assert np.allclose(
            np.linalg.eigvalsh(H_rot), np.linalg.eigvalsh(H[np.ix_(perm, perm)]), atol=1e-10
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_twist_position_is_gauge(self, model, L):
        # the abc sign on any one bond gives the spectrum of the sign on bond L-1
        if model.local_dim == 3 and L == 8:
            pytest.skip("keep dense sizes small")
        built = np.linalg.eigvalsh(dense_sector(model, L, Twist.ABC))
        for bond in (0, 1, L - 1):
            oracle = np.linalg.eigvalsh(projected_kron_oracle(model, L, Twist.ABC, bond))
            assert np.allclose(built, oracle, atol=1e-10), bond


class TestGroundEnergy:
    def test_two_site_singlet(self):
        r = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC), 2)
        assert r.energy == pytest.approx(-1.5, abs=1e-12)

    def test_four_site_value(self):
        r = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC), 4)
        assert r.energy == pytest.approx(-2.0, abs=1e-10)

    def test_couplings_scale(self):
        r = ground_energy(SpinModelSpec(SpinChain("heisenberg", 2.5), Twist.PBC), 4)
        assert r.energy == pytest.approx(-5.0, abs=1e-9)

    def test_twelve_site_density_near_thermodynamic_value(self):
        r = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC), 12)
        e_inf = 0.25 - np.log(2.0)
        assert abs(r.energy / 12 - e_inf) <= 0.03 * abs(e_inf)

    def test_dimerized_delta_zero_equals_heisenberg(self):
        for L in (4, 6, 8):
            dimerized = SpinModelSpec(SpinChain("dimerized", 1.0, delta=0.0), Twist.PBC)
            e_dim = ground_energy(dimerized, L).energy
            e_heis = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC), L).energy
            assert e_dim == pytest.approx(e_heis, abs=1e-10)

    def test_single_ion_large_anisotropy_perturbative(self):
        D = 1000.0
        r = ground_energy(SpinModelSpec(SpinChain("single-ion", 1.0, D=D), Twist.PBC), 2)
        # two-site dense oracle
        dense = dense_sector(SpinChain("single-ion", 1.0, D=D), 2, Twist.PBC)
        assert r.energy == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
        # leading order of the level repulsion from the doubly occupied states
        assert r.energy == pytest.approx(-4.0 / D, abs=10.0 / D**2)

    def test_odd_spin_half_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            energy_series(SpinChain("heisenberg"), [5])

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_lanczos_matches_dense_on_small_sectors(self, model, twist):
        sizes = (2, 4, 6, 8, 10) if model.local_dim == 2 else (2, 3, 4, 5, 6, 7)
        for L in sizes:
            dense_min = np.linalg.eigvalsh(dense_sector(model, L, twist))[0]
            r = ground_energy(SpinModelSpec(model, twist), L)
            assert r.energy == pytest.approx(dense_min, abs=1e-10), (model.kind, twist, L)

    def test_residual_bound(self):
        # the reported residual is the Ritz estimate beta |y_last|; the Ritz
        # vector V^T y built from the operator's inputs, the Lanczos vectors,
        # is unit and its explicit residual passes the bound and equals the
        # estimate, though no step was reorthogonalized
        spec = SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC)
        for L in (8, 12):
            ham = hamiltonian(spec, L)
            seen = []

            def matvec(x, out):
                seen.append(x.copy())
                ham.matvec(x, out)

            r, y = lowest_eigenpair(matvec, ham.diag.size, 0, ham.start_weights)
            assert r.energy == ground_energy(spec, L).energy
            assert len(seen) == r.iterations == y.size >= 3
            x = np.array(seen).T @ y
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            explicit = np.linalg.norm(apply(ham.matvec, x) - r.energy * x)
            assert explicit <= 1e-8 * (abs(r.energy) + 1.0)
            assert explicit == pytest.approx(r.residual_norm, rel=1e-6)


class TestLanczosSolver:
    def test_near_degenerate_full_space_is_refused(self):
        # three steps span the whole space, but without reorthogonalization
        # the pair 0, 3e-11 leaves the Ritz vector an explicit residual of
        # 5.3e-7: the solve fails rather than return a plausible number
        diag = np.array([0.0, 3e-11, 1.0])
        with pytest.raises(NumericalError, match="in 3 iterations") as excinfo:
            lowest_eigenpair(adder(diag), diag.size, 0, unit(diag.size))
        assert excinfo.value.best_estimate == pytest.approx(0.0, abs=1e-10)

    def test_ground_state_behind_an_outlier_that_converged_first(self):
        # the isolated top eigenvalue converges within a few steps, and later
        # vectors regain a component along its Ritz vector; the ground state
        # at the edge of the dense part needs well over 150 steps
        diag = np.concatenate((np.linspace(0.0, 1.0, 999), [10.0]))
        result, _ = lowest_eigenpair(adder(diag), diag.size, 0, unit(diag.size))
        assert result.iterations > 150
        assert result.energy == pytest.approx(np.linalg.eigvalsh(np.diag(diag))[0], abs=1e-10)

    def test_separated_spectrum_takes_one_product_per_step(self):
        # a solve accepted on the Ritz estimate forms no Ritz vector and takes
        # no residual product: the operator runs once per Lanczos step
        diag = np.linspace(0.0, 4.0, 50)
        calls = []

        def matvec(x, out):
            calls.append(1)
            adder(diag)(x, out)

        result, y = lowest_eigenpair(matvec, diag.size, 0, unit(diag.size))
        assert result.iterations < diag.size
        assert len(calls) == result.iterations
        assert result.energy == pytest.approx(0.0, abs=1e-10)
        assert 0.0 < result.residual_norm <= lanczos.TOL_RESIDUAL * 4.0
        assert y.shape == (result.iterations,)

    def test_ritz_estimate_is_the_residual_of_the_ritz_vector(self):
        # the operator's inputs are the Lanczos vectors v_j; the Ritz vector
        # V^T y built from them is unit, and its explicit residual is the
        # reported beta |y_last|, though no step was reorthogonalized
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 300))
        A = A + A.T
        seen = []

        def matvec(x, out):
            seen.append(x.copy())
            adder(A)(x, out)

        result, y = lowest_eigenpair(matvec, 300, 0, unit(300))
        assert len(seen) == result.iterations == y.size < 300
        assert result.energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)
        x = np.array(seen).T @ y
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        explicit = np.linalg.norm(A @ x - result.energy * x)
        assert explicit == pytest.approx(result.residual_norm, rel=1e-6)
        assert result.residual_norm <= lanczos.TOL_RESIDUAL * np.linalg.norm(A, 2)

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((400, 400))
        A = (A + A.T) / 2
        monkeypatch.setattr(lanczos, "MAX_ITER", 4)
        with pytest.raises(NumericalError) as excinfo:
            lowest_eigenpair(adder(A), 400, 0, unit(400))
        assert hasattr(excinfo.value, "best_estimate")

    @pytest.mark.parametrize("routine", ["eigvalsh", "eigh"])
    def test_tridiagonal_failure_is_a_numerical_error(self, monkeypatch, routine):
        # eigvalsh gives every step's Ritz values, eigh the accepted Ritz pair
        def fail(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        A = np.diag(np.arange(10.0))
        with pytest.raises(NumericalError, match="tridiagonal matrix"):
            lowest_eigenpair(adder(A), 10, 0, unit(10))

    @pytest.mark.parametrize("bad_step", [1, 3])
    def test_overflow_is_named_at_its_step(self, bad_step):
        # step 1 of a 1e200-wide diagonal overflows beta's sum of squares;
        # a product that turns infinite at step 3 gives a NaN alpha.  The
        # solve stops there, not in LAPACK with NaNs steps later
        diag = 1e200 * np.arange(1.0, 11.0) if bad_step == 1 else np.arange(10.0)
        calls = []

        def matvec(x, out):
            calls.append(None)
            adder(diag if len(calls) < bad_step else np.full(diag.size, np.inf))(x, out)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=f"step {bad_step} overflowed") as excinfo:
                lowest_eigenpair(matvec, diag.size, 0, unit(diag.size))
        assert "tridiagonal" not in str(excinfo.value) and len(calls) == bad_step

    def test_early_stop_on_a_wide_spectrum_is_not_accepted(self):
        # beta is judged against the widest Ritz value (1e14): at step 9 it
        # falls below 1e-14 of it, so the Krylov space looks exhausted, but
        # the replayed Ritz pair reads -1.0109 with explicit residual 0.0245;
        # exact E0 is -1
        diag = np.concatenate(([-1.0], np.linspace(0.0, 1.0, 298), [1e14]))
        with pytest.raises(NumericalError, match="in 9 iterations") as excinfo:
            lowest_eigenpair(adder(diag), diag.size, 0, unit(diag.size))
        assert excinfo.value.best_estimate == pytest.approx(-1.0109, abs=1e-4)

    def test_full_basis_without_a_converged_pair_is_not_accepted(self):
        # the five near-degenerate values below the gap cost the 20 Lanczos
        # vectors their orthogonality: the full-basis Ritz value reads
        # -0.9999919 with residual 1.5e-4 against the exact -1
        diag = np.concatenate(([-1.0], -1.0 + 1e-3 * np.arange(1, 6), np.linspace(0.0, 50.0, 14)))
        with pytest.raises(NumericalError, match="in 20 iterations") as excinfo:
            lowest_eigenpair(adder(diag), diag.size, 0, unit(diag.size))
        assert excinfo.value.best_estimate == pytest.approx(-0.9999919, abs=1e-7)

    @pytest.mark.parametrize("entry", [2.5, -3.0, 0.0, 1e-300, -7.25e10])
    @pytest.mark.parametrize("seed", [0, 1, 4, 7])
    def test_dimension_one(self, entry, seed):
        # the general loop: one step, beta = 0 exhausts the space, and the
        # replayed Ritz pair is exact whatever the start's sign (seed 4
        # draws a negative start)
        result, y = lowest_eigenpair(adder(np.full(1, entry)), 1, seed, unit(1))
        assert result == lanczos.LanczosResult(entry, 0.0, 1)
        assert np.array_equal(y, [1.0])

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_working_set_does_not_grow_with_the_iterations(self, weighted):
        # v_{j-1} and v_j, the next vector formed over v_{j-1}: two vectors,
        # and a scratch of 2^15 doubles, at 10 steps and at 49.  A weighted
        # start is formed beside the weights, and nothing keeps the start (a
        # kept start would add one vector, a product of its own one, the kept
        # rows one per step, a full-length work vector one in all)
        dim = 100_000
        lowest_eigenpair(adder(np.full(10, 2.5)), 10, 0, unit(10))  # one-time set-up before tracing
        weights = (lambda: np.linspace(1.0, 0.5, dim)) if weighted else unit(dim)
        held = {}
        for gap in (10.0, 0.1):
            diag = np.linspace(0.0, 1.0, dim)
            diag[0] = -gap
            (result, _), peak = traced_peak(
                lambda: lowest_eigenpair(adder(diag), dim, 0, weights)
            )
            assert result.energy == pytest.approx(-gap, abs=1e-10)
            held[result.iterations] = peak / (dim * 8)
        assert min(held) <= 10 and max(held) >= 40, held
        assert max(held.values()) < 2.5, held
        assert max(held.values()) - min(held.values()) < 0.25, held

    def test_weighted_start_is_scaled_in_place(self):
        # before the first product the solve holds the scratch of 2^15
        # doubles, the start and the weights: 2.33 vectors (a scaled copy of
        # the weights would add one)
        dim = 100_000
        lowest_eigenpair(adder(np.full(10, 2.5)), 10, 0, unit(10))  # one-time set-up before tracing
        diag = np.linspace(0.0, 1.0, dim)
        diag[0] = -10.0
        held = []

        def matvec(x, out):
            if not held:
                held.append(tracemalloc.get_traced_memory()[1] / (dim * 8))
            adder(diag)(x, out)

        traced_peak(
            lambda: lowest_eigenpair(matvec, dim, 0, lambda: np.linspace(1.0, 0.5, dim))
        )
        assert held[0] < 2.5, held

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_replay_feeds_the_operator_the_same_vectors(self, weighted):
        # four distinct eigenvalues: the Krylov space is exhausted after four
        # steps, and the replay that forms the Ritz vector hands the operator
        # pass one's first three vectors again, then the Ritz vector.  The
        # replay forms the start anew: the weights are asked for once more
        diag = np.repeat([-2.0, 0.5, 1.0, 3.0], 250)
        seen, asked = [], []

        def matvec(x, out):
            seen.append(x.copy())
            adder(diag)(x, out)

        def weights():
            asked.append(1)
            return np.linspace(2.0, 0.5, diag.size)

        start_weights = weights if weighted else unit(diag.size)
        result, y = lowest_eigenpair(matvec, diag.size, 5, start_weights=start_weights)
        assert result.iterations == 4
        assert result.energy == pytest.approx(-2.0, abs=1e-12)
        assert result.residual_norm <= 1e-8
        assert len(seen) == 2 * result.iterations
        for first, replayed in zip(seen[:3], seen[4:7]):
            assert np.array_equal(first, replayed)
            assert np.array_equal(np.signbit(first), np.signbit(replayed))
        assert np.linalg.norm(seen[-1][250:]) <= 1e-8  # the Ritz vector lies on the -2 block
        assert y.shape == (4,)
        assert len(asked) == 2 * weighted
        # a solve accepted on the Ritz estimate asks for them once
        asked[:] = []
        diag = np.linspace(-1.0, 1.0, diag.size)
        result, _ = lowest_eigenpair(adder(diag), diag.size, 5, start_weights=start_weights)
        assert result.iterations < diag.size and len(asked) == weighted

    def test_integer_seed_of_any_integer_type_accepted(self):
        A = np.diag(np.arange(10.0))
        r1, v1 = lowest_eigenpair(adder(A), 10, np.int64(7), unit(10))
        r2, v2 = lowest_eigenpair(adder(A), 10, 7, unit(10))
        assert r1.energy == r2.energy
        assert np.array_equal(v1, v2)

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((60, 60))
        A = A + A.T
        r1, v1 = lowest_eigenpair(adder(A), 60, 7, unit(60))
        r2, v2 = lowest_eigenpair(adder(A), 60, 7, unit(60))
        assert r1.energy == r2.energy
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("seed", [0, 3, 11, np.int64(7), 2**64 + 11])
    def test_unit_start_weights_give_the_plain_start(self, seed):
        # start /= 1.0 and start *= 1.0 are exact: the start, the operator's
        # first input, has the bits of the seed's normalized uniform vector,
        # here from a pure-Python SplitMix64; seeds equal mod 2^64 agree
        rng = np.random.default_rng(2)
        A = rng.standard_normal((60, 60))
        A = A + A.T
        uniform = np.array(splitmix64_uniform(seed, 60))
        plain = uniform / np.linalg.norm(uniform)
        assert lanczos._start(60, seed, unit(60)).tobytes() == plain.tobytes()
        seen = []

        def matvec(x, out):
            seen.append(x.copy())
            adder(A)(x, out)

        result, _ = lowest_eigenpair(matvec, 60, seed, unit(60))
        assert seen[0].tobytes() == plain.tobytes()
        assert result.energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)

    def test_start_components_are_splitmix64_outputs(self):
        # the pure-Python reference against the published first outputs of
        # SplitMix64 seeded with 1234567, then the start across its 2^15-
        # component chunks against the reference
        published = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert splitmix64_uniform(1234567, 3) == [(z >> 11 | 1) / 2**52 - 1.0 for z in published]
        dim = 2**15 + 3
        uniform = np.array(splitmix64_uniform(1234567, dim))
        assert np.all(np.abs(uniform) < 1.0) and np.all(uniform != 0.0)
        start = lanczos._start(dim, 1234567, unit(dim))
        assert start.tobytes() == (uniform / np.linalg.norm(uniform)).tobytes()

    def test_start_weights_steer_the_start(self):
        # a start weighted onto the ground state's coordinate settles at once
        diag = np.linspace(0.0, 1.0, 400)
        diag[0] = -1.0
        weights = np.full(400, 1e-12)
        weights[0] = 1.0
        seen = []

        def matvec(x, out):
            seen.append(x.copy())
            adder(diag)(x, out)

        plain, _ = lowest_eigenpair(adder(diag), 400, 0, unit(400))
        steered, y = lowest_eigenpair(matvec, 400, 0, lambda: weights)
        assert steered.energy == pytest.approx(-1.0, abs=1e-12)
        assert steered.iterations < plain.iterations
        # the start, the operator's first input, lies on coordinate 0, and so
        # do the Ritz vector V^T y and its first Krylov coordinate y[0]
        assert abs(seen[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(y[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs((np.array(seen).T @ y)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_start_weights_are_scale_free(self):
        # only the ratios matter: no weight scale overflows or underflows the norm
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        A = A + A.T
        weights = rng.uniform(0.5, 2.0, 40)
        ref = lowest_eigenpair(adder(A), 40, 0, lambda: weights)
        for scale in (1e-300, 1e300):
            result, vec = lowest_eigenpair(adder(A), 40, 0, lambda: scale * weights)
            assert result.iterations == ref[0].iterations
            assert result.energy == pytest.approx(ref[0].energy, rel=1e-13)
            assert np.allclose(vec, ref[1], atol=1e-10)


class TestEnergySeries:
    def test_heisenberg_totals(self):
        series = energy_series(SpinChain("heisenberg", 1.0), [2, 4], (Twist.PBC,))
        assert series.E(2, Twist.PBC) == pytest.approx(-1.5, abs=1e-12)
        assert series.E(4, Twist.PBC) == pytest.approx(-2.0, abs=1e-10)
        assert series.nu == 1.0

    def test_spin_one_includes_odd_sizes(self):
        series = energy_series(SpinChain("single-ion", 1.0, D=5.0), [2, 3, 4], (Twist.PBC,))
        assert series.sizes(Twist.PBC) == (2, 3, 4)

    def test_spin_half_odd_size_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            energy_series(SpinChain("heisenberg", 1.0), [3], (Twist.PBC,))

    def test_sizes_below_two_rejected(self):
        with pytest.raises(ValidationError):
            energy_series(SpinChain("single-ion", 1.0, D=5.0), [1, 2], (Twist.PBC,))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sizes", [[1], [6, 1]], ids=["alone", "beside-a-good-size"])
    def test_sizes_below_two_are_refused_before_any_build(self, model, sizes, monkeypatch):
        # build_hamiltonian takes L >= 2 on trust: no size below two reaches it
        def build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(spinchain.SectorBasis, "build", build)
        with pytest.raises(ValidationError, match="sizes must be >= 2, got 1"):
            energy_series(model, sizes)

    @pytest.mark.parametrize(
        "sizes",
        [[4.7], [4, 6.0], [True], [np.float64(4.0)], [np.True_], ["4"]],
        ids=["4.7", "beside-a-good-size", "True", "float64(4.0)", "bool_(True)", "str"],
    )
    def test_non_integer_sizes_are_refused_before_any_build(self, sizes, monkeypatch):
        # int() once turned 4.7 into an L=4 entry
        def build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(spinchain.SectorBasis, "build", build)
        with pytest.raises(ValidationError, match="sizes must be integers"):
            energy_series(SpinChain("heisenberg"), sizes)

    def test_integer_sizes_of_any_integer_type_give_the_same_bytes(self):
        model, twists = SpinChain("single-ion", D=7.4), (Twist.PBC, Twist.ABC)
        ref = energy_series(model, [2, 3, 4], twists)
        series = energy_series(model, np.arange(2, 5), twists)
        for twist in twists:
            assert series.sizes(twist) == ref.sizes(twist) == (2, 3, 4)
            assert all(type(L) is int for L in series.sizes(twist))
            for L in (2, 3, 4):
                assert series.E(L, twist).hex() == ref.E(L, twist).hex()

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_each_build_gets_a_sector_of_its_size_and_local_dimension(self, model, monkeypatch):
        # build_hamiltonian takes the sector on trust: its one caller builds
        # it for the same L and the model's local dimension
        built = []
        real = spinchain.build_hamiltonian

        def checked(spec, L, sector):
            assert (sector.L, sector.local_dim) == (L, spec.model.local_dim)
            built.append(L)
            return real(spec, L, sector)

        monkeypatch.setattr(spinchain, "build_hamiltonian", checked)
        energy_series(model, [2, 4, 6], (Twist.PBC, Twist.ABC))
        assert built == [6, 4, 2]

    @pytest.mark.parametrize(
        "seed",
        [-1, 2.5, True, "3", None, 3.0, np.int64(-1), np.float64(3.0), np.True_],
        ids=["-1", "2.5", "True", "3", "None", "3.0", "int64(-1)", "float64(3.0)", "bool_(True)"],
    )
    def test_seed_other_than_a_non_negative_integer_rejected(self, seed, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(spinchain.SectorBasis, "build", build)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            energy_series(SpinChain("heisenberg"), [2], seed=seed)

    def test_integer_seed_of_any_integer_type_gives_the_same_bytes(self):
        model, twists = SpinChain("single-ion", D=7.4), (Twist.PBC, Twist.ABC)
        ref = energy_series(model, [2, 3, 4], twists, seed=3)
        series = energy_series(model, [2, 3, 4], twists, seed=np.int64(3))
        for L in (2, 3, 4):
            for twist in twists:
                assert series.E(L, twist).hex() == ref.E(L, twist).hex()

    @pytest.mark.parametrize(
        "model, sizes",
        [
            (SpinChain("heisenberg"), range(2, 17, 2)),
            (SpinChain("dimerized", delta=0.3), range(2, 17, 2)),
            (SpinChain("single-ion", D=7.4), range(2, 11)),
        ],
    )
    def test_pairs_counted_without_a_basis_are_the_stored_ones(self, model, sizes):
        # A + A^T + (+)_s C_s (x) 1 holds each lower-triangle pair twice
        for L in sizes:
            ham = hamiltonian(SpinModelSpec(model, Twist.PBC), L)
            assert 2 * spinchain._stored_pairs(L, model.local_dim) == entries(ham)[0].size, L

    @pytest.mark.parametrize(
        "model, L, pairs",
        [(SpinChain("heisenberg"), 32, 4_963_760_640), (SpinChain("single-ion", D=7.4), 20, 3_462_993_240)],
    )
    def test_a_size_beyond_int32_offsets_is_refused_before_anything_is_allocated(
        self, model, L, pairs
    ):
        # the sizes are checked smallest first, though they are built largest first
        def refused():
            with pytest.raises(ValidationError, match=f"L={L}: {pairs} lower-triangle pairs overflow int32"):
                energy_series(model, [4, L + 2, L])

        _, peak = traced_peak(refused)
        assert peak < 2**20

    @pytest.mark.parametrize("L, d", [(32, 2), (20, 3), (10_000, 2)])
    def test_a_direct_basis_build_beyond_int32_offsets_is_refused_before_anything_is_allocated(
        self, L, d
    ):
        # the basis itself counts the pairs: no caller reaches the allocation
        def refused():
            with pytest.raises(ValidationError, match=f"L={L}: .* lower-triangle pairs overflow int32"):
                SectorBasis.build(L, d)

        _, peak = traced_peak(refused)
        assert peak < 2**20

    @pytest.mark.parametrize(
        "model, largest", [(SpinChain("heisenberg"), 30), (SpinChain("single-ion", D=7.4), 19)]
    )
    def test_sizes_are_refused_exactly_where_the_pairs_reach_two_to_the_31(self, model, largest):
        # the mean bound that refuses large rings uncounted never refuses one that fits
        d = model.local_dim
        step = 2 if d == 2 else 1  # spin-1/2 rings are even
        assert spinchain._stored_pairs(largest, d) < 2**31 <= spinchain._stored_pairs(largest + step, d)
        for L in range(2, largest + 1, step):
            spinchain._check_pairs(L, d)
        for L in range(largest + step, 80, step):
            with pytest.raises(ValidationError, match=f"L={L}: "):
                spinchain._check_pairs(L, d)
        with pytest.raises(ValidationError, match=r"L=10000: over 2\^31 lower-triangle pairs"):
            spinchain._check_pairs(10_000, d)

    def test_nu_hints(self):
        assert energy_series(SpinChain("dimerized", 1.0, delta=0.1), [2, 4]).nu == 3.0
        assert energy_series(SpinChain("single-ion", 1.0, D=5.0), [2, 3]).nu == 2.0


def _dense_min(model, L, twist):
    return np.linalg.eigvalsh(dense_sector(model, L, twist))[0]


class TestStartWeights:
    """Each sector solve starts weighted by exp(-(H_ii - min H_ii) / max|A_ij|)."""

    def test_rule(self):
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.PBC), 6)
        expected = np.exp(-(ham.diag - ham.diag.min()) / np.abs(ham.data).max())
        assert np.allclose(ham.start_weights(), expected, rtol=1e-14, atol=0)
        assert ham.start_weights().max() == 1.0

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_weights_ignore_the_scale_and_shift_of_h(self, twist):
        # the weights see D / max|A| alone; the twist flips signs only
        ref = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.PBC), 6)
        scaled = hamiltonian(SpinModelSpec(SpinChain("single-ion", 2.5, D=7.4), twist), 6)
        assert np.allclose(scaled.start_weights(), ref.start_weights(), rtol=1e-13, atol=0)
        shifted = dataclasses.replace(ref, diag=ref.diag + 3.0)
        assert np.allclose(shifted.start_weights(), ref.start_weights(), rtol=1e-13, atol=0)

    def test_each_solve_gets_the_weights_method_of_its_matrix(self, monkeypatch):
        # the solver calls it when it forms the start, so no array of weights
        # is made before the solve or outlives it; the twists' weights are
        # the same bytes
        copies = []

        def solve(matvec, dim, seed=0, start_weights=None):
            ham = matvec.__self__
            assert start_weights.__self__ is ham and dim == ham.diag.size
            assert start_weights.__func__ is spinchain.SectorHamiltonian.start_weights
            if len(copies) % 2:
                assert np.array_equal(start_weights(), copies[-1])
            copies.append(start_weights())
            return lanczos.LanczosResult(0.0, 0.0, 1), None

        monkeypatch.setattr(spinchain, "lowest_eigenpair", solve)
        energy_series(SpinChain("single-ion", 1.0, D=7.4), [3, 4], (Twist.PBC, Twist.ABC))
        assert [w.size for w in copies] == [19, 19, 7, 7]

    def test_a_wrapper_holding_the_arguments_keeps_no_weights_or_start(self, monkeypatch):
        # a tracer's span holds a solve's *args and **kwargs for the whole
        # call; they hold the bound weights method, not an array, so at the
        # third product the weights are gone and the start's buffer is that
        # product's input v_2, formed over it: no third vector is alive
        def span(fn, *args, **kwargs):
            return fn(*args, **kwargs)

        checks = []

        def traced(matvec, dim, *args, **kwargs):
            weights, refs, products = kwargs["start_weights"], [], []

            def recorded_weights():
                w = weights()
                refs.append(weakref.ref(w))
                return w

            def traced_matvec(x, out):
                products.append(x.size)
                if len(products) == 1:
                    refs.append(weakref.ref(x))  # the start
                elif len(products) == 3:
                    checks.append([refs[0]() is None, refs[1]() is x])
                span(matvec, x, out)

            kwargs["start_weights"] = recorded_weights
            return span(lowest_eigenpair, traced_matvec, dim, *args, **kwargs)

        monkeypatch.setattr(spinchain, "lowest_eigenpair", traced)
        energy_series(SpinChain("single-ion", 1.0, D=7.4), [6], (Twist.PBC, Twist.ABC))
        assert checks == [[True, True], [True, True]]

    def test_single_ion_series_takes_fewer_steps(self, monkeypatch):
        # the D = 7.4 ground state sits on the configurations of lowest diagonal
        model = SpinChain("single-ion", 1.0, D=7.4)
        twists = (Twist.PBC, Twist.ABC)
        steps = []

        def count(matvec, dim, seed=0, start_weights=None):
            result = lowest_eigenpair(matvec, dim, seed, start_weights=start_weights)
            steps.append(result[0].iterations)
            return result

        def count_unweighted(matvec, dim, seed=0, start_weights=None):
            return count(matvec, dim, seed, unit(dim))

        monkeypatch.setattr(spinchain, "lowest_eigenpair", count)
        weighted = energy_series(model, range(2, 12), twists)
        weighted_steps, steps[:] = sum(steps), []
        monkeypatch.setattr(spinchain, "lowest_eigenpair", count_unweighted)
        plain = energy_series(model, range(2, 12), twists)
        assert weighted_steps < sum(steps), (weighted_steps, sum(steps))
        for L in range(2, 12):
            for twist in twists:
                assert weighted.E(L, twist) == pytest.approx(plain.E(L, twist), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            SpinChain("heisenberg", 0.0),
            SpinChain("single-ion", 0.0, D=5.0),
        ],
        ids=str,
    )
    def test_diagonal_h_starts_unweighted(self, model):
        # no off-diagonal scale: all ones, not the 0/0 of the bare rule
        twists = (Twist.PBC, Twist.ABC)
        series = energy_series(model, [8], twists)
        for twist in twists:
            ham = hamiltonian(SpinModelSpec(model, twist), 8)
            assert np.array_equal(ham.start_weights(), np.ones(ham.diag.size))
            e = _dense_min(model, 8, twist)
            assert series.E(8, twist) == pytest.approx(e, abs=1e-10 * max(1.0, abs(e)))

    @pytest.mark.parametrize(
        "model",
        [
            SpinChain("heisenberg", -1.0),
            SpinChain("single-ion", -1.0, D=7.4),
            SpinChain("single-ion", 1.0, D=-50.0),
            SpinChain("single-ion", 1.0, D=0.0),
            SpinChain("single-ion", 1.0, D=1000.0),
        ],
        ids=str,
    )
    def test_series_matches_the_dense_minimum(self, model):
        # at every seed: at J = -1, D = 7.4 the ground state lies 5.5e-7
        # below a doublet, and a Ritz value resting on a mixture of the three
        # settles for a dozen steps at Ritz estimates down to 3e-9 of the
        # Ritz width, which must not pass for convergence
        twists = (Twist.PBC, Twist.ABC)
        dense_min = {twist: _dense_min(model, 8, twist) for twist in twists}
        for seed in range(20):
            series = energy_series(model, [8], twists, seed=seed)
            for twist, e in dense_min.items():
                assert series.E(8, twist) == pytest.approx(e, abs=1e-10 * max(1.0, abs(e))), (seed, twist)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_scale_is_the_largest_matrix_entry(self, L, twist):
        # the two-site ring keeps both bonds' hops at one position: they add
        # up at pbc and cancel at abc, where H is diagonal
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=-8.0), twist), L)
        scale = np.abs(dense(ham) - np.diag(ham.diag)).max()
        expected = np.exp(-(ham.diag - ham.diag.min()) / scale) if scale else np.ones(ham.diag.size)
        assert np.allclose(ham.start_weights(), expected, rtol=1e-14, atol=0)
        assert (scale == 0) == (L == 2 and twist is Twist.ABC)

    @pytest.mark.parametrize("part", ["low_data", "high_data"])
    def test_scale_reads_b_and_c(self, part):
        # B's (or C's) hops scaled up fourfold hold the largest entry alone
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=7.4), Twist.PBC), 8)
        getattr(ham, part)[:] *= 4.0
        scale = np.abs(dense(ham) - np.diag(ham.diag)).max()
        assert scale == np.abs(getattr(ham, part)).max() == 4 * np.abs(ham.data).max()
        expected = np.exp(-(ham.diag - ham.diag.min()) / scale)
        assert np.allclose(ham.start_weights(), expected, rtol=1e-14, atol=0)

    def test_two_site_abc_ring_with_a_degenerate_ground_pair(self):
        # H = diag(2D - 2, 0, 2D - 2): a start weighted by the stored hops
        # lay within about 1e-8 of the ground pair, and these solves were
        # refused; the plain start of a diagonal H exhausts in two steps
        for D in (-8.99, -8.65, -8.3, -7.5, -6.49):
            for seed in range(5):
                series = energy_series(SpinChain("single-ion", 1.0, D=D), [2], (Twist.ABC,), seed)
                assert series.E(2, Twist.ABC) == pytest.approx(2 * D - 2, abs=1e-12)

    def test_underflowing_weights_are_floored(self):
        # at D = 1000 most configurations lie 1000 hop amplitudes above the
        # lowest: exp underflows to 0, and the floor keeps every component
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=1000.0), Twist.PBC), 8)
        weights = ham.start_weights()
        tiny = np.finfo(float).tiny
        assert weights.min() == tiny and (weights == tiny).sum() > weights.size // 2


def _sizes(model):
    return range(2, 11, 2) if model.local_dim == 2 else range(2, 11)


# both orders, so the in-place sign flip is exercised from either twist
TWIST_ORDERS = [(Twist.PBC, Twist.ABC), (Twist.ABC, Twist.PBC), (Twist.ABC,), (Twist.PBC,)]


class TestSharedAssembly:
    """energy_series builds one matrix per size and flips the twist-bond signs."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("twists", TWIST_ORDERS)
    def test_energies_equal_per_twist_ground_energies(self, model, twists):
        series = energy_series(model, _sizes(model), twists)
        for twist in twists:
            spec = SpinModelSpec(model, twist)
            for L in _sizes(model):
                assert series.E(L, twist) == ground_energy(spec, L).energy, (twist, L)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("twists", TWIST_ORDERS)
    def test_solved_matrices_equal_per_twist_builds(self, model, twists, monkeypatch):
        # the dimerized twist bond couples J(1 + delta); at L=2 the flipped
        # entry shares its position with bond 0's
        solved = []

        def record(matvec, dim, seed=0, start_weights=None):
            ham = matvec.__self__
            assert dim == ham.diag.size
            assert np.array_equal(start_weights(), ham.start_weights())
            solved.append(
                (ham.diag.copy(), ham.rows.copy(), ham.cols.copy(), ham.data.copy())
            )
            return lanczos.LanczosResult(0.0, 0.0, 1), None

        monkeypatch.setattr(spinchain, "lowest_eigenpair", record)
        energy_series(model, _sizes(model), twists)
        # solved size by size, largest first, each size in the order of `twists`
        expected = [
            hamiltonian(SpinModelSpec(model, twist), L)
            for L in reversed(_sizes(model))
            for twist in twists
        ]
        assert len(solved) == len(expected)
        for (diag, rows, cols, data), ham in zip(solved, expected):
            assert np.array_equal(diag, ham.diag)
            assert np.array_equal(np.signbit(diag), np.signbit(ham.diag))
            assert np.array_equal(rows, ham.rows)
            assert np.array_equal(cols, ham.cols)
            assert np.array_equal(data, ham.data)
            assert np.array_equal(np.signbit(data), np.signbit(ham.data))

    @pytest.mark.parametrize("twists", [(Twist.PBC,), (Twist.ABC, Twist.PBC)])
    def test_no_basis_is_alive_during_a_solve(self, twists, monkeypatch):
        alive_before = {id(o) for o in gc.get_objects() if isinstance(o, SectorBasis)}
        solves = []

        def solve(matvec, dim, seed=0, start_weights=None):
            gc.collect()
            alive = [
                o for o in gc.get_objects()
                if isinstance(o, SectorBasis) and id(o) not in alive_before
            ]
            assert alive == [], [(b.L, b.dim) for b in alive]
            solves.append(dim)
            return lanczos.LanczosResult(0.0, 0.0, 1), None

        monkeypatch.setattr(spinchain, "lowest_eigenpair", solve)
        energy_series(SpinChain("single-ion", 1.0, D=7.4), [2, 3, 4], twists)
        assert solves == [19] * len(twists) + [7] * len(twists) + [3] * len(twists)

    def test_no_twists_rejected_before_any_build(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(spinchain.SectorBasis, "build", build)
        with pytest.raises(ValidationError, match="no twists requested"):
            energy_series(SpinChain("heisenberg", 1.0), [4, 6], twists=())

    def test_duplicate_twists_rejected(self):
        with pytest.raises(ValidationError):
            energy_series(SpinChain("heisenberg", 1.0), [4], (Twist.PBC, Twist.PBC))

    def test_both_twists_peak_no_more_memory_than_one_solve(self):
        # a second copy of the matrix data kept through the abc solve adds ~10%
        model = SpinChain("single-ion", 1.0, D=7.4)
        ground_energy(SpinModelSpec(model, Twist.PBC), 4)  # SciPy imported before tracing
        _, single = traced_peak(lambda: ground_energy(SpinModelSpec(model, Twist.PBC), 11))
        _, both = traced_peak(lambda: energy_series(model, [11], (Twist.PBC, Twist.ABC)))
        assert both <= 1.05 * single, (both, single)
