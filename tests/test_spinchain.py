import dataclasses
import gc
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from bandrec import lanczos, spinchain
from bandrec import (
    NumericalError,
    SpinChain,
    Twist,
    ValidationError,
    energy_series,
    lowest_eigenpair,
)
from bandrec.spinchain import SectorBasis, SpinModelSpec, build_hamiltonian
from ed_helpers import dense, ground_energy, hamiltonian


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
    for code in SectorBasis.build(L, d).states:
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
        # build_hamiltonian ranks a code by binary search over the states
        basis = SectorBasis.build(6, 3)
        assert (np.diff(basis.states) > 0).all()
        idx = np.arange(0, basis.dim, 7)
        assert np.array_equal(np.searchsorted(basis.states, basis.states[idx]), idx)

    def test_all_states_have_target_magnetization(self):
        basis = SectorBasis.build(5, 3)
        assert basis.dim == 51  # central trinomial of 5
        for i in range(basis.dim):
            digits = [basis.digits(site)[i] for site in range(5)]
            assert sum(d - 1 for d in digits) == 0  # total S^z = 0

    @pytest.mark.parametrize(
        "d, L", [(2, L) for L in range(1, 13)] + [(3, L) for L in range(1, 10)]
    )
    def test_matches_filtered_full_space(self, d, L):
        # odd spin-1/2 rings give the empty sector
        codes = np.arange(d**L)
        digit_sum = sum((codes // d**site) % d for site in range(L))
        states = SectorBasis.build(L, d).states
        assert states.dtype == np.int64
        assert np.array_equal(states, codes[2 * digit_sum == L * (d - 1)])

    def test_build_does_not_allocate_the_full_space(self):
        tracemalloc.start()
        try:
            basis = SectorBasis.build(13, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.dim == 212_941  # central trinomial coefficient of 13
        assert peak < 8 * 3**13


class TestHamiltonian:
    def test_minimum_chain_length(self):
        with pytest.raises(ValidationError):
            spec = SpinModelSpec(SpinChain("heisenberg"), Twist.PBC)
            build_hamiltonian(spec, 1, SectorBasis.build(1, 2))

    def test_sector_mismatch(self):
        basis = SectorBasis.build(4, 3)
        with pytest.raises(ValidationError):
            build_hamiltonian(SpinModelSpec(SpinChain("heisenberg"), Twist.PBC), 4, basis)

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
        assert ham.indices.dtype == np.int32 and ham.indptr.dtype == np.int32
        assert ham.data.size == 2
        assert np.array_equal(ham.indices, [0, 0]) and np.array_equal(ham.indptr, [0, 0, 2])
        expected = 1.0 if twist is Twist.PBC else 0.0
        assert np.array_equal(dense(ham), [[-0.5, expected], [expected, -0.5]])
        assert np.array_equal(ham.matvec(np.array([1.0, 0.0])), [-0.5, expected])
        assert np.array_equal(ham.matvec(np.array([0.0, 1.0])), [expected, -0.5])

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
            assert ham.indices.dtype == np.int32 and ham.indptr.dtype == np.int32
            assert ham.indptr[0] == 0 and ham.indptr[-1] == ham.indices.size == ham.data.size
            rows = np.repeat(np.arange(sector.dim), np.diff(ham.indptr))
            assert np.all(ham.indices < rows), (model.kind, twist, L)
            positions = rows * sector.dim + ham.indices
            assert np.unique(positions).size == positions.size, (model.kind, twist, L)

    @pytest.mark.parametrize("model", ALL_MODELS + [SpinChain("heisenberg", -0.0)])
    def test_twist_entries_are_where_the_twists_differ(self, model):
        # every entry of a -0.0 ring is a signed zero, told apart by its sign bit
        for L in range(2, 10):
            if model.local_dim == 2 and L % 2:
                continue  # odd spin-1/2 rings have no S^z = 0 state
            pbc = hamiltonian(SpinModelSpec(model, Twist.PBC), L)
            abc = hamiltonian(SpinModelSpec(model, Twist.ABC), L)
            at = pbc.twist_entries
            assert at.dtype == np.int32 and at.size > 0
            assert np.array_equal(abc.twist_entries, at)
            differ = np.flatnonzero(np.signbit(pbc.data) != np.signbit(abc.data))
            assert np.array_equal(differ, at), (model.kind, L)
            assert np.array_equal(np.abs(pbc.data), np.abs(abc.data))
            if L == 2:
                # each twist hop shares its matrix position with bond 0's, the entry before it
                rows = np.repeat(np.arange(pbc.diag.size), np.diff(pbc.indptr))
                assert np.array_equal(rows[at], rows[at - 1])
                assert np.array_equal(pbc.indices[at], pbc.indices[at - 1])
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
                lhs = u @ ham.matvec(v)
                rhs = ham.matvec(u) @ v
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
            out = ham.matvec(v)
            assert out is not v and out.shape == v.shape
            assert np.max(np.abs(out - H @ v)) <= 1e-13 * max(1.0, np.max(np.abs(H @ v))), L

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
        # the bond-by-bond sum over per-site S^z arrays, in the same order,
        # with the on-site term on spin 1 only
        for L in range(2, 11 if model.local_dim == 2 else 9):
            if model.local_dim == 2 and L % 2:
                continue  # odd spin-1/2 rings have no S^z = 0 state
            basis = SectorBasis.build(L, model.local_dim)
            d = model.local_dim
            m = [(basis.states // d**i) % d - (d - 1) / 2.0 for i in range(L)]
            couplings = literal_couplings(model, L)
            expected = np.zeros(basis.dim)
            for b in range(L):
                expected += couplings[b] * m[b] * m[(b + 1) % L]
            if model.kind == "single-ion":
                for i in range(L):
                    expected += model.J * model.D * m[i] ** 2
            diag = build_hamiltonian(SpinModelSpec(model, Twist.ABC), L, basis).diag
            assert diag.dtype == np.float64
            assert np.array_equal(diag, expected) and np.array_equal(np.signbit(diag), np.signbit(expected))

    def test_each_offdiagonal_pair_is_stored_once(self):
        # diag (8 bytes a state), A's data and indices (12 bytes a pair) and
        # its int32 row offsets; the pairs are counted combinatorially
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
        assert ham.diag.size == dim and ham.data.size == pairs
        stored = ham.diag.nbytes + ham.data.nbytes + ham.indices.nbytes + ham.indptr.nbytes
        assert stored <= 8 * dim + 12 * pairs + 4 * (dim + 1), (stored, dim, pairs)

    def test_row_offsets_refuse_a_pair_count_beyond_int32(self):
        # the counts are summed in int64, so 2**31 pairs are named, not wrapped
        with pytest.raises(ValidationError, match=r"L=17: 2147483648 stored pairs"):
            spinchain._row_pointers(np.array([2**31 - 1, 1]), 17)
        indptr = spinchain._row_pointers(np.array([2**31 - 2, 1]), 17)
        assert indptr.dtype == np.int32 and indptr.tolist() == [0, 2**31 - 2, 2**31 - 1]

    def test_missing_kernel_file_names_its_path(self, tmp_path, monkeypatch):
        # a SciPy whose sparse directory lacks the extension
        (tmp_path / "scipy" / "sparse").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "sparse"))):
            spinchain._csr_kernels.__wrapped__()  # past the kernels an earlier solve cached
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
        rotated_codes = (basis.states // d) + (basis.states % d) * d ** (L - 1)
        perm = np.searchsorted(basis.states, rotated_codes)
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
        for L in (8, 12):
            r = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0), Twist.PBC), L)
            assert r.residual_norm <= 1e-8 * (abs(r.energy) + 1.0)
            assert 0 <= r.reorth_steps <= r.iterations
            assert r.iterations >= 3


class TestLanczosSolver:
    def test_degeneracy_warning_on_near_degenerate_ground_state(self):
        # a gap below 1e-10 between the two lowest Ritz values raises the flag;
        # the tiny space exhausts the Krylov basis, making the Ritz values exact
        # (exactly degenerate copies are invisible to a single Krylov sequence)
        diag = np.array([0.0, 3e-11, 1.0])
        result, _ = lowest_eigenpair(lambda x: diag * x, diag.size)
        assert result.energy == pytest.approx(0.0, abs=1e-12)
        assert result.degeneracy_warning

    def test_no_warning_on_separated_spectrum(self):
        diag = np.linspace(0.0, 4.0, 50)
        result, _ = lowest_eigenpair(lambda x: diag * x, diag.size)
        assert not result.degeneracy_warning

    def test_dgks_second_pass_removes_a_large_component_in_the_krylov_span(self):
        # every product carries 1e5 times a multiple of the start vector, which
        # the three-term recurrence leaves in w; one Gram-Schmidt pass leaves a
        # rounding residue of it that corrupts the next alphas, so the DGKS test
        # must see w shrink and run the second pass. In exact arithmetic the
        # term lies in the Krylov span and the Ritz values are those of diag.
        dim = 200
        diag = np.concatenate(([-1.0], np.linspace(0.0, 1.0, dim - 1)))
        g = np.random.default_rng(1).standard_normal(dim)
        start = []

        def matvec(x):
            if not start:
                start.append(x.copy())
                g[:] -= (g @ x) * x  # alpha_0 stays v0 . diag v0
            return diag * x + 1e5 * (g @ x) * start[0]

        result, _ = lowest_eigenpair(matvec, dim)
        assert result.energy == pytest.approx(np.linalg.eigvalsh(np.diag(diag))[0], abs=1e-10)
        assert not result.degeneracy_warning
        # the sketch sees the large overlap with the start vector on every step
        assert result.reorth_steps == result.iterations - 1

    def test_sketch_reorthogonalizes_once_an_outlier_has_converged(self):
        # the isolated top eigenvalue converges within a few steps, and later
        # vectors regain a component along its Ritz vector; the ground state
        # at the edge of the dense part needs well over 150 steps
        diag = np.concatenate((np.linspace(0.0, 1.0, 999), [10.0]))
        result, _ = lowest_eigenpair(lambda x: diag * x, diag.size)
        assert result.iterations > 150
        assert result.reorth_steps >= 1
        assert result.energy == pytest.approx(np.linalg.eigvalsh(np.diag(diag))[0], abs=1e-10)
        assert not result.degeneracy_warning

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((400, 400))
        A = (A + A.T) / 2
        monkeypatch.setattr(lanczos, "MAX_ITER", 4)
        with pytest.raises(NumericalError) as excinfo:
            lowest_eigenpair(lambda x: A @ x, 400)
        assert hasattr(excinfo.value, "best_estimate")

    @pytest.mark.parametrize("routine", ["eigvalsh", "eigh"])
    def test_tridiagonal_failure_is_a_numerical_error(self, monkeypatch, routine):
        # eigvalsh gives every step's Ritz values, eigh the accepted Ritz pair
        def fail(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        A = np.diag(np.arange(10.0))
        with pytest.raises(NumericalError, match="tridiagonal matrix"):
            lowest_eigenpair(lambda x: A @ x, 10)

    def test_early_stop_on_a_wide_spectrum_is_not_accepted(self):
        # beta is judged against the widest Ritz value (1e14), so the solve
        # stops after 3 steps at 0.2298 with residual 0.19; exact E0 is -1
        diag = np.concatenate(([-1.0], np.linspace(0.0, 1.0, 298), [1e14]))
        with pytest.raises(NumericalError) as excinfo:
            lowest_eigenpair(lambda x: diag * x, diag.size)
        assert excinfo.value.best_estimate == pytest.approx(0.2298, abs=1e-4)

    @pytest.mark.parametrize("entry", [2.5, -3.0, 0.0, 1e-300, -7.25e10])
    @pytest.mark.parametrize("seed", [0, 1, 4, 7])
    def test_dimension_one(self, entry, seed):
        # the general loop: one step, beta = 0 exhausts the space, and the
        # Ritz pair is exact; the vector's sign is the start vector's, as in
        # every dimension (seed 4 draws a negative start)
        result, vec = lowest_eigenpair(lambda x: entry * x, 1, seed)
        assert result == lanczos.LanczosResult(entry, 0.0, False, 1, 0)
        assert vec.shape == (1,) and np.array_equal(np.abs(vec), [1.0])

    def test_krylov_storage_grows_with_the_iterations(self):
        # a wide gap settles in a few steps; MAX_ITER * dim rows would be 400 MB
        dim = 100_000
        diag = np.linspace(0.0, 1.0, dim)
        diag[0] = -10.0
        lowest_eigenpair(lambda x: diag[:10] * x, 10)  # numpy.random imported before tracing
        tracemalloc.start()
        try:
            result, _ = lowest_eigenpair(lambda x: diag * x, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.energy == pytest.approx(-10.0, abs=1e-10)
        assert peak < lanczos.MAX_ITER * dim * 8 / 4
        assert result.iterations < lanczos.KRYLOV_BLOCK
        # besides the block of rows, the loop holds the two sketch rows, the
        # work row, w and the next product: 5 vectors (8 when the loop's
        # vectors outlived it into the Ritz vector and the residual)
        vectors = (peak - lanczos.KRYLOV_BLOCK * dim * 8) / (dim * 8)
        assert vectors < 6, vectors

    def test_krylov_blocks_keep_the_result(self, monkeypatch):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 300))
        A = A + A.T
        r1, v1 = lowest_eigenpair(lambda x: A @ x, 300)
        monkeypatch.setattr(lanczos, "KRYLOV_BLOCK", 7)
        r2, v2 = lowest_eigenpair(lambda x: A @ x, 300)
        assert r1.iterations == r2.iterations > 7
        assert r2.energy == pytest.approx(r1.energy, rel=1e-13)
        assert r2.energy == pytest.approx(np.linalg.eigvalsh(A)[0], rel=1e-10)
        assert np.allclose(v1, v2, atol=1e-10)
        # a semi-orthogonal basis needs Gram-Schmidt on few steps
        assert r1.energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)
        assert r1.reorth_steps <= r1.iterations / 4

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
    def test_seed_other_than_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            lowest_eigenpair(lambda x: 2.5 * x, 1, seed)

    def test_integer_seed_of_any_integer_type_accepted(self):
        A = np.diag(np.arange(10.0))
        r1, v1 = lowest_eigenpair(lambda x: A @ x, 10, np.int64(7))
        r2, v2 = lowest_eigenpair(lambda x: A @ x, 10, 7)
        assert r1.energy == r2.energy
        assert np.array_equal(v1, v2)

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((60, 60))
        A = A + A.T
        r1, v1 = lowest_eigenpair(lambda x: A @ x, 60, seed=7)
        r2, v2 = lowest_eigenpair(lambda x: A @ x, 60, seed=7)
        assert r1.energy == r2.energy
        assert np.array_equal(v1, v2)

    def test_no_or_unit_start_weights_keep_the_plain_start(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((60, 60))
        A = A + A.T
        plain = lowest_eigenpair(lambda x: A @ x, 60, 3)
        for weights in (None, np.ones(60)):
            result, vec = lowest_eigenpair(lambda x: A @ x, 60, 3, start_weights=weights)
            assert result == plain[0]
            assert np.array_equal(vec, plain[1])

    def test_start_weights_steer_the_start(self):
        # a start weighted onto the ground state's coordinate settles at once
        diag = np.linspace(0.0, 1.0, 400)
        diag[0] = -1.0
        weights = np.full(400, 1e-12)
        weights[0] = 1.0
        plain, _ = lowest_eigenpair(lambda x: diag * x, 400)
        steered, vec = lowest_eigenpair(lambda x: diag * x, 400, start_weights=weights)
        assert steered.energy == pytest.approx(-1.0, abs=1e-12)
        assert steered.iterations < plain.iterations
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)

    def test_start_weights_are_scale_free(self):
        # only the ratios matter: no weight scale overflows or underflows the norm
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        A = A + A.T
        weights = rng.uniform(0.5, 2.0, 40)
        ref = lowest_eigenpair(lambda x: A @ x, 40, start_weights=weights)
        for scale in (1e-300, 1e300):
            result, vec = lowest_eigenpair(lambda x: A @ x, 40, start_weights=scale * weights)
            assert result.iterations == ref[0].iterations
            assert result.energy == pytest.approx(ref[0].energy, rel=1e-13)
            assert np.allclose(vec, ref[1], atol=1e-10)

    @pytest.mark.parametrize(
        "weights",
        [
            np.array([1.0, np.nan, 1.0]),
            np.array([1.0, np.inf, 1.0]),
            np.array([1.0, -np.inf, 1.0]),
            np.array([1.0, 0.0, 1.0]),
            np.array([1.0, -0.0, 1.0]),
            np.array([1.0, -2.0, 1.0]),
            np.ones(2),
            np.ones(4),
            np.ones((3, 1)),
            np.float64(1.0),
            ["a", "b", "c"],
        ],
    )
    def test_bad_start_weights_rejected(self, weights):
        with pytest.raises(ValidationError, match="start weights"):
            lowest_eigenpair(lambda x: 2.5 * x, 3, start_weights=weights)


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

    def test_weights_are_derived_once_per_size(self, monkeypatch):
        # both twists' solves get the size's one array, freed before the next build
        refs = []
        build = spinchain.build_hamiltonian

        def build_after_release(*args):
            assert all(ref() is None for ref in refs)
            return build(*args)

        def solve(matvec, dim, seed=0, start_weights=None):
            assert start_weights.shape == (dim,)
            if len(refs) % 2:
                assert refs[-1]() is start_weights
            refs.append(weakref.ref(start_weights))
            return lanczos.LanczosResult(0.0, 0.0, False, 1, 0), None

        monkeypatch.setattr(spinchain, "build_hamiltonian", build_after_release)
        monkeypatch.setattr(spinchain, "lowest_eigenpair", solve)
        energy_series(SpinChain("single-ion", 1.0, D=7.4), [3, 4], (Twist.PBC, Twist.ABC))
        assert len(refs) == 4

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
            return count(matvec, dim, seed)

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
        twists = (Twist.PBC, Twist.ABC)
        series = energy_series(model, [8], twists)
        for twist in twists:
            e = _dense_min(model, 8, twist)
            assert series.E(8, twist) == pytest.approx(e, abs=1e-10 * max(1.0, abs(e))), twist

    def test_underflowing_weights_are_floored(self):
        # at D = 1000 most configurations lie 1000 hop amplitudes above the
        # lowest: exp underflows to 0, and the floor keeps every component
        ham = hamiltonian(SpinModelSpec(SpinChain("single-ion", 1.0, D=1000.0), Twist.PBC), 8)
        weights = ham.start_weights()
        tiny = np.finfo(float).tiny
        assert weights.min() == tiny and (weights == tiny).sum() > weights.size // 2


def _sizes(model):
    return range(2, 11, 2) if model.local_dim == 2 else range(2, 11)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
            assert np.array_equal(start_weights, ham.start_weights())
            solved.append(
                (ham.diag.copy(), ham.indptr.copy(), ham.indices.copy(), ham.data.copy())
            )
            return lanczos.LanczosResult(0.0, 0.0, False, 1, 0), None

        monkeypatch.setattr(spinchain, "lowest_eigenpair", record)
        energy_series(model, _sizes(model), twists)
        # solved size by size, each size in the order of `twists`
        expected = [
            hamiltonian(SpinModelSpec(model, twist), L)
            for L in _sizes(model)
            for twist in twists
        ]
        assert len(solved) == len(expected)
        for (diag, indptr, indices, data), ham in zip(solved, expected):
            assert np.array_equal(diag, ham.diag)
            assert np.array_equal(np.signbit(diag), np.signbit(ham.diag))
            assert np.array_equal(indptr, ham.indptr)
            assert np.array_equal(indices, ham.indices)
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
            return lanczos.LanczosResult(0.0, 0.0, False, 1, 0), None

        monkeypatch.setattr(spinchain, "lowest_eigenpair", solve)
        energy_series(SpinChain("single-ion", 1.0, D=7.4), [2, 3, 4], twists)
        assert solves == [3] * len(twists) + [7] * len(twists) + [19] * len(twists)

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
        single = _traced_peak(lambda: ground_energy(SpinModelSpec(model, Twist.PBC), 11))
        both = _traced_peak(lambda: energy_series(model, [11], (Twist.PBC, Twist.ABC)))
        assert both <= 1.05 * single, (both, single)
