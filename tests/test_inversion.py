import numpy as np
import pytest

from bandrec import (
    MassiveSineBand,
    Twist,
    ValidationError,
    b_coefficients,
    convergence_curve,
    size_set_for,
)
from bandrec.bands import GRID_SIZE, FourierBand
from bandrec.inversion import SizeSet, invert_coefficients
from bandrec.riemann import residual_series, riemann_sum
from bandrec.seriesio import parse_band_spec

from band_reference import cosine_series
from ed_helpers import traced_peak


def random_band(rng, degree, pi_periodic=False):
    coeffs = rng.normal(size=degree)
    if pi_periodic:
        coeffs[0::2] = 0.0  # only even cosine indices survive
    return FourierBand(rng.normal(), coeffs)


class TestSizeSets:
    def test_kinds(self):
        assert SizeSet("all-from-1", 4).sizes() == (1, 2, 3, 4)
        assert SizeSet("even-only", 6).sizes() == (2, 4, 6)
        assert SizeSet("from-2", 5).sizes() == (2, 3, 4, 5)

    def test_inference(self):
        assert size_set_for([1, 2, 3]) == SizeSet("all-from-1", 3)
        assert size_set_for([2, 4, 6, 8]) == SizeSet("even-only", 8)
        assert size_set_for([2, 3, 4]) == SizeSet("from-2", 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown size-set kind"):
            SizeSet("odd-only", 5)
        with pytest.raises(ValidationError, match="unknown size-set kind"):
            size_set_for([1, 3, 5], kind="odd-only")

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValidationError):
            size_set_for([1, 2, 4])
        for sizes in ([2, 4, 5], [1, 2, 3, 4], [3]):
            with pytest.raises(ValidationError, match="unsupported size set"):
                size_set_for(sizes, kind="even-only")
        with pytest.raises(ValidationError):
            size_set_for([3, 5, 7])


class TestInvertCoefficients:
    def test_moebius_inversion_example(self):
        residuals = {1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0}
        band = invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", 4))
        assert np.allclose(band.coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_zero_input(self):
        residuals = {L: 0.0 for L in range(1, 9)}
        for twist in (Twist.PBC, Twist.ABC):
            band = invert_coefficients(residuals, twist, SizeSet("all-from-1", 8))
            assert np.all(band.coeffs == 0.0)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("M", [1, 2, 5, 12, 32])
    def test_round_trip_recovers_random_polynomial(self, twist, M):
        rng = np.random.default_rng(100 * M + twist.q)
        band = random_band(rng, M)
        residuals = residual_series(band, range(1, M + 1), twist)
        recovered = invert_coefficients(residuals, twist, SizeSet("all-from-1", M))
        scale = np.max(np.abs(band.coeffs))
        assert np.max(np.abs(recovered.coeffs - band.coeffs)) <= 1e-12 * scale

    def test_missing_size_names_gap(self):
        residuals = {1: 0.1, 2: 0.2, 4: 0.4}
        with pytest.raises(ValidationError, match=r"\[3\]"):
            invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", 4))

    def test_non_finite_rejected(self):
        residuals = {1: 0.1, 2: float("nan")}
        with pytest.raises(ValidationError, match="non-finite"):
            invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", 2))

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_linearity(self, twist):
        rng = np.random.default_rng(42)
        M = 10
        r1 = {L: rng.normal() for L in range(1, M + 1)}
        r2 = {L: rng.normal() for L in range(1, M + 1)}
        alpha, beta = 1.7, -0.3
        combined = {L: alpha * r1[L] + beta * r2[L] for L in r1}
        a_comb = invert_coefficients(combined, twist, SizeSet("all-from-1", M)).coeffs
        a_lin = (
            alpha * invert_coefficients(r1, twist, SizeSet("all-from-1", M)).coeffs
            + beta * invert_coefficients(r2, twist, SizeSet("all-from-1", M)).coeffs
        )
        assert np.max(np.abs(a_comb - a_lin)) <= 1e-12 * max(1.0, np.max(np.abs(a_comb)))

    def test_truncation_consistency(self):
        # enlarging the data set only adds tail terms: for k > M'/2 both
        # cutoffs see a single term and agree exactly
        rng = np.random.default_rng(9)
        M, M_big = 8, 16
        residuals = {L: rng.normal() for L in range(1, M_big + 1)}
        a_small = invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", M)).coeffs
        a_big = invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", M_big)).coeffs
        for k in range(M_big // 2 + 1, M + 1):
            assert a_small[k - 1] == a_big[k - 1]

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_even_only_equals_full_inversion_for_pi_periodic_band(self, twist):
        rng = np.random.default_rng(21)
        M_even = 6
        band = random_band(rng, 2 * M_even, pi_periodic=True)
        residuals = residual_series(band, range(1, 2 * M_even + 1), twist)
        full = invert_coefficients(residuals, twist, SizeSet("all-from-1", 2 * M_even))
        even_data = {L: residuals[L] for L in range(2, 2 * M_even + 1, 2)}
        half = invert_coefficients(even_data, twist, SizeSet("even-only", 2 * M_even))
        assert np.max(np.abs(half.coeffs - full.coeffs)) <= 1e-12
        assert np.max(np.abs(half.coeffs[0::2])) == 0.0

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_from2_recovers_all_but_first(self, twist):
        rng = np.random.default_rng(33)
        M = 9
        band = random_band(rng, M)  # a_1 generically nonzero
        residuals = residual_series(band, range(2, M + 1), twist)
        rec = invert_coefficients(residuals, twist, SizeSet("from-2", M))
        assert rec.c0 == 0.0  # the mean is not recoverable from residuals
        assert rec.undetermined_a1
        assert rec.coeffs[0] == 0.0
        assert np.max(np.abs(rec.coeffs[1:] - band.coeffs[1:])) <= 1e-12


def scalar_loop_coefficients(residuals, twist, size_set):
    """Reference inversion: a_k = sum_n b(n) R_{nk} as a scalar double loop."""

    def loop(R, k_first):
        M = R.size
        b = b_coefficients(twist, M).tolist()
        a = np.zeros(M)
        for k in range(k_first, M + 1):
            acc = 0.0
            for n in range(1, M // k + 1):
                acc += b[n - 1] * R[n * k - 1]
            a[k - 1] = acc
        return a

    R = np.array([residuals[L] for L in size_set.sizes()], dtype=float)
    if size_set.kind == "all-from-1":
        return loop(R, 1)
    if size_set.kind == "even-only":
        coeffs = np.zeros(size_set.last)
        coeffs[1::2] = loop(R, 1)
        return coeffs
    return loop(np.concatenate(([0.0], R)), 2)  # from-2: a_1 stays +0.0


class TestInversionBytes:
    """The vectorized map must reproduce the scalar loop bit for bit.

    Signed zeros reach the written coefficient files, so `array_equal` (which
    treats 0.0 == -0.0) is not enough on its own.
    """

    @staticmethod
    def residual_kinds(size_set, twist, seed):
        sizes = size_set.sizes()
        # a degree-5 series has exactly zero residuals at every size above 5;
        # with abc, b(1) = -1 then starts each higher a_k with a -0.0 term
        finite = FourierBand(0.25, [0.5, -1.0, 0.0, 0.75, -0.125])
        yield residual_series(finite, sizes, twist)
        rng = np.random.default_rng(seed)
        yield {L: rng.normal() for L in sizes}

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    @pytest.mark.parametrize("kind", ["all-from-1", "even-only", "from-2"])
    @pytest.mark.parametrize("M", [1, 2, 3, 7, 64, 300])
    def test_matches_scalar_loop_bit_for_bit(self, twist, kind, M):
        size_set = SizeSet(kind, 2 * M if kind == "even-only" else M)
        for residuals in self.residual_kinds(size_set, twist, seed=M):
            expected = scalar_loop_coefficients(residuals, twist, size_set)
            got = invert_coefficients(residuals, twist, size_set).coeffs
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestInversionMemory:
    def test_pair_arrays_stay_small(self):
        # the map walks every pair (n, k) with n*k <= M, 1.17 M of them at
        # M = 10^5; int64 pair indices peaked at 50 bytes per pair
        M = 100_000
        pairs = int(np.sum(M // np.arange(1, M + 1)))
        residuals = dict(zip(range(1, M + 1), np.random.default_rng(1).normal(size=M).tolist()))
        _, peak = traced_peak(
            lambda: invert_coefficients(residuals, Twist.ABC, SizeSet("all-from-1", M))
        )
        assert peak <= 36 * pairs, peak / pairs


class TestReconstructFunction:
    def test_interpolates_all_data_sizes(self):
        band = MassiveSineBand(1.0, 0.3)
        M = 9
        residuals = residual_series(band, range(1, M + 1), Twist.PBC)
        shape = invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", M))
        approx = FourierBand(band.mean(), shape.coeffs)
        for L in range(1, M + 1):
            assert riemann_sum(approx, L, Twist.PBC) == pytest.approx(
                riemann_sum(band, L, Twist.PBC), abs=1e-13
            )


class TestConvergenceCurve:
    def test_finite_series_is_reconstructed_exactly(self):
        rng = np.random.default_rng(3)
        band = random_band(rng, 8)
        curve = dict(convergence_curve(band, range(8, 17)))
        for L, err in curve.items():
            assert err <= 1e-12, (L, err)

    def test_monotone_decay_for_massive_band(self):
        curve = convergence_curve(MassiveSineBand(1.0, 0.1), range(6, 30))
        errs = [e for _, e in curve]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_each_cutoff_matches_a_fresh_inversion(self, twist):
        # the curve slices one set of weights and samples through the FFT; each
        # cutoff inverts on its own here and is summed densely
        band = MassiveSineBand(1.0, 0.2)
        k = np.arange(GRID_SIZE) * (2.0 * np.pi / GRID_SIZE)
        exact = band.evaluate(k)
        curve = convergence_curve(band, [3, 7, 12, 20], twist)
        for L, err in curve:
            residuals = residual_series(band, range(1, L + 1), twist)
            shape = invert_coefficients(residuals, twist, SizeSet("all-from-1", L))
            approx = cosine_series(band.mean(), shape.coeffs, k)
            expected = float(np.sum((approx - exact) ** 2) * 2.0 * np.pi / GRID_SIZE)
            assert err == pytest.approx(expected, rel=1e-9, abs=1e-15), L

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_fourier_band_is_exact_from_its_degree_on(self, twist):
        coeffs = np.random.default_rng(4).standard_normal(24) / 4
        band = parse_band_spec("fourier:c0=3,coeffs=" + ";".join(map(repr, coeffs.tolist())))
        curve = dict(convergence_curve(band, range(1, 65), twist))
        assert curve[23] > 1e-4
        for L in range(24, 65):
            assert curve[L] <= 1e-27, (L, curve[L])

    def test_no_dense_cosine_table(self):
        # a cos(n*k) table for cutoffs up to 512 on the grid would hold 16 MB
        _, peak = traced_peak(
            lambda: convergence_curve(MassiveSineBand(1.0, 0.05), range(16, 513, 16))
        )
        assert peak < 2 * 2**20, peak

    def test_bad_cutoffs(self):
        with pytest.raises(ValidationError):
            convergence_curve(MassiveSineBand(1.0, 0.1), [0, 4])
