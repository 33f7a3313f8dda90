import math

import numpy as np
import pytest

from bandrec import (
    ALL_HYPOTHESES,
    Hypothesis,
    MassiveSineBand,
    Statistics,
    Twist,
    ValidationError,
    classify,
    criterion_check,
    extrapolate_e_inf,
    reconstruct_band,
    synth_energy_series,
)
from bandrec.bands import AbsSineBand, FourierBand, uniform_grid
from bandrec.inversion import SizeSet
from bandrec.reconstruct import MODEL_EXPONENTIAL, MODEL_POWER_LAW_2
from bandrec.riemann import EnergySeries

BOSON_PBC = Hypothesis(Statistics.BOSON, Twist.PBC)
FERMION_PBC = Hypothesis(Statistics.FERMION, Twist.PBC)
BOSON_ABC = Hypothesis(Statistics.BOSON, Twist.ABC)
FERMION_ABC = Hypothesis(Statistics.FERMION, Twist.ABC)


class TestReconstructBand:
    def test_matched_synthetic_round_trip_abs_sine(self):
        band = AbsSineBand(math.pi / 2)
        series = synth_energy_series(band, Statistics.FERMION, 1.0, Twist.PBC, range(2, 17, 2))
        result = reconstruct_band(series, series.e_inf, 1.0, FERMION_PBC, SizeSet("even-only", 16))
        assert result.admissible
        assert result.completion == "literal"
        assert result.l2_residual_forward < 1e-10  # the observed data is reproduced exactly
        # the recovered coefficients equal the true ones up to the tail of the
        # infinite cosine series aliasing into the finite window
        k = uniform_grid()
        dev = np.max(np.abs(result.band.evaluate(k) - band.evaluate(k)))
        assert dev < 0.1

    def test_matched_synthetic_is_exact_for_finite_pi_periodic_band(self):
        coeffs = np.zeros(12)
        coeffs[1::2] = [-0.6, -0.1, -0.04, 0.02, -0.01, 0.005]
        band = FourierBand(1.0, coeffs)
        series = synth_energy_series(band, Statistics.FERMION, 1.0, Twist.PBC, range(2, 13, 2))
        result = reconstruct_band(series, series.e_inf, 1.0, FERMION_PBC, SizeSet("even-only", 12))
        assert result.admissible
        assert result.completion == "literal"
        assert np.max(np.abs(result.band.coeffs - coeffs)) < 1e-12
        assert result.band.c0 == pytest.approx(1.0, rel=1e-13)

    def test_flipped_statistics_gives_exact_negation(self):
        band = AbsSineBand(math.pi / 2)
        series = synth_energy_series(band, Statistics.FERMION, 1.0, Twist.PBC, range(2, 17, 2))
        matched = reconstruct_band(series, series.e_inf, 1.0, FERMION_PBC, SizeSet("even-only", 16))
        flipped = reconstruct_band(series, series.e_inf, 1.0, BOSON_PBC, SizeSet("even-only", 16))
        assert not flipped.admissible
        assert flipped.min_band_value < 0
        k = uniform_grid()
        assert np.max(np.abs(flipped.band.evaluate(k) + matched.band.evaluate(k))) < 1e-12

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_round_trip_exactness_random_bands(self, statistics, twist):
        rng = np.random.default_rng(hash((statistics.value, twist.value)) % 2**32)
        M = 12
        for _ in range(5):
            coeffs = rng.normal(size=M) * 0.05
            c0 = 2.0 + rng.uniform(0.5, 1.0)  # comfortably positive band
            band = FourierBand(c0, coeffs)
            nu = rng.uniform(0.5, 3.0)
            series = synth_energy_series(band, statistics, nu, twist, range(1, M + 1))
            result = reconstruct_band(
                series, series.e_inf, nu, Hypothesis(statistics, twist), SizeSet("all-from-1", M)
            )
            # coefficient recovery is exact regardless of the admissibility
            # verdict (random shapes need not dip at the zone center)
            assert np.max(np.abs(result.band.coeffs - coeffs)) <= 1e-12 * max(
                1.0, np.max(np.abs(coeffs))
            )
            assert result.band.c0 == pytest.approx(c0, rel=1e-12)
            assert result.l2_residual_forward <= 1e-10 * max(
                abs(series.e(L, twist)) for L in range(1, M + 1)
            )

    def test_sign_symmetry_of_returned_bands(self):
        # flipping the statistics flips the returned band pointwise whenever
        # the flipped reading is inadmissible (it then reports the literal band)
        band = MassiveSineBand(1.0, 0.4)
        series = synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, range(1, 11))
        size_set = SizeSet("all-from-1", 10)
        res_plus = reconstruct_band(series, series.e_inf, 1.0, BOSON_PBC, size_set)
        res_minus = reconstruct_band(series, series.e_inf, 1.0, FERMION_PBC, size_set)
        assert res_plus.admissible and not res_minus.admissible
        k = uniform_grid()
        assert np.max(np.abs(res_plus.band.evaluate(k) + res_minus.band.evaluate(k))) < 1e-12

    def test_validation_errors(self):
        series = synth_energy_series(FourierBand(1.0), Statistics.BOSON, 1.0, Twist.PBC, [1, 2])
        with pytest.raises(ValidationError):
            reconstruct_band(series, float("nan"), 1.0, BOSON_PBC, SizeSet("all-from-1", 2))
        with pytest.raises(ValidationError):
            reconstruct_band(series, -0.5, 0.0, BOSON_PBC, SizeSet("all-from-1", 2))
        with pytest.raises(ValidationError):
            reconstruct_band(series, -0.5, 1.0, BOSON_ABC, SizeSet("all-from-1", 2), Twist.ABC)

    def test_undetermined_a1_propagates(self):
        band = FourierBand(2.0, [0.5, -0.2, 0.1])
        series = synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, range(2, 7))
        result = reconstruct_band(series, series.e_inf, 1.0, BOSON_PBC, SizeSet("from-2", 6))
        assert result.band.undetermined_a1
        assert result.band.coeffs[0] == 0.0
        assert result.band.coeffs[1] == pytest.approx(-0.2, abs=1e-13)


class TestClassify:
    def test_zero_residuals_all_admissible_with_magnitude_band(self):
        series = EnergySeries()
        e = -0.7
        for L in range(1, 9):
            series.add(L, Twist.PBC, e * L)
        results = classify(series, e, 2.0, SizeSet("all-from-1", 8))
        assert [r.admissible for r in results] == [True] * 4
        for r in results:
            assert r.band.c0 == pytest.approx(abs(e))  # (2/nu)|e_inf| with nu=2
            assert np.max(np.abs(r.band.coeffs)) < 1e-12

    def test_synthetic_boson_pbc_two_combination_rule(self):
        band = MassiveSineBand(1.0, 0.5)
        series = synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, range(1, 21))
        size_set = SizeSet("all-from-1", 20)
        results = {r.hypothesis: r for r in classify(series, series.e_inf, 1.0, size_set)}
        admissible = {h for h, r in results.items() if r.admissible}
        assert admissible == {BOSON_PBC, FERMION_ABC}
        k = uniform_grid()
        match = np.max(np.abs(results[BOSON_PBC].band.evaluate(k) - band.evaluate(k)))
        assert match < 1e-8

    def test_classification_uses_data_twist_for_all_hypotheses(self):
        band = MassiveSineBand(1.0, 0.5)
        series = synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, range(1, 11))
        results = classify(series, series.e_inf, 1.0, SizeSet("all-from-1", 10))
        assert len(results) == 4
        assert [r.hypothesis for r in results] == list(ALL_HYPOTHESES)


class TestCriterionCheck:
    def test_arithmetic_example(self):
        series = EnergySeries()
        series.add(1, Twist.PBC, -1.0)
        series.add(1, Twist.ABC, -2.0)
        series.add(2, Twist.PBC, -3.0)
        report = criterion_check(series)
        assert report.per_L_defect == {1: 0.0}
        assert report.max_relative_defect == 0.0

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    @pytest.mark.parametrize(
        "band",
        [MassiveSineBand(1.0, 0.0), MassiveSineBand(1.0, 0.7), FourierBand(1.5, [0.3, -0.4, 0.1])],
    )
    def test_quasi_free_data_satisfies_identity(self, statistics, band):
        series = EnergySeries()
        for twist in (Twist.PBC, Twist.ABC):
            part = synth_energy_series(band, statistics, 1.0, twist, range(1, 17))
            for L in part.sizes(twist):
                series.add(L, twist, part.E(L, twist))
        report = criterion_check(series)
        assert report.max_relative_defect <= 1e-12

    def test_missing_triple_named(self):
        series = EnergySeries()
        series.add(2, Twist.PBC, -1.0)
        series.add(4, Twist.PBC, -2.0)
        with pytest.raises(ValidationError, match=r"\(2, abc\)"):
            criterion_check(series)

    def test_no_doubling_pair(self):
        series = EnergySeries()
        series.add(3, Twist.PBC, -1.0)
        series.add(3, Twist.ABC, -1.0)
        with pytest.raises(ValidationError):
            criterion_check(series)


class TestExtrapolation:
    def test_exact_power_law(self):
        series = EnergySeries()
        e_inf, B = -0.62, 0.8
        for L in (4, 6, 8, 10, 12):
            series.add(L, Twist.PBC, (e_inf + B / L**2) * L)
        result = extrapolate_e_inf(series, MODEL_POWER_LAW_2)
        assert result.e_inf == pytest.approx(e_inf, abs=1e-10)
        assert result.fit_residual < 1e-12

    def test_exact_exponential(self):
        series = EnergySeries()
        e_inf, A, xi = -0.45, 0.3, 4.0
        for L in range(6, 22, 2):
            series.add(L, Twist.PBC, (e_inf + A * math.exp(-L / xi)) * L)
        result = extrapolate_e_inf(series, MODEL_EXPONENTIAL)
        assert result.e_inf == pytest.approx(e_inf, abs=1e-10)
        assert not result.fallback

    def test_exponential_fallback_is_flagged(self):
        flat, growing = EnergySeries(), EnergySeries()
        for L, e in zip((2, 4, 6, 8), (0.0, 1.0, 3.0, 7.0)):
            flat.add(L, Twist.PBC, -0.25 * L)
            growing.add(L, Twist.PBC, e * L)  # step ratio 2, outside (0, 1)
        for series, last in ((flat, -0.25), (growing, 7.0)):
            result = extrapolate_e_inf(series, MODEL_EXPONENTIAL)
            assert result.fallback
            assert result.e_inf == pytest.approx(last, abs=1e-12)
        assert not extrapolate_e_inf(growing, MODEL_POWER_LAW_2).fallback

    def test_synthetic_massive_band(self):
        band = MassiveSineBand(1.0, 0.3)
        series = synth_energy_series(band, Statistics.FERMION, 1.0, Twist.PBC, range(8, 21))
        result = extrapolate_e_inf(series, MODEL_EXPONENTIAL)
        assert result.e_inf == pytest.approx(-0.5 * band.mean(), abs=1e-6)

    def test_constant_series(self):
        series = EnergySeries()
        for L in (2, 4, 6, 8):
            series.add(L, Twist.PBC, -0.25 * L)
        for model in (MODEL_EXPONENTIAL, MODEL_POWER_LAW_2):
            assert extrapolate_e_inf(series, model).e_inf == pytest.approx(-0.25, abs=1e-12)

    def test_reads_the_data_twist(self):
        # abc alone is read as abc; beside pbc data the pbc sizes are read
        series = EnergySeries()
        for L in (2, 4, 6, 8):
            series.add(L, Twist.ABC, (-0.3 + 1.0 / L**2) * L)
        assert extrapolate_e_inf(series, MODEL_POWER_LAW_2).e_inf == pytest.approx(-0.3)
        for L in (2, 4, 6, 8):
            series.add(L, Twist.PBC, (-0.6 + 1.0 / L**2) * L)
        assert extrapolate_e_inf(series, MODEL_POWER_LAW_2).e_inf == pytest.approx(-0.6)

    def test_underdetermined(self):
        series = EnergySeries()
        for L in (2, 4, 6):
            series.add(L, Twist.PBC, -1.0)
        with pytest.raises(ValidationError):
            extrapolate_e_inf(series, MODEL_EXPONENTIAL)

    def test_unknown_model(self):
        series = EnergySeries()
        for L in (2, 4, 6, 8):
            series.add(L, Twist.PBC, -1.0)
        with pytest.raises(ValidationError):
            extrapolate_e_inf(series, "cubic")


def e_inf_sensitivity(series, e_inf, delta, nu, hypothesis, size_set, data_twist=None):
    """Half-spread of each band coefficient when e_inf is varied by +-delta.

    The finite-difference reference that a closed-form sensitivity must match.
    """
    lo = reconstruct_band(series, e_inf - delta, nu, hypothesis, size_set, data_twist)
    hi = reconstruct_band(series, e_inf + delta, nu, hypothesis, size_set, data_twist)
    return np.abs(hi.band.coeffs - lo.band.coeffs) / 2.0


class TestSensitivity:
    def test_uniform_shift_moves_every_coefficient(self):
        band = MassiveSineBand(1.0, 0.4)
        series = synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, range(1, 11))
        size_set = SizeSet("all-from-1", 10)
        spread = e_inf_sensitivity(series, series.e_inf, 1e-3, 1.0, BOSON_PBC, size_set)
        assert spread.shape == (10,)
        assert np.all(spread >= 0)
        assert spread[0] > 0  # a_1 absorbs part of any e_inf shift
