import math

import numpy as np
import pytest

from bandrec import (
    MassiveSineBand,
    Statistics,
    Twist,
    ValidationError,
    synth_energy_series,
)
from bandrec.bands import AbsSineBand, FourierBand, uniform_grid
from bandrec.riemann import EnergySeries, momenta, residual_series, riemann_sum


def direct_sum(band, L, twist):
    return float(np.mean(band.evaluate(momenta(L, twist))))


class SampledBand:
    """Periodic linear interpolation of a table on the uniform grid."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def evaluate(self, k):
        n = self.table.size
        x = np.mod(np.asarray(k, dtype=float), 2 * np.pi) * (n / (2 * np.pi))
        i = np.floor(x).astype(np.int64) % n
        t = x - np.floor(x)
        return (1 - t) * self.table[i] + t * self.table[(i + 1) % n]

    def mean(self):
        return float(self.table.mean())


class TestRiemannSum:
    def test_constant_band(self):
        band = FourierBand(3.0)
        for L in (1, 2, 7, 64):
            assert riemann_sum(band, L, Twist.PBC) == pytest.approx(3.0)

    def test_cosine_band_single_point_abc(self):
        assert riemann_sum(FourierBand(0.0, [1.0]), 1, Twist.ABC) == pytest.approx(-1.0)

    def test_cosine_band_four_points_pbc(self):
        assert riemann_sum(FourierBand(0.0, [1.0]), 4, Twist.PBC) == pytest.approx(0.0, abs=1e-15)

    def test_massless_two_points(self):
        assert riemann_sum(MassiveSineBand(1.0, 0.0), 2, Twist.PBC) == pytest.approx(0.5)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            riemann_sum(FourierBand(1.0), 0, Twist.PBC)

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_exact_matches_direct_summation(self, twist):
        rng = np.random.default_rng(5)
        for degree in (1, 5, 17, 64):
            band = FourierBand(rng.normal(), rng.normal(size=degree))
            scale = max(1.0, abs(band.c0) + np.abs(band.coeffs).sum())
            for L in range(1, 129):
                exact = riemann_sum(band, L, twist)
                sampled = direct_sum(band, L, twist)
                assert abs(exact - sampled) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "band",
        [
            FourierBand(0.7, [0.3, -0.2, 0.05, 0.04, -0.01]),
            MassiveSineBand(1.0, 0.25),
            AbsSineBand(1.3),
        ],
    )
    def test_brillouin_zone_union_identity(self, band):
        # the 2L periodic momenta are the union of the L periodic and L
        # antiperiodic momenta, so the totals add
        for L in (1, 2, 3, 6, 10, 17):
            lhs = L * riemann_sum(band, L, Twist.PBC) + L * riemann_sum(band, L, Twist.ABC)
            rhs = 2 * L * riemann_sum(band, 2 * L, Twist.PBC)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_bz_union_for_sampled_band(self):
        # any band with an evaluate method goes through direct summation
        band = SampledBand(MassiveSineBand(1.0, 0.4).evaluate(uniform_grid(4096)))
        for L in (2, 5, 9):
            lhs = L * (riemann_sum(band, L, Twist.PBC) + riemann_sum(band, L, Twist.ABC))
            rhs = 2 * L * riemann_sum(band, 2 * L, Twist.PBC)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestResidualSeries:
    def test_spec_example(self):
        band = FourierBand(1.0, [0.0, 1.0])  # 1 + cos(2k)
        res = residual_series(band, [1, 2, 3, 4], Twist.PBC)
        assert res == pytest.approx({1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0})

    def test_vanishes_beyond_degree(self):
        band = FourierBand(0.3, [0.5, -0.1, 0.2])
        res = residual_series(band, [4, 5, 9, 31], Twist.PBC)
        assert all(v == 0.0 for v in res.values())

    def test_single_size_abc(self):
        assert residual_series(FourierBand(0.0, [1.0]), [1], Twist.ABC)[1] == pytest.approx(-1.0)

    def test_massive_decay_rate(self):
        # gapped band: residual decay rate 2*asinh(m); m chosen so the whole
        # window stays far above quadrature noise and the power-law prefactor
        # bias stays within the stated tolerance
        m = 0.15
        band = MassiveSineBand(1.0, m)
        sizes = range(10, 61)
        res = residual_series(band, sizes, Twist.PBC)
        L = np.array(sorted(res))
        vals = np.abs(np.array([res[i] for i in L]))
        assert vals.min() > 1e-12
        slope = np.polyfit(L, np.log(vals), 1)[0]
        rate = 2.0 * math.asinh(m)
        assert abs(-slope - rate) <= 0.2 * rate

    def test_critical_decay_power(self):
        band = MassiveSineBand(1.0, 0.0)
        sizes = [2**p for p in range(3, 9)]  # 8..256
        res = residual_series(band, sizes, Twist.PBC)
        L = np.array(sorted(res), dtype=float)
        vals = np.abs(np.array([res[i] for i in L.astype(int)]))
        slope = np.polyfit(np.log(L), np.log(vals), 1)[0]
        assert slope <= -1.8


class TestEnergySeries:
    def test_per_site_consistency_and_ordering(self):
        series = EnergySeries()
        for L in (4, 2, 8):
            series.add(L, Twist.PBC, -0.37 * L)
        series.add(3, Twist.ABC, -1.0)
        assert series.sizes(Twist.PBC) == (2, 4, 8)
        for L, twist, E in series.items():
            assert series.e(L, twist) == E / L

    def test_duplicate_rejected(self):
        series = EnergySeries()
        series.add(2, Twist.PBC, -1.0)
        with pytest.raises(ValidationError):
            series.add(2, Twist.PBC, -1.0)

    def test_missing_lookup(self):
        with pytest.raises(ValidationError):
            EnergySeries().E(2, Twist.PBC)

    def test_data_twist_is_the_one_present_else_pbc(self):
        abc_only, both = EnergySeries(), EnergySeries()
        abc_only.add(2, Twist.ABC, -1.0)
        both.add(2, Twist.ABC, -1.0)
        both.add(4, Twist.PBC, -2.0)
        assert abc_only.data_twist() is Twist.ABC
        assert both.data_twist() is Twist.PBC
        for series in (abc_only, both):
            for twist in Twist:
                assert series.data_twist(twist) is twist
        with pytest.raises(ValidationError, match="empty"):
            EnergySeries().data_twist()


class TestSynthEnergySeries:
    def test_abs_sine_fermion_two_sites(self):
        series = synth_energy_series(AbsSineBand(1.0), Statistics.FERMION, 1.0, Twist.PBC, [2])
        assert series.e(2, Twist.PBC) == pytest.approx(0.0, abs=1e-15)

    def test_constant_boson_doublet(self):
        delta = 0.8
        series = synth_energy_series(
            FourierBand(delta), Statistics.BOSON, 2.0, Twist.ABC, [1, 3, 6]
        )
        for L in (1, 3, 6):
            assert series.e(L, Twist.ABC) == pytest.approx(delta)

    def test_massless_fermion_four_sites(self):
        series = synth_energy_series(
            MassiveSineBand(1.0, 0.0), Statistics.FERMION, 1.0, Twist.PBC, [4]
        )
        assert series.e(4, Twist.PBC) == pytest.approx(-(1.0 + math.sqrt(2.0)) / 8.0)

    def test_metadata(self):
        band = MassiveSineBand(1.0, 0.3)
        series = synth_energy_series(band, Statistics.FERMION, 1.5, Twist.PBC, [2, 4])
        assert series.nu == 1.5
        assert series.e_inf == pytest.approx(-0.75 * band.mean())

    def test_negative_dispersion_rejected(self):
        band = FourierBand(0.0, [1.0])  # cos(k), negative on half the zone
        with pytest.raises(ValidationError):
            synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, [4])

    def test_band_negative_on_one_grid_only_rejected(self):
        # 1/2 + cos k is negative only at k = pi: on the L=2 grid of {1, 2, 3}
        band = FourierBand(0.5, [1.0])
        synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, [1, 3])
        with pytest.raises(ValidationError, match="L=2 grid"):
            synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, [1, 2, 3])

    @pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
    def test_positivity_check_agrees_with_direct_evaluation(self, twist):
        rng = np.random.default_rng(11)
        sizes = range(1, 25)
        for _ in range(40):
            coeffs = rng.standard_normal(rng.integers(1, 40)) / 4
            band = FourierBand(0.0, coeffs)
            lowest = min(band.evaluate(momenta(L, twist)).min() for L in sizes)
            band = FourierBand(-lowest + rng.choice([-1e-3, 1e-3]), coeffs)
            direct = min(band.evaluate(momenta(L, twist)).min() for L in sizes)
            if direct < 0:
                with pytest.raises(ValidationError):
                    synth_energy_series(band, Statistics.BOSON, 1.0, twist, sizes)
            else:
                synth_energy_series(band, Statistics.BOSON, 1.0, twist, sizes)

    @pytest.mark.parametrize("band", [MassiveSineBand(1.0, 0.1), FourierBand(1.0, [0.5])])
    def test_sizes_below_one_rejected(self, band):
        with pytest.raises(ValidationError, match="sizes must be >= 1"):
            synth_energy_series(band, Statistics.BOSON, 1.0, Twist.PBC, [0, 2])

    def test_nonpositive_filling_rejected(self):
        with pytest.raises(ValidationError):
            synth_energy_series(FourierBand(1.0), Statistics.BOSON, 0.0, Twist.PBC, [2])
