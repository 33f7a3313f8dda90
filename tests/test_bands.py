import math

import numpy as np
import pytest

from bandrec import MassiveSineBand, Twist
from bandrec.bands import (
    AbsSineBand,
    FourierBand,
    cosine_series_on_grid,
    momenta,
    sample,
)

from band_reference import cosine_series, evaluate


def test_fourier_band_is_even():
    rng = np.random.default_rng(7)
    band = FourierBand(rng.normal(), rng.normal(size=12))
    k = rng.uniform(0, 2 * np.pi, size=64)
    assert np.allclose(evaluate(band, k), evaluate(band, 2 * np.pi - k), atol=1e-13)


def test_fourier_band_sampling():
    band = FourierBand(1.0, [0.0, 1.0])  # 1 + cos(2k)
    assert sample(band, 4, Twist.PBC) == pytest.approx([2.0, 0.0, 2.0, 0.0], abs=1e-15)
    assert sample(band, 4, Twist.ABC) == pytest.approx([1.0] * 4, abs=1e-15)
    assert band.coeffs.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
@pytest.mark.parametrize("L", [1, 5, 64])
def test_sample_is_the_band_at_its_momenta(twist, L):
    k = momenta(L, twist)
    assert k.shape == (L,)
    for band in (MassiveSineBand(2.0, 0.3), AbsSineBand(1.5)):
        assert np.array_equal(sample(band, L, twist), band.evaluate(k))
    band = FourierBand(0.4, np.random.default_rng(L).standard_normal(3 * L + 2))
    assert np.allclose(sample(band, L, twist), cosine_series(band.c0, band.coeffs, k), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 64, 512, 4096])
def test_periodic_momenta_match_a_uniform_grid_at_powers_of_two(n):
    # dividing by a power of two is exact, so both roundings agree bit for bit
    grid = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    assert np.array_equal(momenta(n, Twist.PBC), grid)


def test_undetermined_a1_stored_as_zero():
    band = FourierBand(0.5, [3.0, 1.0], undetermined_a1=True)
    assert band.undetermined_a1
    assert band.coeffs.tolist() == [0.0, 1.0]


def test_massive_sine_values():
    band = MassiveSineBand(2.0, 0.3)
    k = np.array([0.0, np.pi / 2, np.pi])
    expected = 2.0 * np.sqrt(np.sin(k / 2) ** 2 + 0.09)
    assert np.allclose(band.evaluate(k), expected)
    assert band.evaluate(0.0) == pytest.approx(0.6)


def test_massive_sine_mean_massless_exact():
    assert MassiveSineBand(3.0, 0.0).mean() == 6.0 / math.pi


def test_massive_sine_mean_quadrature():
    # large-m limit: sqrt(sin^2(k/2) + m^2) ~ m + sin^2(k/2)/(2m) has mean m + 1/(4m)
    m = 50.0
    assert MassiveSineBand(1.0, m).mean() == pytest.approx(m + 1 / (4 * m), rel=1e-6)


@pytest.mark.parametrize("m", np.geomspace(1e-3, 10.0, 25))
def test_massive_sine_mean_agm_matches_quadrature(m):
    integrate = pytest.importorskip("scipy.integrate")
    value, _ = integrate.quad(
        lambda x: math.sqrt(math.sin(x / 2.0) ** 2 + m**2),
        0.0,
        2.0 * math.pi,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    assert MassiveSineBand(1.0, m).mean() == pytest.approx(value / (2.0 * math.pi), rel=1e-13)


@pytest.mark.parametrize("m", [1e-9, 1e-12, 1e-200, -1e-9])
def test_massive_sine_mean_tiny_mass_tends_to_massless(m):
    # 1 - 1/(1+m^2) rounds to zero here; the mean must still approach 2J/pi
    assert MassiveSineBand(1.0, m).mean() == pytest.approx(2.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("twist", [Twist.PBC, Twist.ABC])
@pytest.mark.parametrize("L", [1, 2, 7, 64])
@pytest.mark.parametrize("extra", [-1, 0, 1, 2 * 64 + 3])
def test_grid_evaluator_matches_direct_series(twist, L, extra):
    degree = max(L + extra, 0)
    coeffs = np.random.default_rng(L * 1000 + degree).standard_normal(degree)
    direct = cosine_series(0.25, coeffs, momenta(L, twist))
    fast = cosine_series_on_grid(0.25, coeffs, L, twist)
    assert fast.shape == (L,)
    assert np.allclose(fast, direct, rtol=0.0, atol=1e-13 * (1.0 + np.abs(coeffs).sum()))


def test_abs_sine():
    band = AbsSineBand(math.pi / 2)
    assert band.evaluate(np.pi / 2) == pytest.approx(math.pi / 2)
    assert band.mean() == pytest.approx(1.0)


def project(band, n_max, grid_size=4096):
    """Mean and cosine coefficients a_1..a_n_max by uniform-grid quadrature."""
    k = momenta(grid_size, Twist.PBC)
    f = sample(band, grid_size, Twist.PBC)
    n = np.arange(1, n_max + 1)
    return f.mean(), 2.0 / grid_size * (np.cos(np.multiply.outer(n, k)) @ f)


def test_projection_recovers_trig_polynomial_exactly():
    # the grid quadrature is exact for cosines below half the grid size, so
    # this checks the sampled FourierBand against its own coefficients
    rng = np.random.default_rng(11)
    band = FourierBand(rng.normal(), rng.normal(size=20))
    c0, coeffs = project(band, 25)
    assert c0 == pytest.approx(band.c0, abs=1e-13)
    assert np.allclose(coeffs[:20], band.coeffs, atol=1e-12)
    assert np.max(np.abs(coeffs[20:])) < 1e-12


def test_projection_matches_known_series():
    # |sin(k/2)| = 2/pi - (4/pi) sum cos(nk)/(4n^2-1)
    c0, coeffs = project(MassiveSineBand(1.0, 0.0), 12)
    n = np.arange(1, 13)
    expected = -(4.0 / np.pi) / (4.0 * n**2 - 1.0)
    assert c0 == pytest.approx(2.0 / np.pi, abs=1e-7)
    assert np.allclose(coeffs, expected, atol=1e-6)


def test_abs_sine_has_only_even_coefficients():
    _, coeffs = project(AbsSineBand(1.0), 10)
    assert np.max(np.abs(coeffs[0::2])) < 1e-12  # odd indices vanish
    assert coeffs[1] == pytest.approx(-4.0 / (3.0 * np.pi), abs=1e-6)
