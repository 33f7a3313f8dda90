"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The exact-diagonalization series are computed once per session and shared.
"""

import math

import numpy as np
import pytest

from bandrec import (
    Hypothesis,
    MassiveSineBand,
    SpinChain,
    Statistics,
    Twist,
    b_coefficients,
    classify,
    convergence_curve,
    criterion_check,
    energy_series,
    extrapolate_e_inf,
    reconstruct_band,
    size_set_for,
    synth_energy_series,
)
from bandrec.bands import AbsSineBand, FourierBand, uniform_grid
from bandrec.inversion import SizeSet, invert_coefficients
from bandrec.reconstruct import MODEL_EXPONENTIAL
from bandrec.riemann import EnergySeries, residual_series
from bandrec.spinchain import SectorBasis, SpinModelSpec
from ed_helpers import dense, ground_energy, hamiltonian

BOSON_PBC = Hypothesis(Statistics.BOSON, Twist.PBC)
FERMION_PBC = Hypothesis(Statistics.FERMION, Twist.PBC)
BOSON_ABC = Hypothesis(Statistics.BOSON, Twist.ABC)
FERMION_ABC = Hypothesis(Statistics.FERMION, Twist.ABC)

E_INF_HEISENBERG = 0.25 - math.log(2.0)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def rel_l2_distance(values, target, mean_removed=False):
    v = np.asarray(values, dtype=float).copy()
    t = np.asarray(target, dtype=float).copy()
    if mean_removed:
        v -= v.mean()
        t -= t.mean()
    return float(np.sqrt(np.mean((v - t) ** 2) / np.mean(t**2)))


@pytest.fixture(scope="session")
def heisenberg_even_series():
    return energy_series(SpinChain("heisenberg", 1.0), range(2, 17, 2), (Twist.PBC,))


@pytest.fixture(scope="session")
def heisenberg_criterion_series():
    return energy_series(SpinChain("heisenberg", 1.0), [2, 4, 8, 16], (Twist.PBC, Twist.ABC))


@pytest.fixture(scope="session")
def single_ion_series():
    return energy_series(SpinChain("single-ion", 1.0, D=7.4), range(2, 13), (Twist.PBC,))


@pytest.fixture(scope="session")
def dimerized_series():
    return energy_series(SpinChain("dimerized", 1.0, delta=0.048), range(2, 13, 2), (Twist.PBC,))


def materialize_g(twist, size):
    G = np.zeros((size, size), dtype=np.int64)
    for M in range(1, size + 1):
        sign = twist.q
        for m in range(M, size + 1, M):
            G[M - 1, m - 1] = sign
            sign *= twist.q
    return G


def brute_moebius(n):
    """mu(n) by trial division, straight from the definition."""
    primes = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            primes += 1
        else:
            d += 1
    return -1 if (primes + (n > 1)) % 2 else 1


def test_criterion_1_number_kernel_oracle():
    """Inversion weights against the materialized aliasing matrix, and mu."""
    ok_identity = True
    for twist in (Twist.PBC, Twist.ABC):
        for size in (1, 7, 33, 64):
            b = b_coefficients(twist, size)
            B = np.zeros((size, size), dtype=np.int64)
            for i in range(1, size + 1):
                for j in range(i, size + 1, i):
                    B[i - 1, j - 1] = b[j // i - 1]
            G = materialize_g(twist, size)
            ok_identity &= bool((B @ G == np.eye(size, dtype=np.int64)).all())
    b_pbc = b_coefficients(Twist.PBC, 10**4)
    ok_moebius = b_pbc.tolist() == [brute_moebius(n) for n in range(1, 10**4 + 1)]
    verdict(1, ok_identity and ok_moebius, "integer inverse identity and mu equivalence")
    assert ok_identity and ok_moebius


def test_criterion_2_round_trip_exactness():
    """100 random positive bands, both twists and statistics, exact recovery."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    runs = 0
    for twist in (Twist.PBC, Twist.ABC):
        for statistics in (Statistics.BOSON, Statistics.FERMION):
            for _ in range(25):
                degree = int(rng.integers(1, 33))
                coeffs = rng.normal(size=degree)
                c0 = float(np.abs(coeffs).sum() + rng.uniform(0.1, 1.0))
                band = FourierBand(c0, coeffs)
                nu = float(rng.uniform(0.5, 3.0))
                series = synth_energy_series(band, statistics, nu, twist, range(1, degree + 1))
                result = reconstruct_band(
                    series,
                    series.e_inf,
                    nu,
                    Hypothesis(statistics, twist),
                    SizeSet("all-from-1", degree),
                )
                scale = max(np.max(np.abs(coeffs)), abs(c0))
                err = max(
                    np.max(np.abs(result.band.coeffs - coeffs)),
                    abs(result.band.c0 - c0),
                ) / scale
                worst = max(worst, err)
                runs += 1
    ok = runs == 100 and worst <= 1e-12
    verdict(2, ok, f"100 round trips, worst relative coefficient error {worst:.2e}")
    assert ok


def test_criterion_3_massive_convergence_rate():
    """Reconstruction error decays at the analytic rate for the gapped band.

    The error envelope is const * L^-3 * exp(-2L/xi); the rate is read off
    after removing the power-law prefactor, which would otherwise bias a plain
    log-linear fit by 3<1/L> over this window.
    """
    curve = convergence_curve(MassiveSineBand(1.0, 0.1), range(10, 61))
    L = np.array([c[0] for c in curve], dtype=float)
    err = np.array([c[1] for c in curve])
    slope = np.polyfit(L, np.log(err * L**3), 1)[0]
    rate = 4.0 * math.asinh(0.1)
    rel = abs(-slope - rate) / rate
    ok = rel <= 0.20
    verdict(3, ok, f"massive decay rate {-slope:.4f} vs {rate:.4f} (rel dev {rel:.1%})")
    assert ok


def test_criterion_4_massless_convergence_power():
    """Cubic-like power-law decay of the error for the gapless band."""
    curve = convergence_curve(MassiveSineBand(1.0, 0.0), range(8, 129))
    L = np.array([c[0] for c in curve], dtype=float)
    err = np.array([c[1] for c in curve])
    slope = np.polyfit(np.log(L), np.log(err), 1)[0]
    ok = slope <= -2.5
    verdict(4, ok, f"massless log-log slope {slope:.3f} (need <= -2.5)")
    assert ok


def test_criterion_5_ten_sum_reconstruction():
    """Pointwise accuracy of the ten-sum reconstruction.

    The m=0.1 bound of 1e-3 sits below the truncation floor of the method
    (the true band's coefficient tail beyond degree 10 sums to 2.3e-3); it is
    asserted as stated and fails for any implementation of this inversion.
    """
    k = uniform_grid()
    devs = {}
    for m in (0.1, 0.0):
        band = MassiveSineBand(1.0, m)
        residuals = residual_series(band, range(1, 11), Twist.PBC)
        shape = invert_coefficients(residuals, Twist.PBC, SizeSet("all-from-1", 10))
        approx = FourierBand(band.mean(), shape.coeffs)
        devs[m] = float(np.max(np.abs(approx.evaluate(k) - band.evaluate(k))))
    ok_massive = devs[0.1] < 1e-3
    ok_massless = devs[0.0] < 0.05
    verdict(
        5,
        ok_massive and ok_massless,
        f"max deviation m=0.1: {devs[0.1]:.2e} (<1e-3: {ok_massive}), "
        f"m=0: {devs[0.0]:.2e} (<0.05: {ok_massless})",
    )
    assert ok_massless
    assert ok_massive, (
        "known limitation: the 1e-3 bound sits below the truncation floor of a "
        "degree-10 cosine interpolation (the exact band's tail beyond degree 10 "
        "already sums to 2.3e-3)"
    )


def test_criterion_6_heisenberg_classification(heisenberg_even_series):
    """Flagship case: classification and band shapes of the exchange ring."""
    series = heisenberg_even_series
    size_set = size_set_for(range(2, 17, 2))
    results = {r.hypothesis: r for r in classify(series, E_INF_HEISENBERG, 1.0, size_set)}
    admissible = {h for h, r in results.items() if r.admissible}
    ok_set = admissible == {BOSON_PBC, FERMION_ABC}

    k = uniform_grid()
    exact = (math.pi / 2.0) * np.abs(np.sin(k))
    spin_wave = np.abs(np.sin(k))
    ferm_band = results[FERMION_ABC].band.evaluate(k)
    bos_band = results[BOSON_PBC].band.evaluate(k)
    # distances compare the mean-removed curves: the band mean is an input
    # convention (set by e_inf), while the inversion determines the shape;
    # both variants are reported
    d_ferm = rel_l2_distance(ferm_band, exact, mean_removed=True)
    d_ferm_full = rel_l2_distance(ferm_band, exact)
    d_bos = rel_l2_distance(bos_band, spin_wave, mean_removed=True)
    d_bos_full = rel_l2_distance(bos_band, spin_wave)
    ok_ferm = d_ferm < 0.10
    ok_bos = d_bos < 0.20
    verdict(
        6,
        ok_set and ok_ferm and ok_bos,
        f"admissible={sorted(h.label for h in admissible)}, "
        f"fermion-abc vs exact {d_ferm:.3f} (full {d_ferm_full:.3f}), "
        f"boson-pbc vs spin-wave {d_bos:.3f} (full {d_bos_full:.3f})",
    )
    assert ok_set
    assert ok_ferm
    assert ok_bos


def test_criterion_7_quasi_free_criterion(heisenberg_criterion_series):
    """Doubling identity: exact for quasi-free data, defective for the ring."""
    worst = 0.0
    for band, statistics in (
        (MassiveSineBand(1.0, 0.0), Statistics.FERMION),
        (MassiveSineBand(1.0, 0.6), Statistics.BOSON),
        (AbsSineBand(1.2), Statistics.FERMION),
        (FourierBand(2.0, [0.4, -0.3, 0.1, 0.05]), Statistics.BOSON),
    ):
        series = EnergySeries()
        for twist in (Twist.PBC, Twist.ABC):
            part = synth_energy_series(band, statistics, 1.0, twist, range(1, 9))
            for L in part.sizes(twist):
                series.add(L, twist, part.E(L, twist))
        worst = max(worst, criterion_check(series).max_relative_defect)
    ok_synthetic = worst <= 1e-12

    report = criterion_check(heisenberg_criterion_series)
    # regression baseline from the first verified run (J = 1)
    baseline = {4: -0.033059420187278254, 8: -0.01703137739645033}
    ok_ed = abs(report.per_L_defect[2]) <= 1e-12
    for L, expected in baseline.items():
        ok_ed &= abs(report.per_L_defect[L] - expected) <= 1e-9 * abs(expected)
    ok_ed &= report.max_relative_defect > 1e-3  # genuinely interacting
    verdict(
        7,
        ok_synthetic and ok_ed,
        f"synthetic worst defect {worst:.1e}; ring defects "
        f"{ {L: round(d, 12) for L, d in report.per_L_defect.items()} }",
    )
    assert ok_synthetic
    assert ok_ed


def test_criterion_8_single_ion_large_anisotropy(single_ion_series):
    """Spin-1 large-anisotropy chain against third-order perturbation theory.

    Distances compare the n >= 2 cosine parts on [0, pi] (the undetermined
    cos k term and the mean are excluded), normalized by the reference part's
    norm, matching the relative-distance convention of the other criteria.
    """
    D = 7.4
    series = single_ion_series
    e_inf = extrapolate_e_inf(series, MODEL_EXPONENTIAL).e_inf
    size_set = SizeSet("from-2", 12)
    results = {}
    for hypothesis in (BOSON_PBC, FERMION_ABC):
        results[hypothesis] = reconstruct_band(
            series, e_inf, 2.0, hypothesis, size_set, data_twist=Twist.PBC
        )
    reference = {2: -(1.0 + D) / D**2, 3: 1.0 / D**2}
    ref_norm = math.sqrt(math.pi / 2.0 * sum(v * v for v in reference.values()))

    def n2_distance(result):
        total = 0.0
        for n in range(2, result.band.degree + 1):
            total += (result.band.coeffs[n - 1] - reference.get(n, 0.0)) ** 2
        return math.sqrt(math.pi / 2.0 * total) / ref_norm

    d_boson = n2_distance(results[BOSON_PBC])
    d_fermion = n2_distance(results[FERMION_ABC])
    ok_order = d_boson < d_fermion
    ok_window = 0.02 <= d_boson <= 0.10
    a1_flags = all(results[h].band.undetermined_a1 for h in results)
    verdict(
        8,
        ok_order and ok_window and a1_flags,
        f"boson distance {d_boson:.4f} vs fermion {d_fermion:.4f} "
        f"(ordering: {ok_order}, window [0.02,0.10]: {ok_window})",
    )
    assert a1_flags
    assert ok_order
    assert ok_window


def test_criterion_9_dimerized_chain(dimerized_series):
    """Gapped bond-alternating chain: two positive pi-periodic bands."""
    series = dimerized_series
    e_inf = extrapolate_e_inf(series, MODEL_EXPONENTIAL).e_inf
    results = classify(series, e_inf, 3.0, size_set_for(range(2, 13, 2)))
    admissible = [r for r in results if r.admissible]
    ok_two = len(admissible) == 2
    ok_positive = all(r.min_band_value > 0.0 for r in admissible)
    ok_period = all(
        np.max(np.abs(r.band.coeffs[0::2])) == 0.0 for r in admissible
    )
    verdict(
        9,
        ok_two and ok_positive and ok_period,
        f"admissible={[r.hypothesis.label for r in admissible]}, "
        f"minima={[round(r.min_band_value, 5) for r in admissible]}",
    )
    assert ok_two
    assert ok_positive
    assert ok_period


def test_criterion_10_ed_unit_anchors():
    """Ground-state anchors and Lanczos-vs-dense agreement on small sectors."""
    r2 = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0)), 2)
    r4 = ground_energy(SpinModelSpec(SpinChain("heisenberg", 1.0)), 4)
    ok_anchors = abs(r2.energy + 1.5) <= 1e-10 and abs(r4.energy + 2.0) <= 1e-10

    worst = 0.0
    checked = 0
    for model in (
        SpinChain("heisenberg", 1.0),
        SpinChain("dimerized", 1.0, delta=0.048),
        SpinChain("single-ion", 1.0, D=7.4),
    ):
        step = 2 if model.local_dim == 2 else 1
        for L in range(2, 32, step):
            if SectorBasis.build(L, model.local_dim).dim > 4096:
                break
            for twist in (Twist.PBC, Twist.ABC):
                spec = SpinModelSpec(model, twist)
                dense_min = float(np.linalg.eigvalsh(dense(hamiltonian(spec, L)))[0])
                lanczos_min = ground_energy(spec, L).energy
                worst = max(worst, abs(dense_min - lanczos_min))
                checked += 1
    ok_dense = worst <= 1e-10
    verdict(
        10,
        ok_anchors and ok_dense,
        f"anchors E0(2)={r2.energy:.12f}, E0(4)={r4.energy:.12f}; "
        f"{checked} Lanczos-vs-dense sectors, worst gap {worst:.1e}",
    )
    assert ok_anchors
    assert ok_dense
