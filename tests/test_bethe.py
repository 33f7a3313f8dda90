"""The Heisenberg ring's ED energies against the Bethe-ansatz oracle in bethe.py."""

import math

import pytest

import bethe
from bandrec import SpinChain, Twist, energy_series

SIZES = range(4, 17, 2)
TWISTS = (Twist.PBC, Twist.ABC)


@pytest.fixture(scope="module")
def series():
    return energy_series(SpinChain("heisenberg", 1.0), SIZES, TWISTS)


@pytest.mark.parametrize("twist", TWISTS, ids=str)
@pytest.mark.parametrize("L", SIZES)
def test_energy_series_matches_the_bethe_ansatz(series, L, twist):
    assert series.E(L, twist) == pytest.approx(bethe.ground_energy(L, twist), rel=1e-11, abs=0)


def test_oracle_reproduces_the_l24_energy():
    # the unsymmetrized ED value of the 24-site ring (dim 2.7 M)
    assert bethe.ground_energy(24) == pytest.approx(-10.670014516537229, rel=1e-13, abs=0)


def test_oracle_brackets_the_thermodynamic_limit():
    # e_inf = 1/4 - ln 2 (Hulthen); pbc lies below it and abc above at large L
    e_inf = 0.25 - math.log(2)
    pbc, abc = (bethe.ground_energy(200, twist) / 200 for twist in TWISTS)
    assert pbc < e_inf < abc
    assert abc - pbc < 1e-4


def test_step_count_guard(monkeypatch):
    monkeypatch.setattr(bethe, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="unsolved after 2 Newton steps"):
        bethe.ground_energy(12, Twist.ABC)
