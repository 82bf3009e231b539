"""Map-family definitions, Planck scale, and V/V'/T evaluation."""

import math

import pytest

from qmap import (
    ConfigurationError,
    MapFamily,
    PhaseSpacePoint,
    PlanckScale,
    VARIANTS,
    require_even_dimension,
)
from qmap.model import SIN_AMPLITUDE, classical_slope, kinetic, potential


def test_variant_catalogue():
    assert VARIANTS == ("chaotic", "regular", "slow_ergodic")
    with pytest.raises(ConfigurationError):
        MapFamily("standard")


def test_quadratic_sign_and_perturbation_site():
    assert MapFamily("chaotic").quadratic_sign == -1.0
    assert MapFamily("regular").quadratic_sign == +1.0
    assert MapFamily("slow_ergodic").quadratic_sign == 0.0
    assert MapFamily("chaotic").perturbation_site == "position"
    assert MapFamily("regular").perturbation_site == "position"
    assert MapFamily("slow_ergodic").perturbation_site == "momentum"


def test_planck_scale_values():
    scale = PlanckScale(64)
    assert scale.h == 1.0 / 64


@pytest.mark.parametrize("bad", [0, 1, -4, 2.5, "64"])
def test_planck_scale_rejects_bad_dimension(bad):
    with pytest.raises(ConfigurationError):
        PlanckScale(bad)


@pytest.mark.parametrize("variant", VARIANTS)
def test_odd_dimension_rejected_for_every_variant(variant):
    # all three variants carry T = p^2/2, so the even-N constraint is global
    with pytest.raises(ConfigurationError):
        require_even_dimension(MapFamily(variant), PlanckScale(63))
    require_even_dimension(MapFamily(variant), PlanckScale(64))


def test_phase_space_point_reduced_mod_one():
    pt = PhaseSpacePoint(1.25, -0.25)
    assert pt.q == 0.25
    assert pt.p == 0.75


def test_potential_at_origin_vanishes():
    assert potential(MapFamily("chaotic"), 0.0) == 0.0


def test_kick_derivative_at_origin():
    # d/dq of the sin term at q = 0
    got = classical_slope(MapFamily("chaotic"), 0.0)
    assert got == pytest.approx(0.4 / (2.0 * math.pi), abs=1e-12)
    assert got == pytest.approx(0.0636620, abs=1e-7)


def test_kinetic_perturbation_amplitude():
    got = kinetic(MapFamily("slow_ergodic", r=2.0), 0.0, PlanckScale(64))
    assert got == 4.8828125e-4  # 2 * (1/64)^2, exact in binary


def test_sawtooth_potential_value():
    for r in (0.0, 1.0, 3.0):
        got = potential(MapFamily("slow_ergodic", r=r), 0.25, PlanckScale(32))
        assert got == pytest.approx(0.075, abs=1e-15)


def test_sawtooth_is_periodic():
    fam = MapFamily("slow_ergodic")
    assert potential(fam, 0.0) == pytest.approx(0.15, abs=1e-15)
    assert potential(fam, 1.0 - 1e-9) == pytest.approx(0.15, abs=1e-8)


def test_sawtooth_derivative_sign_convention():
    fam = MapFamily("slow_ergodic")
    assert classical_slope(fam, 0.25) == -0.3
    assert classical_slope(fam, 0.75) == +0.3
    assert classical_slope(fam, 0.5) == 0.0


def test_perturbation_scales_as_h_squared():
    base = potential(MapFamily("chaotic"), 0.3)
    at_64 = potential(MapFamily("chaotic", r=1.0), 0.3, PlanckScale(64))
    at_128 = potential(MapFamily("chaotic", r=1.0), 0.3, PlanckScale(128))
    assert (at_64 - base) == pytest.approx(4.0 * (at_128 - base), rel=1e-12)


@pytest.mark.parametrize("variant,q", [("chaotic", 0.37), ("regular", 0.81),
                                       ("slow_ergodic", 0.2)])
def test_vprime_matches_numerical_derivative(variant, q):
    # the classical limit: without a scale the r term is dropped
    fam = MapFamily(variant, r=1.5)
    eps = 1e-4
    numeric = (potential(fam, q + eps) - potential(fam, q - eps)) / (2.0 * eps)
    assert classical_slope(fam, q) == pytest.approx(numeric, abs=1e-6)


def test_kinetic_term_is_quadratic_without_perturbation():
    assert kinetic(MapFamily("chaotic"), 0.5) == 0.125
    assert kinetic(MapFamily("regular"), 0.25) == 0.03125


def test_chaotic_potential_value():
    assert potential(MapFamily("chaotic"), 0.3) == pytest.approx(
        -0.045 + SIN_AMPLITUDE * math.sin(0.6 * math.pi), rel=1e-15)
