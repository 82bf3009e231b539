"""The array formula layer of qmap.model: V, V', V'' and T on whole grids."""

import numpy as np
import pytest

from qmap import VARIANTS, MapFamily, PlanckScale
from qmap.model import (
    classical_slope,
    kinetic,
    potential,
    potential_curvature,
)

EPS = 1e-5
# interior grid, kept 2 EPS clear of the sawtooth kinks at 0, 1/2 and 1
GRID = np.linspace(0.01, 0.99, 197)
GRID = GRID[np.abs(GRID - 0.5) > 2 * EPS]

# the classical h -> 0 limit and one quantized member of each family
SETTINGS = [(0.0, None), (1.5, PlanckScale(8))]


def central_difference(f, x):
    return (f(x + EPS) - f(x - EPS)) / (2.0 * EPS)


@pytest.mark.parametrize("r,scale", SETTINGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_slope_is_the_derivative_of_the_potential(variant, r, scale):
    # classical_slope is the h -> 0 limit; at a scale V also carries the
    # r h^2 cos(2 pi q) term, whose slope is written out here
    fam = MapFamily(variant, r=r)
    slope = classical_slope(fam, GRID)
    if scale is not None and fam.perturbation_site == "position":
        slope = slope - (2.0 * np.pi * r * scale.h ** 2
                         * np.sin(2.0 * np.pi * GRID))
    numeric = central_difference(lambda q: potential(fam, q, scale), GRID)
    assert np.allclose(slope, numeric, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_curvature_is_the_derivative_of_the_slope(variant):
    fam = MapFamily(variant)
    numeric = central_difference(lambda q: classical_slope(fam, q), GRID)
    assert np.allclose(potential_curvature(fam, GRID), numeric,
                       rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_quantization_term_sits_at_the_perturbation_site(variant):
    scale = PlanckScale(16)
    base, deformed = MapFamily(variant), MapFamily(variant, r=2.0)
    term = 2.0 * scale.h ** 2 * np.cos(2.0 * np.pi * GRID)
    dV = potential(deformed, GRID, scale) - potential(base, GRID, scale)
    dT = kinetic(deformed, GRID, scale) - kinetic(base, GRID, scale)
    on_V = base.perturbation_site == "position"
    assert np.allclose(dV, term if on_V else 0.0, rtol=0.0, atol=1e-15)
    assert np.allclose(dT, 0.0 if on_V else term, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_scale_is_the_classical_limit(variant):
    # without a scale the r term is dropped even for r != 0
    assert np.array_equal(potential(MapFamily(variant, r=3.0), GRID),
                          potential(MapFamily(variant), GRID))
    assert np.array_equal(kinetic(MapFamily(variant, r=3.0), GRID), GRID * GRID / 2.0)
