"""Kicked-map families on the unit torus and their quantization parameter.

Three one-kick-per-period map families are supported, each defined by a
kinetic function T(p) and a kick potential V(q) on [0, 1):

  chaotic       V(q) = -q^2/2 + (K/(2 pi)^2) sin(2 pi q) + r h^2 cos(2 pi q)
  regular       V(q) = +q^2/2 + (K/(2 pi)^2) sin(2 pi q) + r h^2 cos(2 pi q)
  slow_ergodic  V(q) = 0.3 |q - 1/2|,  T(p) = p^2/2 + r h^2 cos(2 pi p)

with kick strength K = 0.4.  The sin term breaks parity and makes the
dynamics generic; the dimensionless parameter r selects one member of a
family of quantizations that share the same classical limit, since the r
term carries an explicit h^2 = 1/N^2 prefactor and vanishes as N grows.
These formulas are written here only: the array functions below serve the
quantization (with a PlanckScale) and the classical map (without one, the
h -> 0 limit, where the r term is dropped without being computed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

VARIANTS = ("chaotic", "regular", "slow_ergodic")

#: kick strength: amplitude of the sin term in V''
K = 0.4
# amplitude of the parity-breaking sin(2 pi q) term in V
SIN_AMPLITUDE = K / (2.0 * math.pi) ** 2

#: default tent height of the slow-ergodic sawtooth potential
SAWTOOTH_HEIGHT = 0.3


@dataclass(frozen=True)
class MapFamily:
    """One kicked-map family together with its quantization parameter r.

    ``sawtooth_height`` rescales the slow-ergodic tent potential and exists
    so degenerate configurations (V identically zero, free shear) can be
    built for testing; physical runs leave it at the default.
    """

    variant: str
    r: float = 0.0
    sawtooth_height: float = SAWTOOTH_HEIGHT

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"model: unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )

    @property
    def quadratic_sign(self) -> float:
        """Sign of the q^2/2 term; the - sign gives fully chaotic dynamics."""
        if self.variant == "chaotic":
            return -1.0
        if self.variant == "regular":
            return +1.0
        return 0.0

    @property
    def perturbation_site(self) -> str:
        """Where the r h^2 cos term lives: 'position' (in V) or 'momentum' (in T)."""
        return "momentum" if self.variant == "slow_ergodic" else "position"


@dataclass(frozen=True)
class PlanckScale:
    """Hilbert-space dimension N with h = 1/N and hbar = 1/(2 pi N)."""

    N: int
    h: float = field(init=False)
    hbar: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ConfigurationError(f"model: N must be an integer >= 2, got {self.N!r}")
        object.__setattr__(self, "h", 1.0 / self.N)
        object.__setattr__(self, "hbar", 1.0 / (2.0 * math.pi * self.N))


def require_even_dimension(family: MapFamily, scale: PlanckScale) -> None:
    """Reject odd N for variants with a quadratic V or T term.

    The kick/free phases exp(-2 pi i N x^2/2) at grid x_j = j/N are
    single-valued under j -> j + N only for even N.  All three variants
    carry T(p) = p^2/2, so the constraint applies throughout.
    """
    if scale.N % 2 != 0:
        raise ConfigurationError(
            f"model: variant {family.variant!r} has a quadratic kinetic/potential "
            f"term; N must be even, got N={scale.N}"
        )


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point on the torus; both coordinates are reduced mod 1 on construction."""

    q: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "q", self.q % 1.0)
        object.__setattr__(self, "p", self.p % 1.0)


def quantization_profile(x):
    """cos(2 pi x) elementwise: the shape of the r h^2 term at its site.

    Its diagonal element in an eigenstate is that level's velocity
    d phi / dr in units of the mean spacing (Hellmann-Feynman).
    """
    return np.cos(2.0 * np.pi * x)


def _with_quantization_term(value, family: MapFamily, site: str, x,
                            scale: PlanckScale | None, derivative: int = 0):
    """Add r h^2 cos(2 pi x), or its x-derivative, to value at the family's
    perturbation_site; without a scale or at the other site, return value."""
    if scale is None or family.perturbation_site != site:
        return value
    pert = family.r * scale.h ** 2
    if derivative == 0:
        return value + pert * quantization_profile(x)
    return value - 2.0 * np.pi * pert * np.sin(2.0 * np.pi * x)


def potential(family: MapFamily, q, scale: PlanckScale | None = None):
    """V(q) elementwise; without a scale, the classical h -> 0 limit."""
    if family.variant == "slow_ergodic":
        V = family.sawtooth_height * np.abs(q - 0.5)
    else:
        V = (family.quadratic_sign * q * q / 2.0
             + SIN_AMPLITUDE * np.sin(2.0 * np.pi * q))
    return _with_quantization_term(V, family, "position", q, scale)


def classical_slope(family: MapFamily, q, cos_2pi_q=None, out=None):
    """V'(q) elementwise in the h -> 0 limit, from q and cos(2 pi q).

    cos_2pi_q, when given, must be cos(2 pi q) at the same q; it is then
    reused instead of evaluated again (the sawtooth ignores it).  With an
    out buffer the result is written there, and out may be cos_2pi_q
    itself; no other sample-sized array is allocated.  The sawtooth has
    V'(q) = 0.3 sign(q - 1/2), V'(1/2) = 0.
    """
    if family.variant == "slow_ergodic":
        side = np.sign(np.subtract(q, 0.5, out=out), out=out)
        return np.multiply(side, family.sawtooth_height, out=out)
    if cos_2pi_q is None:
        cos_2pi_q = np.cos(np.multiply(q, 2.0 * np.pi, out=out), out=out)
    wave = np.multiply(cos_2pi_q, K / (2.0 * np.pi), out=out)
    # quadratic_sign is +-1, so sign * q + wave is exactly wave +- q
    add = np.add if family.quadratic_sign > 0.0 else np.subtract
    return add(wave, q, out=out)


def potential_slope(family: MapFamily, q, scale: PlanckScale | None = None):
    """V'(q) elementwise; the sawtooth has V'(q) = 0.3 sign(q - 1/2), V'(1/2) = 0."""
    return _with_quantization_term(classical_slope(family, q), family,
                                   "position", q, scale, 1)


def potential_curvature(family: MapFamily, q):
    """V''(q) elementwise, h -> 0 limit only; zero for the sawtooth."""
    if family.variant == "slow_ergodic":
        return np.zeros_like(q)
    return family.quadratic_sign - K * np.sin(2.0 * np.pi * q)


def kinetic(family: MapFamily, p, scale: PlanckScale | None = None):
    """T(p) elementwise; without a scale, the classical h -> 0 limit."""
    return _with_quantization_term(p * p / 2.0, family, "momentum", p, scale)


_COMPONENTS = {"V": potential, "Vprime": potential_slope, "T": kinetic}


def evaluate(family: MapFamily, component: str, x: float,
             scale: PlanckScale | None = None) -> float:
    """Evaluate V, V' or T at one point of [0, 1): the array functions above
    behind input checks.  A family with r != 0 needs a PlanckScale here."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"model: coordinate {x!r} outside [0, 1)")
    if family.r != 0.0 and scale is None:
        raise ConfigurationError(
            "model: r != 0 requires a PlanckScale (perturbation amplitude is r h^2)"
        )
    formula = _COMPONENTS.get(component)
    if formula is None:
        raise DomainError(
            f"model: unknown component {component!r}, expected V, Vprime or T")
    return float(formula(family, x, scale))
