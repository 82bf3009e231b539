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

from .errors import ConfigurationError

VARIANTS = ("chaotic", "regular", "slow_ergodic")

#: kick strength: amplitude of the sin term in V''
K = 0.4
# amplitude of the parity-breaking sin(2 pi q) term in V
SIN_AMPLITUDE = K / (2.0 * math.pi) ** 2

# the factors of classical_slope as 0-d float64 arrays: a ufunc takes one
# without the conversion a Python float costs on every call, and the
# product is the same to the bit
_TWO_PI = np.array(2.0 * math.pi)
_KICK_SLOPE_AMPLITUDE = np.array(K / (2.0 * math.pi))

#: tent height of the slow-ergodic sawtooth potential, read at each call
SAWTOOTH_HEIGHT = 0.3


@dataclass(frozen=True)
class MapFamily:
    """One kicked-map family together with its quantization parameter r."""

    variant: str
    r: float = 0.0

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

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ConfigurationError(f"model: N must be an integer >= 2, got {self.N!r}")
        object.__setattr__(self, "h", 1.0 / self.N)


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
                            scale: PlanckScale | None):
    """Add r h^2 cos(2 pi x) to value at the family's perturbation_site;
    without a scale or at the other site, return value."""
    if scale is None or family.perturbation_site != site:
        return value
    return value + family.r * scale.h ** 2 * quantization_profile(x)


def potential(family: MapFamily, q, scale: PlanckScale | None = None):
    """V(q) elementwise; without a scale, the classical h -> 0 limit."""
    if family.variant == "slow_ergodic":
        V = SAWTOOTH_HEIGHT * np.abs(q - 0.5)
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
        return np.multiply(side, SAWTOOTH_HEIGHT, out=out)
    if cos_2pi_q is None:
        cos_2pi_q = np.cos(np.multiply(q, _TWO_PI, out=out), out=out)
    wave = np.multiply(cos_2pi_q, _KICK_SLOPE_AMPLITUDE, out=out)
    # quadratic_sign is +-1, so sign * q + wave is exactly wave +- q
    add = np.add if family.quadratic_sign > 0.0 else np.subtract
    return add(wave, q, out=out)


def potential_curvature(family: MapFamily, q, out=None):
    """V''(q) elementwise, h -> 0 limit only; zero for the sawtooth.

    With an out buffer the result is written there, and out may be q
    itself.
    """
    if family.variant == "slow_ergodic":
        if out is None:
            return np.zeros_like(q)
        out.fill(0.0)
        return out
    sin_2pi_q = np.sin(np.multiply(q, 2.0 * np.pi, out=out), out=out)
    wave = np.multiply(sin_2pi_q, K, out=out)
    return np.subtract(family.quadratic_sign, wave, out=out)


def kinetic(family: MapFamily, p, scale: PlanckScale | None = None):
    """T(p) elementwise; without a scale, the classical h -> 0 limit."""
    return _with_quantization_term(p * p / 2.0, family, "momentum", p, scale)

