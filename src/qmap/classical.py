"""Classical dynamics of the kicked maps: iteration, Lyapunov exponents,
autocorrelators and their Gaussian time averages.

The one-step map on the torus is

    p~ = p - V'(q)  mod 1
    q~ = q + p~     mod 1

(kick first, then drift).  All classical evaluation uses the h -> 0 limit
of the family: the model formulas are called without a PlanckScale, so
the r h^2 quantization term is absent; the drift derivative T'(p~) is then
p~ for every variant.

A map has no conserved energy, so the microcanonical window of an
autonomous system is played here by the whole torus with uniform measure:
ensemble averages are plain phase-space averages and a0 is the uniform
average of the observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import (MapFamily, PhaseSpacePoint, potential_curvature,
                    potential_slope)

OBSERVABLES = ("cos2pi_q", "cos2pi_p", "identity")


def microcanonical_average(observable: str) -> float:
    """Uniform-measure average of the observable over the torus."""
    if observable in ("cos2pi_q", "cos2pi_p"):
        return 0.0
    if observable == "identity":
        return 1.0
    raise DomainError(f"classical: unknown observable {observable!r}")


def _observable_values(observable: str, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    if observable == "cos2pi_q":
        return np.cos(2.0 * np.pi * q)
    if observable == "cos2pi_p":
        return np.cos(2.0 * np.pi * p)
    if observable == "identity":
        return np.ones_like(q)
    raise DomainError(f"classical: unknown observable {observable!r}")


def _step_arrays(family: MapFamily, q: np.ndarray, p: np.ndarray):
    p_new = (p - potential_slope(family, q)) % 1.0
    q_new = (q + p_new) % 1.0
    return q_new, p_new


def map_step(point: PhaseSpacePoint, family: MapFamily) -> PhaseSpacePoint:
    """Advance one torus point by one kick-then-drift period."""
    q_new, p_new = _step_arrays(family, point.q, point.p)
    return PhaseSpacePoint(float(q_new), float(p_new))


@dataclass(frozen=True)
class LyapunovReport:
    """Seed-averaged largest Lyapunov exponent per map step.

    ``spread`` is max - min over seeds and is reported, not hidden; a
    spread comparable to the exponent itself signals a mixed phase space.
    """

    lam: float
    steps: int
    seed_count: int
    spread: float

    def ehrenfest_time(self, N: int) -> float:
        """log(hbar^-1) / lambda = ln(2 pi N) / lambda; defined only for lambda > 0."""
        if self.lam <= 0.0:
            raise DomainError("classical: Ehrenfest time undefined for lambda <= 0")
        return math.log(2.0 * math.pi * N) / self.lam


def lyapunov_exponent(family: MapFamily, seeds: list[PhaseSpacePoint],
                      steps: int) -> LyapunovReport:
    """Largest Lyapunov exponent from the renormalized tangent-map product.

    The tangent map of one period acts as dp~ = dp - V''(q) dq,
    dq~ = dq + dp~ (unit determinant).  The tangent vector is renormalized
    every step; the exponent is the mean log growth per step, averaged
    over seeds.
    """
    if steps < 10_000:
        raise DomainError(f"classical: need steps >= 1e4, got {steps}")
    if len(seeds) < 5:
        raise DomainError(f"classical: need at least 5 seeds, got {len(seeds)}")

    q = np.array([s.q for s in seeds])
    p = np.array([s.p for s in seeds])
    dq = np.full_like(q, 1.0 / math.sqrt(2.0))
    dp = np.full_like(q, 1.0 / math.sqrt(2.0))
    log_growth = np.zeros_like(q)

    for _ in range(steps):
        curv = potential_curvature(family, q)
        dp = dp - curv * dq
        dq = dq + dp
        norm = np.hypot(dq, dp)
        if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
            raise NumericalError("classical: tangent vector over/underflow; "
                                 "renormalization failed")
        log_growth += np.log(norm)
        dq /= norm
        dp /= norm
        q, p = _step_arrays(family, q, p)

    lams = log_growth / steps
    return LyapunovReport(
        lam=float(np.mean(lams)),
        steps=steps,
        seed_count=len(seeds),
        spread=float(np.max(lams) - np.min(lams)),
    )


@dataclass(frozen=True, eq=False)
class CorrelatorCurve:
    """Monte Carlo autocorrelator C(t) = <A(x) A(map^t x)> on the torus.

    C(0) is the sampled phase-space average of A^2.  ``stderr`` holds the
    per-lag Monte Carlo standard error of the mean.
    """

    times: np.ndarray
    C: np.ndarray
    a0: float
    sample_count: int
    rng_seed: int
    stderr: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.C, self.stderr):
            arr.setflags(write=False)

    @property
    def values(self) -> list[tuple[int, float]]:
        return [(int(t), float(c)) for t, c in zip(self.times, self.C)]

    @property
    def t_max(self) -> int:
        return int(self.times[-1])

    def time_averaged(self, T: float) -> float:
        """Gaussian time average F_cl(T) = sum_t w_T(t) C(t) / sum_t w_T(t).

        The sum runs over t in [-t_max, t_max] using C(-t) = C(t), with
        weights w_T(t) = exp(-t^2 / 2 T^2) normalized by their own sum.
        """
        if T < 0.0:
            raise DomainError(f"classical: need T >= 0, got {T}")
        t = self.times.astype(float)
        if T == 0.0:
            return float(self.C[0])
        w = np.exp(-(t * t) / (2.0 * T * T))
        # two-sided sum: every t > 0 appears twice, t = 0 once
        sides = np.where(t == 0.0, 1.0, 2.0)
        return float(np.sum(sides * w * self.C) / np.sum(sides * w))


def classical_correlator(family: MapFamily, observable: str, t_max: int,
                         samples: int, rng_seed: int) -> CorrelatorCurve:
    """Estimate C(t) for t = 0..t_max from uniform i.i.d. torus points.

    Each sample contributes A(x) A(map^t x); the trajectory is advanced in
    place so memory stays O(samples).
    """
    if t_max <= 0:
        raise DomainError(f"classical: need t_max > 0, got {t_max}")
    if samples < 10_000:
        raise DomainError(f"classical: need samples >= 1e4, got {samples}")

    rng = np.random.default_rng(rng_seed)
    q = rng.random(samples)
    p = rng.random(samples)
    a_start = _observable_values(observable, q, p)

    C = np.empty(t_max + 1)
    stderr = np.empty(t_max + 1)
    for t in range(t_max + 1):
        if t > 0:
            q, p = _step_arrays(family, q, p)
        prod = a_start * _observable_values(observable, q, p)
        C[t] = prod.mean()
        stderr[t] = prod.std() / math.sqrt(samples)

    return CorrelatorCurve(
        times=np.arange(t_max + 1),
        C=C,
        a0=microcanonical_average(observable),
        sample_count=samples,
        rng_seed=rng_seed,
        stderr=stderr,
    )
