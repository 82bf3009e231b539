"""Classical dynamics of the kicked maps: iteration, Lyapunov exponents
and autocorrelators.

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

from ._threads import worker_map
from .errors import DomainError, NumericalError
from .model import (MapFamily, PhaseSpacePoint, classical_slope,
                    potential_curvature, quantization_profile)

OBSERVABLES = ("cos2pi_q", "cos2pi_p", "identity")

#: steps between renormalizations of the Lyapunov tangent vector
RENORMALIZE_EVERY = 16
# orbit steps the Lyapunov loop runs ahead of its tangent vector
_LYAPUNOV_CHUNK = 1024
# samples per task of the Monte Carlo correlator
_CORRELATOR_BLOCK = 32768


def microcanonical_average(observable: str) -> float:
    """Uniform-measure average of the observable over the torus."""
    if observable in ("cos2pi_q", "cos2pi_p"):
        return 0.0
    if observable == "identity":
        return 1.0
    raise DomainError(f"classical: unknown observable {observable!r}")


def _observable_values(observable: str, q: np.ndarray, p: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    if observable == "cos2pi_q":
        return quantization_profile(q, out=out)
    if observable == "cos2pi_p":
        return quantization_profile(p, out=out)
    if observable == "identity":
        out.fill(1.0)
        return out
    raise DomainError(f"classical: unknown observable {observable!r}")


def _reduce_mod_1(x: np.ndarray, scratch: np.ndarray) -> None:
    # x - floor(x) and x % 1.0 are one rounding of the same real number, so
    # they agree bit for bit; the floor form is several times faster
    np.subtract(x, np.floor(x, out=scratch), out=x)


def _step_arrays(family: MapFamily, q: np.ndarray, p: np.ndarray,
                 scratch: np.ndarray, cos_2pi_q: np.ndarray | None = None) -> None:
    """Advance (q, p) by one period in place; scratch is overwritten.

    cos_2pi_q, when the caller holds it, is cos(2 pi q) at the current q
    and is reused by the kick.
    """
    np.subtract(p, classical_slope(family, q, cos_2pi_q, out=scratch), out=p)
    _reduce_mod_1(p, scratch)
    np.add(q, p, out=q)
    _reduce_mod_1(q, scratch)


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
    every RENORMALIZE_EVERY = 16 steps and after the last step; the
    exponent is the mean log growth per step, averaged over seeds.

    The orbit does not depend on the tangent vector, so it runs ahead a
    chunk of _LYAPUNOV_CHUNK steps at a time, recording each step's q in
    one row of a buffer; one potential_curvature call then turns the
    chunk's positions into V'' in place, and the tangent recursion walks
    its rows.  Every element sees the operations of a step-by-step loop,
    so lam and spread do not depend on the chunk size, bit for bit.
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
    scratch = np.empty_like(q)
    # the positions of a chunk's steps, then their V''
    chunk = np.empty((min(_LYAPUNOV_CHUNK, steps), q.size))

    for start in range(0, steps, _LYAPUNOV_CHUNK):
        orbit = chunk[:min(_LYAPUNOV_CHUNK, steps - start)]
        for row in orbit:
            row[...] = q
            _step_arrays(family, q, p, scratch)
        curvatures = potential_curvature(family, orbit, out=orbit)
        for step, curvature in enumerate(curvatures, start + 1):
            dp -= np.multiply(curvature, dq, out=curvature)
            dq += dp
            # |V''| <= 1 + K: the one-step tangent matrix and its inverse
            # have norm below 3.3, so 16 steps change the norm by less than
            # 1e9 either way, far from over/underflow
            if step % RENORMALIZE_EVERY == 0 or step == steps:
                norm = np.hypot(dq, dp)
                if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
                    raise NumericalError(
                        "classical: tangent vector over/underflow; "
                        "renormalization failed")
                log_growth += np.log(norm)
                dq /= norm
                dp /= norm

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
    sample_count: int
    stderr: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.C, self.stderr):
            arr.setflags(write=False)

    @property
    def t_max(self) -> int:
        return int(self.times[-1])


def _uniform_draws(rng_seed: int, skip: int, size: int) -> np.ndarray:
    """Draws skip .. skip + size - 1 of default_rng(rng_seed).random().

    default_rng(seed) is Generator(PCG64(seed)), and each float64 draw
    takes one 64-bit output of the bit generator, so a fresh PCG64(seed)
    advanced by skip outputs continues the stream bit for bit from there.
    """
    bits = np.random.PCG64(rng_seed).advance(skip)
    return np.random.Generator(bits).random(size)


def _correlator_block(family: MapFamily, observable: str, t_max: int,
                      q: np.ndarray, p: np.ndarray):
    """(count, sums, M2) of A(x) A(map^t x) over one block of samples,
    t = 0..t_max.

    q and p are the block's samples and are advanced in place.  sums[t]
    is np.add.reduce of the block's products and M2[t] the sum of their
    squared deviations from the block mean, formed as np.mean and np.std
    form them.
    """
    a_start = _observable_values(observable, q, p, np.empty_like(q))
    values = np.empty_like(q)
    scratch = np.empty_like(q)
    # the observable cos(2 pi q) at step t is the cosine the kick to step
    # t + 1 needs; classical_slope ignores it where V' has no cosine
    shares_cosine = observable == "cos2pi_q"
    sums = np.empty(t_max + 1)
    M2 = np.empty(t_max + 1)
    for t in range(t_max + 1):
        if t > 0:
            _step_arrays(family, q, p, scratch,
                         values if shares_cosine else None)
        prod = np.multiply(a_start,
                           _observable_values(observable, q, p, values),
                           out=scratch)
        sums[t] = np.add.reduce(prod)
        deviation = np.subtract(prod, sums[t] / q.size, out=prod)
        M2[t] = np.add.reduce(np.square(deviation, out=deviation))
    return q.size, sums, M2


def _merge_moments(a, b):
    """(count, sums, M2) of two sample sets joined: the pairwise update of
    Chan, Golub & LeVeque (Am. Stat. 37, 242 (1983))."""
    (na, sa, M2a), (nb, sb, M2b) = a, b
    n = na + nb
    delta = sb / nb - sa / na
    return n, sa + sb, M2a + M2b + delta * delta * (na * nb / n)


def classical_correlator(family: MapFamily, observable: str, t_max: int,
                         samples: int, rng_seed: int) -> CorrelatorCurve:
    """Estimate C(t) for t = 0..t_max from uniform i.i.d. torus points.

    The samples are q = rng.random(samples), then p = rng.random(samples)
    of rng = default_rng(rng_seed).  Each contributes A(x) A(map^t x).
    ``C[t]`` and ``stderr[t]`` are the mean and the standard deviation
    over sqrt(samples) of the products.

    The samples are cut into fixed blocks of _CORRELATOR_BLOCK, and each
    block is one task on the worker threads (qmap._threads.worker_map):
    it draws its own q and p from the stream (_uniform_draws), steps them
    in place through every lag while they stay in cache and returns, per
    lag, the sum of its products and their M2, the sum of squared
    deviations from the block mean.  No sample-sized array is held: each
    running task holds five block-sized arrays.  The calling thread
    merges the blocks' (count, sum, M2) pairwise in a fixed order
    (_merge_moments).
    The blocks do not depend on the worker count, so the result is
    bit-identical at every count; up to one block it equals
    ``prod.mean()`` and ``prod.std()`` bit for bit.
    """
    if t_max <= 0:
        raise DomainError(f"classical: need t_max > 0, got {t_max}")
    if samples < 10_000:
        raise DomainError(f"classical: need samples >= 1e4, got {samples}")

    starts = range(0, samples, _CORRELATOR_BLOCK)

    def run_block(start):
        size = min(_CORRELATOR_BLOCK, samples - start)
        return _correlator_block(
            family, observable, t_max, _uniform_draws(rng_seed, start, size),
            _uniform_draws(rng_seed, samples + start, size))

    with worker_map(len(starts)) as run:
        moments = list(run(run_block, starts))
    # adjacent pairs, round after round; an odd last block waits a round
    while len(moments) > 1:
        merged = [_merge_moments(a, b)
                  for a, b in zip(moments[0::2], moments[1::2])]
        moments = merged + moments[2 * len(merged):]
    _, sums, M2 = moments[0]

    return CorrelatorCurve(
        times=np.arange(t_max + 1),
        C=sums / samples,
        sample_count=samples,
        stderr=np.sqrt(M2 / samples) / math.sqrt(samples),
    )
