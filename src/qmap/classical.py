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
from itertools import repeat

import numpy as np

from ._threads import worker_map
from .errors import DomainError, NumericalError
from .model import (MapFamily, PhaseSpacePoint, classical_slope,
                    potential_curvature)

OBSERVABLES = ("cos2pi_q", "cos2pi_p", "identity")

#: steps between renormalizations of the Lyapunov tangent vector
RENORMALIZE_EVERY = 16
# orbit steps the Lyapunov loop runs ahead of its tangent vector
_LYAPUNOV_CHUNK = 1024


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
        return np.cos(np.multiply(q, 2.0 * np.pi, out=out), out=out)
    if observable == "cos2pi_p":
        return np.cos(np.multiply(p, 2.0 * np.pi, out=out), out=out)
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


def classical_correlator(family: MapFamily, observable: str, t_max: int,
                         samples: int, rng_seed: int) -> CorrelatorCurve:
    """Estimate C(t) for t = 0..t_max from uniform i.i.d. torus points.

    Each sample contributes A(x) A(map^t x); the trajectory is advanced in
    place so memory stays O(samples).  ``C[t]`` and ``stderr[t]`` are the
    mean and the standard deviation over sqrt(samples) of the products,
    as ``prod.mean()`` and ``prod.std()`` would give them.

    The samples are cut into contiguous segments, one per worker thread
    (qmap._threads.worker_map).  Per lag, each worker advances its segment
    and writes its products into one shared array, the calling thread sums
    the whole array into the mean, each worker squares its deviations from
    the mean in place, and the calling thread sums the array again.  Every
    sum is np.add.reduce over the whole array, so the result is
    bit-identical at every worker count.
    """
    if t_max <= 0:
        raise DomainError(f"classical: need t_max > 0, got {t_max}")
    if samples < 10_000:
        raise DomainError(f"classical: need samples >= 1e4, got {samples}")

    rng = np.random.default_rng(rng_seed)
    q = rng.random(samples)
    p = rng.random(samples)
    a_start = _observable_values(observable, q, p, np.empty_like(q))
    values = np.empty_like(q)
    scratch = np.empty_like(q)
    # the observable cos(2 pi q) at step t is the cosine the kick to step
    # t + 1 needs; classical_slope ignores it where V' has no cosine
    shares_cosine = observable == "cos2pi_q"

    def write_products(s, t):
        if t > 0:
            _step_arrays(family, q[s], p[s], scratch[s],
                         values[s] if shares_cosine else None)
        np.multiply(a_start[s],
                    _observable_values(observable, q[s], p[s], values[s]),
                    out=scratch[s])

    def square_deviations(s, mean):
        deviation = np.subtract(scratch[s], mean, out=scratch[s])
        np.square(deviation, out=deviation)

    C = np.empty(t_max + 1)
    stderr = np.empty(t_max + 1)
    with worker_map() as (workers, run):
        segments = [slice(samples * i // workers, samples * (i + 1) // workers)
                    for i in range(workers)]
        for t in range(t_max + 1):
            list(run(write_products, segments, repeat(t)))
            C[t] = np.add.reduce(scratch) / samples
            list(run(square_deviations, segments, repeat(C[t])))
            stderr[t] = math.sqrt(np.add.reduce(scratch) / samples) \
                / math.sqrt(samples)

    return CorrelatorCurve(
        times=np.arange(t_max + 1),
        C=C,
        sample_count=samples,
        stderr=stderr,
    )
