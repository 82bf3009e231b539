"""Coarse-grained ergodicity diagnostics in the eigenbasis.

Two views of the same matrix M = V* A V of an observable A in the
eigenbasis of a Floquet operator:

  * diagonal elements d_n against the microcanonical average a0,
  * the smoothed two-point sum F(T) = (1/N) sum_{n,m} |M_nm|^2
    exp(-delta_nm^2 T^2 / 2) with wrapped phase gaps delta_nm, which decays
    from F(0) = tr(A^2)/N to F(inf) = (1/N) sum_n |M_nn|^2.  F(T) - F(inf)
    weighs the off-diagonal elements across gaps below about 1/T, so it
    also measures how large they are between near-degenerate levels.

Each returns its own complete result: ErgodicityReport and FCurveReport.

A is the real diagonal a in its own basis, where the eigenvectors are W:
d = a^T |W|^2 in O(N^2), read a column block at a time
(spectral.eigenbasis_diagonal), and P = |M_nm|^2 with M = W* (a W),
which F(T) and the eigenbasis correlator both take from
_transition_weights, one column block of W at a time.

F(T) is assembled as (diag_sum + offdiag_sum(T)) / N with one shared
diag_sum and same-shaped weight arrays for every T, so the inequalities
F(inf) <= F(T2) <= F(T1) for T1 <= T2 hold exactly in floating point, not
just to a tolerance: the summands are dominated elementwise and the
summation tree is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import worker_map
from .classical import CorrelatorCurve, microcanonical_average
from .errors import DomainError, NumericalError
from .quantize import FloquetOperator, Observable
from .spectral import (SpectralData, column_blocks, eigenbasis_diagonal,
                       wrap_phase)

_IDENTITY_TOL = 1e-9
# columns of U^t the conjugation route evolves together: 64 complex
# columns of N = 512 fill 512 KB, within a 2 MiB L2 cache
_EVOLVE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class ErgodicityReport:
    """Diagonal elements <n|A|n> of one observable against its average a0.

    variance is the mean square deviation of the diagonals from a0, and
    F_infinity their mean square, the T -> inf plateau of F(T).
    """

    N: int
    observable: str
    diagonals: np.ndarray
    mean: float
    variance: float
    F_infinity: float

    def __post_init__(self):
        self.diagonals.setflags(write=False)


@dataclass(frozen=True)
class FCurveReport:
    """F(T) as (T, F) pairs on an ascending grid, and its T -> inf limit."""

    N: int
    F_curve: tuple
    F_infinity: float


def _check_dimension(obs: Observable, N: int, against: str) -> None:
    if obs.N != N:
        raise DomainError(
            f"ergodicity: observable dimension {obs.N} != {against} dimension {N}")


def _check_t_range(t_range: int) -> None:
    if t_range < 0:
        raise DomainError(f"ergodicity: t_range must be >= 0, got {t_range}")


def _transition_weights(data: SpectralData, obs: Observable) -> np.ndarray:
    """P = |M_nm|^2 of M = V* A V = W* (a W), W the eigenvectors at the
    observable's site.

    W is formed whole and conjugated in place; each column block of M is
    then one complex product conj(W)^T (a W[:, block]), so beside W only P
    and one block are held.  The blocks give the bits of the whole
    product on one BLAS thread at every N tried; on two they did at
    N = 64, 128, 256 and 512, not at N = 130, where OpenBLAS splits the
    whole product's columns otherwise.
    """
    _check_dimension(obs, data.N, "spectrum")
    W = obs.at_site(data.eigenvectors())
    np.conjugate(W, out=W)
    P = np.empty((data.N, data.N))
    for block in column_blocks(data.N):
        aW = np.conjugate(W[:, block])
        aW *= obs.diagonal[:, None]
        weights = np.abs(W.T @ aW, out=P[:, block])
        np.square(weights, out=weights)
    return P


def diagonal_elements_report(data: SpectralData,
                             obs: Observable) -> ErgodicityReport:
    """Diagonal elements <n|A|n>, their mean and mean-square deviation from a0.

    a0 is the microcanonical average of the observable's classical symbol;
    the diagonals are a^T |W|^2, real by construction, and M is not formed.
    """
    _check_dimension(obs, data.N, "spectrum")
    d = eigenbasis_diagonal(data, obs)
    a0 = microcanonical_average(obs.classical_label)

    mean = float(np.mean(d))
    variance = float(np.mean((d - a0) ** 2))
    F_inf = float(np.mean(d * d))

    # var about a0 and the T -> inf plateau are two readings of the same
    # moments; a mismatch means the bases or labels got out of sync
    recombined = F_inf - 2.0 * a0 * mean + a0 * a0
    if abs(variance - recombined) >= _IDENTITY_TOL:
        raise NumericalError(
            f"ergodicity: variance identity defect {abs(variance - recombined):.3e}")

    return ErgodicityReport(
        N=data.N,
        observable=obs.classical_label,
        diagonals=d,
        mean=mean,
        variance=variance,
        F_infinity=F_inf,
    )


def quantum_F_curve(data: SpectralData, obs: Observable,
                    T_grid) -> FCurveReport:
    """Evaluate F(T) on an ascending grid; F_infinity is the diagonal term.

    The weights of each T are formed in one buffer, in place, by the
    operations of exp(-0.5 (delta T)^2) in their order.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or T_grid.size == 0:
        raise DomainError("ergodicity: need a non-empty 1-d grid of T values")
    # written so that a NaN fails both
    if not np.all(T_grid >= 0.0):
        raise DomainError("ergodicity: smoothing times must be non-negative")
    if not np.all(np.diff(T_grid) > 0.0):
        raise DomainError("ergodicity: T grid must be strictly ascending")

    P = _transition_weights(data, obs)
    # the report's reader, so F_infinity equals the report's bit for bit
    diag_sum = float(np.sum(eigenbasis_diagonal(data, obs) ** 2))
    np.fill_diagonal(P, 0.0)
    delta = wrap_phase(data.phases[:, None] - data.phases[None, :])

    N = data.N
    values = np.empty_like(T_grid)
    w = np.empty_like(delta)
    for i, T in enumerate(T_grid):
        np.multiply(delta, T, out=w)
        np.square(w, out=w)
        np.multiply(-0.5, w, out=w)
        np.exp(w, out=w)
        np.fill_diagonal(w, 0.0)
        offdiag = float(np.sum(np.multiply(P, w, out=w)))
        values[i] = (diag_sum + offdiag) / N
    return FCurveReport(
        N=N,
        F_curve=tuple((float(T), float(F)) for T, F in zip(T_grid, values)),
        F_infinity=diag_sum / N,
    )


def quantum_correlator(op: FloquetOperator, obs: Observable,
                       t_range: int) -> np.ndarray:
    """Trace autocorrelation f(t) = tr(A U^t A U^-t) / N for t = 0 .. t_range.

    Evolves the observable's own basis, the identity at its site, by one
    period each lag, never diagonalizing, so it cross-checks the
    eigenbasis route instead of sharing its failure modes: at the position
    site by FloquetOperator.apply (U), at the momentum site by
    apply_momentum (F U F^-1), so no transform to the site is needed.  For
    A = diag(a) in its own basis, tr(A B A B*) = sum_jk a_j a_k |B_jk|^2
    with B = U^t in the site's basis, so f(t) = a^T |B|^2 a / N, real by
    construction.

    Column k of B is U^t e_k, evolved apart from every other column, so
    the identity evolves in blocks of _EVOLVE_BLOCK columns, each through
    every lag while it stays in cache, one task per block on the run's
    worker threads (qmap._threads.worker_map).  Each block writes column
    k's share a_k (a^T |B e_k|^2) of every lag into a shared array whose
    rows the calling thread sums whole, so f(t) is bit-identical at every
    worker count.
    """
    _check_t_range(t_range)
    _check_dimension(obs, op.N, "operator")
    N = op.N
    step = op.apply_momentum if obs.site == "momentum" else op.apply
    shares = np.empty((t_range + 1, N))

    def evolve(first):
        columns = slice(first, first + _EVOLVE_BLOCK)
        a = obs.diagonal[columns]
        block = np.zeros((N, a.size), dtype=complex, order="F")
        np.fill_diagonal(block[columns], 1.0)
        for t in range(t_range + 1):
            if t > 0:
                block = step(block)
            np.multiply(obs.diagonal_elements(block), a, out=shares[t, columns])

    firsts = range(0, N, _EVOLVE_BLOCK)
    with worker_map(len(firsts)) as run:
        list(run(evolve, firsts))
    return np.add.reduce(shares, axis=1) / N


def quantum_correlator_eigenbasis(data: SpectralData, obs: Observable,
                                  t_range: int) -> np.ndarray:
    """Same trace autocorrelation from eigenphases and P = |M_nm|^2.

    f(t) = (1/N) sum_nm P_nm cos((phi_n - phi_m) t) = (1/N) [c_t^T P c_t +
    s_t^T P s_t], c_t = cos(phi t), s_t = sin(phi t): one real product
    P [C S] serves every lag.
    """
    _check_t_range(t_range)
    P = _transition_weights(data, obs)
    angles = data.phases[:, None] * np.arange(t_range + 1)[None, :]
    waves = np.concatenate((np.cos(angles), np.sin(angles)), axis=1)
    terms = (P @ waves) * waves
    return (terms[:, :t_range + 1] + terms[:, t_range + 1:]).sum(axis=0) \
        / data.N


def quantum_classical_compare(f: np.ndarray,
                              classical: CorrelatorCurve) -> float:
    """Max |f(t) - C_cl(t)| over the lags t = 0 .. len(f) - 1 of a quantum
    correlator f, from either route, against a sampled curve."""
    t_range = len(f) - 1
    if t_range > classical.t_max:
        raise DomainError(
            f"ergodicity: t_range {t_range} exceeds classical curve t_max "
            f"{classical.t_max}")
    return float(np.max(np.abs(f - classical.C[:t_range + 1])))
