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

F(T) is assembled as (diag_sum + offdiag_sum(T)) / N with one shared
diag_sum and same-shaped weight arrays for every T, so the inequalities
F(inf) <= F(T2) <= F(T1) for T1 <= T2 hold exactly in floating point, not
just to a tolerance: the summands are dominated elementwise and the
summation tree is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import CorrelatorCurve, microcanonical_average
from .errors import DomainError, NumericalError
from .quantize import FloquetOperator, ObservableMatrix
from .spectral import SpectralData, wrap_phase

DIAGONAL_IMAG_TOL = 1e-8
QUANTUM_REAL_TOL = 1e-9
_IDENTITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ErgodicityReport:
    """Diagonal elements <n|A|n> of one observable against its average a0.

    variance is the mean square deviation of the diagonals from a0, and
    F_infinity their mean square, the T -> inf plateau of F(T).
    """

    N: int
    observable: str
    a0: float
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


def _check_dimension(obs: ObservableMatrix, N: int, against: str) -> None:
    if obs.N != N:
        raise DomainError(
            f"ergodicity: observable dimension {obs.N} != {against} dimension {N}")


def _check_t_range(t_range: int) -> None:
    if t_range < 0:
        raise DomainError(f"ergodicity: t_range must be >= 0, got {t_range}")


def _eigenbasis_matrix(data: SpectralData, obs: ObservableMatrix) -> np.ndarray:
    _check_dimension(obs, data.N, "spectrum")
    return data.vectors.conj().T @ (obs.matrix @ data.vectors)


def diagonal_elements_report(data: SpectralData,
                             obs: ObservableMatrix) -> ErgodicityReport:
    """Diagonal elements <n|A|n>, their mean and mean-square deviation from a0.

    a0 is the microcanonical average of the observable's classical symbol.
    Diagonals of a Hermitian matrix are real; the imaginary parts are
    checked against 1e-8 and then discarded.
    """
    M = _eigenbasis_matrix(data, obs)
    diag = np.diagonal(M)
    worst_imag = float(np.max(np.abs(diag.imag)))
    if worst_imag >= DIAGONAL_IMAG_TOL:
        raise NumericalError(
            f"ergodicity: diagonal element imaginary part {worst_imag:.3e} "
            f"breaks Hermiticity (threshold {DIAGONAL_IMAG_TOL:.0e})")
    d = diag.real.copy()
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
        a0=float(a0),
        diagonals=d,
        mean=mean,
        variance=variance,
        F_infinity=F_inf,
    )


def quantum_F_curve(data: SpectralData, obs: ObservableMatrix,
                    T_grid) -> FCurveReport:
    """Evaluate F(T) on an ascending grid; F_infinity is the diagonal term."""
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or T_grid.size == 0:
        raise DomainError("ergodicity: need a non-empty 1-d grid of T values")
    if np.any(T_grid < 0.0):
        raise DomainError("ergodicity: smoothing times must be non-negative")
    if np.any(np.diff(T_grid) <= 0.0):
        raise DomainError("ergodicity: T grid must be strictly ascending")

    M = _eigenbasis_matrix(data, obs)
    P = np.abs(M) ** 2
    diag_sum = float(np.sum(np.diagonal(P)))
    np.fill_diagonal(P, 0.0)
    delta = wrap_phase(data.phases[:, None] - data.phases[None, :])

    N = data.N
    values = np.empty_like(T_grid)
    for i, T in enumerate(T_grid):
        w = np.exp(-0.5 * np.square(delta * T))
        np.fill_diagonal(w, 0.0)
        offdiag = float(np.sum(P * w))
        values[i] = (diag_sum + offdiag) / N
    return FCurveReport(
        N=N,
        F_curve=tuple((float(T), float(F)) for T, F in zip(T_grid, values)),
        F_infinity=diag_sum / N,
    )


def quantum_correlator(op: FloquetOperator, obs: ObservableMatrix,
                       t_range: int) -> np.ndarray:
    """Trace autocorrelation f(t) = tr(A U^t A U^-t) / N for t = 0 .. t_range.

    Works by conjugating A one period at a time, never diagonalizing, so it
    cross-checks the eigenbasis route instead of sharing its failure modes.
    Each period applies the stored factors of U = F^-1 D_T F D_V: the kick
    phases on both sides of B, then the circulant F^-1 D_T F by FFTs along
    axis 0 and its adjoint along axis 1, O(N^2 log N) instead of two dense
    products.  f(t) must come out real to 1e-9; a larger imaginary part
    means U lost unitarity or A lost Hermiticity.
    """
    _check_t_range(t_range)
    _check_dimension(obs, op.N, "operator")
    A = obs.matrix
    # tr(A B) = sum_ij conj((A*)_ji) B_ji, one dot product over the entries
    A_adjoint = np.ascontiguousarray(A.conj().T)
    kick = op.kick_phases[:, None] * op.kick_phases.conj()[None, :]
    drift = op.drift_phases[:, None]
    drift_adjoint = op.drift_phases.conj()[None, :]
    B = A.copy()
    values = np.empty(t_range + 1)
    for t in range(t_range + 1):
        if t > 0:
            # B <- C D_V B D_V* C*, every array update in place
            B *= kick
            np.fft.fft(B, axis=0, out=B)
            B *= drift
            np.fft.ifft(B, axis=0, out=B)
            np.fft.ifft(B, axis=1, out=B)
            B *= drift_adjoint
            np.fft.fft(B, axis=1, out=B)
        f_t = np.vdot(A_adjoint, B) / op.N
        if abs(f_t.imag) >= QUANTUM_REAL_TOL:
            raise NumericalError(
                f"ergodicity: f({t}) has imaginary part {f_t.imag:.3e}; "
                "Hermiticity/unitarity failure")
        values[t] = f_t.real
    return values


def quantum_correlator_eigenbasis(data: SpectralData, obs: ObservableMatrix,
                                  t_range: int) -> np.ndarray:
    """Same trace autocorrelation from eigenphases and P = |M_nm|^2.

    f(t) = (1/N) sum_nm P_nm cos((phi_n - phi_m) t) = (1/N) [c_t^T P c_t +
    s_t^T P s_t], c_t = cos(phi t), s_t = sin(phi t): one real product
    P [C S] serves every lag.
    """
    _check_t_range(t_range)
    P = np.abs(_eigenbasis_matrix(data, obs)) ** 2
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
