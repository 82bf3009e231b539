"""Torus quantization of the kicked maps: Floquet unitaries and observables.

The N-dimensional Hilbert space uses position grid q_j = j/N and momentum
grid p_k = k/N (grid offsets fixed to zero).  One period is kick first,
then free flight:

    U = F^-1 D_T F D_V,   D_V = diag exp(-2 pi i N V(q_j)),
                          D_T = diag exp(-2 pi i N T(p_k)),

with F the unitary discrete Fourier transform; -2 pi N x = -x/hbar.  A
FloquetOperator keeps U as these two diagonals, never as a dense matrix:
its apply method computes U V as a row scaling and one FFT pair down the
columns, and its dense method forms U only for the spectral module's
Schur fallback and for checks.  F is unitary, so U is unitary exactly
when both diagonals lie on the unit circle, which build_floquet certifies.

The half drift C^(1/2) = F^-1 D_T^(1/2) F takes D_T^(1/2) = diag exp(-i pi
N T(p'_k)) on the folded grid p'_k = min(k, N - k)/N.  For even N it squares
to D_T, and it is even in k, so C^(1/2) is a symmetric circulant and
U_s = C^(1/2) D_V C^(1/2) a complex symmetric matrix similar to U, the
time-reversal structure the spectral module diagonalizes through.  The
square root on the plain grid p_k is not even.  For the position-site
variants the similarity does not depend on r.

The quantization parameter enters only through the r h^2 cos term in V
(position-site variants) or T (slow_ergodic), hence changing r multiplies
U on the right by a diagonal phase for position-site variants.

Every dense product in the package is numpy's `@` (or `vdot`), on
numpy's OpenBLAS, the pool that also runs the spectral module's LAPACK
calls, so one BLAS thread pool does all the work and QMAP_THREADS caps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import (MapFamily, PlanckScale, kinetic, potential,
                    require_even_dimension)

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12


def kick_propagator(family: MapFamily, scale: PlanckScale) -> np.ndarray:
    """Diagonal entries exp(-2 pi i N V(q_j)) of the kick in the position basis."""
    V = potential(family, np.arange(scale.N) / scale.N, scale)
    return np.exp(-2j * np.pi * scale.N * V)


def free_propagator(family: MapFamily, scale: PlanckScale) -> np.ndarray:
    """Diagonal entries exp(-2 pi i N T(p_k)) of the free flight in the momentum basis.

    Evaluated as the square of the half drift on the folded grid, whose
    phase argument stays below pi N / 8 where the plain grid's reaches
    pi N: the phases carry about a quarter of the roundoff.  Even N only.
    """
    require_even_dimension(family, scale)
    return half_free_propagator(family, scale) ** 2


def half_free_propagator(family: MapFamily, scale: PlanckScale) -> np.ndarray:
    """Diagonal exp(-i pi N T(p'_k)) of the half drift, p'_k = min(k, N - k)/N.

    For even N its square is exp(-2 pi i N T(p_k)) on the plain grid:
    N (T(p) - T(1 - p)) = k - N/2 is an integer, and the r h^2 cos(2 pi p)
    term is even.
    """
    k = np.arange(scale.N)
    T = kinetic(family, np.minimum(k, scale.N - k) / scale.N, scale)
    return np.exp(-1j * np.pi * scale.N * T)


def _circulant_from_momentum_diagonal(diag: np.ndarray) -> np.ndarray:
    """Position-basis matrix of F^-1 diag F: entry (j, k) is ifft(diag)[j - k mod N].

    Row j reads c[j], c[j - 1], ..., c[j + 1] of c = ifft(diag): window
    N - 1 - j of the reversed c followed by its reversed tail, copied from
    a strided view of those 2N - 1 entries.
    """
    c = np.fft.ifft(diag)
    reversed_twice = np.concatenate((c[::-1], c[:0:-1]))
    windows = np.lib.stride_tricks.sliding_window_view(reversed_twice, c.size)
    return windows[::-1].copy()


def _unitarity_defect(U: np.ndarray) -> float:
    """max |U*U - 1| over all entries; NaN when U holds a NaN."""
    gram = U.conj().T @ U
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    return float(np.max(np.abs(gram)))


@dataclass(frozen=True, eq=False)
class FloquetOperator:
    """One-period unitary U = F^-1 D_T F D_V of a quantized kicked map.

    U is kept as its diagonal factors: kick_phases holds D_V (position
    basis) and drift_phases D_T (momentum basis).  construction_certificate
    is max ||d| - 1| over both.
    """

    N: int
    family: MapFamily
    scale: PlanckScale
    construction_certificate: float
    kick_phases: np.ndarray
    drift_phases: np.ndarray

    def __post_init__(self):
        for arr in (self.kick_phases, self.drift_phases):
            arr.setflags(write=False)

    def apply(self, V: np.ndarray) -> np.ndarray:
        """U V as a new array: D_V scales the rows of V, then F^-1 D_T F
        runs as one FFT pair down its columns."""
        out = V * self.kick_phases[:, None]
        np.fft.fft(out, axis=0, out=out)
        out *= self.drift_phases[:, None]
        return np.fft.ifft(out, axis=0, out=out)

    def dense(self) -> np.ndarray:
        """U as a dense position-basis matrix, formed anew on every call."""
        U = _circulant_from_momentum_diagonal(self.drift_phases)
        U *= self.kick_phases[None, :]
        return U


@dataclass(frozen=True, eq=False)
class ObservableMatrix:
    """Hermitian matrix of a classical observable, stored in the position basis."""

    N: int
    basis: str
    classical_label: str
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_floquet(family: MapFamily, scale: PlanckScale) -> FloquetOperator:
    """The factors D_V and D_T of U, certified on the unit circle to 1e-12."""
    require_even_dimension(family, scale)
    dv = kick_propagator(family, scale)
    dt = free_propagator(family, scale)
    certificate = float(np.max(np.abs(np.abs(np.concatenate((dv, dt))) - 1)))
    # written so that a NaN entry fails the certificate
    if not certificate < UNITARITY_TOL:
        raise NumericalError(
            f"quantize: factor modulus certificate {certificate:.3e} at or "
            f"above {UNITARITY_TOL:.0e} (variant={family.variant}, N={scale.N})")
    return FloquetOperator(N=scale.N, family=family, scale=scale,
                           construction_certificate=certificate,
                           kick_phases=dv, drift_phases=dt)


def quantize_observable(label: str, scale: PlanckScale) -> ObservableMatrix:
    """Matrix of cos(2 pi q), cos(2 pi p) or the identity on the N-point grid."""
    N = scale.N
    grid = np.arange(N) / N
    # Matrices are always expressed in the position basis; cos(2 pi p) is
    # Fourier-conjugated back, which leaves a real tridiagonal circulant.
    if label == "cos2pi_q":
        matrix = np.diag(np.cos(2.0 * np.pi * grid)).astype(complex)
    elif label == "cos2pi_p":
        matrix = _circulant_from_momentum_diagonal(
            np.cos(2.0 * np.pi * grid).astype(complex))
    elif label == "identity":
        matrix = np.eye(N, dtype=complex)
    else:
        raise DomainError(f"quantize: unknown observable label {label!r}")

    herm = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not herm < HERMITICITY_TOL:
        raise NumericalError(
            f"quantize: Hermiticity certificate {herm:.3e} at or above "
            f"{HERMITICITY_TOL:.0e} for {label}"
        )
    matrix = 0.5 * (matrix + matrix.conj().T)
    return ObservableMatrix(N=N, basis="position", classical_label=label,
                            matrix=matrix)
