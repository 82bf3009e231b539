"""Torus quantization of the kicked maps: Floquet unitaries and observables.

The N-dimensional Hilbert space uses position grid q_j = j/N and momentum
grid p_k = k/N (grid offsets fixed to zero).  One period is kick first,
then free flight:

    U = F^-1 D_T F D_V,   D_V = diag exp(-2 pi i N V(q_j)),
                          D_T = diag exp(-2 pi i N T(p_k)),

with F the unitary discrete Fourier transform; -2 pi N x = -x/hbar.  The
free part F^-1 D_T F is circulant, so U is assembled from one inverse FFT
of the free-flight phases instead of dense Fourier conjugation.

The quantization parameter enters only through the r h^2 cos term in V
(position-site variants) or T (slow_ergodic), hence changing r multiplies
U on the right by a diagonal phase for position-site variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale, evaluate, require_even_dimension

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12


def kick_propagator(family: MapFamily, scale: PlanckScale) -> np.ndarray:
    """Diagonal entries exp(-2 pi i N V(q_j)) of the kick in the position basis."""
    grid = np.arange(scale.N) / scale.N
    V = np.array([evaluate(family, "V", q, scale) for q in grid])
    return np.exp(-2j * np.pi * scale.N * V)


def free_propagator(family: MapFamily, scale: PlanckScale) -> np.ndarray:
    """Diagonal entries exp(-2 pi i N T(p_k)) of the free flight in the momentum basis."""
    grid = np.arange(scale.N) / scale.N
    T = np.array([evaluate(family, "T", p, scale) for p in grid])
    return np.exp(-2j * np.pi * scale.N * T)


def _circulant_from_momentum_diagonal(diag: np.ndarray) -> np.ndarray:
    """Position-basis matrix of F^-1 diag F: entry (j, k) is ifft(diag)[j - k mod N]."""
    N = diag.shape[0]
    c = np.fft.ifft(diag)
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return c[idx]


@dataclass(frozen=True, eq=False)
class FloquetOperator:
    """One-period unitary of a quantized kicked map, position basis."""

    N: int
    family: MapFamily
    scale: PlanckScale
    U: np.ndarray
    construction_certificate: float

    def __post_init__(self):
        self.U.setflags(write=False)


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
    """Assemble U = F^-1 D_T F D_V and certify unitarity to 1e-12."""
    require_even_dimension(family, scale)
    dv = kick_propagator(family, scale)
    dt = free_propagator(family, scale)
    U = _circulant_from_momentum_diagonal(dt) * dv[None, :]

    gram = U.conj().T @ U
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    certificate = float(np.max(np.abs(gram)))
    # written so that a NaN entry fails the certificate
    if not certificate < UNITARITY_TOL:
        raise NumericalError(
            f"quantize: unitarity certificate {certificate:.3e} at or above "
            f"{UNITARITY_TOL:.0e} (variant={family.variant}, N={scale.N})"
        )
    return FloquetOperator(N=scale.N, family=family, scale=scale, U=U,
                           construction_certificate=certificate)


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
