"""Eigenphase spectra of Floquet unitaries.

Eigenpairs follow the convention U v = exp(-i phi) v with phi in [0, 2 pi),
so a small positive potential shifts phases positively.

Diagonalization goes through the Cayley transform.  For W = exp(i alpha) U
the matrix H = i (1 + W)^-1 (1 - W) is Hermitian, has the eigenvectors of
U and the eigenvalues tan((alpha - phi) / 2).  One LU solve forms H and a
Hermitian eigensolver (LAPACK zheevr) diagonalizes it, so the basis is
orthonormal to roundoff even inside the near-degenerate clusters that
dense r sweeps sit on (max |V*V - 1| measured up to 1.4e-12 at N = 512;
only the eigenpair residual is certified).  Each phase is read from the
Rayleigh quotient v* U v rather than from the eigenvalue of H, which
loses accuracy near the pole phi = alpha - pi.

The LU solve, eigh and the certificate's product U V (quantize.matmul)
all run on scipy's OpenBLAS, one thread pool that QMAP_THREADS caps.

The shift depends on U alone, so reruns are byte-identical.  The first
pass uses the fixed CAYLEY_SHIFT.  When an eigenvalue of H exceeds
CAYLEY_MAX_EIGENVALUE in magnitude (a phase sits close to the pole) or
the eigenpair certificate fails, a second pass puts the pole in the
middle of the widest gap between the first pass's phases.  If that pass
fails the certificate too, the complex Schur decomposition (exactly
unitary for a normal matrix) is the fallback.  Every result carries its
largest eigenpair residual |U v - exp(-i phi) v|, certified below 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale
from .quantize import FloquetOperator, _unitarity_defect, matmul

RESIDUAL_TOL = 1e-10
CAYLEY_SHIFT = 0.3
CAYLEY_MAX_EIGENVALUE = 3000.0
_UNITARY_INPUT_TOL = 1e-8


def mean_spacing(N: int) -> float:
    """Mean eigenphase spacing 2 pi / N on the unit circle."""
    if N < 1:
        raise DomainError(f"spectral: dimension must be positive, got {N}")
    return 2.0 * np.pi / N


def wrap_phase(x: np.ndarray) -> np.ndarray:
    """Phase differences wrapped to [-pi, pi]."""
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Sorted eigenphases with matching orthonormal eigenvector columns.

    Only max_residual is certified; orthonormality is not checked at run
    time (the tests bound max |V*V - 1| by 1e-11 at N = 512; measured up
    to 1.4e-12).
    """

    N: int
    family: MapFamily
    scale: PlanckScale
    phases: np.ndarray
    vectors: np.ndarray
    max_residual: float

    def __post_init__(self):
        self.phases.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def mean_spacing(self) -> float:
        return mean_spacing(self.N)


def cyclic_gaps(phases: np.ndarray) -> np.ndarray:
    """Gap from each ascending phase to the next, the last across 2 pi."""
    return np.diff(phases, append=phases[0] + 2.0 * np.pi)


def _cayley_basis(U: np.ndarray, alpha: float):
    """Eigenbasis of U from H = i (1 + W)^-1 (1 - W), W = exp(i alpha) U.

    Returns (vectors, largest |eigenvalue| of H), or None when 1 + W is
    exactly singular or H is not finite.
    """
    N = U.shape[0]
    # column-major buffers let the LU factor, the solve and eigh each
    # overwrite their input instead of copying it
    plus = np.multiply(U, np.exp(1j * alpha), order="F")
    minus = np.negative(plus, order="F")
    diag = np.diag_indices(N)
    plus[diag] += 1.0
    minus[diag] += 1.0
    lu, piv, info = zgetrf(plus, overwrite_a=True)
    if info != 0:
        return None
    H, info = zgetrs(lu, piv, minus, overwrite_b=True)
    del lu, plus  # free the factor before eigh allocates its output
    # the solve is Hermitian only to roundoff; eigh would read one triangle,
    # spreading the error of the near-pole direction over every level, so
    # average H with its adjoint instead
    H *= 0.5j
    H += H.conj().T
    if info != 0 or not np.isfinite(H).all():
        return None
    eigenvalues, vectors = eigh(H, overwrite_a=True, check_finite=False,
                                driver="evr")
    return vectors, float(np.max(np.abs(eigenvalues)))


def _certify(U: np.ndarray, basis: np.ndarray):
    """Rayleigh-quotient phases of an orthonormal basis, with residuals.

    Returns (phases, vectors, residuals) sorted by phase, where residuals[n]
    is the 2-norm of U v - exp(-i phi) v for column n.
    """
    deviation = matmul(U, basis)
    phases = np.mod(-np.angle(np.einsum("ij,ij->j", basis.conj(), deviation)),
                    2.0 * np.pi)
    deviation -= basis * np.exp(-1j * phases)
    residuals = np.linalg.norm(deviation, axis=0)
    order = np.argsort(phases, kind="stable")
    return phases[order], basis[:, order], residuals[order]


def _widest_gap_shift(phases: np.ndarray) -> float:
    """Shift that puts the Cayley pole in the middle of the widest phase gap."""
    gaps = cyclic_gaps(phases)
    k = int(np.argmax(gaps))
    # the pole of the shift alpha sits at phi = alpha - pi
    return float(phases[k] + 0.5 * gaps[k] + np.pi)


def _eigenbasis(U: np.ndarray):
    """(phases, vectors, residuals): Cayley passes first, Schur as fallback."""
    first = _cayley_basis(U, CAYLEY_SHIFT)
    if first is not None:
        vectors, largest = first
        result = _certify(U, vectors)
        if largest <= CAYLEY_MAX_EIGENVALUE and result[2].max() < RESIDUAL_TOL:
            return result
        second = _cayley_basis(U, _widest_gap_shift(result[0]))
        if second is not None:
            result = _certify(U, second[0])
            if result[2].max() < RESIDUAL_TOL:
                return result
    _, Z = schur(U, output="complex")
    return _certify(U, Z)


def _decompose(U: np.ndarray):
    phases, vectors, residuals = _eigenbasis(U)
    worst = float(residuals.max())
    # written so that a NaN residual fails the certificate
    if not worst < RESIDUAL_TOL:
        bad = np.flatnonzero(~(residuals < RESIDUAL_TOL))
        raise NumericalError(
            f"spectral: eigenpair residual {worst:.3e} at or above "
            f"{RESIDUAL_TOL:.0e} (levels {bad[:8].tolist()} of {U.shape[0]})"
        )
    return phases, vectors, worst


def decompose_unitary(U: np.ndarray):
    """Eigenphases and eigenvectors of a unitary matrix.

    Returns (phases, vectors, max_residual) with phases sorted ascending in
    [0, 2 pi), vectors[:, n] the matching eigenvector, and max_residual the
    largest 2-norm of U v - exp(-i phi) v over the basis.  The input must
    be unitary to 1e-8.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DomainError(f"spectral: expected a square matrix, got shape {U.shape}")
    defect = _unitarity_defect(U)
    # written so that a NaN entry fails the check
    if not defect < _UNITARY_INPUT_TOL:
        raise DomainError(
            f"spectral: input is not unitary (max |U*U - 1| = {defect:.3e})")
    return _decompose(U)


def diagonalize(op: FloquetOperator) -> SpectralData:
    """Full spectral data of a Floquet operator, residuals certified to 1e-10.

    Unitarity is not checked again: build_floquet certified it to 1e-12.
    """
    phases, vectors, worst = _decompose(op.U)
    return SpectralData(
        N=op.N,
        family=op.family,
        scale=op.scale,
        phases=phases,
        vectors=vectors,
        max_residual=worst,
    )
