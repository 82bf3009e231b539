"""Eigenphase spectra of Floquet unitaries.

Eigenpairs follow the convention U v = exp(-i phi) v with phi in [0, 2 pi),
so a small positive potential shifts phases positively.

Diagonalization goes through the Cayley transform.  For W = exp(i alpha) U
the matrix H = i (1 + W)^-1 (1 - W) has the eigenvectors of U and the
eigenvalues tan((alpha - phi) / 2); it is Hermitian, and a Hermitian
eigensolver gives a basis orthonormal to roundoff even inside the
near-degenerate clusters that dense r sweeps sit on.  Each phase is read
from the Rayleigh quotient v* U v rather than from the eigenvalue of H,
which loses accuracy near the pole phi = alpha - pi.

Floquet operators (diagonalize) take a real route through time-reversal
symmetry.  U = C D_V, with C the circulant free flight, is similar to the
complex symmetric U_s = C^(1/2) D_V C^(1/2) (quantize.half_free_propagator
gives C^(1/2)): U C^(1/2) = C^(1/2) U_s.  W = exp(i alpha) U_s = A + i B is
unitary and symmetric, so A and B are real symmetric, commute and satisfy
A^2 + B^2 = 1, and H is the real symmetric X = (1 + A)^-1 B.  1 + A is
positive semidefinite and singular only at the pole, so one real Cholesky
factorization and solve (dpotrf, dpotrs) form X, a failed factor signals
the pole, and LAPACK's divide-and-conquer dsyevd (eigh driver "evd",
faster than "evr" on this real input and orthonormal to about 2e-15)
gives real eigenvectors R.  C^(1/2) R are the eigenvectors of U.  Both
U_s (from the dense D_V C^(1/2)) and C^(1/2) R take one FFT pair down the
columns, cheaper in time and memory than a dense product.  The eigenpair residuals are taken against op.U
itself, never against U_s alone, so an error in the half drift or in the
lift cannot pass.  Near the pole the real X squares the conditioning of
the complex H: a phase within about 1e-8 of it leaves X finite and small,
and only the residual certificate catches that pass.  A bare matrix
(decompose_unitary) takes the complex route: one LU solve (zgetrf,
zgetrs) forms H and zheevr diagonalizes it; it is the reference the tests
compare the real route with.

The factorizations, eigh and the certificates' products (quantize.matmul)
all run on scipy's OpenBLAS, one thread pool that QMAP_THREADS caps; the
FFTs are numpy's, on the calling thread.

Both routes share one chain of passes.  The shifts depend on U alone, so
reruns are byte-identical.  The first pass uses the fixed CAYLEY_SHIFT.
When an eigenvalue of H exceeds CAYLEY_MAX_EIGENVALUE in magnitude (a
phase sits close to the pole) or a certificate fails, a second pass puts
the pole in the middle of the widest gap between the first pass's phases;
when the first pass met the pole itself (a failed factor, no phases), the
second puts it on the opposite side of the circle.  If the second pass
fails too, the complex Schur decomposition (exactly unitary for a normal
matrix) is the fallback.  A pass is accepted only if its largest
eigenpair residual |U v - exp(-i phi) v| is below 1e-10 and its basis is
orthonormal, max |V*V - 1| below 1e-11 (one real Gram product R^T R on
the real route, before the lift; C^(1/2) is unitary).  When no pass
holds both, NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg.lapack import dpotrf, dpotrs, zgetrf, zgetrs

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale
from .quantize import (FloquetOperator, _circulant_from_momentum_diagonal,
                       _unitarity_defect, half_free_propagator, matmul)

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11
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

    Both are certified: max_residual, the largest eigenpair residual, is
    below 1e-10, and max |V*V - 1| below 1e-11 (the real route of
    diagonalize reaches about 2e-15 at N = 512).
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

    Returns (vectors, largest |eigenvalue| of H, max |V*V - 1|), or None
    when 1 + W is exactly singular or H is not finite.
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
    return (vectors, float(np.max(np.abs(eigenvalues))),
            _unitarity_defect(vectors))


def _half_drift_columns(half: np.ndarray, M: np.ndarray) -> np.ndarray:
    """C^(1/2) M for complex M, by one FFT pair down the columns, in place."""
    np.fft.fft(M, axis=0, out=M)
    M *= half[:, None]
    return np.fft.ifft(M, axis=0, out=M)


def _symmetric_form(op: FloquetOperator, half: np.ndarray) -> np.ndarray:
    """U_s = C^(1/2) D_V C^(1/2) = C^(-1/2) U C^(1/2), complex symmetric.

    half is half_free_propagator's diagonal of C^(1/2).
    """
    U_s = _circulant_from_momentum_diagonal(half)
    U_s *= op.kick_phases[:, None]
    return _half_drift_columns(half, U_s)


def _symmetric_cayley_basis(op: FloquetOperator, alpha: float):
    """Eigenbasis of op.U from the real Cayley matrix of its symmetric form.

    With W = exp(i alpha) U_s = A + i B, X = (1 + A)^-1 B is real symmetric
    with real orthonormal eigenvectors R; C^(1/2) R are eigenvectors of U.
    Returns (C^(1/2) R, largest |eigenvalue| of X, max |R^T R - 1|), or None
    when 1 + A is not positive definite (a phase on the pole) or X is not
    finite.
    """
    half = half_free_propagator(op.family, op.scale)
    W = _symmetric_form(op, half)
    W *= np.exp(1j * alpha)
    A = np.array(W.real, order="F")
    B = np.array(W.imag, order="F")
    del W  # free U_s before the factorization
    A[np.diag_indices(op.N)] += 1.0
    factor, info = dpotrf(A, overwrite_a=True)
    if info != 0:
        return None
    X, info = dpotrs(factor, B, overwrite_b=True)
    del factor, A
    # as in _cayley_basis: average the solve with its transpose
    X *= 0.5
    X += X.T
    if info != 0 or not np.isfinite(X).all():
        return None
    eigenvalues, R = eigh(X, overwrite_a=True, check_finite=False,
                          driver="evd")
    defect = _unitarity_defect(R)
    vectors = _half_drift_columns(half, R.astype(complex))
    return vectors, float(np.max(np.abs(eigenvalues))), defect


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


def _certified(result, defect: float) -> bool:
    # written so that a NaN fails
    return defect < ORTHONORMALITY_TOL and result[2].max() < RESIDUAL_TOL


def _eigenbasis(U: np.ndarray, cayley_basis):
    """(phases, vectors, residuals, orthonormality defect) of U.

    cayley_basis(alpha) is a Cayley pass at shift alpha.  The first pass
    uses CAYLEY_SHIFT; the second puts the pole in the widest gap of the
    first pass's phases, or, when the first pass met the pole itself, on
    the opposite side of the circle; Schur is the fallback.
    """
    first = cayley_basis(CAYLEY_SHIFT)
    if first is None:
        shift = CAYLEY_SHIFT + np.pi
    else:
        vectors, largest, defect = first
        result = _certify(U, vectors)
        if largest <= CAYLEY_MAX_EIGENVALUE and _certified(result, defect):
            return (*result, defect)
        shift = _widest_gap_shift(result[0])
        del first, vectors, result  # free the first basis
    second = cayley_basis(shift)
    if second is not None:
        result = _certify(U, second[0])
        if _certified(result, second[2]):
            return (*result, second[2])
        del second, result
    _, Z = schur(U, output="complex")
    return (*_certify(U, Z), _unitarity_defect(Z))


def _decompose(U: np.ndarray, cayley_basis):
    phases, vectors, residuals, defect = _eigenbasis(U, cayley_basis)
    worst = float(residuals.max())
    # written so that a NaN residual fails the certificate
    if not worst < RESIDUAL_TOL:
        bad = np.flatnonzero(~(residuals < RESIDUAL_TOL))
        raise NumericalError(
            f"spectral: eigenpair residual {worst:.3e} at or above "
            f"{RESIDUAL_TOL:.0e} (levels {bad[:8].tolist()} of {U.shape[0]})"
        )
    if not defect < ORTHONORMALITY_TOL:
        raise NumericalError(
            f"spectral: orthonormality defect max |V*V - 1| = {defect:.3e} "
            f"at or above {ORTHONORMALITY_TOL:.0e}")
    return phases, vectors, worst


def decompose_unitary(U: np.ndarray):
    """Eigenphases and eigenvectors of a unitary matrix.

    Returns (phases, vectors, max_residual) with phases sorted ascending in
    [0, 2 pi), vectors[:, n] the matching eigenvector, and max_residual the
    largest 2-norm of U v - exp(-i phi) v over the basis, certified below
    1e-10 with orthonormality to 1e-11.  The input must be unitary to 1e-8.
    This is the complex route, the reference for diagonalize's real one.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DomainError(f"spectral: expected a square matrix, got shape {U.shape}")
    defect = _unitarity_defect(U)
    # written so that a NaN entry fails the check
    if not defect < _UNITARY_INPUT_TOL:
        raise DomainError(
            f"spectral: input is not unitary (max |U*U - 1| = {defect:.3e})")
    return _decompose(U, partial(_cayley_basis, U))


def diagonalize(op: FloquetOperator) -> SpectralData:
    """Full spectral data of a Floquet operator by the real route.

    Residuals are certified to 1e-10 against op.U, orthonormality to 1e-11.
    Unitarity is not checked again: build_floquet certified it to 1e-12.
    """
    phases, vectors, worst = _decompose(
        op.U, partial(_symmetric_cayley_basis, op))
    return SpectralData(
        N=op.N,
        family=op.family,
        scale=op.scale,
        phases=phases,
        vectors=vectors,
        max_residual=worst,
    )
