"""The complex Cayley route on a bare unitary matrix: the reference that
the real route of qmap.spectral.diagonalize is checked against.

For W = exp(i alpha) U, H = i (1 + W)^-1 (1 - W) is Hermitian with the
eigenvectors of U; one LU solve (zgetrf, zgetrs) forms it and zheevr
diagonalizes it.  It shares nothing with the real route but the
certificates' bounds, taken against the dense U.  Its passes form a chain
of at most two: the first at CAYLEY_SHIFT, accepted only with every
eigenvalue of H within CAYLEY_MAX_EIGENVALUE, and the second with the
pole in the middle of the widest gap of the first pass's phases (or on
the opposite side of the circle, when the first met the pole itself).
Where neither pass is certified, the reference falls back to the complex
Schur decomposition of U, which the library does not have.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg.lapack import zgetrf, zgetrs

from qmap import NumericalError
from qmap.quantize import _unitarity_defect
from qmap.spectral import (ORTHONORMALITY_TOL, RESIDUAL_TOL, _certify,
                           cyclic_gaps)

CAYLEY_SHIFT = 0.3
CAYLEY_MAX_EIGENVALUE = 3000.0


def _widest_gap_shift(phases):
    """Shift that puts the Cayley pole in the middle of the widest phase gap."""
    phases = np.sort(phases)
    gaps = cyclic_gaps(phases)
    k = int(np.argmax(gaps))
    # the pole of the shift alpha sits at phi = alpha - pi
    return float(phases[k] + 0.5 * gaps[k] + np.pi)


def cayley_basis(U, alpha):
    """Eigenbasis of U from H at the shift alpha.

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
    del lu, plus
    # the solve is Hermitian only to roundoff: average H with its adjoint
    H *= 0.5j
    H += H.conj().T
    if info != 0 or not np.isfinite(H).all():
        return None
    eigenvalues, vectors = eigh(H, overwrite_a=True, check_finite=False,
                                driver="evr")
    return vectors, float(np.max(np.abs(eigenvalues)))


def _certified(residuals, vectors) -> bool:
    # written so that a NaN fails
    return (residuals.max() < RESIDUAL_TOL
            and _unitarity_defect(vectors) < ORTHONORMALITY_TOL)


def decompose_unitary(U):
    """(phases, vectors, max_residual) of a unitary matrix, phases sorted
    ascending in [0, 2 pi), certified to diagonalize's bounds."""
    U = np.asarray(U, dtype=complex)
    dense = SimpleNamespace(apply=U.__matmul__)
    shift, largest_allowed = CAYLEY_SHIFT, CAYLEY_MAX_EIGENVALUE
    for _ in range(2):
        basis = cayley_basis(U, shift)
        if basis is None:
            shift, largest_allowed = shift + np.pi, np.inf
            continue
        vectors, largest = basis
        phases, residuals = _certify(dense, vectors)
        if largest <= largest_allowed and _certified(residuals, vectors):
            break
        shift, largest_allowed = _widest_gap_shift(phases), np.inf
    else:
        _, vectors = schur(U, output="complex")
        phases, residuals = _certify(dense, vectors)
        if not _certified(residuals, vectors):
            raise NumericalError("complex_route: no certified basis")
    order = np.argsort(phases, kind="stable")
    return phases[order], vectors[:, order], float(residuals.max())
