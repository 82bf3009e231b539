"""The complex Cayley route on a bare unitary matrix: the reference that
the real route of qmap.spectral.diagonalize is checked against.

For W = exp(i alpha) U, H = i (1 + W)^-1 (1 - W) is Hermitian with the
eigenvectors of U; one LU solve (zgetrf, zgetrs) forms it and zheevr
diagonalizes it.  It shares nothing with the real route but the chain of
passes, which it runs the same way (CAYLEY_SHIFT, then the widest gap or
the opposite side of the circle, then Schur), and the certificates, taken
against the dense U.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg.lapack import zgetrf, zgetrs

from qmap.quantize import _unitarity_defect
from qmap.spectral import (CAYLEY_MAX_EIGENVALUE, CAYLEY_SHIFT, _certified,
                           _certify, _widest_gap_shift,
                           _worst_certified_residual)


def cayley_basis(U, alpha):
    """Eigenbasis of U from H at the shift alpha.

    Returns (vectors, None, max |V*V - 1|, largest |eigenvalue| of H), in
    the layout of the real route's passes, or None when 1 + W is exactly
    singular or H is not finite.
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
    return (vectors, None, _unitarity_defect(vectors),
            float(np.max(np.abs(eigenvalues))))


def decompose_unitary(U):
    """(phases, vectors, max_residual) of a unitary matrix, phases sorted
    ascending in [0, 2 pi), certified as diagonalize certifies its own."""
    U = np.asarray(U, dtype=complex)
    dense = SimpleNamespace(apply=U.__matmul__)
    shift, largest_allowed = CAYLEY_SHIFT, CAYLEY_MAX_EIGENVALUE
    result = None
    for _ in range(2):
        basis = cayley_basis(U, shift)
        if basis is None:
            shift += np.pi
            continue
        *basis, largest = basis
        result = _certify(dense, *basis)
        if largest <= largest_allowed and _certified(result):
            break
        shift, largest_allowed = _widest_gap_shift(result[0]), np.inf
        result = None
    if result is None:
        _, Z = schur(U, output="complex")
        result = _certify(dense, Z, None, _unitarity_defect(Z))
    phases, vectors, _, residuals, defect = result
    return phases, vectors, _worst_certified_residual(residuals, defect)
