"""Eigenphase spectra of Floquet unitaries.

Eigenpairs follow the convention U v = exp(-i phi) v with phi in [0, 2 pi),
so a small positive potential shifts phases positively.

Diagonalization goes through the Cayley transform and the time-reversal
symmetry of U = C D_V, with C the circulant free flight.  U is similar to
the complex symmetric U_s = C^(1/2) D_V C^(1/2) (quantize.half_free_propagator
gives C^(1/2)): U C^(1/2) = C^(1/2) U_s.  For W = exp(i alpha) U_s = A + i B,
H = i (1 + W)^-1 (1 - W) has the eigenvectors of U_s and the eigenvalues
tan((alpha - phi) / 2).  W is unitary and symmetric, so A and B are real
symmetric, commute and satisfy A^2 + B^2 = 1, and H is the real symmetric
X = (1 + A)^-1 B.  1 + A is positive semidefinite and singular only at the
pole phi = alpha - pi, so one real LU solve (numpy.linalg.solve, dgesv)
forms X, an exactly singular 1 + A signals the pole, and LAPACK's
divide-and-conquer dsyevd (numpy.linalg.eigh, orthonormal to about 2e-15)
gives real eigenvectors R, orthonormal to roundoff even inside the
near-degenerate clusters that dense r sweeps sit on.  C^(1/2) R are the
eigenvectors of U.  Each phase is read from the Rayleigh quotient v* U v
rather than from the eigenvalue of X, which loses accuracy near the pole.

U is never formed as a dense matrix outside the Schur fallback.  U_s (from
the circulant C^(1/2) scaled by D_V) and the lift C^(1/2) R each take one
FFT pair down the columns, and the eigenpair residuals apply U through
the operator's own factors, U V = F^-1 D_T F (D_V V) (FloquetOperator.apply),
never through U_s, so an error in the half drift or in the lift cannot
pass.  diagonalize first checks, in O(N), that those factors lie on the
unit circle and that D_T is the square of the half drift, the two facts
the real route rests on.  Near the pole the real X squares the
conditioning of the complex H: a phase within about 1e-8 of it leaves X
finite and small, and only the residual certificate catches that pass.

The solve, eigh and the certificates' products (`@`) all run on numpy's
OpenBLAS, one thread pool that QMAP_THREADS caps; the FFTs are numpy's, on
the calling thread.  scipy's LAPACK runs only in the Schur fallback, which
imports scipy.linalg when it is first taken.

The passes form one chain.  The shifts depend on U alone, so reruns are
byte-identical.  The first pass uses the fixed CAYLEY_SHIFT.  When an
eigenvalue of X exceeds CAYLEY_MAX_EIGENVALUE in magnitude (a phase sits
close to the pole) or a certificate fails, a second pass puts the pole in
the middle of the widest gap between the first pass's phases; when the
first pass met the pole itself (a singular 1 + A, no phases), the second
puts it on the opposite side of the circle.  If the second pass fails too,
the complex Schur decomposition of the dense U (exactly unitary for a
normal matrix) is the fallback.  A pass is accepted only if its largest
eigenpair residual |U v - exp(-i phi) v| is below 1e-10 and its basis is
orthonormal, max |V*V - 1| below 1e-11 (one real Gram product R^T R on
the real route, before the lift; C^(1/2) is unitary).  When no pass holds
both, NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh, solve

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale
from .quantize import (UNITARITY_TOL, FloquetOperator,
                       _circulant_from_momentum_diagonal, _unitarity_defect,
                       half_free_propagator)

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11
CAYLEY_SHIFT = 0.3
CAYLEY_MAX_EIGENVALUE = 3000.0
# columns per block of the certificate loop, which forms no N x N temporary
_CERTIFY_BLOCK = 64


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
    diagonalize reaches about 2e-15 at N = 512).  real_vectors holds the
    real basis R with vectors = C^(1/2) R, columns in the same order, when
    the real route gave the basis, and None after the Schur fallback.
    """

    N: int
    family: MapFamily
    scale: PlanckScale
    phases: np.ndarray
    vectors: np.ndarray
    max_residual: float
    real_vectors: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.phases, self.vectors, self.real_vectors):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def mean_spacing(self) -> float:
        return mean_spacing(self.N)


def cyclic_gaps(phases: np.ndarray) -> np.ndarray:
    """Gap from each ascending phase to the next, the last across 2 pi."""
    return np.diff(phases, append=phases[0] + 2.0 * np.pi)


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
    """Eigenbasis of U from the real Cayley matrix of its symmetric form.

    With W = exp(i alpha) U_s = A + i B, X = (1 + A)^-1 B is real symmetric
    with real orthonormal eigenvectors R; C^(1/2) R are eigenvectors of U.
    Returns (C^(1/2) R, R, max |R^T R - 1|, largest |eigenvalue| of X), or
    None when 1 + A is exactly singular (a phase on the pole) or X is not
    finite; a nearly singular 1 + A is left to CAYLEY_MAX_EIGENVALUE and
    the certificates.
    """
    half = half_free_propagator(op.family, op.scale)
    W = _symmetric_form(op, half)
    W *= np.exp(1j * alpha)
    W.real[np.diag_indices(op.N)] += 1.0  # the real part is now 1 + A
    try:
        X = solve(W.real, W.imag)
    except LinAlgError:
        return None
    del W
    # the solve is symmetric only to roundoff; eigh would read one
    # triangle, spreading the error of the near-pole direction over every
    # level, so average X with its transpose instead
    X *= 0.5
    X += X.T
    if not np.isfinite(X).all():
        return None
    eigenvalues, R = eigh(X)
    del X
    defect = _unitarity_defect(R)
    # eigh returns R row-major; the lift's FFTs run down contiguous columns
    vectors = _half_drift_columns(half, R.astype(complex, order="F"))
    return vectors, R, defect, float(np.max(np.abs(eigenvalues)))


def _certify(op, vectors: np.ndarray, real, defect: float):
    """A pass's orthonormal basis sorted by phase, with its certificates.

    The phases are the Rayleigh quotients v* U v, and residuals[n] is the
    2-norm of U v - exp(-i phi) v for column n, with U applied by
    op.apply one block of columns at a time.  vectors, and the real basis
    real unless None, are permuted in place.  Returns (phases, vectors,
    real, residuals, defect).
    """
    phases = np.empty(vectors.shape[1])
    residuals = np.empty(vectors.shape[1])
    for start in range(0, phases.size, _CERTIFY_BLOCK):
        block = slice(start, start + _CERTIFY_BLOCK)
        v = vectors[:, block]
        deviation = op.apply(v)
        quotients = np.einsum("ij,ij->j", v.conj(), deviation)
        phases[block] = np.mod(-np.angle(quotients), 2.0 * np.pi)
        deviation -= v * np.exp(-1j * phases[block])
        residuals[block] = np.linalg.norm(deviation, axis=0)
    order = np.argsort(phases, kind="stable")
    vectors[:] = vectors[:, order]
    if real is not None:
        real[:] = real[:, order]
    return phases[order], vectors, real, residuals[order], defect


def _widest_gap_shift(phases: np.ndarray) -> float:
    """Shift that puts the Cayley pole in the middle of the widest phase gap."""
    gaps = cyclic_gaps(phases)
    k = int(np.argmax(gaps))
    # the pole of the shift alpha sits at phi = alpha - pi
    return float(phases[k] + 0.5 * gaps[k] + np.pi)


def _certified(result) -> bool:
    # written so that a NaN fails
    return result[4] < ORTHONORMALITY_TOL and result[3].max() < RESIDUAL_TOL


def _schur(U: np.ndarray):
    """Complex Schur form (T, Z) of a dense U, the fallback's basis Z.

    The package's one import of scipy.linalg, and so of scipy's own
    OpenBLAS, which only this fallback (and sweep's rare assignment
    fallback, through scipy.optimize) loads.
    """
    from scipy.linalg import schur
    return schur(U, output="complex")


def _eigenbasis(op: FloquetOperator):
    """(phases, vectors, R or None, residuals, orthonormality defect) of U.

    The first pass uses CAYLEY_SHIFT; the second puts the pole in the
    widest gap of the first pass's phases, or, when the first pass met
    the pole itself, on the opposite side of the circle; the Schur
    decomposition of the dense U is the fallback, and leaves no R.
    """
    shift, largest_allowed = CAYLEY_SHIFT, CAYLEY_MAX_EIGENVALUE
    for _ in range(2):
        basis = _symmetric_cayley_basis(op, shift)
        if basis is None:
            shift += np.pi
            continue
        *basis, largest = basis
        result = _certify(op, *basis)
        if largest <= largest_allowed and _certified(result):
            return result
        shift, largest_allowed = _widest_gap_shift(result[0]), np.inf
        del basis, result  # free this pass's basis before the next
    _, Z = _schur(op.dense())
    return _certify(op, Z, None, _unitarity_defect(Z))


def _worst_certified_residual(residuals: np.ndarray, defect: float) -> float:
    """The largest residual, or NumericalError when a certificate fails."""
    worst = float(residuals.max())
    # written so that a NaN residual fails the certificate
    if not worst < RESIDUAL_TOL:
        bad = np.flatnonzero(~(residuals < RESIDUAL_TOL))
        raise NumericalError(
            f"spectral: eigenpair residual {worst:.3e} at or above "
            f"{RESIDUAL_TOL:.0e} (levels {bad[:8].tolist()} of "
            f"{residuals.size})")
    if not defect < ORTHONORMALITY_TOL:
        raise NumericalError(
            f"spectral: orthonormality defect max |V*V - 1| = {defect:.3e} "
            f"at or above {ORTHONORMALITY_TOL:.0e}")
    return worst


def diagonalize(op: FloquetOperator) -> SpectralData:
    """Full spectral data of a Floquet operator by the real route.

    The factors are checked first, in O(N): D_V on the unit circle and D_T
    the square of the half drift, each to 1e-12.  Residuals are certified
    to 1e-10 against U applied by those factors, orthonormality to 1e-11.
    """
    half = half_free_propagator(op.family, op.scale)
    # written so that a NaN entry fails the check
    factors = float(np.max(np.abs(np.concatenate(
        (np.abs(op.kick_phases) - 1.0, half * half - op.drift_phases)))))
    if not factors < UNITARITY_TOL:
        raise NumericalError(
            f"spectral: factors of U off the unit circle or the half drift's "
            f"square by {factors:.3e} ({op.family.variant}, N={op.N})")
    phases, vectors, real, residuals, defect = _eigenbasis(op)
    return SpectralData(
        N=op.N,
        family=op.family,
        scale=op.scale,
        phases=phases,
        vectors=vectors,
        max_residual=_worst_certified_residual(residuals, defect),
        real_vectors=real,
    )
