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

U is never formed as a dense matrix.  U_s (from the circulant C^(1/2)
scaled by D_V) and the lift C^(1/2) R each take one FFT pair down the
columns.  A spectrum keeps R alone: the certificates lift it one block of
_COLUMN_BLOCK columns at a time, and SpectralData.eigenvectors lifts the
columns a consumer asks for; a block's lift equals the same columns of the
whole lift bit for bit, since each column takes its own FFTs.  The
eigenpair residuals apply U through the operator's own factors,
U V = F^-1 D_T F (D_V V) (FloquetOperator.apply), never through U_s, so
an error in the half drift or in the lift cannot pass.
diagonalize first checks, in O(N), that those factors lie on the unit
circle and that D_T is the square of the half drift, the two facts the
real route rests on.  Near the pole the real X squares the conditioning
of the complex H: a phase within about 1e-8 of it leaves X finite and
small, and only the residual certificate catches that pass.

The solve, eigh and the certificates' products (`@`) all run on numpy's
OpenBLAS, one thread pool that qmap.cli sizes; the FFTs are numpy's, on
the calling thread.

The passes form one chain of at most two.  The shifts depend on U alone,
so reruns are byte-identical.  The first pass uses the fixed
CAYLEY_SHIFT.  When an eigenvalue of X exceeds CAYLEY_MAX_EIGENVALUE in
magnitude (a phase sits close to the pole) or a certificate fails, a
second pass puts the pole in the middle of the widest gap between the
first pass's phases; when the first pass met the pole itself (a singular
1 + A, no phases), the second puts it on the opposite side of the
circle.  Every gap of N phases on the circle is at least 2 pi / N wide,
so the widest-gap pole sits at least pi / N from every phase and bounds
the second pass's eigenvalues by cot(pi / 2N), about 2N / pi, far below
the cap; the second pass accepts any certified basis.  A pass is
certified only if its largest eigenpair residual |U v - exp(-i phi) v|
is below 1e-10 and its basis is orthonormal, max |V*V - 1| below 1e-11
(one real Gram product R^T R, before the lift; C^(1/2) is unitary).
When neither pass is certified, NumericalError names each pass's shift
and certificates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh, solve

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale
from .quantize import (UNITARITY_TOL, FloquetOperator, Observable,
                       _circulant_from_momentum_diagonal, _unitarity_defect,
                       half_free_propagator)

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11
CAYLEY_SHIFT = 0.3
CAYLEY_MAX_EIGENVALUE = 3000.0
# columns per block of the loops that lift the real basis (the
# certificates, eigenbasis_diagonal), which form no N x N complex array
_COLUMN_BLOCK = 64


def mean_spacing(N: int) -> float:
    """Mean eigenphase spacing 2 pi / N on the unit circle."""
    if N < 1:
        raise DomainError(f"spectral: dimension must be positive, got {N}")
    return 2.0 * np.pi / N


def wrap_phase(x: np.ndarray) -> np.ndarray:
    """Phase differences wrapped to [-pi, pi], as one new array."""
    wrapped = np.add(x, np.pi)
    np.mod(wrapped, 2.0 * np.pi, out=wrapped)
    wrapped -= np.pi
    return wrapped


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Sorted eigenphases and the real basis of their eigenvectors.

    real_vectors holds the real orthonormal basis R, 8 N^2 bytes; the
    eigenvectors of U are the columns of V = C^(1/2) R in the same order,
    which eigenvectors() forms on demand.  Both are certified:
    max_residual, the largest eigenpair residual, is below 1e-10, and
    max |V*V - 1| below 1e-11 (the real route of diagonalize reaches about
    2e-15 at N = 512).
    """

    N: int
    family: MapFamily
    scale: PlanckScale
    phases: np.ndarray
    max_residual: float
    real_vectors: np.ndarray

    def __post_init__(self):
        for arr in (self.phases, self.real_vectors):
            arr.setflags(write=False)

    @property
    def mean_spacing(self) -> float:
        return mean_spacing(self.N)

    def eigenvectors(self, columns: slice = slice(None)) -> np.ndarray:
        """The eigenvectors C^(1/2) R in the given columns, as a new
        complex column-major array: the one lift of the real basis."""
        half = half_free_propagator(self.family, self.scale)
        return _lift(half, self.real_vectors[:, columns])


def column_blocks(N: int) -> list:
    """Slices of _COLUMN_BLOCK consecutive columns that cover N columns."""
    return [slice(start, start + _COLUMN_BLOCK)
            for start in range(0, N, _COLUMN_BLOCK)]


def eigenbasis_diagonal(data: SpectralData, obs: Observable) -> np.ndarray:
    """<n|A|n> of every eigenvector, lifted and read one column block at a
    time by Observable.diagonal_elements; no N x N complex array is held.
    Each element is one column's own dot product, so the blocks give the
    bits of one call on the whole basis (checked for N up to 512)."""
    d = np.empty(data.N)
    for block in column_blocks(data.N):
        W = obs.at_site(data.eigenvectors(block))
        d[block] = obs.diagonal_elements(W)
    return d


def cyclic_gaps(phases: np.ndarray) -> np.ndarray:
    """Gap from each ascending phase to the next, the last across 2 pi."""
    return np.diff(phases, append=phases[0] + 2.0 * np.pi)


def _half_drift_columns(half: np.ndarray, M: np.ndarray) -> np.ndarray:
    """C^(1/2) M for complex M, by one FFT pair down the columns, in place."""
    np.fft.fft(M, axis=0, out=M)
    M *= half[:, None]
    return np.fft.ifft(M, axis=0, out=M)


def _lift(half: np.ndarray, R: np.ndarray) -> np.ndarray:
    """C^(1/2) R for real columns R, as a new complex array; the FFTs run
    down contiguous columns (column-major), whatever the layout of R."""
    return _half_drift_columns(half, R.astype(complex, order="F"))


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
    Returns (R, half, max |R^T R - 1|, largest |eigenvalue| of X), half
    the diagonal of C^(1/2) that lifts R (_lift), or
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
    return R, half, _unitarity_defect(R), float(np.max(np.abs(eigenvalues)))


def _certify(op, basis: np.ndarray, half: np.ndarray | None = None):
    """Rayleigh-quotient phases of a basis's columns and their residuals.

    The phases are v* U v, and residuals[n] is the 2-norm of
    U v - exp(-i phi) v for column n, with U applied by op.apply one block
    of columns at a time.  Both are in the order of the columns.  With
    half, the diagonal of C^(1/2), the columns are C^(1/2) R of the real
    basis R = basis, each block lifted on its own (_lift).
    """
    phases = np.empty(basis.shape[1])
    residuals = np.empty(basis.shape[1])
    for block in column_blocks(phases.size):
        v = basis[:, block]
        if half is not None:
            v = _lift(half, v)
        deviation = op.apply(v)
        quotients = np.einsum("ij,ij->j", v.conj(), deviation)
        phases[block] = np.mod(-np.angle(quotients), 2.0 * np.pi)
        deviation -= v * np.exp(-1j * phases[block])
        residuals[block] = np.linalg.norm(deviation, axis=0)
    return phases, residuals


def _widest_gap_shift(phases: np.ndarray) -> float:
    """Shift that puts the Cayley pole in the middle of the widest phase gap."""
    phases = np.sort(phases)
    gaps = cyclic_gaps(phases)
    k = int(np.argmax(gaps))
    # the pole of the shift alpha sits at phi = alpha - pi
    return float(phases[k] + 0.5 * gaps[k] + np.pi)


def _eigenbasis(op: FloquetOperator):
    """(phases, R, worst residual) of U, sorted by phase.

    The first pass uses CAYLEY_SHIFT and must keep its eigenvalues within
    CAYLEY_MAX_EIGENVALUE; the second puts the pole in the widest gap of
    the first pass's phases, or, when the first pass met the pole itself,
    on the opposite side of the circle.  The first certified pass is
    returned; when neither is certified, or the first pass's phases are
    not finite, NumericalError.
    """
    shift, largest_allowed = CAYLEY_SHIFT, CAYLEY_MAX_EIGENVALUE
    rejected = []
    for _ in range(2):
        basis = _symmetric_cayley_basis(op, shift)
        if basis is None:
            rejected.append(
                f"shift {shift:.6g}: 1 + A singular or X not finite")
            shift, largest_allowed = shift + np.pi, np.inf
            continue
        R, half, defect, largest = basis
        phases, residuals = _certify(op, R, half)
        worst = float(residuals.max())
        # written so that a NaN fails
        if (largest <= largest_allowed and worst < RESIDUAL_TOL
                and defect < ORTHONORMALITY_TOL):
            order = np.argsort(phases, kind="stable")
            R[:] = R[:, order]
            return phases[order], R, worst
        rejected.append(
            f"shift {shift:.6g}: eigenpair residual {worst:.3e}, "
            f"orthonormality defect {defect:.3e}, largest |lambda| "
            f"{largest:.4g} (allowed {largest_allowed:.4g})")
        if not np.isfinite(phases).all():
            # the widest gap of NaN phases is no shift at all
            break
        shift, largest_allowed = _widest_gap_shift(phases), np.inf
        del basis, R  # free this pass's basis before the next
    raise NumericalError(
        f"spectral: no certified Cayley pass ({op.family.variant}, "
        f"N={op.N}; eigenpair residual below {RESIDUAL_TOL:.0e}, "
        f"orthonormality defect below {ORTHONORMALITY_TOL:.0e}): "
        + "; ".join(rejected))


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
    phases, real, worst = _eigenbasis(op)
    return SpectralData(
        N=op.N,
        family=op.family,
        scale=op.scale,
        phases=phases,
        max_residual=worst,
        real_vectors=real,
    )
