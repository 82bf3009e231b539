"""Eigenphase spectra of Floquet unitaries.

Eigenpairs follow the convention U v = exp(-i phi) v with phi in [0, 2 pi),
so a small positive potential shifts phases positively.

Diagonalization goes through the time-reversal symmetry of U = C D_V,
with C the circulant free flight.  U is similar to the complex symmetric
U_s = C^(1/2) D_V C^(1/2) (quantize.half_free_propagator gives C^(1/2)):
U C^(1/2) = C^(1/2) U_s.  U_s = A + i B is unitary and symmetric, so A and
B are real symmetric, commute and satisfy A^2 + B^2 = 1: U_s has a real
orthonormal eigenbasis R, with A R = R cos(phi) and B R = -R sin(phi).  R
is the common eigenbasis of the commuting pair, found with no inverse
(Bunse-Gerstner, Byers & Mehrmann, SIAM J. Matrix Anal. Appl. 14, 927
(1993)): LAPACK's dsyevd (numpy.linalg.eigh) diagonalizes one part, and
each run of its sorted eigenvalues closer than _CLUSTER_GAP is rotated by
eigh of the other part restricted to the run.  C^(1/2) R are the
eigenvectors of U, and each phase is the Rayleigh quotient v* U v.

_CLUSTER_GAP = 1e-3: eigh gets the eigenvector of an eigenvalue at least
tau from every other to about eps / tau, so a level left alone leaks a
residual of at most 2 eps / tau, about 4e-13, under RESIDUAL_TOL.  Where
cos phi is flat (phi near 0 and pi) the runs of A are long, up to about 20
columns at N = 512.  The splitting part cannot split a pair of one run
whose midpoint lies within about eps / RESIDUAL_TOL of a point where it is
flat in turn: the first pass (eigh of A, runs split by B) is blind at
phi = pi / 2 and 3 pi / 2, the second (eigh of B, runs split by A) at 0
and pi, so each pass covers the other's blind points.

U is never a dense matrix.  U_s, the run products U_s R_c =
C^(1/2) (D_V C^(1/2) R_c) and the lift C^(1/2) R take FFT pairs down the
columns, and U_s is freed once its part is copied.  A spectrum keeps R
alone; the run products, the certificates and SpectralData.eigenvectors
lift _COLUMN_BLOCK columns at a time, each column with its own FFTs, so a
block's lift is the whole lift's columns bit for bit.  The residuals
apply U through the operator's own factors (FloquetOperator.apply), never
through U_s, so an error in the half drift or in the lift cannot pass;
diagonalize first checks, in O(N), that the factors lie on the unit
circle and that D_T is the square of the half drift.  eigh and the
products (`@`) run on numpy's OpenBLAS (qmap.cli states the thread
rule), all on the calling thread except the first pass's eigh when a
caller gives diagonalize a head start (qmap.sweep runs _eigh of
_real_part ahead, on a background thread).

A pass is certified if its largest eigenpair residual |U v - exp(-i phi) v|
is below 1e-10 and max |V*V - 1| below 1e-11 (the real Gram product R^T R;
C^(1/2) is unitary).  The second pass runs only when the first is not
certified, and no call of r = 0..3 (step 0.05, every variant, N = 64..512)
needed it; NumericalError names both passes' certificates.  Both depend
on U alone, so reruns are byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .errors import DomainError, NumericalError
from .model import MapFamily, PlanckScale
from .quantize import (UNITARITY_TOL, FloquetOperator, Observable,
                       _circulant_from_momentum_diagonal, _unitarity_defect,
                       half_free_propagator)

RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-11
# eigenvalues of the first part closer than this share a run, which the
# other part splits (module docstring)
_CLUSTER_GAP = 1e-3
# columns per block of the loops that lift the real basis (the run
# products, the certificates, eigenbasis_diagonal), which form no N x N
# complex array
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

    half is half_free_propagator's diagonal of C^(1/2).  C^(1/2) is
    symmetric, so U_s is C^(1/2) applied to (C^(1/2) D_V)^T, a transposed
    view whose FFTs run down contiguous columns; the result is column-major.
    """
    U_s = _circulant_from_momentum_diagonal(half)
    U_s *= op.kick_phases
    return _half_drift_columns(half, U_s.T)


def _commuting_pair_basis(op: FloquetOperator, imaginary: bool,
                          head_start=None):
    """(R, half, max |R^T R - 1|) of one pass of _common_basis on U_s;
    half, the diagonal of C^(1/2), lifts R (_lift)."""
    half = half_free_propagator(op.family, op.scale)

    def times_u_s(columns):
        M = _lift(half, columns)
        M *= op.kick_phases[:, None]
        return _half_drift_columns(half, M)

    R = _common_basis(lambda: _symmetric_form(op, half), times_u_s,
                      imaginary, head_start)
    return R, half, _unitarity_defect(R)


def _symmetric_part(form, imaginary: bool) -> np.ndarray:
    """Im U_s when imaginary, else Re U_s, of U_s = form(), as a new
    symmetrized array; U_s is freed once the part is copied."""
    W = form()
    part = np.array(W.imag if imaginary else W.real)
    del W
    # U_s is symmetric only to roundoff, and eigh reads one triangle
    part += part.T
    part *= 0.5
    return part


def _real_part(op: FloquetOperator, half: np.ndarray) -> np.ndarray:
    """_symmetric_part of Re U_s of op, with half = half_free_propagator's
    diagonal given: what the first pass takes eigh of."""
    return _symmetric_part(lambda: _symmetric_form(op, half), False)


def _eigh(part: np.ndarray):
    """eigh(part), with eigh looked up in this module as it is called: the
    one call a head start runs on another thread (qmap.sweep).  It is one
    LAPACK call, which holds no Python state and releases the GIL."""
    return eigh(part)


def _common_basis(form, times_u_s, imaginary: bool,
                  head_start=None) -> np.ndarray:
    """Real orthonormal eigenbasis of a complex symmetric unitary U_s,
    given as form() (U_s as a new array) and times_u_s(M) = U_s M.

    eigh of one part (_symmetric_part), or head_start() when given, which
    must return the same; then each run of close eigenvalues rotated by
    eigh of the other part restricted to the run's columns R_c, read from
    U_s R_c.
    """
    eigenvalues, R = (eigh(_symmetric_part(form, imaginary))
                      if head_start is None else head_start())
    cuts = np.flatnonzero(np.diff(eigenvalues) >= _CLUSTER_GAP) + 1
    runs = [slice(start, stop) for start, stop in
            zip([0, *cuts.tolist()], [*cuts.tolist(), eigenvalues.size])
            if stop - start > 1]
    if not runs:
        return R
    clustered = R[:, np.r_[tuple(runs)]]
    other = np.empty_like(clustered)
    for block in column_blocks(other.shape[1]):
        product = times_u_s(clustered[:, block])
        other[:, block] = product.real if imaginary else product.imag
    start = 0
    for run in runs:
        local = slice(start, start + run.stop - run.start)
        start = local.stop
        restricted = clustered[:, local].T @ other[:, local]
        restricted += restricted.T
        restricted *= 0.5
        R[:, run] = clustered[:, local] @ eigh(restricted)[1]
    return R


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


def _eigenbasis(op: FloquetOperator, head_start=None):
    """(phases, R, worst residual) of U, sorted by phase.

    The first pass diagonalizes the real part of U_s, taking its eigh from
    head_start() when given, the second the imaginary part; the first
    certified pass is returned.  When neither is certified, or the first
    pass's phases are not finite, NumericalError.
    """
    rejected = []
    for imaginary in (False, True):
        R, half, defect = _commuting_pair_basis(
            op, imaginary, head_start=None if imaginary else head_start)
        phases, residuals = _certify(op, R, half)
        worst = float(residuals.max())
        # written so that a NaN fails
        if worst < RESIDUAL_TOL and defect < ORTHONORMALITY_TOL:
            order = np.argsort(phases, kind="stable")
            R[:] = R[:, order]
            return phases[order], R, worst
        rejected.append(
            f"eigh of the {'imaginary' if imaginary else 'real'} part: "
            f"eigenpair residual {worst:.3e}, orthonormality defect "
            f"{defect:.3e}")
        if not np.isfinite(phases).all():
            # non-finite phases are no blind point that the other part covers
            break
        del R  # free this pass's basis before the next
    raise NumericalError(
        f"spectral: no certified pass ({op.family.variant}, N={op.N}; "
        f"eigenpair residual below {RESIDUAL_TOL:.0e}, orthonormality "
        f"defect below {ORTHONORMALITY_TOL:.0e}): " + "; ".join(rejected))


def diagonalize(op: FloquetOperator, head_start=None) -> SpectralData:
    """Full spectral data of a Floquet operator by the real route.

    The factors are checked first, in O(N): D_V on the unit circle and D_T
    the square of the half drift, each to 1e-12.  Residuals are certified
    to 1e-10 against U applied by those factors, orthonormality to 1e-11.

    head_start, when given, is a function of no arguments that returns
    _eigh(_real_part(op, half)) (qmap.sweep forms the part and runs the
    eigh ahead, on another thread); the first pass calls it, after the
    check, in place of that eigh.  Everything else runs here, and the
    certificates judge the basis it returns like any other.
    """
    half = half_free_propagator(op.family, op.scale)
    # written so that a NaN entry fails the check
    factors = float(np.max(np.abs(np.concatenate(
        (np.abs(op.kick_phases) - 1.0, half * half - op.drift_phases)))))
    if not factors < UNITARITY_TOL:
        raise NumericalError(
            f"spectral: factors of U off the unit circle or the half drift's "
            f"square by {factors:.3e} ({op.family.variant}, N={op.N})")
    phases, real, worst = _eigenbasis(op, head_start)
    return SpectralData(
        N=op.N,
        family=op.family,
        scale=op.scale,
        phases=phases,
        max_residual=worst,
        real_vectors=real,
    )
