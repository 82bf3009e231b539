"""Eigendecomposition of unitaries: phases, vectors, certificates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

import complex_route
import qmap.spectral as spectral_mod
from complex_route import decompose_unitary
from conftest import random_unitary
from qmap import (
    VARIANTS,
    DomainError,
    FloquetOperator,
    MapFamily,
    NumericalError,
    PlanckScale,
    build_floquet,
    diagonalize,
    mean_spacing,
)
from qmap.model import kinetic
from qmap.quantize import _circulant_from_momentum_diagonal, half_free_propagator
from qmap.spectral import CAYLEY_MAX_EIGENVALUE, CAYLEY_SHIFT


def schur_phases(U):
    """Reference eigenphases from the complex Schur form, sorted."""
    T, _ = schur(U, output="complex")
    return np.sort(np.mod(-np.angle(np.diagonal(T)), 2.0 * np.pi))


def circular_mismatch(a, b):
    """Largest distance on the circle from a phase of either set to the other set."""
    d = np.abs(np.mod(a[:, None] - b[None, :] + np.pi, 2.0 * np.pi) - np.pi)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def orthonormality_defect(vectors):
    return np.max(np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])))


def record_calls(monkeypatch, name, module=spectral_mod):
    """Replace module.<name> by a pass-through that logs its arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def with_factors(op, kick_phases=None, drift_phases=None):
    """op with one or both diagonal factors replaced."""
    return FloquetOperator(
        N=op.N, family=op.family, scale=op.scale,
        construction_certificate=op.construction_certificate,
        kick_phases=op.kick_phases if kick_phases is None else kick_phases,
        drift_phases=op.drift_phases if drift_phases is None
        else drift_phases)


def test_mean_spacing():
    assert mean_spacing(512) == pytest.approx(0.0122718, abs=1e-7)
    assert mean_spacing(512) == 2.0 * np.pi / 512
    with pytest.raises(DomainError):
        mean_spacing(0)


def test_identity_decomposition():
    phases, vectors, residual = decompose_unitary(np.eye(7))
    assert np.all(phases == 0.0)
    assert residual < 1e-14
    assert np.allclose(vectors.conj().T @ vectors, np.eye(7), atol=1e-14)


def test_diagonal_unitary_phases_and_basis():
    # kick-only sawtooth at N = 2: U = diag(e^{-0.6 pi i}, 1)
    U = np.diag([np.exp(-0.6j * np.pi), 1.0])
    phases, vectors, residual = decompose_unitary(U)
    assert phases == pytest.approx([0.0, 0.6 * np.pi], abs=1e-12)
    assert residual < 1e-12
    # phase 0 belongs to the second grid point, so columns swap
    assert np.abs(vectors[1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(vectors[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_eigenvalue_sign_convention():
    # U = e^{-i phi}: a small positive kick phase must come out positive
    U = np.diag([np.exp(-0.25j)])
    phases, _, _ = decompose_unitary(U)
    assert phases[0] == pytest.approx(0.25, abs=1e-14)


def test_phases_sorted_and_certified():
    data = diagonalize(build_floquet(MapFamily("chaotic", r=1.3), PlanckScale(64)))
    assert np.all(np.diff(data.phases) > 0.0)
    assert np.all((data.phases >= 0.0) & (data.phases < 2.0 * np.pi))
    assert data.max_residual < 1e-10
    gram = data.vectors.conj().T @ data.vectors
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10
    assert data.mean_spacing == mean_spacing(64)


@pytest.mark.parametrize("r", [0.0, 1.3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_eigenvectors_orthonormal_at_512(variant, r):
    # SpectralData promises orthonormal columns; only the eigenpair
    # residual is certified (max |V*V - 1| measured up to 1.4e-12 here)
    data = diagonalize(build_floquet(MapFamily(variant, r=r), PlanckScale(512)))
    assert orthonormality_defect(data.vectors) < 1e-11


def test_trace_identity():
    op = build_floquet(MapFamily("chaotic", r=1.3), PlanckScale(64))
    data = diagonalize(op)
    assert np.sum(np.exp(-1j * data.phases)) == pytest.approx(
        np.trace(op.dense()), abs=1e-8)


def test_spectrum_invariant_under_fourier_conjugation():
    # the real route on U against the complex reference on F U F*
    N = 32
    op = build_floquet(MapFamily("chaotic", r=0.9), PlanckScale(N))
    F = np.fft.fft(np.eye(N)) / np.sqrt(N)
    conjugated = F @ op.dense() @ F.conj().T
    a = diagonalize(op).phases
    b, _, _ = decompose_unitary(conjugated)
    wrapped = np.mod(np.sort(a) - np.sort(b) + np.pi, 2.0 * np.pi) - np.pi
    assert np.max(np.abs(wrapped)) < 1e-9


def test_chaotic_levels_repel(chaotic_spectra):
    data = chaotic_spectra[256]
    gaps = np.diff(data.phases)
    seam = data.phases[0] + 2.0 * np.pi - data.phases[-1]
    assert min(gaps.min(), seam) > 1e-4 * data.mean_spacing


def test_degenerate_block_reorthonormalized():
    mu = np.exp(-1j * 0.3)
    U = np.diag([mu, mu, np.exp(-1j * 1.0)])
    phases, vectors, residual = decompose_unitary(U)
    assert residual < 1e-12
    assert np.allclose(vectors.conj().T @ vectors, np.eye(3), atol=1e-12)


def test_eigenvalue_at_the_first_pole_takes_a_second_pass(monkeypatch):
    # exp(-i phi) with phi = alpha - pi makes 1 + exp(i alpha) U singular
    rng = np.random.default_rng(7)
    phases = np.sort(rng.uniform(0.0, 2.0 * np.pi, 48))
    phases[7] = np.mod(CAYLEY_SHIFT - np.pi, 2.0 * np.pi)
    Q = random_unitary(rng, 48)
    U = (Q * np.exp(-1j * phases)) @ Q.conj().T
    passes = record_calls(monkeypatch, "cayley_basis", complex_route)
    fallbacks = record_calls(monkeypatch, "schur", complex_route)
    found, vectors, residual = decompose_unitary(U)
    assert len(passes) == 2 and passes[0][1] == CAYLEY_SHIFT
    assert not fallbacks
    assert residual < 1e-11
    assert orthonormality_defect(vectors) < 1e-12
    assert circular_mismatch(found, np.sort(phases)) < 1e-12


def test_failed_cayley_passes_fall_back_to_schur(monkeypatch):
    op = build_floquet(MapFamily("chaotic", r=0.4), PlanckScale(64))

    def bad_eigh(H, **kwargs):
        return np.zeros(H.shape[0]), np.eye(H.shape[0], dtype=complex)

    monkeypatch.setattr(spectral_mod, "eigh", bad_eigh)
    passes = record_calls(monkeypatch, "_symmetric_cayley_basis")
    fallbacks = record_calls(monkeypatch, "_schur")
    data = diagonalize(op)
    assert len(passes) == 2 and len(fallbacks) == 1
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, schur_phases(op.dense())) < 1e-12


def skewed_eigh(monkeypatch, name):
    """Make spectral.<name> stretch its first eigenvector by 1 + 1e-9:
    eigenpairs stay accurate, orthonormality fails its certificate."""
    real = getattr(spectral_mod, name)

    def skewed(*args, **kwargs):
        *rest, vectors = real(*args, **kwargs)
        vectors = vectors.copy()
        vectors[:, 0] *= 1.0 + 1e-9
        return (*rest, vectors)

    monkeypatch.setattr(spectral_mod, name, skewed)


def test_non_orthonormal_passes_fall_back_to_schur(monkeypatch):
    op = build_floquet(MapFamily("regular", r=0.4), PlanckScale(64))
    skewed_eigh(monkeypatch, "eigh")
    passes = record_calls(monkeypatch, "_symmetric_cayley_basis")
    fallbacks = record_calls(monkeypatch, "_schur")
    data = diagonalize(op)
    assert len(passes) == 2 and len(fallbacks) == 1
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, schur_phases(op.dense())) < 1e-12


def test_no_orthonormal_pass_raises(monkeypatch):
    skewed_eigh(monkeypatch, "eigh")
    skewed_eigh(monkeypatch, "_schur")
    with pytest.raises(NumericalError, match="orthonormality"):
        diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(16)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(1, 64),
       r=st.floats(0.0, 3.0))
def test_half_drift_gives_a_symmetric_similar_form(variant, half_N, r):
    N = 2 * half_N
    family, scale = MapFamily(variant, r=r), PlanckScale(N)
    half = half_free_propagator(family, scale)
    # the drift on the plain grid, whose phase argument 2 pi N T(p) reaches
    # pi N, so its entries carry roundoff of order pi N eps; the half
    # drift's argument stays below pi N / 8
    plain = np.exp(-2j * np.pi * N * kinetic(family, np.arange(N) / N, scale))
    assert np.max(np.abs(half ** 2 - plain)) \
        < 4.0 * np.pi * N * np.finfo(float).eps
    op = build_floquet(family, scale)
    U_s = spectral_mod._symmetric_form(op, half)
    assert np.max(np.abs(U_s - U_s.T)) < 1e-13
    # U C^(1/2) = C^(1/2) U_s: the two are similar
    C_half = _circulant_from_momentum_diagonal(half)
    assert np.max(np.abs(op.dense() @ C_half - C_half @ U_s)) < 1e-12


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("variant", VARIANTS)
def test_floquet_operators_take_the_real_route(monkeypatch, variant, N):
    real_passes = record_calls(monkeypatch, "_symmetric_cayley_basis")
    fallbacks = record_calls(monkeypatch, "_schur")
    data = diagonalize(build_floquet(MapFamily(variant, r=0.7), PlanckScale(N)))
    assert not fallbacks
    assert real_passes and real_passes[0][1] == CAYLEY_SHIFT
    assert data.max_residual < 1e-11
    # the real basis is kept, in the order of the lifted one
    half = half_free_propagator(data.family, data.scale)
    lifted = np.fft.ifft(half[:, None] * np.fft.fft(data.real_vectors, axis=0),
                         axis=0)
    assert data.real_vectors.dtype == float
    assert np.max(np.abs(lifted - data.vectors)) < 1e-13


def test_real_route_moves_the_pole_off_an_eigenphase(monkeypatch):
    op = build_floquet(MapFamily("chaotic", r=0.4), PlanckScale(64))
    reference = diagonalize(op)
    # the pole of the shift alpha sits at phi = alpha - pi
    shift = float(reference.phases[11] + np.pi)
    monkeypatch.setattr(spectral_mod, "CAYLEY_SHIFT", shift)
    passes = record_calls(monkeypatch, "_symmetric_cayley_basis")
    fallbacks = record_calls(monkeypatch, "_schur")
    data = diagonalize(op)
    # the first pass meets the pole (1 + A is singular to roundoff there);
    # the second, with the pole moved, certifies
    assert len(passes) == 2 and not fallbacks
    assert passes[0][1] == shift and passes[1][1] != shift
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, reference.phases) < 1e-12


def test_failed_factor_moves_the_pole_to_the_opposite_side(monkeypatch):
    # an exactly singular 1 + A fails the solve and leaves no phases to
    # find a gap in
    real = spectral_mod.solve
    failures = []

    def failing_once(a, b):
        if not failures:
            failures.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(spectral_mod, "solve", failing_once)
    passes = record_calls(monkeypatch, "_symmetric_cayley_basis")
    fallbacks = record_calls(monkeypatch, "_schur")
    op = build_floquet(MapFamily("slow_ergodic", r=0.4), PlanckScale(64))
    data = diagonalize(op)
    assert [alpha for _, alpha in passes] == [CAYLEY_SHIFT, CAYLEY_SHIFT + np.pi]
    assert not fallbacks
    assert circular_mismatch(data.phases, schur_phases(op.dense())) < 1e-12


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("variant", VARIANTS)
def test_diagonalize_peak_memory(variant, N):
    # units of one complex N x N matrix; regular N = 512 at r = 0 needs a
    # second pass, which must not hold the first pass's basis
    op = build_floquet(MapFamily(variant), PlanckScale(N))
    tracemalloc.start()
    try:
        diagonalize(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 16 * N * N


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(1, 64),
       r=st.floats(0.0, 3.0))
def test_cayley_route_matches_schur(variant, half_N, r):
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    data = diagonalize(op)
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, schur_phases(op.dense())) < 1e-12


def test_nan_entry_fails_the_unitarity_check():
    op = build_floquet(MapFamily("chaotic"), PlanckScale(4))
    for factor in ("kick_phases", "drift_phases"):
        phases = getattr(op, factor).copy()
        phases[1] = np.nan
        with pytest.raises(NumericalError, match="unit circle"):
            diagonalize(with_factors(op, **{factor: phases}))


def test_nan_residual_fails_the_eigenpair_certificate(monkeypatch):
    def nan_basis(A, **kwargs):
        N = A.shape[0]
        return np.zeros(N), np.full((N, N), np.nan, dtype=complex)

    monkeypatch.setattr(spectral_mod, "eigh", nan_basis)
    monkeypatch.setattr(spectral_mod, "_schur", nan_basis)
    with pytest.raises(NumericalError, match="eigenpair residual"):
        diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(4)))


def test_non_unitary_input_rejected():
    # U is unitary exactly when both factors lie on the unit circle
    op = build_floquet(MapFamily("regular", r=0.5), PlanckScale(16))
    for factor in ("kick_phases", "drift_phases"):
        stretched = getattr(op, factor) * (1.0 + 1e-6)
        with pytest.raises(NumericalError, match="unit circle"):
            diagonalize(with_factors(op, **{factor: stretched}))


@pytest.mark.parametrize("variant", VARIANTS)
def test_drift_phases_out_of_step_with_the_half_drift_fail(variant):
    # the real route diagonalizes C^(1/2) D_V C^(1/2), similar to U only
    # when D_T is the square of the half drift; a drift phase turned on the
    # unit circle breaks that, and diagonalize must refuse the operator
    op = build_floquet(MapFamily(variant, r=0.3), PlanckScale(32))
    drift = op.drift_phases.copy()
    drift[5] *= np.exp(1e-6j)
    with pytest.raises(NumericalError, match="half drift"):
        diagonalize(with_factors(op, drift_phases=drift))


def test_residuals_read_the_operators_own_factors(monkeypatch):
    # an error in the half drift that builds U_s and lifts R must fail the
    # residual, which applies U through drift_phases: every real pass fails
    # and the Schur fallback of the dense U is taken
    op = build_floquet(MapFamily("chaotic", r=0.3), PlanckScale(32))
    real_half = spectral_mod.half_free_propagator
    calls = []

    def off_by_a_phase(family, scale):
        calls.append(scale.N)
        half = real_half(family, scale)
        # the first call feeds the factor check, the rest the passes
        if len(calls) > 1:
            half[3] *= np.exp(1e-6j)
        return half

    monkeypatch.setattr(spectral_mod, "half_free_propagator", off_by_a_phase)
    fallbacks = record_calls(monkeypatch, "_schur")
    data = diagonalize(op)
    assert len(calls) == 3 and len(fallbacks) == 1
    assert data.real_vectors is None
    assert circular_mismatch(data.phases, schur_phases(op.dense())) < 1e-12


def test_a_different_kick_is_a_different_unitary():
    # a kick phase turned on the unit circle leaves the factors consistent:
    # U_s reads the same kick, so the real route certifies that operator
    op = build_floquet(MapFamily("chaotic", r=0.3), PlanckScale(32))
    kick = op.kick_phases.copy()
    kick[5] *= np.exp(0.1j)
    other = with_factors(op, kick_phases=kick)
    data = diagonalize(other)
    assert data.real_vectors is not None
    assert circular_mismatch(data.phases, schur_phases(other.dense())) < 1e-12
    assert circular_mismatch(data.phases, diagonalize(op).phases) > 1e-4


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(2, 48),
       r=st.floats(0.0, 3.0))
def test_real_route_matches_the_complex_reference(variant, half_N, r):
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    data = diagonalize(op)
    phases, vectors, residual = decompose_unitary(op.dense())
    assert residual < 1e-11
    assert circular_mismatch(data.phases, phases) < 1e-12
    # the same eigenvectors up to a phase where the levels are apart
    gaps = spectral_mod.cyclic_gaps(phases)
    apart = np.minimum(gaps, np.roll(gaps, 1)) > 1e-3
    overlaps = np.abs(np.sum(data.vectors.conj() * vectors, axis=0)) ** 2
    assert np.all(np.abs(overlaps[apart] - 1.0) < 1e-9)

