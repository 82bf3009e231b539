"""Eigendecomposition of unitaries: phases, vectors, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur

import qmap.spectral as spectral_mod
from conftest import random_unitary
from qmap import (
    VARIANTS,
    DomainError,
    MapFamily,
    NumericalError,
    PlanckScale,
    build_floquet,
    decompose_unitary,
    diagonalize,
    mean_spacing,
    phase_clusters,
)
from qmap.spectral import CAYLEY_SHIFT


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


def record_calls(monkeypatch, name):
    """Replace spectral.<name> by a pass-through that logs its arguments."""
    calls = []
    real = getattr(spectral_mod, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, name, spy)
    return calls


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


def test_trace_identity():
    op = build_floquet(MapFamily("chaotic", r=1.3), PlanckScale(64))
    data = diagonalize(op)
    assert np.sum(np.exp(-1j * data.phases)) == pytest.approx(
        np.trace(op.U), abs=1e-8)


def test_spectrum_invariant_under_fourier_conjugation():
    N = 32
    op = build_floquet(MapFamily("chaotic", r=0.9), PlanckScale(N))
    F = np.fft.fft(np.eye(N)) / np.sqrt(N)
    conjugated = F @ op.U @ F.conj().T
    a, _, _ = decompose_unitary(op.U)
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
    passes = record_calls(monkeypatch, "_cayley_basis")
    fallbacks = record_calls(monkeypatch, "schur")
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
    passes = record_calls(monkeypatch, "_cayley_basis")
    fallbacks = record_calls(monkeypatch, "schur")
    data = diagonalize(op)
    assert len(passes) == 2 and len(fallbacks) == 1
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, schur_phases(op.U)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(1, 64),
       r=st.floats(0.0, 3.0))
def test_cayley_route_matches_schur(variant, half_N, r):
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    data = diagonalize(op)
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.vectors) < 1e-12
    assert circular_mismatch(data.phases, schur_phases(op.U)) < 1e-12


def test_nan_entry_fails_the_unitarity_check():
    U = np.eye(4, dtype=complex)
    U[1, 2] = np.nan
    with pytest.raises(DomainError):
        decompose_unitary(U)


def test_nan_residual_fails_the_eigenpair_certificate(monkeypatch):
    def nan_basis(A, **kwargs):
        N = A.shape[0]
        return np.zeros(N), np.full((N, N), np.nan, dtype=complex)

    monkeypatch.setattr(spectral_mod, "eigh", nan_basis)
    monkeypatch.setattr(spectral_mod, "schur", nan_basis)
    with pytest.raises(NumericalError):
        decompose_unitary(np.eye(4))


def test_non_unitary_input_rejected():
    with pytest.raises(DomainError):
        decompose_unitary(np.eye(4) + 1e-6)
    with pytest.raises(DomainError):
        decompose_unitary(np.ones((3, 4)))


def test_phase_clusters_chain_and_seam():
    eps = 1e-9
    phases = np.array([0.0, eps, 0.5, 2.0 * np.pi - eps])
    clusters = phase_clusters(phases, gap=1e-8)
    # the top-of-circle member joins the cluster at zero
    assert sorted(map(sorted, clusters)) == [[0, 1, 3], [2]]
    assert phase_clusters(np.array([]), gap=1e-8) == []
    spread = np.array([0.1, 0.4, 0.9])
    assert phase_clusters(spread, gap=1e-8) == [[0], [1], [2]]
