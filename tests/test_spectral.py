"""Eigendecomposition of unitaries: phases, vectors, certificates."""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmap.spectral as spectral_mod
from conftest import dense, schur_reference
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
from qmap.spectral import ORTHONORMALITY_TOL, RESIDUAL_TOL


def circular_mismatch(a, b):
    """Largest distance on the circle from a phase of either set to the other set."""
    d = np.abs(np.mod(a[:, None] - b[None, :] + np.pi, 2.0 * np.pi) - np.pi)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def orthonormality_defect(vectors):
    return np.max(np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])))


def record_calls(monkeypatch, name):
    """Replace qmap.spectral.<name> by a pass-through that logs its
    arguments."""
    calls = []
    real = getattr(spectral_mod, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, name, spy)
    return calls


def synthetic_pass(W, imaginary):
    """One pass of _common_basis on a complex symmetric unitary W, as
    (phases, R, residuals) with the residuals taken against W."""
    R = spectral_mod._common_basis(W.copy, W.__matmul__, imaginary)
    phases, residuals = spectral_mod._certify(
        SimpleNamespace(apply=W.__matmul__), R)
    return phases, R, residuals


def raised_pass_reports(op):
    """The NumericalError of diagonalize(op) as (part, eigenpair residual,
    orthonormality defect) for each rejected pass."""
    with pytest.raises(NumericalError) as raised:
        diagonalize(op)
    found = re.findall(r"eigh of the (\S+) part: eigenpair residual (\S+), "
                       r"orthonormality defect ([^;\s]+)", str(raised.value))
    return [(part, float(residual), float(defect))
            for part, residual, defect in found]


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
    # one run of all seven columns, which the other part, zero or the
    # identity, leaves as it is
    for imaginary in (False, True):
        phases, R, residuals = synthetic_pass(np.eye(7, dtype=complex),
                                              imaginary)
        assert np.all(phases == 0.0)
        assert residuals.max() < 1e-14
        assert orthonormality_defect(R) < 1e-14


def test_diagonal_unitary_phases_and_basis():
    # kick-only sawtooth at N = 2: U = diag(e^{-0.6 pi i}, 1)
    W = np.diag([np.exp(-0.6j * np.pi), 1.0])
    for imaginary in (False, True):
        phases, R, residuals = synthetic_pass(W, imaginary)
        assert np.sort(phases) == pytest.approx([0.0, 0.6 * np.pi],
                                                abs=1e-12)
        assert residuals.max() < 1e-12
        # phase 0 belongs to the second grid point
        assert np.abs(R[1, np.argmin(phases)]) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_eigenvalue_sign_convention():
    # U = e^{-i phi}: a small positive kick phase must come out positive
    for imaginary in (False, True):
        phases, _, _ = synthetic_pass(np.array([[np.exp(-0.25j)]]),
                                      imaginary)
        assert phases[0] == pytest.approx(0.25, abs=1e-14)


def test_phases_sorted_and_certified():
    data = diagonalize(build_floquet(MapFamily("chaotic", r=1.3), PlanckScale(64)))
    assert np.all(np.diff(data.phases) > 0.0)
    assert np.all((data.phases >= 0.0) & (data.phases < 2.0 * np.pi))
    assert data.max_residual < 1e-10
    gram = data.eigenvectors().conj().T @ data.eigenvectors()
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10
    assert data.mean_spacing == mean_spacing(64)


@pytest.mark.parametrize("r", [0.0, 1.3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_eigenvectors_orthonormal_at_512(variant, r):
    # SpectralData promises orthonormal columns; only the eigenpair
    # residual is certified (max |V*V - 1| measured up to 1.4e-12 here)
    data = diagonalize(build_floquet(MapFamily(variant, r=r), PlanckScale(512)))
    assert orthonormality_defect(data.eigenvectors()) < 1e-11


def test_trace_identity():
    op = build_floquet(MapFamily("chaotic", r=1.3), PlanckScale(64))
    data = diagonalize(op)
    assert np.sum(np.exp(-1j * data.phases)) == pytest.approx(
        np.trace(dense(op)), abs=1e-8)


def test_spectrum_invariant_under_fourier_conjugation():
    # the real route on U against the Schur reference on F U F*
    N = 32
    op = build_floquet(MapFamily("chaotic", r=0.9), PlanckScale(N))
    F = np.fft.fft(np.eye(N)) / np.sqrt(N)
    conjugated = F @ dense(op) @ F.conj().T
    a = diagonalize(op).phases
    b, _, _ = schur_reference(conjugated)
    wrapped = np.mod(np.sort(a) - np.sort(b) + np.pi, 2.0 * np.pi) - np.pi
    assert np.max(np.abs(wrapped)) < 1e-9


def test_chaotic_levels_repel(chaotic_spectra):
    data = chaotic_spectra[256]
    gaps = np.diff(data.phases)
    seam = data.phases[0] + 2.0 * np.pi - data.phases[-1]
    assert min(gaps.min(), seam) > 1e-4 * data.mean_spacing


def test_degenerate_block_reorthonormalized():
    mu = np.exp(-1j * 0.3)
    W = np.diag([mu, mu, np.exp(-1j * 1.0)])
    for imaginary in (False, True):
        phases, R, residuals = synthetic_pass(W, imaginary)
        assert np.sort(phases) == pytest.approx([0.3, 0.3, 1.0], abs=1e-12)
        assert residuals.max() < 1e-12
        assert orthonormality_defect(R) < 1e-12


def test_failed_passes_raise(monkeypatch):
    # an orthonormal basis of non-eigenvectors fails the residual of both
    # passes, and the error names each
    op = build_floquet(MapFamily("chaotic", r=0.4), PlanckScale(64))

    def bad_eigh(H, **kwargs):
        return np.zeros(H.shape[0]), np.eye(H.shape[0], dtype=complex)

    monkeypatch.setattr(spectral_mod, "eigh", bad_eigh)
    passes = record_calls(monkeypatch, "_commuting_pair_basis")
    reports = raised_pass_reports(op)
    assert [imaginary for _, imaginary in passes] == [False, True]
    assert [part for part, *_ in reports] == ["real", "imaginary"]
    for _, residual, defect in reports:
        assert residual > RESIDUAL_TOL
        assert defect == 0.0


@pytest.mark.parametrize("family, N", [
    (MapFamily("regular", r=0.4), 64), (MapFamily("chaotic"), 16)],
    ids=["regular-64", "chaotic-16"])
def test_no_orthonormal_pass_raises(monkeypatch, family, N):
    # eigh stretches its first eigenvector by 1 + 1e-9: accurate eigenpairs
    # in a stretched basis, which the orthonormality certificate alone
    # rejects in both passes.  There is no Schur fallback: nothing in
    # qmap.spectral reaches for a Schur form
    assert not any("schur" in name.lower() for name in dir(spectral_mod))
    real = spectral_mod.eigh

    def skewed(*args, **kwargs):
        eigenvalues, vectors = real(*args, **kwargs)
        vectors = vectors.copy()
        vectors[:, 0] *= 1.0 + 1e-9
        return eigenvalues, vectors

    monkeypatch.setattr(spectral_mod, "eigh", skewed)
    passes = record_calls(monkeypatch, "_commuting_pair_basis")
    reports = raised_pass_reports(build_floquet(family, PlanckScale(N)))
    assert len(passes) == len(reports) == 2
    for _, residual, defect in reports:
        assert residual < RESIDUAL_TOL
        assert defect > ORTHONORMALITY_TOL


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
    assert np.max(np.abs(dense(op) @ C_half - C_half @ U_s)) < 1e-12


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("variant", VARIANTS)
def test_floquet_operators_take_the_real_route(monkeypatch, variant, N):
    real_passes = record_calls(monkeypatch, "_commuting_pair_basis")
    data = diagonalize(build_floquet(MapFamily(variant, r=0.7), PlanckScale(N)))
    assert [imaginary for _, imaginary in real_passes] == [False]
    assert data.max_residual < 1e-11
    # the real basis is kept, and lifted column by column on demand
    half = half_free_propagator(data.family, data.scale)
    lifted = np.fft.ifft(half[:, None] * np.fft.fft(data.real_vectors, axis=0),
                         axis=0)
    assert data.real_vectors.dtype == float
    assert np.max(np.abs(lifted - data.eigenvectors())) < 1e-13


@pytest.mark.parametrize("variant", VARIANTS)
def test_spectrum_keeps_only_the_real_basis(variant):
    # R, 8 N^2 bytes, and the N phases: no complex array is kept
    N = 128
    data = diagonalize(build_floquet(MapFamily(variant, r=0.7),
                                     PlanckScale(N)))
    arrays = [value for value in vars(data).values()
              if isinstance(value, np.ndarray)]
    assert not any(np.iscomplexobj(a) for a in arrays)
    assert all(a.base is None for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 8 * N * N + 8 * N


@pytest.mark.parametrize("N", [2, 64, 98, 130])
def test_column_blocks_lift_the_bits_of_the_whole_basis(N):
    # each column takes its own FFT pair, so the certificates' and the
    # readers' block lifts are the whole lift's columns bit for bit,
    # ragged last block included
    data = diagonalize(build_floquet(MapFamily("slow_ergodic", r=0.7),
                                     PlanckScale(N)))
    blocks = [data.eigenvectors(block)
              for block in spectral_mod.column_blocks(N)]
    whole = data.eigenvectors()
    assert whole.flags.f_contiguous
    assert np.concatenate(blocks, axis=1).tobytes("F") == whole.tobytes("F")


def symmetric_unitary_with_a_pair(theta, seed):
    """W = Q diag(exp(i phi)) Q^T with a random real orthogonal Q (N = 48):
    random phases, and a pair at theta +- 1e-7."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, 48)
    phases[:2] = theta + np.array([-1e-7, 1e-7])
    Q, _ = np.linalg.qr(rng.standard_normal((48, 48)))
    return (Q * np.exp(1j * phases)) @ Q.T


@pytest.mark.parametrize("theta, blind", [
    (np.pi / 2, 0), (3 * np.pi / 2, 0), (0.0, 1), (np.pi, 1)],
    ids=["pi/2", "3pi/2", "0", "pi"])
def test_a_pair_where_one_part_is_flat_needs_the_other(theta, blind):
    # a pair at phi = pi/2 +- 1e-7 falls in one run of eigh of the real
    # part, and the imaginary part, flat there, cannot split it: the
    # rotation is left to roundoff.  At 0 and pi the roles swap.  Over
    # eight draws the blind part fails in most (in 15 to 18 of 20 when
    # measured); the other certifies every draw
    worst = []
    for seed in range(8):
        W = symmetric_unitary_with_a_pair(theta, seed)
        worst.append([])
        for imaginary in (False, True):
            _, R, residuals = synthetic_pass(W, imaginary)
            assert orthonormality_defect(R) < ORTHONORMALITY_TOL
            worst[-1].append(residuals.max())
    worst = np.array(worst)
    assert np.sum(worst[:, blind] > RESIDUAL_TOL) >= 4
    assert np.all(worst[:, 1 - blind] < 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(1, 64),
       r=st.floats(0.0, 3.0))
def test_each_part_alone_certifies(variant, half_N, r):
    # either pass alone is a certified eigenbasis of a Floquet operator
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    reference = schur_reference(dense(op))[0]
    for imaginary in (False, True):
        R, half, defect = spectral_mod._commuting_pair_basis(op, imaginary)
        phases, residuals = spectral_mod._certify(op, R, half)
        assert residuals.max() < RESIDUAL_TOL
        assert defect < ORTHONORMALITY_TOL
        assert circular_mismatch(np.sort(phases), reference) < 1e-12


def test_the_first_pass_certifies_on_the_r_lattice(monkeypatch):
    # three variants, N = 64, 128 and 256, r = 0..3 in steps of 0.25: the
    # second pass never runs
    passes = record_calls(monkeypatch, "_commuting_pair_basis")
    calls = 0
    for N in (64, 128, 256):
        for variant in VARIANTS:
            for r in np.linspace(0.0, 3.0, 13):
                diagonalize(build_floquet(MapFamily(variant, r=float(r)),
                                          PlanckScale(N)))
                calls += 1
    assert [imaginary for _, imaginary in passes] == [False] * calls


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("variant", VARIANTS)
def test_diagonalize_peak_memory(variant, N):
    # units of one complex N x N matrix: U_s and a copy of one part are
    # 1.5, the measured peak (1.51 at N = 256, 1.62 on the first call of a
    # process); 0.25 of margin
    op = build_floquet(MapFamily(variant), PlanckScale(N))
    tracemalloc.start()
    try:
        diagonalize(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 16 * N * N


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
    passes = record_calls(monkeypatch, "_commuting_pair_basis")
    with pytest.raises(NumericalError, match="eigenpair residual nan") as err:
        diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(4)))
    # NaN phases are no blind point of the first pass: no second pass
    assert len(passes) == 1
    assert "imaginary" not in str(err.value)


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
    # residual, which applies U through drift_phases: both passes fail
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
    reports = raised_pass_reports(op)
    assert len(calls) == 3 and len(reports) == 2
    assert [part for part, *_ in reports] == ["real", "imaginary"]
    for _, residual, defect in reports:
        assert residual > RESIDUAL_TOL
        assert defect < ORTHONORMALITY_TOL


def test_a_different_kick_is_a_different_unitary():
    # a kick phase turned on the unit circle leaves the factors consistent:
    # U_s reads the same kick, so the real route certifies that operator
    op = build_floquet(MapFamily("chaotic", r=0.3), PlanckScale(32))
    kick = op.kick_phases.copy()
    kick[5] *= np.exp(0.1j)
    other = with_factors(op, kick_phases=kick)
    data = diagonalize(other)
    reference = schur_reference(dense(other))[0]
    assert circular_mismatch(data.phases, reference) < 1e-12
    assert circular_mismatch(data.phases, diagonalize(op).phases) > 1e-4


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(1, 64),
       r=st.floats(0.0, 3.0))
def test_real_route_matches_the_complex_reference(variant, half_N, r):
    # diagonalize against the complex Schur decomposition of the dense U
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    data = diagonalize(op)
    assert data.max_residual < 1e-11
    assert orthonormality_defect(data.eigenvectors()) < 1e-12
    phases, vectors, residual = schur_reference(dense(op))
    assert residual < 1e-11
    assert circular_mismatch(data.phases, phases) < 1e-12
    # the same eigenvectors up to a phase where the levels are apart
    gaps = spectral_mod.cyclic_gaps(phases)
    apart = np.minimum(gaps, np.roll(gaps, 1)) > 1e-3
    products = data.eigenvectors().conj() * vectors
    overlaps = np.abs(np.sum(products, axis=0)) ** 2
    assert np.all(np.abs(overlaps[apart] - 1.0) < 1e-9)

