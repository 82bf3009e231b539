"""Eigenbasis statistics: diagonal elements, F(T), correlators."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, dense_observable
from qmap import (
    ConfigurationError,
    DomainError,
    MapFamily,
    PlanckScale,
    SpectralData,
    build_floquet,
    diagonal_elements_report,
    diagonalize,
    mean_spacing,
    quantize_observable,
    quantum_F_curve,
    quantum_classical_compare,
    quantum_correlator,
    quantum_correlator_eigenbasis,
)
from qmap.classical import OBSERVABLES
from qmap.ergodicity import _transition_weights
from qmap.model import VARIANTS
from qmap.spectral import cyclic_gaps


def random_spectral_data(rng, N):
    """Chaotic SpectralData of random sorted phases and a random real
    orthogonal basis R, whose eigenvectors are C^(1/2) R."""
    family, scale = MapFamily("chaotic"), PlanckScale(N)
    R, _ = np.linalg.qr(rng.normal(size=(N, N)))
    return SpectralData(N=N, family=family, scale=scale,
                        phases=np.sort(rng.uniform(0.0, 2.0 * np.pi, N)),
                        max_residual=0.0, real_vectors=R)


@pytest.fixture(scope="module")
def small_chaotic():
    scale = PlanckScale(64)
    op = build_floquet(MapFamily("chaotic"), scale)
    return op, diagonalize(op), quantize_observable("cos2pi_q", scale)


def test_identity_observable_has_no_fluctuations(small_chaotic):
    _, data, _ = small_chaotic
    obs = quantize_observable("identity", PlanckScale(64))
    rep = diagonal_elements_report(data, obs)
    assert np.allclose(rep.diagonals, 1.0, atol=1e-12)
    assert rep.variance < 1e-18
    assert rep.mean == pytest.approx(1.0, abs=1e-12)


def test_diagonal_mean_is_trace_over_n(small_chaotic):
    _, data, obs = small_chaotic
    rep = diagonal_elements_report(data, obs)
    # trace of the cosine observable vanishes
    assert abs(rep.mean) < 1e-9


def test_diagonals_match_direct_contraction(small_chaotic):
    _, data, obs = small_chaotic
    rep = diagonal_elements_report(data, obs)
    V = data.eigenvectors()
    oracle = np.einsum("in,ij,jn->n", V.conj(), dense_observable(obs), V).real
    assert np.allclose(rep.diagonals, oracle, atol=1e-12)


def test_variance_equals_plateau_for_traceless_observable(small_chaotic):
    _, data, obs = small_chaotic
    rep = diagonal_elements_report(data, obs)
    # variance about a0 = 0 collapses onto the T -> infinity plateau
    assert rep.variance == pytest.approx(rep.F_infinity, abs=1e-12)
    assert rep.variance >= 0.0


def test_f_curve_starts_at_second_moment(small_chaotic):
    _, data, obs = small_chaotic
    rep = quantum_F_curve(data, obs, [0.0, 1.0, 4.0])
    # F(0) = tr(A^2)/N = 1/2 for the cosine
    assert rep.F_curve[0][1] == pytest.approx(0.5, abs=1e-12)
    F = [F for _, F in rep.F_curve]
    assert np.all(np.diff(F) <= 0.0)
    assert np.all(rep.F_infinity <= np.array(F))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(half_N=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(["cos2pi_q", "cos2pi_p", "identity"]),
       T_grid=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=12,
                       unique=True).map(sorted))
def test_f_curve_chain_is_exact_on_random_spectra(half_N, seed, label, T_grid):
    N = 2 * half_N
    rng = np.random.default_rng(seed)
    scale = PlanckScale(N)
    data = random_spectral_data(rng, N)
    rep = quantum_F_curve(data, quantize_observable(label, scale), T_grid)
    F = np.array([F for _, F in rep.F_curve])
    # F(inf) <= F(T2) <= F(T1) for T1 <= T2, compared without tolerance
    assert np.all(rep.F_infinity <= F)
    assert np.all(np.diff(F) <= 0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 128), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(["cos2pi_q", "cos2pi_p", "identity"]))
def test_structured_readers_match_the_dense_observable(N, seed, label):
    rng = np.random.default_rng(seed)
    scale = PlanckScale(N)
    data = random_spectral_data(rng, N)
    obs = quantize_observable(label, scale)
    V = data.eigenvectors()
    M = V.conj().T @ dense_observable(obs) @ V
    assert np.max(np.abs(_transition_weights(data, obs) - np.abs(M) ** 2)) \
        < 1e-13
    # <n|A|n> by its O(N^2) reader is the diagonal of M
    d = diagonal_elements_report(data, obs).diagonals
    assert np.max(np.abs(d - M.diagonal())) < 1e-13


@pytest.mark.parametrize("label", ["cos2pi_q", "cos2pi_p"])
def test_f_curve_peak_memory(label):
    # in units of one N x N float64 array: the eigenvectors at the site
    # (2), P (1) and one column block of M with its weighted columns (1 at
    # N = 256, where a block is a quarter of the columns); the weights of
    # each T then reuse one buffer beside P and the gaps.  W, its
    # conjugate, aW and M held at once took 8.
    N = 256
    scale = PlanckScale(N)
    data = diagonalize(build_floquet(MapFamily("chaotic"), scale))
    obs = quantize_observable(label, scale)
    T_grid = np.geomspace(0.1, 100.0 * N / (2.0 * np.pi), 20)
    tracemalloc.start()
    try:
        quantum_F_curve(data, obs, T_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * N * N


def test_f_curve_plateau_matches_diagonal_report(small_chaotic):
    # both read the diagonal elements from the one <n|A|n> reader
    _, data, _ = small_chaotic
    for label in OBSERVABLES:
        obs = quantize_observable(label, PlanckScale(64))
        a = quantum_F_curve(data, obs, [1.0, 10.0]).F_infinity
        b = diagonal_elements_report(data, obs).F_infinity
        assert a == b


def test_f_curve_grid_validation(small_chaotic):
    _, data, obs = small_chaotic
    with pytest.raises(DomainError):
        quantum_F_curve(data, obs, [])
    with pytest.raises(DomainError):
        quantum_F_curve(data, obs, [1.0, 0.5])
    with pytest.raises(DomainError):
        quantum_F_curve(data, obs, [-1.0, 2.0])
    # [1.0, nan] once passed both checks and returned F = nan
    for T_grid in ([1.0, np.nan], [np.nan], [np.nan, 1.0]):
        with pytest.raises(DomainError):
            quantum_F_curve(data, obs, T_grid)


def test_no_degenerate_pairs_in_chaotic_spectrum(chaotic_512):
    _, data = chaotic_512
    assert cyclic_gaps(data.phases).min() > 1e-8


def test_quasi_degenerate_offdiagonals_shrink_with_dimension(chaotic_spectra,
                                                             cos_q_512):
    # F(T) - F(inf) = (1/N) sum_{n != m} |M_nm|^2 exp(-delta_nm^2 T^2 / 2):
    # at T = 1 / mean spacing it weighs the off-diagonal elements between
    # levels closer than about one spacing, and falls off as 1/N
    excess = {}
    for N in (128, 512):
        obs = (cos_q_512 if N == 512
               else quantize_observable("cos2pi_q", PlanckScale(N)))
        rep = quantum_F_curve(chaotic_spectra[N], obs, [1.0 / mean_spacing(N)])
        excess[N] = rep.F_curve[0][1] - rep.F_infinity
    assert excess[128] > 0.0
    assert excess[512] < 0.5 * excess[128]


def test_correlator_routes_agree(small_chaotic):
    op, data, obs = small_chaotic
    direct = quantum_correlator(op, obs, 6)
    spectral = quantum_correlator_eigenbasis(data, obs, 6)
    assert np.max(np.abs(direct - spectral)) < 1e-8
    assert direct[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("label", OBSERVABLES)
def test_phase_vector_correlator_matches_the_cosine_sum(variant, label):
    # f(t) = (1/N) sum_nm |M_nm|^2 cos(delta_nm t) lag by lag, with wrapped
    # gaps delta_nm: the sum the phase-vector product reorganizes
    scale = PlanckScale(128)
    data = diagonalize(build_floquet(MapFamily(variant, r=0.8), scale))
    obs = quantize_observable(label, scale)
    V = data.eigenvectors()
    M = V.conj().T @ dense_observable(obs) @ V
    P = np.abs(M) ** 2
    delta = np.mod(data.phases[:, None] - data.phases[None, :] + np.pi,
                   2.0 * np.pi) - np.pi
    expected = [np.sum(P * np.cos(delta * t)) / scale.N for t in range(41)]
    assert np.max(np.abs(quantum_correlator_eigenbasis(data, obs, 40)
                         - expected)) < 1e-14


def test_identity_correlator_is_flat(small_chaotic):
    op, data, _ = small_chaotic
    obs = quantize_observable("identity", PlanckScale(64))
    assert np.allclose(quantum_correlator(op, obs, 4), 1.0, atol=1e-12)
    assert np.allclose(quantum_correlator_eigenbasis(data, obs, 4), 1.0,
                       atol=1e-10)


def test_quantum_classical_zero_lag(small_chaotic, chaotic_classical):
    op, _, obs = small_chaotic
    dev = quantum_classical_compare(quantum_correlator(op, obs, 0),
                                    chaotic_classical)
    # both sides equal 1/2 up to Monte Carlo error
    assert dev < 3.0 * chaotic_classical.stderr[0] + 1e-4


def test_compare_range_must_fit_classical_curve(small_chaotic,
                                                chaotic_classical):
    op, _, obs = small_chaotic
    with pytest.raises(DomainError):
        quantum_classical_compare(quantum_correlator(op, obs, 26),
                                  chaotic_classical)


def test_dimension_mismatch_rejected(small_chaotic):
    _, data, _ = small_chaotic
    obs = quantize_observable("cos2pi_q", PlanckScale(32))
    with pytest.raises(DomainError):
        diagonal_elements_report(data, obs)


def _dense_correlator(op, obs, t_range):
    """f(t) by two dense products per period, the reference for the FFT route."""
    A, U = dense_observable(obs), dense(op)
    B = A.copy()
    values = []
    for t in range(t_range + 1):
        if t > 0:
            B = U @ B @ U.conj().T
        values.append(np.trace(A @ B).real / op.N)
    return np.array(values)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("label", OBSERVABLES)
@pytest.mark.parametrize("r", [0.0, 1.5])
@pytest.mark.parametrize("N", [2, 16, 64, 96, 160])
def test_fft_conjugation_matches_dense_products(variant, label, r, N):
    # 96 and 160 end on a partial block of columns
    # slow_ergodic carries r in the drift phases, the others in the kick
    scale = PlanckScale(N)
    op = build_floquet(MapFamily(variant, r=r), scale)
    obs = quantize_observable(label, scale)
    assert np.allclose(quantum_correlator(op, obs, 12),
                       _dense_correlator(op, obs, 12), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("variant", VARIANTS)
def test_momentum_site_routes_agree_to_roundoff(variant):
    # at the momentum site the conjugation route evolves F U F^-1 and
    # never transforms to the site; the eigenbasis route lifts its vectors
    scale = PlanckScale(256)
    op = build_floquet(MapFamily(variant, r=0.8), scale)
    obs = quantize_observable("cos2pi_p", scale)
    gap = np.max(np.abs(quantum_correlator(op, obs, 40)
                        - quantum_correlator_eigenbasis(diagonalize(op), obs,
                                                        40)))
    assert gap < 1e-12


@pytest.mark.parametrize("N", [160, 192])
@pytest.mark.parametrize("label", ["cos2pi_q", "cos2pi_p"])
def test_conjugation_route_is_bit_identical_across_thread_counts(N, label,
                                                               monkeypatch):
    # three column blocks at N = 160 (the last partial) and at N = 192 on
    # one, two or three workers, at the position and the momentum site
    scale = PlanckScale(N)
    op = build_floquet(MapFamily("chaotic", r=0.3), scale)
    obs = quantize_observable(label, scale)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QMAP_THREADS", threads)
        runs.append(quantum_correlator(op, obs, 20).view(np.uint64))
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_conjugation_route_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setenv("QMAP_THREADS", "4")
    scale = PlanckScale(256)
    op = build_floquet(MapFamily("chaotic"), scale)
    before = threading.active_count()
    quantum_correlator(op, quantize_observable("cos2pi_q", scale), 3)
    assert threading.active_count() == before


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_conjugation_route_rejects_a_bad_thread_count(value, monkeypatch,
                                                     small_chaotic):
    op, _, obs = small_chaotic
    monkeypatch.setenv("QMAP_THREADS", value)
    with pytest.raises(ConfigurationError, match="QMAP_THREADS"):
        quantum_correlator(op, obs, 3)


def test_quantum_correlator_checks(small_chaotic):
    op, _, obs = small_chaotic
    with pytest.raises(DomainError):
        quantum_correlator(op, quantize_observable("cos2pi_q", PlanckScale(32)), 3)
    with pytest.raises(DomainError):
        quantum_correlator(op, obs, -1)
