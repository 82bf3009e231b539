"""Floquet operator construction and observable quantization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmap.model
from conftest import package_imports
from qmap import (
    VARIANTS,
    ConfigurationError,
    MapFamily,
    PlanckScale,
    build_floquet,
    free_propagator,
    kick_propagator,
    quantize_observable,
)
from qmap.quantize import _circulant_from_momentum_diagonal, _unitarity_defect

def _operand(rng, shape, is_complex, layout):
    """Random array of the shape: row-major, column-major or a strided view."""
    rows, cols = shape
    x = rng.standard_normal((rows, 2 * cols))
    if is_complex:
        x = x + 1j * rng.standard_normal((rows, 2 * cols))
    if layout == "strided":
        return x[:, ::2]
    return np.asarray(x[:, :cols], order=layout)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_matmul_propagates_nan(layout):
    # the Gram product U*U of the unitarity defect is numpy's matmul (@)
    U = np.array(build_floquet(MapFamily("chaotic"), PlanckScale(16)).dense(),
                 order=layout)
    U[3, 5] = np.nan
    assert np.isnan(_unitarity_defect(U))


def test_only_the_schur_fallback_imports_scipy_linalg():
    # every product and LAPACK call runs on numpy's OpenBLAS; scipy.linalg,
    # .blas and .lapack with it, would load scipy's own OpenBLAS beside it
    found = package_imports("scipy.linalg")
    assert [entry[:2] for entry in found] == [("spectral.py", "_schur")], \
        found


def test_two_level_free_propagator_matrix(monkeypatch):
    # V identically zero leaves U = F^-1 D_T F with D_T = diag(1, e^{-i pi/2})
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    op = build_floquet(fam, PlanckScale(2))
    expected = 0.5 * np.array([[1.0 - 1.0j, 1.0 + 1.0j],
                               [1.0 + 1.0j, 1.0 - 1.0j]])
    assert np.allclose(op.dense(), expected, atol=1e-12)


def test_two_level_sawtooth_kick_phases():
    diag = kick_propagator(MapFamily("slow_ergodic"), PlanckScale(2))
    # V = 0.3 |q - 1/2| at q in {0, 1/2}: phases -2 pi N V = {-0.6 pi, 0}
    assert diag[0] == pytest.approx(np.exp(-0.6j * np.pi), abs=1e-12)
    assert diag[1] == pytest.approx(1.0, abs=1e-12)


def test_free_propagator_phases():
    diag = free_propagator(MapFamily("chaotic"), PlanckScale(4))
    p = np.arange(4) / 4.0
    assert np.allclose(diag, np.exp(-2j * np.pi * 4 * p * p / 2.0), atol=1e-12)
    with pytest.raises(ConfigurationError, match="N must be even"):
        free_propagator(MapFamily("chaotic"), PlanckScale(5))


@pytest.mark.parametrize("N", [512, 1024])
def test_free_propagator_phases_carry_folded_grid_roundoff(N):
    # T = p^2 / 2: the phase -2 pi N T(k / N) = -pi k^2 / N, reduced
    # exactly mod 2 pi in integers.  The folded grid's argument stays below
    # pi N / 8 and squaring doubles its rounding; the plain grid's
    # argument reaches pi N.
    k = np.arange(N)
    exact = np.exp(-1j * np.pi * ((k * k) % (2 * N)) / N)
    diag = free_propagator(MapFamily("chaotic"), PlanckScale(N))
    assert np.max(np.abs(diag - exact)) < np.pi * N * np.finfo(float).eps / 4


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_stored_factors_rebuild_the_unitary(variant):
    # the dense U by the modular index gather of the first column, entry
    # (j, k) = ifft(D_T)[j - k mod N] times D_V[k]: the strided circulant
    # copies the same entries bit for bit
    N = 32
    op = build_floquet(MapFamily(variant, r=1.5), PlanckScale(N))
    first_column = np.fft.ifft(op.drift_phases)
    gathered = first_column[(np.arange(N)[:, None] - np.arange(N)) % N]
    assert np.array_equal(op.dense(), gathered * op.kick_phases[None, :])
    assert op.dense().flags.c_contiguous
    for field in (op.kick_phases, op.drift_phases):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0


@pytest.mark.parametrize("N", [1, 2, 3, 8, 33])
def test_circulant_copies_the_modular_gather(N):
    diag = np.exp(1j * np.random.default_rng(N).uniform(0.0, 6.0, N))
    first_column = np.fft.ifft(diag)
    gathered = first_column[(np.arange(N)[:, None] - np.arange(N)) % N]
    assert np.array_equal(_circulant_from_momentum_diagonal(diag), gathered)


def test_construction_certificate():
    op = build_floquet(MapFamily("chaotic", r=1.7), PlanckScale(64))
    assert op.construction_certificate < 1e-12
    # it measures the factors: U is unitary exactly when both lie on the
    # unit circle
    assert op.construction_certificate == np.max(np.abs(np.abs(
        np.concatenate([op.kick_phases, op.drift_phases])) - 1.0))
    assert _unitarity_defect(op.dense()) < 1e-12
    assert op.N == 64
    assert op.family.variant == "chaotic"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(VARIANTS), half_N=st.integers(2, 64),
       r=st.floats(0.0, 3.0), columns=st.integers(1, 9),
       layout=st.sampled_from(["C", "F"]), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_product_matches_the_dense_unitary(variant, half_N, r,
                                                    columns, layout, seed):
    op = build_floquet(MapFamily(variant, r=r), PlanckScale(2 * half_N))
    V = _operand(np.random.default_rng(seed), (op.N, columns), True, layout)
    V /= np.linalg.norm(V, axis=0)
    assert np.max(np.abs(op.apply(V) - op.dense() @ V)) < 1e-14
    # real columns too: the real route's bases are real
    assert np.max(np.abs(op.apply(V.real) - op.dense() @ V.real)) < 1e-14


def test_build_floquet_allocates_no_square_array():
    N = 512
    family, scale = MapFamily("regular", r=0.7), PlanckScale(N)
    build_floquet(family, scale)
    tracemalloc.start()
    try:
        build_floquet(family, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few length-N vectors; one complex N x N array is 4 MB here
    assert peak < 64 * 16 * N


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_odd_dimension_rejected(variant):
    with pytest.raises(ConfigurationError):
        build_floquet(MapFamily(variant), PlanckScale(63))


def test_changing_r_composes_a_diagonal_kick():
    # for position-site variants U(r + dr) = U(r) diag(e^{-2 pi i N dr h^2 cos})
    N, r, dr = 16, 0.7, 0.3
    scale = PlanckScale(N)
    fam = MapFamily("chaotic")
    U_r = build_floquet(MapFamily("chaotic", r=r), scale).dense()
    U_rdr = build_floquet(MapFamily("chaotic", r=r + dr), scale).dense()
    q = np.arange(N) / N
    extra = np.exp(-2j * np.pi * N * dr * scale.h ** 2 * np.cos(2 * np.pi * q))
    assert np.allclose(U_rdr, U_r * extra[None, :], atol=1e-13)


def test_free_hamiltonian_commutes_with_momentum_observable(monkeypatch):
    # V identically zero: U and cos2pi_p are both diagonal in momentum
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    scale = PlanckScale(16)
    U = build_floquet(fam, scale).dense()
    B = quantize_observable("cos2pi_p", scale).matrix
    assert np.max(np.abs(U @ B - B @ U)) < 1e-12


def test_position_observable_on_the_grid():
    obs = quantize_observable("cos2pi_q", PlanckScale(4))
    assert np.allclose(obs.matrix, np.diag([1.0, 0.0, -1.0, 0.0]), atol=1e-15)
    assert obs.basis == "position"
    assert obs.classical_label == "cos2pi_q"


@pytest.mark.parametrize("N", [2, 3, 5, 8, 17])
def test_cosine_observables_are_traceless(N):
    scale = PlanckScale(N)
    for label in ("cos2pi_q", "cos2pi_p"):
        tr = np.trace(quantize_observable(label, scale).matrix)
        assert abs(tr) < 1e-13 * N


def test_momentum_observable_spectrum_matches_position():
    scale = PlanckScale(16)
    A = quantize_observable("cos2pi_q", scale).matrix
    B = quantize_observable("cos2pi_p", scale).matrix
    assert np.allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B), atol=1e-12)


def test_observables_are_exactly_hermitian():
    for label in ("cos2pi_q", "cos2pi_p", "identity"):
        M = quantize_observable(label, PlanckScale(12)).matrix
        assert np.array_equal(M, M.conj().T)


def test_identity_observable():
    obs = quantize_observable("identity", PlanckScale(6))
    assert np.array_equal(obs.matrix, np.eye(6))
