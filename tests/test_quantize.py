"""Floquet operator construction and observable quantization."""

import numpy as np
import pytest

import qmap.model
from qmap import (
    ConfigurationError,
    MapFamily,
    PlanckScale,
    build_floquet,
    free_propagator,
    kick_propagator,
    quantize_observable,
)
from qmap.quantize import _circulant_from_momentum_diagonal


def test_two_level_free_propagator_matrix(monkeypatch):
    # V identically zero leaves U = F^-1 D_T F with D_T = diag(1, e^{-i pi/2})
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    op = build_floquet(fam, PlanckScale(2))
    expected = 0.5 * np.array([[1.0 - 1.0j, 1.0 + 1.0j],
                               [1.0 + 1.0j, 1.0 - 1.0j]])
    assert np.allclose(op.U, expected, atol=1e-12)


def test_two_level_sawtooth_kick_phases():
    diag = kick_propagator(MapFamily("slow_ergodic"), PlanckScale(2))
    # V = 0.3 |q - 1/2| at q in {0, 1/2}: phases -2 pi N V = {-0.6 pi, 0}
    assert diag[0] == pytest.approx(np.exp(-0.6j * np.pi), abs=1e-12)
    assert diag[1] == pytest.approx(1.0, abs=1e-12)


def test_free_propagator_phases():
    diag = free_propagator(MapFamily("chaotic"), PlanckScale(4))
    p = np.arange(4) / 4.0
    assert np.allclose(diag, np.exp(-2j * np.pi * 4 * p * p / 2.0), atol=1e-12)


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_stored_factors_rebuild_the_unitary(variant):
    op = build_floquet(MapFamily(variant, r=1.5), PlanckScale(32))
    rebuilt = (_circulant_from_momentum_diagonal(op.drift_phases)
               * op.kick_phases[None, :])
    assert np.array_equal(rebuilt, op.U)
    for field in (op.U, op.kick_phases, op.drift_phases):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0


def test_construction_certificate():
    op = build_floquet(MapFamily("chaotic", r=1.7), PlanckScale(64))
    assert op.construction_certificate < 1e-12
    assert op.N == 64
    assert op.family.variant == "chaotic"


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_odd_dimension_rejected(variant):
    with pytest.raises(ConfigurationError):
        build_floquet(MapFamily(variant), PlanckScale(63))


def test_changing_r_composes_a_diagonal_kick():
    # for position-site variants U(r + dr) = U(r) diag(e^{-2 pi i N dr h^2 cos})
    N, r, dr = 16, 0.7, 0.3
    scale = PlanckScale(N)
    fam = MapFamily("chaotic")
    U_r = build_floquet(MapFamily("chaotic", r=r), scale).U
    U_rdr = build_floquet(MapFamily("chaotic", r=r + dr), scale).U
    q = np.arange(N) / N
    extra = np.exp(-2j * np.pi * N * dr * scale.h ** 2 * np.cos(2 * np.pi * q))
    assert np.allclose(U_rdr, U_r * extra[None, :], atol=1e-13)


def test_free_hamiltonian_commutes_with_momentum_observable(monkeypatch):
    # V identically zero: U and cos2pi_p are both diagonal in momentum
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    scale = PlanckScale(16)
    U = build_floquet(fam, scale).U
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
