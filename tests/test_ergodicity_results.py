"""Each ergodicity diagnostic returns one complete result of its own."""

import dataclasses

import numpy as np
import pytest

from conftest import dense, dense_observable
from qmap import (
    DomainError,
    ErgodicityReport,
    FCurveReport,
    MapFamily,
    PlanckScale,
    build_floquet,
    diagonal_elements_report,
    diagonalize,
    quantize_observable,
    quantum_correlator,
    quantum_correlator_eigenbasis,
    quantum_F_curve,
)


@pytest.fixture(scope="module")
def chaotic_32():
    scale = PlanckScale(32)
    op = build_floquet(MapFamily("chaotic", r=0.7), scale)
    return op, diagonalize(op), quantize_observable("cos2pi_p", scale)


@pytest.mark.parametrize("cls", [ErgodicityReport, FCurveReport])
def test_every_field_is_required(cls):
    for field in dataclasses.fields(cls):
        assert field.default is dataclasses.MISSING, field.name


def test_each_diagnostic_returns_its_own_type(chaotic_32):
    _, data, obs = chaotic_32
    rep = diagonal_elements_report(data, obs)
    curve = quantum_F_curve(data, obs, [0.0, 2.0])
    assert type(rep) is ErgodicityReport
    assert type(curve) is FCurveReport
    assert rep.N == curve.N == 32
    assert curve.F_infinity == rep.F_infinity


def test_conjugation_route_matches_the_direct_trace(chaotic_32):
    op, _, obs = chaotic_32
    A, U = dense_observable(obs), dense(op)
    B = A.copy()
    direct = []
    for t in range(5):
        if t > 0:
            B = U @ B @ U.conj().T
        direct.append(np.trace(A @ B).real / op.N)
    assert np.allclose(quantum_correlator(op, obs, 4), direct,
                       rtol=0.0, atol=1e-14)


def test_argument_checks_share_their_messages(chaotic_32):
    op, data, _ = chaotic_32
    wrong = quantize_observable("cos2pi_q", PlanckScale(16))
    with pytest.raises(DomainError, match="16 != spectrum dimension 32"):
        diagonal_elements_report(data, wrong)
    with pytest.raises(DomainError, match="16 != spectrum dimension 32"):
        quantum_F_curve(data, wrong, [1.0])
    with pytest.raises(DomainError, match="16 != operator dimension 32"):
        quantum_correlator(op, wrong, 2)
    obs = quantize_observable("cos2pi_q", PlanckScale(32))
    for route, source in ((quantum_correlator, op),
                          (quantum_correlator_eigenbasis, data)):
        with pytest.raises(DomainError, match="t_range must be >= 0, got -1"):
            route(source, obs, -1)
