"""Level tracking across r, shift statistics, and scaling-law fits."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

import qmap.sweep as sweep_mod
from conftest import random_unitary
from qmap.sweep import MODEL_NAMES
from qmap import (
    DomainError,
    FitError,
    MapFamily,
    NumericalError,
    PlanckScale,
    StepTooLargeError,
    TrackingError,
    build_floquet,
    diagonalize,
    fit_shift_scaling,
    mean_spacing,
    scaling_study,
    shift_statistics,
    sweep_quantization,
    track_levels,
)


@pytest.fixture(scope="module")
def chaotic_32():
    return diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(32)))


def _end_to_end_pairing(traj):
    total = np.arange(traj.N)
    for perm in traj.permutations:
        total = perm[total]
    return total


def test_tracking_against_itself_is_identity(chaotic_32):
    perm, overlaps = track_levels(chaotic_32, chaotic_32)
    assert np.array_equal(perm, np.arange(32))
    assert np.all(overlaps >= 1.0 - 1e-12)


def test_tracking_follows_a_column_swap(chaotic_32):
    swapped = chaotic_32.vectors.copy()
    swapped[:, [3, 7]] = swapped[:, [7, 3]]
    perm, overlaps = track_levels(chaotic_32.vectors, swapped)
    expected = np.arange(32)
    expected[[3, 7]] = [7, 3]
    assert np.array_equal(perm, expected)
    assert np.all(overlaps >= 1.0 - 1e-12)


def test_largest_overlap_matching_equals_the_optimal_assignment():
    # near-identity steps of random orthonormal bases, columns shuffled;
    # small steps take the largest-overlap path, large ones the assignment
    rng = np.random.default_rng(31)
    paths = set()
    for N, step in [(16, 0.05), (64, 0.2), (64, 0.5), (128, 0.3), (32, 1.5)]:
        for _ in range(4):
            prev = random_unitary(rng, N)
            K = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            rotation = expm(0.5j * step * (K + K.conj().T) / np.sqrt(N))
            nxt = (prev @ rotation)[:, rng.permutation(N)]
            O = np.abs(prev.conj().T @ nxt) ** 2
            paths.add(bool(O.max(axis=1).min() > 0.5))
            perm, overlaps = track_levels(prev, nxt, fail_below=0.0)
            assert np.array_equal(perm, linear_sum_assignment(-O)[1])
            assert np.array_equal(overlaps, O[np.arange(N), perm])
    assert paths == {True, False}


def test_unrelated_bases_are_a_step_too_large():
    N = 16
    prev = np.eye(N, dtype=complex)
    nxt = np.fft.fft(np.eye(N)) / np.sqrt(N)  # every overlap is 1/N
    with pytest.raises(StepTooLargeError):
        track_levels(prev, nxt)
    assert issubclass(StepTooLargeError, NumericalError)


def test_fine_step_at_full_size_tracks_identically(chaotic_512):
    _, data0 = chaotic_512
    data1 = diagonalize(build_floquet(MapFamily("chaotic", r=0.1),
                                      PlanckScale(512)))
    perm, overlaps = track_levels(data0, data1)
    assert np.array_equal(perm, np.arange(512))
    assert overlaps.min() > 0.9


def test_single_point_grid_is_the_sorted_spectrum(chaotic_32):
    traj = sweep_quantization(MapFamily("chaotic"), PlanckScale(32),
                              r_grid=[0.0])
    assert np.allclose(traj.phases[:, 0], chaotic_32.phases, atol=1e-12)
    assert traj.crossings == 0
    assert traj.permutations == ()
    assert traj.N == 32


def test_pairing_is_step_size_independent():
    fam = MapFamily("chaotic")
    scale = PlanckScale(32)
    coarse = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.1)
    fine = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.05)
    assert np.array_equal(_end_to_end_pairing(coarse),
                          _end_to_end_pairing(fine))
    assert np.allclose(coarse.phases[:, -1], fine.phases[:, -1], atol=1e-9)


def test_unwrapped_steps_stay_below_pi(chaotic_ladder):
    steps = np.diff(chaotic_ladder[64].phases, axis=1)
    assert np.max(np.abs(steps)) < np.pi


def test_every_adjacent_map_is_a_permutation(chaotic_ladder):
    for perm in chaotic_ladder[64].permutations:
        assert np.array_equal(np.sort(perm), np.arange(64))


def test_chaotic_mean_square_shift_shrinks(chaotic_ladder):
    values = [shift_statistics(chaotic_ladder[N]).mean_sq_spacing_units
              for N in (64, 128, 256, 512)]
    assert np.all(np.diff(values) < 0.0)


def test_mean_shift_vanishes_before_subtraction(chaotic_ladder):
    stats = shift_statistics(chaotic_ladder[64], subtract_mean=False)
    # the perturbation is traceless, so the spectral-average shift vanishes
    assert abs(stats.mean_shift_spacing_units) < 1e-9


def test_subtraction_identity(chaotic_ladder):
    on = shift_statistics(chaotic_ladder[64], subtract_mean=True)
    off = shift_statistics(chaotic_ladder[64], subtract_mean=False)
    gap = off.mean_sq_spacing_units - on.mean_sq_spacing_units
    assert gap == pytest.approx(off.mean_shift_spacing_units ** 2, abs=1e-12)


def test_zero_window_has_zero_shift(chaotic_ladder):
    stats = shift_statistics(chaotic_ladder[64], r0=1.0, r1=1.0)
    assert stats.mean_sq_spacing_units == 0.0
    assert stats.max_abs_spacing_units == 0.0


def test_window_endpoints_must_lie_on_the_grid(chaotic_ladder):
    with pytest.raises(DomainError):
        shift_statistics(chaotic_ladder[64], r0=0.33)


def test_crossing_resolves_to_a_transposition():
    traj = sweep_quantization(MapFamily("regular"), PlanckScale(64),
                              r0=0.0, r1=0.5, delta_r=0.01)
    assert traj.min_overlap > 0.9
    assert traj.crossings >= 1
    transpositions = 0
    for perm in traj.permutations:
        moved = np.flatnonzero(perm != np.arange(64))
        if moved.size == 2:
            i, j = moved
            assert perm[i] == j and perm[j] == i
            transpositions += 1
    assert transpositions >= 1


def test_sorted_pairing_matches_tracking_without_crossings(chaotic_32):
    fam = MapFamily("chaotic")
    scale = PlanckScale(32)
    tracked = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.25)
    by_rank = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.25,
                                 sorted_pairing=True)
    assert tracked.crossings == 0
    # rank pairing can only agree while no trajectory wraps through 0/2 pi
    assert tracked.phases.min() >= 0.0 and tracked.phases.max() < 2 * np.pi
    assert by_rank.sorted_pairing is True
    assert np.allclose(tracked.phases, by_rank.phases, atol=1e-9)


def test_step_too_large_triggers_refinement(monkeypatch):
    fam = MapFamily("chaotic")
    scale = PlanckScale(16)
    plain = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25)

    real_track = sweep_mod.track_levels
    state = {"failed": False}

    def flaky(prev, nxt, **kwargs):
        if not state["failed"]:
            state["failed"] = True
            raise StepTooLargeError("injected")
        return real_track(prev, nxt, **kwargs)

    monkeypatch.setattr(sweep_mod, "track_levels", flaky)
    refined = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25)
    assert refined.refined_steps >= 1
    assert np.allclose(refined.phases, plain.phases, atol=1e-9)


def test_persistent_tracking_failure_aborts(monkeypatch):
    def hopeless(prev, nxt, **kwargs):
        raise StepTooLargeError("injected")

    monkeypatch.setattr(sweep_mod, "track_levels", hopeless)
    with pytest.raises(TrackingError):
        sweep_quantization(MapFamily("chaotic"), PlanckScale(16),
                           r0=0.0, r1=0.5, delta_r=0.25, max_refinements=2)


def test_grid_validation():
    fam = MapFamily("chaotic")
    scale = PlanckScale(16)
    with pytest.raises(DomainError):
        sweep_quantization(fam, scale, r_grid=[1.0, 0.5])
    with pytest.raises(DomainError):
        sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=-0.1)
    with pytest.raises(DomainError):
        sweep_quantization(fam, scale, r0=1.0, r1=0.5)
    with pytest.raises(DomainError):
        sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.3)


def test_power_law_data_selects_power_law():
    N = np.array([64, 128, 256, 512], dtype=float)
    models, winner = fit_shift_scaling(N, 0.1 / N)
    assert winner == "power_law"
    assert models["power_law"].params["exponent"] == pytest.approx(1.0, abs=1e-9)
    assert models["power_law"].params["prefactor"] == pytest.approx(0.1, rel=1e-9)


def test_flat_data_selects_constant():
    N = np.array([64, 128, 256, 512], dtype=float)
    models, winner = fit_shift_scaling(N, np.full(4, 0.3))
    # the power law fits a flat line exactly too; the small-sample
    # information criterion must still prefer the one-parameter model
    assert winner == "constant"
    assert models["constant"].params["value"] == pytest.approx(0.3, rel=1e-12)


def test_inverse_square_log_data_selects_log_model():
    N = np.array([64, 128, 256, 512], dtype=float)
    y = 1.0 / (2.0 + 0.5 * np.log(N)) ** 2
    models, winner = fit_shift_scaling(N, y)
    assert winner == "log_model"
    assert models["log_model"].params["alpha"] == pytest.approx(2.0, abs=1e-6)
    assert models["log_model"].params["beta"] == pytest.approx(0.5, abs=1e-6)
    assert models["log_model"].rss_log < 1e-12


def test_all_candidate_models_reported():
    N = np.array([64, 128, 256, 512], dtype=float)
    models, _ = fit_shift_scaling(N, 0.1 / N ** 0.7)
    assert set(models) == set(MODEL_NAMES)
    for fit in models.values():
        assert fit.rss_log >= 0.0
        assert np.isfinite(fit.aic)
        assert fit.predicted.shape == (4,)


def test_fit_preconditions():
    with pytest.raises(DomainError):
        fit_shift_scaling([64, 128], [0.1, 0.2])
    with pytest.raises(DomainError):
        fit_shift_scaling([64, 128, 256], [0.1, 0.2])
    with pytest.raises(FitError):
        fit_shift_scaling([64, 128, 256, 512], [0.1, 0.2, -0.1, 0.3])


def test_scaling_study_on_a_small_ladder():
    fam = MapFamily("chaotic")
    ladder = (8, 12, 16, 20)
    trajs = {N: sweep_quantization(fam, PlanckScale(N), r0=0.0, r1=1.0,
                                   delta_r=0.5) for N in ladder}
    study = scaling_study(fam, ladder, r0=0.0, r1=1.0, trajectories=trajs)
    assert study.d == 2
    assert tuple(int(N) for N in study.N_values) == ladder
    assert np.allclose(study.h_values, 1.0 / np.array(ladder))
    assert study.exponent == study.models["power_law"].params["exponent"]
    assert study.model in MODEL_NAMES
    assert study.residual_sum == study.models[study.model].rss_log
    expected = [shift_statistics(trajs[N], r0=0.0, r1=1.0)
                .mean_sq_spacing_units for N in ladder]
    assert np.allclose(study.mean_sq, expected, atol=1e-15)


def test_scaling_study_needs_four_sizes():
    with pytest.raises(DomainError):
        scaling_study(MapFamily("chaotic"), [16, 32, 64])


def test_displacements_are_in_radians(chaotic_ladder):
    traj = chaotic_ladder[64]
    d = traj.displacements()
    stats = shift_statistics(traj, subtract_mean=False)
    assert stats.mean_sq_spacing_units == pytest.approx(
        float(np.mean((d / mean_spacing(64)) ** 2)), rel=1e-12)
