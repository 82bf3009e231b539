"""Level tracking across r, shift statistics, and scaling-law fits."""

import contextlib
import dataclasses
import math
import os
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares, linear_sum_assignment

import qmap.quantize as quantize_mod
import qmap.spectral as spectral_mod
import qmap.sweep as sweep_mod
from conftest import (LADDER, SHIFT_WINDOW, all_pairs_crossings, fit_window,
                      random_unitary)
from qmap._threads import blas_threads, set_blas_threads
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
    diagonal_elements_report,
    diagonalize,
    fit_shift_scaling,
    level_velocities,
    mean_spacing,
    quantize_observable,
    scaling_study,
    shift_statistics,
    sweep_quantization,
    track_levels,
)


@pytest.fixture(scope="module")
def chaotic_32():
    return diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(32)))


def _rank_permutations(traj):
    """perms[g] maps the phase-sorted rank of each trajectory at grid point
    g to its rank at g + 1 (ranks use the raw [0, 2 pi) cut)."""
    ranks = np.argsort(np.argsort(np.mod(traj.phases, 2.0 * np.pi), axis=0),
                       axis=0)
    return [ranks[np.argsort(ranks[:, g]), g + 1]
            for g in range(ranks.shape[1] - 1)]


def _end_to_end_pairing(traj):
    total = np.arange(traj.N)
    for perm in _rank_permutations(traj):
        total = perm[total]
    return total


def test_tracking_against_itself_is_identity(chaotic_32):
    perm, overlaps = track_levels(chaotic_32, chaotic_32)
    assert np.array_equal(perm, np.arange(32))
    assert np.all(overlaps >= 1.0 - 1e-12)


def test_tracking_follows_a_column_swap(chaotic_32):
    swapped = chaotic_32.real_vectors.copy()
    swapped[:, [3, 7]] = swapped[:, [7, 3]]
    perm, overlaps = track_levels(
        chaotic_32, dataclasses.replace(chaotic_32, real_vectors=swapped))
    expected = np.arange(32)
    expected[[3, 7]] = [7, 3]
    assert np.array_equal(perm, expected)
    assert np.all(overlaps >= 1.0 - 1e-12)


def test_largest_overlap_matching_equals_the_optimal_assignment():
    # near-identity steps of random orthonormal bases, columns shuffled;
    # where every maximum exceeds 1/2 the largest overlaps are scipy's
    # optimal assignment, and otherwise the step is refused
    rng = np.random.default_rng(31)
    paths = set()
    for N, step in [(16, 0.05), (64, 0.2), (64, 0.5), (128, 0.3), (32, 1.5)]:
        for _ in range(4):
            prev = random_unitary(rng, N)
            K = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            rotation = expm(0.5j * step * (K + K.conj().T) / np.sqrt(N))
            nxt = (prev @ rotation)[:, rng.permutation(N)]
            O = np.abs(prev.conj().T @ nxt) ** 2
            by_maxima = bool(O.max(axis=1).min() > 0.5)
            paths.add(by_maxima)
            if by_maxima:
                perm, overlaps = track_levels(prev, nxt)
                assert np.array_equal(perm, linear_sum_assignment(-O)[1])
                assert np.array_equal(overlaps, O[np.arange(N), perm])
            else:
                with pytest.raises(StepTooLargeError, match="not above 1/2"):
                    track_levels(prev, nxt)
    assert paths == {True, False}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(half_N=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_tracking_inverts_a_column_permutation_in_any_gauge(half_N, seed, data):
    N = 2 * half_N
    V = random_unitary(np.random.default_rng(seed), N)
    pi = np.array(data.draw(st.permutations(range(N)), label="pi"))
    theta = np.array(data.draw(
        st.lists(st.floats(0.0, 2.0 * np.pi), min_size=N, max_size=N),
        label="theta"))
    perm, overlaps = track_levels(V, V[:, pi] * np.exp(1j * theta)[None, :])
    assert np.array_equal(perm, np.argsort(pi))
    assert np.max(np.abs(overlaps - 1.0)) < 1e-12


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


def recording(data, products):
    """data with its basis viewed as an array whose @ logs the dtypes of
    (left, right) in products."""

    class Recording(np.ndarray):
        def __matmul__(self, other):
            products.append((self.dtype, other.dtype))
            return np.asarray(self) @ np.asarray(other)

    return dataclasses.replace(
        data, real_vectors=data.real_vectors.view(Recording))


@pytest.mark.parametrize("variant", ["chaotic", "regular"])
def test_real_overlaps_equal_the_complex_ones(variant):
    # V = C^(1/2) R with one half drift at every r of a position-site
    # variant, so the overlaps come from the real bases alone
    products = []
    scale = PlanckScale(128)
    a = diagonalize(build_floquet(MapFamily(variant, r=0.4), scale))
    b = diagonalize(build_floquet(MapFamily(variant, r=0.9), scale))
    O = sweep_mod._overlaps(recording(a, products), recording(b, products))
    assert products == [(np.float64, np.float64)]
    complex_overlaps = np.abs(a.eigenvectors().conj().T @ b.eigenvectors())
    assert np.max(np.abs(O - complex_overlaps ** 2)) < 1e-13


def test_a_regular_sweep_forms_no_complex_basis(monkeypatch):
    # the overlaps of a position-site variant take R alone, so beyond U_s,
    # one N-wide FFT pair per pass, every half drift of a sweep runs on at
    # most one column block: the run products' and the certificates' lifts
    # of each pass, and an ends_only sweep's level velocities
    widths, passes = [], []
    real_half_drift = spectral_mod._half_drift_columns
    real_pass = spectral_mod._commuting_pair_basis

    def half_drift(half, M):
        widths.append(M.shape[1])
        return real_half_drift(half, M)

    def one_pass(op, imaginary, **kwargs):
        passes.append(imaginary)
        return real_pass(op, imaginary, **kwargs)

    monkeypatch.setattr(spectral_mod, "_half_drift_columns", half_drift)
    monkeypatch.setattr(spectral_mod, "_commuting_pair_basis", one_pass)
    N, block = 160, spectral_mod._COLUMN_BLOCK
    sweep_quantization(MapFamily("regular"), PlanckScale(N), r0=0.0, r1=1.0,
                       delta_r=0.1)
    assert len(passes) >= 11
    assert widths.count(N) == len(passes)
    assert max(width for width in widths if width != N) == block
    assert len(widths) >= len(passes) * (1 + math.ceil(N / block))
    widths.clear()
    sweep_quantization(MapFamily("regular"), PlanckScale(N), r0=0.0, r1=1.0,
                       delta_r=0.1, ends_only=True)
    assert max(width for width in widths if width != N) == block


def test_slow_ergodic_steps_take_the_complex_overlap():
    products = []
    scale = PlanckScale(32)
    # slow_ergodic carries r in the half drift, so C^(1/2) differs by r
    slow = [diagonalize(build_floquet(MapFamily("slow_ergodic", r=r), scale))
            for r in (0.4, 0.45)]
    perm, overlaps = track_levels(*(recording(data, products)
                                    for data in slow))
    assert products == [(np.complex128, np.complex128)]
    assert np.array_equal(perm, np.arange(32)) and overlaps.min() > 0.9


def test_single_point_grid_is_the_sorted_spectrum(chaotic_32):
    traj = sweep_quantization(MapFamily("chaotic"), PlanckScale(32),
                              r_grid=[0.0])
    assert np.allclose(traj.phases[:, 0], chaotic_32.phases, atol=1e-12)
    assert traj.crossings == 0
    assert _rank_permutations(traj) == []
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
    for perm in _rank_permutations(chaotic_ladder[64]):
        assert np.array_equal(np.sort(perm), np.arange(64))


def test_chaotic_mean_square_shift_shrinks(chaotic_ladder):
    values = [shift_statistics(chaotic_ladder[N]).mean_sq_spacing_units
              for N in (64, 128, 256, 512)]
    assert np.all(np.diff(values) < 0.0)


def test_mean_shift_vanishes_before_subtraction(chaotic_ladder):
    traj = chaotic_ladder[64]
    # the perturbation is traceless, so the spectral-average shift vanishes
    assert abs(np.mean(traj.displacements()) / mean_spacing(64)) < 1e-9


def test_subtraction_identity(chaotic_ladder):
    on = shift_statistics(chaotic_ladder[64], subtract_mean=True)
    off = shift_statistics(chaotic_ladder[64], subtract_mean=False)
    gap = off.mean_sq_spacing_units - on.mean_sq_spacing_units
    mean_shift = np.mean(chaotic_ladder[64].displacements()) / mean_spacing(64)
    assert gap == pytest.approx(mean_shift ** 2, abs=1e-12)


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
    for perm in _rank_permutations(traj):
        moved = np.flatnonzero(perm != np.arange(64))
        if moved.size == 2:
            i, j = moved
            assert perm[i] == j and perm[j] == i
            transpositions += 1
    assert transpositions >= 1


@st.composite
def phase_walks(draw):
    """(L, G) unwrapped phases of L levels on G grid points: random walks
    whose steps run from 1e-3 to past pi / 4 (where _count_crossings tests
    all pairs), started anywhere or bunched at the 0 / 2 pi seam, rounded
    to a grain for exact ties, and offset by whole turns."""
    L = draw(st.integers(2, 40))
    G = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = 10.0 ** draw(st.floats(-3.0, 0.3))
    start = (rng.uniform(-0.2, 0.2, L) if draw(st.booleans())
             else rng.uniform(0.0, 2.0 * np.pi, L))
    moves = rng.normal(0.0, step, (L, G - 1))
    walk = start[:, None] + np.cumsum(
        np.column_stack((np.zeros(L), moves)), axis=1)
    grain = draw(st.sampled_from([0.0, 1.0 / 64, np.pi / 4]))
    if grain:
        walk = np.round(walk / grain) * grain
    turns = draw(st.integers(0, 1000))
    # one offset for all keeps the ties exact; one per level breaks them
    shape = (L, 1) if draw(st.booleans()) else (1, 1)
    return walk + 2.0 * np.pi * rng.integers(-turns, turns + 1, shape)


@given(phase_walks())
@settings(max_examples=300, deadline=None)
def test_windowed_crossings_match_all_pairs(phases):
    assert sweep_mod._count_crossings(phases) == all_pairs_crossings(phases)


@given(phase_walks(), st.floats(0.0, 1.5))
@settings(max_examples=100, deadline=None)
def test_close_pairs_are_the_pairs_within_reach(phases, reach):
    # every pair within reach is listed once, as i < j, and every listed
    # pair is within reach, up to the rounding of the window's sort
    i, j = sweep_mod._close_pairs(phases[:, 0], reach)
    listed = set(zip(i.tolist(), j.tolist()))
    assert len(listed) == i.size and np.all(i < j)
    L = phases.shape[0]
    a, b = np.triu_indices(L, k=1)
    apart = np.abs(spectral_mod.wrap_phase(phases[a, 0] - phases[b, 0]))
    within = set(zip(a[apart <= reach - 1e-9].tolist(),
                     b[apart <= reach - 1e-9].tolist()))
    assert within <= listed
    far = set(zip(a[apart > reach + 1e-9].tolist(),
                  b[apart > reach + 1e-9].tolist()))
    assert not far & listed


def test_windowed_crossings_match_all_pairs_on_the_ladder(regular_ladder):
    for N in LADDER:
        phases = regular_ladder[N].phases
        assert sweep_mod._count_crossings(phases) \
            == all_pairs_crossings(phases) > 0


def test_sorted_pairing_matches_tracking_without_crossings(chaotic_32):
    fam = MapFamily("chaotic")
    scale = PlanckScale(32)
    tracked = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.25)
    by_rank = sweep_quantization(fam, scale, r0=0.0, r1=1.0, delta_r=0.25,
                                 sorted_pairing=True)
    assert tracked.crossings == 0
    # rank pairing can only agree while no trajectory wraps through 0/2 pi
    assert tracked.phases.min() >= 0.0 and tracked.phases.max() < 2 * np.pi
    assert np.allclose(tracked.phases, by_rank.phases, atol=1e-9)


def fail_first_steps(monkeypatch, count):
    """track_levels raises StepTooLargeError on its first count calls."""
    real_track = sweep_mod.track_levels
    failures = {"left": count}

    def flaky(prev, nxt, **kwargs):
        if failures["left"]:
            failures["left"] -= 1
            raise StepTooLargeError("injected")
        return real_track(prev, nxt, **kwargs)

    monkeypatch.setattr(sweep_mod, "track_levels", flaky)


def test_step_too_large_triggers_refinement(monkeypatch):
    fam = MapFamily("chaotic")
    scale = PlanckScale(16)
    plain = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25)

    fail_first_steps(monkeypatch, 1)
    refined = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25)
    assert refined.refined_steps >= 1
    assert np.allclose(refined.phases, plain.phases, atol=1e-9)


def test_persistent_tracking_failure_aborts(monkeypatch):
    def hopeless(prev, nxt, **kwargs):
        raise StepTooLargeError("injected")

    monkeypatch.setattr(sweep_mod, "track_levels", hopeless)
    with pytest.raises(TrackingError):
        sweep_quantization(MapFamily("chaotic"), PlanckScale(16),
                           r0=0.0, r1=0.5, delta_r=0.25)


def test_nested_bisection_visits_points_in_order(monkeypatch):
    # two failures in a row: [0, 0.25] is halved, then [0, 0.125] too; the
    # deeper halves finish before the shallower ones resume, and each
    # point is diagonalized once
    visited = []
    real_diagonalize = sweep_mod.diagonalize

    def recording(op, *args):
        visited.append(op.family.r)
        return real_diagonalize(op, *args)

    monkeypatch.setattr(sweep_mod, "diagonalize", recording)
    fail_first_steps(monkeypatch, 2)
    traj = sweep_quantization(MapFamily("chaotic"), PlanckScale(16),
                              r0=0.0, r1=0.5, delta_r=0.25)
    assert visited == [0.0, 0.25, 0.125, 0.0625, 0.5]
    assert traj.refined_steps == 2
    assert np.array_equal(traj.r_grid, [0.0, 0.25, 0.5])


@pytest.fixture
def head_start_on(monkeypatch):
    """Two workers and numpy's BLAS pool at one thread, the condition under
    which a full-grid sweep starts each next point's eigh on a background
    thread; the pool's size is put back afterwards."""
    found = blas_threads()
    if found is None:
        pytest.skip("numpy's BLAS pool cannot be resized here")
    monkeypatch.setenv("QMAP_THREADS", "2")
    set_blas_threads(1)
    yield
    set_blas_threads(found)


def record_layer_calls(monkeypatch):
    """Wrap every public function of qmap's layer modules wherever
    quantize, spectral and sweep bind it, as bench/traced.py wraps them,
    and log (name, thread ident, args) of each call."""
    calls = []
    for module in (quantize_mod, spectral_mod, sweep_mod):
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType)
                    and value.__module__.startswith("qmap.")
                    and not attr.startswith("_")):
                def logged(*args, _fn=value, _name=attr, **kwargs):
                    calls.append((_name, threading.get_ident(), args))
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, logged)
    return calls


def record_eigh_threads(monkeypatch, N):
    """Log the thread ident of each eigh of a whole N x N part."""
    threads = []
    real = spectral_mod.eigh

    def spy(a, *args, **kwargs):
        if a.shape[0] == N:
            threads.append(threading.get_ident())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spectral_mod, "eigh", spy)
    return threads


def record_threads(monkeypatch, owner, attr):
    """Log the thread of each call of owner.attr."""
    threads = []
    real = getattr(owner, attr)

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return threads


@contextlib.contextmanager
def qmap_calls_on_new_threads():
    """Log the name of every qmap function called on a thread started in
    the block (threading.setprofile reaches only those)."""
    root = os.path.dirname(spectral_mod.__file__) + os.sep
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            names.append(frame.f_code.co_name)

    threading.setprofile(profile)
    try:
        yield names
    finally:
        threading.setprofile(None)


@pytest.mark.parametrize("variant, sorted_pairing, failures, ends_only", [
    ("chaotic", False, 0, False), ("regular", False, 0, False),
    ("slow_ergodic", False, 0, False), ("chaotic", False, 2, False),
    ("regular", True, 0, False), ("chaotic", False, 0, True),
    ("regular", False, 0, True), ("chaotic", False, 2, True)],
    ids=["chaotic", "regular", "slow_ergodic", "chaotic-bisected",
         "regular-sorted", "chaotic-ends_only", "regular-ends_only",
         "chaotic-bisected-ends_only"])
def test_the_head_start_changes_no_bit(monkeypatch, head_start_on, variant,
                                       sorted_pairing, failures, ends_only):
    # the same sweep with each next point's eigh on a background thread and
    # with QMAP_THREADS=1, which starts no thread: the same bits, the points
    # diagonalized in the same order, one operator built per point, and
    # every public layer function called on this thread alone; off it, on
    # the named head-start thread, one eigh per lattice point and no other
    # qmap code, so U_s and its FFTs are formed on this thread.  An
    # ends_only sweep starts no thread either way: every eigh runs here
    N = 16
    runs = []
    for threads in ("2", "1"):
        with monkeypatch.context() as patch, \
                qmap_calls_on_new_threads() as background:
            patch.setenv("QMAP_THREADS", threads)
            calls = record_layer_calls(patch)
            eigh_threads = record_eigh_threads(patch, N)
            every_eigh = record_threads(patch, spectral_mod, "eigh")
            forming = [record_threads(patch, owner, attr)
                       for owner, attr in ((spectral_mod, "_symmetric_form"),
                                           (np.fft, "fft"), (np.fft, "ifft"))]
            fail_first_steps(patch, failures)
            traj = sweep_quantization(MapFamily(variant), PlanckScale(N),
                                      r0=0.0, r1=0.5,
                                      sorted_pairing=sorted_pairing,
                                      ends_only=ends_only)
        started = threads == "2" and not ends_only
        off_main = [t for t in every_eigh if t is not threading.main_thread()]
        assert all(t.name.startswith("qmap-head-start") for t in off_main)
        assert len(off_main) == (traj.r_grid.size if started else 0)
        assert background == ["_eigh"] * len(off_main)
        assert all(forming) and all(t is threading.main_thread()
                                    for spied in forming for t in spied)
        runs.append((traj, calls, eigh_threads))
    main = threading.get_ident()
    order = [[args[0].family.r for name, _, args in calls
              if name == "diagonalize"]
             for _, calls, _ in runs]
    for (traj, calls, eigh_threads), diagonalized in zip(runs, order):
        assert {ident for _, ident, _ in calls} == {main}
        assert sum(name == "build_floquet" for name, _, _ in calls) \
            == len(diagonalized)
    (ahead, _, ahead_eigh), (inline, _, inline_eigh) = runs
    assert set(inline_eigh) == {main}
    assert ahead.phases.tobytes() == inline.phases.tobytes()
    assert ahead.min_overlap == inline.min_overlap
    assert order[0] == order[1]
    if ends_only:
        assert set(ahead_eigh) == {main}
        assert ahead.start_velocities.tobytes() \
            == inline.start_velocities.tobytes()
        assert ahead.refined_steps == inline.refined_steps == 0
        assert len(order[0]) > 2 if failures else len(order[0]) >= 2
        return
    # the lattice points' eigh ran on the background thread, the
    # refinement midpoints' on this one
    assert len(ahead_eigh) - ahead_eigh.count(main) == ahead.r_grid.size
    assert ahead_eigh.count(main) == failures
    assert ahead.refined_steps == inline.refined_steps == failures
    assert len(order[0]) == ahead.r_grid.size + failures


def test_an_error_of_the_background_eigh_reaches_the_caller(
        monkeypatch, head_start_on):
    # the eigh of the third lattice point, on the background thread,
    # raises: the sweep re-raises that very exception, and no thread is
    # left behind
    injected = NumericalError("injected into the third point's eigh")
    real = spectral_mod.eigh
    main = threading.get_ident()
    background = []

    def failing(a, *args, **kwargs):
        if threading.get_ident() != main:
            background.append(a)
            if len(background) == 3:
                raise injected
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spectral_mod, "eigh", failing)
    before = threading.active_count()
    with pytest.raises(NumericalError) as raised:
        sweep_quantization(MapFamily("chaotic"), PlanckScale(16), r0=0.0,
                           r1=0.5)
    assert raised.value is injected
    assert threading.active_count() == before


def test_a_tracking_error_waits_for_the_background_thread(
        monkeypatch, head_start_on):
    # tracking fails on the first step while the next point's eigh runs on
    # the background thread: TrackingError reaches the caller, and the
    # thread is gone when it does
    real = spectral_mod.eigh
    main = threading.get_ident()
    running = threading.Event()

    def slow(a, *args, **kwargs):
        if threading.get_ident() != main:
            running.set()
            time.sleep(0.2)
        return real(a, *args, **kwargs)

    def hopeless(prev, nxt, **kwargs):
        assert running.wait(timeout=10)
        raise StepTooLargeError("injected")

    monkeypatch.setattr(spectral_mod, "eigh", slow)
    monkeypatch.setattr(sweep_mod, "track_levels", hopeless)
    before = threading.active_count()
    with pytest.raises(TrackingError, match="after 3 bisections"):
        sweep_quantization(MapFamily("chaotic"), PlanckScale(16), r0=0.0,
                           r1=0.5)
    assert threading.active_count() == before


def test_sorted_pairing_mislabels_crossing_levels():
    fam = MapFamily("regular")
    scale = PlanckScale(64)
    tracked = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.01)
    by_rank = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.01,
                                 sorted_pairing=True)
    assert tracked.crossings >= 1
    assert by_rank.crossings == 0
    assert not np.allclose(tracked.phases, by_rank.phases, atol=1e-9)


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


def test_the_grid_step_count_is_bounded(monkeypatch):
    # MAX_GRID_STEPS steps is a grid; one more, by the window or by an
    # explicit r_grid, and 10^18 or a window wider than any float are
    # DomainErrors before the lattice is made
    steps = sweep_mod.MAX_GRID_STEPS
    assert sweep_mod._build_grid(None, 0.0, steps * 0.5, 0.5).size \
        == steps + 1
    too_long = np.zeros(steps + 2)

    def never(*args, **kwargs):
        raise AssertionError("a lattice was made")

    monkeypatch.setattr(np, "arange", never)
    for args in ((None, 0.0, (steps + 1) * 0.5, 0.5), (None, 0.0, 1e9, 1e-9),
                 (None, -1e308, 1e308, 0.05), (too_long, 0.0, 3.0, 0.05)):
        with pytest.raises(DomainError, match=f"more than {steps}"):
            sweep_mod._build_grid(*args)


@pytest.mark.parametrize("bounds", [
    {"r0": float("nan")}, {"r1": float("nan")}, {"delta_r": float("nan")},
    {"r1": float("inf")}, {"r_grid": [0.0, float("nan")]},
    {"r_grid": [float("nan"), 0.5]},
], ids=["nan-r0", "nan-r1", "nan-delta_r", "inf-r1", "nan-last-r",
        "nan-first-r"])
def test_non_finite_bounds_are_domain_errors(bounds):
    # each once escaped as a ValueError, an OverflowError or a NumericalError
    # of the first operator built at a NaN r
    window = {"r0": 0.0, "r1": 0.5, "delta_r": 0.25, **bounds}
    with pytest.raises(DomainError, match="finite"):
        sweep_quantization(MapFamily("chaotic"), PlanckScale(8), **window)


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


def _has_pole(base):
    """Whether alpha + beta log N changes sign across the ladder."""
    return bool(np.any(base < 0.0) and np.any(base > 0.0))


def _scipy_log_model_fit(log_N, y, log_y):
    """(rss_log, base) of the log model from MINPACK's Levenberg-Marquardt.

    The reference fit: started from the linear fit of 1/sqrt(y) in log N,
    with a large constant residual on a degenerate base, at least_squares'
    default tolerances.  It searches every pole, inside the ladder too.
    """
    design = np.column_stack([np.ones_like(log_N), log_N])
    x0 = np.linalg.lstsq(design, 1.0 / np.sqrt(y), rcond=None)[0]

    def residuals(p):
        base = p[0] + p[1] * log_N
        if np.any(np.abs(base) < 1e-12):
            return np.full(log_N.size, 1e6)
        return log_y + 2.0 * np.log(np.abs(base))

    p = least_squares(residuals, x0=x0, method="lm").x
    return float(np.sum(residuals(p) ** 2)), p[0] + p[1] * log_N


def _branch_scan_minimum(log_N, log_y):
    """Least profiled cost on a dense scan of s over the physical branch.

    Uniform in s, plus points approaching both open ends geometrically,
    where the best pole sits just outside the ladder.
    """
    x = log_N - np.mean(log_N)
    lo, hi = -1.0 / x.max(), -1.0 / x.min()
    near_end = (hi - lo) * np.geomspace(1e-14, 1e-3, 2000)
    s = np.concatenate([lo + (hi - lo) * np.arange(1, 50000) / 50000,
                        lo + near_end, hi - near_end])
    q = log_y + 2.0 * np.log1p(np.multiply.outer(s, x))
    return float(np.min(np.var(q, axis=1) * x.size))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ladder=st.lists(st.integers(8, 1024), min_size=4, max_size=6,
                       unique=True),
       log_c=st.floats(-7.0, 2.3), s=st.floats(0.0, 3.0),
       sigma=st.floats(0.0, 1.0),
       noise=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
# g has two local minima on the branch here; a polish from the middle of
# the branch, without the scan, ends in the worse one (rss_log 121.1
# against 107.1)
@example(ladder=[14, 242, 390, 458, 578, 791], log_c=-4.38, s=0.05,
         sigma=2.29, noise=[1.38, -2.35, -2.29, -2.19, 0.39, 2.9])
def test_log_model_fit_is_the_branch_minimum(ladder, log_c, s, sigma, noise):
    N = np.sort(np.array(ladder, dtype=float))
    y = np.exp(log_c) * N ** -s * np.exp(sigma * np.array(noise[:N.size]))
    log_N, log_y = np.log(N), np.log(y)
    fit = sweep_mod._fit_log_model(log_N, log_y)
    base = fit.params["alpha"] + fit.params["beta"] * log_N
    # the pole exp(-alpha / beta) lies outside the ladder
    assert np.all(base > 0.0)
    r = log_y + 2.0 * np.log(base)
    # each residual carries rounding from log y, the log and forming base
    roundoff = np.finfo(float).eps * np.linalg.norm(
        np.abs(log_y) + np.abs(r)
        + 2.0 * (abs(fit.params["alpha"]) + np.abs(fit.params["beta"] * log_N))
        / base)
    slack = 8.0 * np.sqrt(N.size) * roundoff * (np.sqrt(fit.rss_log)
                                                + roundoff)
    # the fit sums its residuals from s, not from the rounded alpha and beta
    assert abs(fit.rss_log - float(np.sum(r ** 2))) <= slack
    assert fit.rss_log <= _branch_scan_minimum(log_N, log_y) + slack
    reference, reference_base = _scipy_log_model_fit(log_N, y, log_y)
    if not _has_pole(reference_base):
        assert fit.rss_log <= reference + slack


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ladder=st.lists(st.integers(8, 1024), min_size=4, max_size=6,
                       unique=True),
       alpha=st.floats(0.1, 10.0), beta=st.floats(-0.5, 3.0))
def test_log_model_fit_recovers_exact_data(ladder, alpha, beta):
    N = np.sort(np.array(ladder, dtype=float))
    log_N = np.log(N)
    base = alpha + beta * log_N
    # no pole inside the ladder: the fit keeps it outside
    assume(np.all(base > 0.05 * alpha) or np.all(base < -0.05 * alpha))
    y = 1.0 / base ** 2
    fit = sweep_mod._fit_log_model(log_N, np.log(y))
    # (alpha, beta) and (-alpha, -beta) give the same y
    sign = np.sign(base[0] * (fit.params["alpha"]
                              + fit.params["beta"] * log_N[0]))
    scale = abs(alpha) + abs(beta) * log_N[-1]
    assert abs(sign * fit.params["alpha"] - alpha) <= 1e-10 * scale
    assert abs(sign * fit.params["beta"] - beta) <= 1e-10 * scale


def test_log_model_fit_errors():
    flat = np.full(4, np.log(64.0))
    y = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(FitError, match="singular"):
        sweep_mod._fit_log_model(flat, np.log(y))


# (alpha, beta, rss_log, selected model) of each window's log-model fit as
# the Levenberg-Marquardt loop this fit replaced found it
_WINDOW_LOG_FITS = {
    ("chaotic", 0.5): (-25.61589459959999, 10.964804751831768,
                       0.014165987922221183, "power_law"),
    ("chaotic", 3.0): (-1.8293358960108577, 1.425026938853509,
                       0.07191637573259727, "constant"),
    ("regular", 0.5): (5.1758989832005255, -0.009037399728190938,
                       3.991104329202164e-06, "constant"),
    ("regular", 3.0): (0.9349586586141341, -0.013661426908065308,
                       0.0006327101206731094, "constant"),
    ("slow_ergodic", 0.5): (6.239270791070595, 1.4549072529470364,
                            0.004538532415737437, "log_model"),
    ("slow_ergodic", 3.0): (0.6222103767235582, 0.33993477749191664,
                            0.008968135011803477, "log_model"),
}


def test_window_log_fits_keep_the_pole_outside_the_ladder(
        chaotic_ladder, regular_ladder, slow_ladder):
    ladders = {"chaotic": chaotic_ladder, "regular": regular_ladder,
               "slow_ergodic": slow_ladder}
    for (variant, r1), (alpha, beta, rss, winner) in _WINDOW_LOG_FITS.items():
        window = fit_window(ladders[variant], r1=r1)
        fit = window.models["log_model"]
        base = fit.params["alpha"] + fit.params["beta"] * np.log(LADDER)
        assert np.all(base > 0.0), (variant, r1)
        assert fit.params["alpha"] == pytest.approx(alpha, rel=1e-9)
        assert fit.params["beta"] == pytest.approx(beta, rel=1e-9)
        assert fit.rss_log == pytest.approx(rss, rel=1e-9)
        assert window.model == winner


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


@pytest.mark.parametrize("bad", [0, -64, np.nan])
def test_fit_rejects_a_non_positive_or_non_finite_dimension(bad, capfd):
    with pytest.raises(DomainError, match="positive and finite"):
        fit_shift_scaling([bad, 64, 128, 256], [1e-3, 5e-4, 2e-4, 1e-4])
    # rejected before any fit runs: LAPACK printed nothing
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_fit_rejects_a_non_finite_or_non_positive_shift(bad):
    with pytest.raises(FitError, match="positive and finite"):
        fit_shift_scaling([64, 128, 256, 512], [bad, 1e-3, 5e-4, 2e-4])


def test_scaling_study_on_a_small_ladder():
    fam = MapFamily("chaotic")
    ladder = (8, 12, 16, 20)
    trajs = {N: sweep_quantization(fam, PlanckScale(N), r0=0.0, r1=1.0,
                                   delta_r=0.5) for N in ladder}
    study = scaling_study(fam, ladder, r0=0.0, r1=1.0, delta_r=0.5)
    assert study.d == 2
    assert tuple(int(N) for N in study.N_values) == ladder
    assert np.allclose(study.h_values, 1.0 / np.array(ladder))
    assert study.model in MODEL_NAMES
    expected = [shift_statistics(trajs[N], r0=0.0, r1=1.0)
                .mean_sq_spacing_units for N in ladder]
    assert np.allclose(study.mean_sq, expected, atol=1e-15)


def test_scaling_study_reads_no_crossings(monkeypatch):
    def unread(phases):
        raise AssertionError("scaling_study computed an unread summary")

    monkeypatch.setattr(sweep_mod, "_count_crossings", unread)
    study = scaling_study(MapFamily("chaotic"), (8, 12, 16, 20),
                          r0=0.0, r1=1.0, delta_r=0.5)
    assert study.model in MODEL_NAMES
    assert len(study.per_N) == 4


def test_scaling_study_needs_four_sizes():
    with pytest.raises(DomainError):
        scaling_study(MapFamily("chaotic"), [16, 32, 64])


def test_displacements_are_in_radians(chaotic_ladder):
    traj = chaotic_ladder[64]
    d = traj.displacements()
    stats = shift_statistics(traj, subtract_mean=False)
    assert stats.mean_sq_spacing_units == pytest.approx(
        float(np.mean((d / mean_spacing(64)) ** 2)), rel=1e-12)


# the fixed-grid mean_sq of slow_ergodic N = 256 on r = 0..0.5; one step
# over the window jumps the narrow avoided crossing of levels 151/152 near
# r = 0.1 (minimum gap 0.067 spacings, every overlap still >= 0.75)
SLOW_256_FIXED_GRID = 0.0046231354


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_velocities_are_the_derivative_of_the_tracked_phases(variant):
    # both perturbation sites: position (chaotic, regular), momentum
    # (slow_ergodic); a central difference is exact to O(eps^2)
    fam = MapFamily(variant)
    scale = PlanckScale(64)
    r, eps = 0.3, 1e-3
    def spectrum(r):
        return diagonalize(build_floquet(dataclasses.replace(fam, r=r),
                                         scale))

    data = spectrum(r)
    ends = []
    for r_end in (r - eps, r + eps):
        data_end = spectrum(r_end)
        perm, _ = track_levels(data, data_end)
        ends.append(data_end.phases[perm])
    slope = ((ends[1] - ends[0]) / (2.0 * eps)) / mean_spacing(64)
    velocities = level_velocities(data)
    assert np.max(np.abs(velocities)) > 0.2
    assert np.max(np.abs(slope - velocities)) < 1e-6


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_velocities_are_the_diagonal_elements_at_the_perturbation_site(
        variant):
    # one <n|A|n> formula: the velocities are, bit for bit, the diagonal
    # elements of cos 2 pi x at the site where r enters
    fam = MapFamily(variant, r=0.4)
    scale = PlanckScale(48)
    data = diagonalize(build_floquet(fam, scale))
    label = {"position": "cos2pi_q",
             "momentum": "cos2pi_p"}[fam.perturbation_site]
    report = diagonal_elements_report(data, quantize_observable(label, scale))
    assert np.array_equal(level_velocities(data), report.diagonals)


def _window_mean_sq(ladder, r1):
    return [shift_statistics(ladder[N], r0=0.0, r1=r1).mean_sq_spacing_units
            for N in LADDER]


def test_stepping_over_the_lattice_reproduces_the_fixed_grid(
        chaotic_ladder, regular_ladder, slow_ladder):
    # bit for bit: the certified steps land on the same end phases
    for variant, ladder in (("chaotic", chaotic_ladder),
                            ("regular", regular_ladder),
                            ("slow_ergodic", slow_ladder)):
        study = scaling_study(MapFamily(variant), LADDER, r0=SHIFT_WINDOW[0],
                              r1=SHIFT_WINDOW[1])
        assert list(study.mean_sq) == _window_mean_sq(ladder,
                                                      SHIFT_WINDOW[1])
    study = scaling_study(MapFamily("chaotic"), LADDER, r0=0.0, r1=3.0)
    assert list(study.mean_sq) == _window_mean_sq(chaotic_ladder, 3.0)


def _slow_256_window():
    traj = sweep_quantization(MapFamily("slow_ergodic"), PlanckScale(256),
                              r0=0.0, r1=0.5, ends_only=True)
    return shift_statistics(traj).mean_sq_spacing_units


def test_gap_certificate_keeps_the_narrow_avoided_crossing(slow_ladder):
    value = _slow_256_window()
    assert value == _window_mean_sq(slow_ladder, 0.5)[2]
    assert value == pytest.approx(SLOW_256_FIXED_GRID, abs=1e-10)


def test_without_the_gap_certificate_the_crossing_is_jumped(monkeypatch):
    # the same run with every step certified tracks the window in one step
    # and lands 4% off: the overlaps alone cannot see the crossing
    monkeypatch.setattr(sweep_mod, "_gaps_stay_open", lambda *args: True)
    value = _slow_256_window()
    assert value != pytest.approx(SLOW_256_FIXED_GRID, abs=1e-10)
    assert value == pytest.approx(0.00482297, rel=1e-5)


def _recording_spectra(monkeypatch):
    """Log (N, r) of each operator the sweep diagonalizes."""
    visited = []
    real_diagonalize = sweep_mod.diagonalize

    def recording(op, *args):
        visited.append((op.N, float(op.family.r)))
        return real_diagonalize(op, *args)

    monkeypatch.setattr(sweep_mod, "diagonalize", recording)
    return visited


def test_chaotic_ladder_window_takes_two_diagonalizations_per_N(monkeypatch):
    visited = _recording_spectra(monkeypatch)
    study = scaling_study(MapFamily("chaotic"), LADDER, r0=0.0, r1=0.5)
    assert visited == [(N, r) for N in LADDER for r in (0.0, 0.5)]
    assert all(s.r1 == 0.5 for s in study.per_N)


def test_rejected_steps_fall_back_to_the_lattice(monkeypatch):
    # with no step certified the controller walks every lattice point,
    # each diagonalized once, and lands on the fixed-grid phases; lattice
    # splits are not refinements
    fam = MapFamily("chaotic")
    scale = PlanckScale(32)
    plain = sweep_quantization(fam, scale, r0=0.0, r1=0.5)
    visited = _recording_spectra(monkeypatch)
    monkeypatch.setattr(sweep_mod, "_gaps_stay_open", lambda *args: False)
    traj = sweep_quantization(fam, scale, r0=0.0, r1=0.5, ends_only=True)
    r_values = [r for _, r in visited]
    assert sorted(r_values) == list(plain.r_grid)
    assert r_values[:4] == [0.0, 0.5, 0.25, 0.1]
    assert traj.refined_steps == 0
    assert np.array_equal(traj.r_grid, [0.0, 0.5])
    assert np.array_equal(traj.phases, plain.phases[:, [0, -1]])


def test_failed_multi_interval_tracking_splits_on_the_lattice(monkeypatch):
    fam = MapFamily("chaotic")
    scale = PlanckScale(16)
    plain = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25)
    visited = _recording_spectra(monkeypatch)
    fail_first_steps(monkeypatch, 1)
    traj = sweep_quantization(fam, scale, r0=0.0, r1=0.5, delta_r=0.25,
                              ends_only=True)
    assert [r for _, r in visited] == [0.0, 0.5, 0.25]
    assert traj.refined_steps == 0
    assert np.array_equal(traj.phases, plain.phases[:, [0, -1]])


@pytest.mark.parametrize("variant", ["chaotic", "regular", "slow_ergodic"])
def test_coarse_lattice_ends_match_the_lattice_walk(variant):
    # delta_r = 0.5 at small N takes steps of up to six intervals;
    # slow_ergodic N = 4 on r = 1..3 passes the gap rule on a step whose
    # end phases leave the start's cyclic order, and only the order check
    # keeps its ends on the lattice walk's phases
    fam = MapFamily(variant)
    for N, r0 in ((4, 1.0), (8, 0.0), (12, 0.0), (16, 0.0), (20, 0.0),
                  (32, 0.0)):
        scale = PlanckScale(N)
        walk = sweep_quantization(fam, scale, r0=r0, r1=3.0, delta_r=0.5)
        ends = sweep_quantization(fam, scale, r0=r0, r1=3.0, delta_r=0.5,
                                  ends_only=True)
        assert np.array_equal(ends.phases, walk.phases[:, [0, -1]]), N
        assert walk.min_overlap > 0.5 and ends.min_overlap > 0.5, N
        if (variant, N) == ("regular", 32):
            # best overlaps of 0.47-0.49 on single intervals: bisected
            assert walk.refined_steps >= 1


def test_full_grid_sweep_computes_no_velocities(monkeypatch):
    def unread(family, vectors):
        raise AssertionError("a full-grid sweep computed level velocities")

    monkeypatch.setattr(sweep_mod, "level_velocities", unread)
    traj = sweep_quantization(MapFamily("slow_ergodic"), PlanckScale(32),
                              r0=0.0, r1=0.5)
    assert traj.start_velocities is None
    assert traj.r_grid.size == 11


def test_first_order_estimate_tracks_the_window():
    # in first-order response mean_sq is (r1 - r0)^2 var(v); over r = 0..3
    # the N = 64 chaotic levels have left it
    fam = MapFamily("chaotic")
    ladder = (16, 32, 48, 64)
    short = scaling_study(fam, ladder, r0=0.0, r1=0.5)
    full = scaling_study(fam, ladder, r0=0.0, r1=3.0)
    velocities = sweep_quantization(fam, PlanckScale(64), r0=0.0, r1=0.5,
                                    ends_only=True).start_velocities
    assert short.first_order_estimates[-1] == pytest.approx(
        0.25 * np.var(velocities), rel=1e-12)
    assert short.first_order_ratios[-1] == pytest.approx(0.955, abs=0.005)
    assert full.first_order_ratios[-1] == pytest.approx(0.578, abs=0.005)
    assert full.first_order_response is False
