"""Classical map iteration, Lyapunov exponents, and Monte Carlo correlators."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import qmap.classical
import qmap.model
from qmap import (
    ConfigurationError,
    DomainError,
    LyapunovReport,
    MapFamily,
    NumericalError,
    PhaseSpacePoint,
    classical_correlator,
    lyapunov_exponent,
    microcanonical_average,
)
from qmap.classical import OBSERVABLES
from qmap.model import K, VARIANTS, potential_curvature


def _reference_step(family, q, p):
    """One period as first written: V' spelled out, fresh arrays, x % 1.0."""
    if family.variant == "slow_ergodic":
        slope = qmap.model.SAWTOOTH_HEIGHT * np.sign(q - 0.5)
    else:
        slope = (family.quadratic_sign * q
                 + K / (2.0 * np.pi) * np.cos(2.0 * np.pi * q))
    p = (p - slope) % 1.0
    return (q + p) % 1.0, p


def _reference_products(family, observable, t_max, samples, rng_seed):
    """A(x) A(map^t x) for t = 0..t_max by the loop as first written, with
    the observable's cosine evaluated apart from the kick's."""
    def values(q, p):
        if observable == "cos2pi_q":
            return np.cos(2.0 * np.pi * q)
        if observable == "cos2pi_p":
            return np.cos(2.0 * np.pi * p)
        return np.ones_like(q)

    rng = np.random.default_rng(rng_seed)
    q = rng.random(samples)
    p = rng.random(samples)
    a_start = values(q, p)
    for t in range(t_max + 1):
        if t > 0:
            q, p = _reference_step(family, q, p)
        yield a_start * values(q, p)


def _reference_correlator(family, observable, t_max, samples, rng_seed):
    """(C, stderr) of the reference loop by prod.mean() and prod.std()."""
    C, stderr = [], []
    for prod in _reference_products(family, observable, t_max, samples,
                                    rng_seed):
        C.append(prod.mean())
        stderr.append(prod.std() / math.sqrt(samples))
    return np.array(C), np.array(stderr)


def _exact_correlator(family, observable, t_max, samples, rng_seed):
    """(C, stderr, bound) of the reference loop by math.fsum; bound is
    log2(n) eps sum|prod| / n, the rounding a pairwise sum may leave in
    the mean."""
    C, stderr, bound = [], [], []
    eps = np.finfo(float).eps
    for prod in _reference_products(family, observable, t_max, samples,
                                    rng_seed):
        mean = math.fsum(prod) / samples
        C.append(mean)
        stderr.append(math.sqrt(math.fsum((prod - mean) ** 2) / samples)
                      / math.sqrt(samples))
        bound.append(math.log2(samples) * eps * math.fsum(np.abs(prod))
                     / samples)
    return np.array(C), np.array(stderr), np.array(bound)


def _reference_lyapunov(family, seeds, steps):
    """The tangent-map loop renormalized after every step: (lam, spread)."""
    q = np.array([s.q for s in seeds])
    p = np.array([s.p for s in seeds])
    dq = np.full_like(q, 1.0 / math.sqrt(2.0))
    dp = np.full_like(q, 1.0 / math.sqrt(2.0))
    log_growth = np.zeros_like(q)
    for _ in range(steps):
        curv = potential_curvature(family, q)
        dp = dp - curv * dq
        dq = dq + dp
        norm = np.hypot(dq, dp)
        log_growth += np.log(norm)
        dq /= norm
        dp /= norm
        q, p = _reference_step(family, q, p)
    lams = log_growth / steps
    return float(np.mean(lams)), float(np.max(lams) - np.min(lams))


def _stepwise_lyapunov(family, seeds, steps):
    """The tangent-map loop one step at a time, V'' and the kick's cosine
    each formed from q, renormalized every 16 steps: (lam, spread)."""
    q = np.array([s.q for s in seeds])
    p = np.array([s.p for s in seeds])
    dq = np.full_like(q, 1.0 / math.sqrt(2.0))
    dp = np.full_like(q, 1.0 / math.sqrt(2.0))
    log_growth = np.zeros_like(q)
    scratch = np.empty_like(q)
    wave = np.empty_like(q)
    cos_2pi_q = np.empty_like(q)
    for step in range(1, steps + 1):
        np.cos(np.multiply(q, 2.0 * np.pi, out=wave), out=cos_2pi_q)
        curvature = potential_curvature(family, q, out=wave)
        dp -= np.multiply(curvature, dq, out=curvature)
        dq += dp
        if step % qmap.classical.RENORMALIZE_EVERY == 0 or step == steps:
            norm = np.hypot(dq, dp)
            log_growth += np.log(norm)
            dq /= norm
            dp /= norm
        qmap.classical._step_arrays(family, q, p, scratch, cos_2pi_q)
    lams = log_growth / steps
    return float(np.mean(lams)), float(np.max(lams) - np.min(lams))


def _one_step(family, q, p):
    """One period of the production kernel at a single point: (q, p)."""
    q, p = np.array([q]), np.array([p])
    qmap.classical._step_arrays(family, q, p, np.empty(1))
    return float(q[0]), float(p[0])


def test_free_shear_step(monkeypatch):
    # sawtooth with zero tent height has V identically zero
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    assert _one_step(fam, 0.25, 0.5) == (0.75, 0.5)


def test_chaotic_step_by_hand():
    q, p = _one_step(MapFamily("chaotic"), 0.0, 0.5)
    expected = 0.5 - 0.4 / (2.0 * math.pi)
    assert p == pytest.approx(expected, abs=1e-12)
    assert q == pytest.approx(expected, abs=1e-12)
    assert p == pytest.approx(0.4363380, abs=1e-7)


def test_sawtooth_step_by_hand():
    q, p = _one_step(MapFamily("slow_ergodic"), 0.75, 0.0)
    assert p == pytest.approx(0.7, abs=1e-12)
    assert q == pytest.approx(0.45, abs=1e-12)


def test_classical_map_ignores_r():
    # the quantization parameter carries an h^2 prefactor and is absent
    # from the classical limit
    assert (_one_step(MapFamily("chaotic", r=0.0), 0.3, 0.7)
            == _one_step(MapFamily("chaotic", r=5.0), 0.3, 0.7))


def test_map_preserves_uniform_measure():
    rng = np.random.default_rng(99)
    n = 20_000
    pts = rng.random((n, 2))
    q, p = pts[:, 0], pts[:, 1]
    fam = MapFamily("chaotic")
    for _ in range(100):
        p = (p - (-q + (0.4 / (2 * np.pi)) * np.cos(2 * np.pi * q))) % 1.0
        q = (q + p) % 1.0
    assert stats.kstest(q, "uniform").statistic < 0.02
    assert stats.kstest(p, "uniform").statistic < 0.02


def test_chaotic_lyapunov_exponent(chaotic_lyapunov):
    rep = chaotic_lyapunov
    assert rep.lam > 0.1
    assert rep.spread < 1e-2
    # hyperbolic with stretching factor near the unperturbed value
    assert 0.85 < rep.lam < 1.05
    assert rep.seed_count == 10


def test_lyapunov_seed_independence():
    rng = np.random.default_rng(5)
    fam = MapFamily("chaotic")
    reps = []
    for _ in range(2):
        seeds = [PhaseSpacePoint(q, p) for q, p in rng.random((5, 2))]
        reps.append(lyapunov_exponent(fam, seeds, 50_000))
    gap = abs(reps[0].lam - reps[1].lam)
    assert gap <= reps[0].spread + reps[1].spread + 1e-3


def test_shear_map_has_zero_exponent(monkeypatch):
    monkeypatch.setattr(qmap.model, "SAWTOOTH_HEIGHT", 0.0)
    fam = MapFamily("slow_ergodic")
    seeds = [PhaseSpacePoint(0.1 * k, 0.07 * k) for k in range(1, 6)]
    rep = lyapunov_exponent(fam, seeds, 20_000)
    # unipotent tangent map: growth is linear in t, so the log rate decays
    # like log(t)/t, about 5e-4 here
    assert rep.lam < 1e-3


def test_regular_map_is_mostly_non_hyperbolic():
    # independent tangent-map oracle, vectorized over 100 seeds
    rng = np.random.default_rng(12)
    n, steps = 100, 10_000
    q = rng.random(n)
    p = rng.random(n)
    dq = np.full(n, 1.0 / math.sqrt(2.0))
    dp = np.full(n, 1.0 / math.sqrt(2.0))
    growth = np.zeros(n)
    for _ in range(steps):
        curv = 1.0 - 0.4 * np.sin(2.0 * np.pi * q)
        dp = dp - curv * dq
        dq = dq + dp
        norm = np.hypot(dq, dp)
        growth += np.log(norm)
        dq /= norm
        dp /= norm
        p = (p - (q + (0.4 / (2 * np.pi)) * np.cos(2 * np.pi * q))) % 1.0
        q = (q + p) % 1.0
    assert np.median(growth / steps) < 0.02


def test_lyapunov_preconditions():
    fam = MapFamily("chaotic")
    seeds = [PhaseSpacePoint(0.1 * k, 0.2 * k) for k in range(1, 6)]
    with pytest.raises(DomainError):
        lyapunov_exponent(fam, seeds, 9_999)
    with pytest.raises(DomainError):
        lyapunov_exponent(fam, seeds[:4], 10_000)


def test_ehrenfest_time():
    rep = LyapunovReport(lam=1.0, steps=10_000, seed_count=5, spread=0.0)
    assert rep.ehrenfest_time(512) == pytest.approx(math.log(2 * math.pi * 512))
    flat = LyapunovReport(lam=0.0, steps=10_000, seed_count=5, spread=0.0)
    with pytest.raises(DomainError):
        flat.ehrenfest_time(512)


def test_microcanonical_averages():
    assert microcanonical_average("cos2pi_q") == 0.0
    assert microcanonical_average("cos2pi_p") == 0.0
    assert microcanonical_average("identity") == 1.0
    with pytest.raises(DomainError):
        microcanonical_average("sin2pi_q")


def test_correlator_at_zero_lag(chaotic_classical):
    curve = chaotic_classical
    # C(0) is the sampled average of cos^2, population value 1/2
    assert curve.C[0] == pytest.approx(0.5, abs=3 * curve.stderr[0] + 1e-4)
    assert curve.times[0] == 0 and curve.t_max == 25


def test_chaotic_correlations_decay(chaotic_classical):
    tail = np.abs(chaotic_classical.C[20:])
    assert np.max(tail) < 0.02


def test_correlator_seed_agreement():
    fam = MapFamily("chaotic")
    a = classical_correlator(fam, "cos2pi_q", t_max=10, samples=100_000,
                             rng_seed=1)
    b = classical_correlator(fam, "cos2pi_q", t_max=10, samples=100_000,
                             rng_seed=2)
    assert np.all(np.abs(a.C - b.C) <= 3.0 * (a.stderr + b.stderr))


def test_correlator_preconditions():
    fam = MapFamily("chaotic")
    with pytest.raises(DomainError):
        classical_correlator(fam, "cos2pi_q", t_max=0, samples=10_000, rng_seed=1)
    with pytest.raises(DomainError):
        classical_correlator(fam, "cos2pi_q", t_max=5, samples=9_999, rng_seed=1)
    with pytest.raises(DomainError):
        classical_correlator(fam, "tan2pi_q", t_max=5, samples=10_000, rng_seed=1)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("observable", OBSERVABLES)
def test_correlator_is_bit_identical_to_reference_loop(variant, observable,
                                                     monkeypatch):
    # the in-place kernel with a shared kick cosine and the floor reduction
    # must not move a single bit of C or its standard error at any thread
    # count; 10 000 and 10 007 samples are one block, whose sums are those
    # of prod.mean() and prod.std()
    fam = MapFamily(variant)
    for samples in (10_000, 10_007):
        C, stderr = _reference_correlator(fam, observable, 20, samples, 1005)
        for threads in ("1", "2", "3", "4", "8"):
            monkeypatch.setenv("QMAP_THREADS", threads)
            curve = classical_correlator(fam, observable, t_max=20,
                                         samples=samples, rng_seed=1005)
            assert np.array_equal(curve.C.view(np.uint64), C.view(np.uint64))
            assert np.array_equal(curve.stderr.view(np.uint64),
                                  stderr.view(np.uint64))


def test_correlator_is_exact_under_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond; one
    # block of samples runs as one task, so nothing may move a bit
    monkeypatch.setenv("QMAP_THREADS", "8")
    fam = MapFamily("chaotic")
    C, stderr = _reference_correlator(fam, "cos2pi_p", 10, 10_007, 77)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curve = classical_correlator(fam, "cos2pi_p", t_max=10,
                                     samples=10_007, rng_seed=77)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(curve.C.view(np.uint64), C.view(np.uint64))
    assert np.array_equal(curve.stderr.view(np.uint64), stderr.view(np.uint64))


@pytest.mark.parametrize("block", [1000, 4096])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("observable", OBSERVABLES)
def test_several_blocks_match_the_exact_sums(block, variant, observable,
                                             monkeypatch):
    # 10 007 samples make 11 blocks of 1000, the last of 7, or 3 of 4096,
    # the last of 1815: an odd count carries a block up a merge round
    monkeypatch.setattr(qmap.classical, "_CORRELATOR_BLOCK", block)
    fam = MapFamily(variant)
    C, stderr, bound = _exact_correlator(fam, observable, 20, 10_007, 1005)
    curve = classical_correlator(fam, observable, t_max=20, samples=10_007,
                                 rng_seed=1005)
    assert np.all(np.abs(curve.C - C) <= bound)
    assert np.all(np.abs(curve.stderr - stderr) <= 1e-15 * stderr)


def _several_block_curves(threads, monkeypatch):
    """C and stderr as uint64 bits at each observable, chaotic map, over
    blocks of 1000 and 4096 of 10 007 samples."""
    monkeypatch.setenv("QMAP_THREADS", threads)
    bits = []
    for block in (1000, 4096):
        monkeypatch.setattr(qmap.classical, "_CORRELATOR_BLOCK", block)
        for observable in OBSERVABLES:
            curve = classical_correlator(MapFamily("chaotic"), observable,
                                         t_max=10, samples=10_007,
                                         rng_seed=77)
            bits.append(np.stack([curve.C, curve.stderr]).view(np.uint64))
    return np.stack(bits)


def test_several_blocks_are_bit_identical_across_thread_counts(monkeypatch):
    one = _several_block_curves("1", monkeypatch)
    for threads in ("2", "3", "8"):
        assert np.array_equal(_several_block_curves(threads, monkeypatch), one)


def test_several_blocks_are_exact_under_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond: a block
    # stepped by two workers, or merged out of order, would move a bit
    one = _several_block_curves("1", monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eight = _several_block_curves("8", monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(eight, one)


def test_block_draws_continue_the_generator_stream(monkeypatch):
    # 10 007 samples make 11 blocks of 1000, the last of 7: the blocks'
    # q, then their p, are default_rng(seed).random(samples) twice over
    monkeypatch.setenv("QMAP_THREADS", "1")
    monkeypatch.setattr(qmap.classical, "_CORRELATOR_BLOCK", 1000)
    drawn = []
    real_block = qmap.classical._correlator_block

    def recording(family, observable, t_max, q, p):
        drawn.append((q.copy(), p.copy()))
        return real_block(family, observable, t_max, q, p)

    monkeypatch.setattr(qmap.classical, "_correlator_block", recording)
    samples = 10_007
    classical_correlator(MapFamily("chaotic"), "cos2pi_q", t_max=3,
                         samples=samples, rng_seed=1005)
    assert [q.size for q, _ in drawn] == [1000] * 10 + [7]
    rng = np.random.default_rng(1005)
    for k in range(2):
        drawn_k = np.concatenate([pair[k] for pair in drawn])
        assert np.array_equal(drawn_k.view(np.uint64),
                              rng.random(samples).view(np.uint64))


def test_correlator_holds_no_sample_sized_scratch(monkeypatch):
    # each of the two running tasks holds five arrays of _CORRELATOR_BLOCK
    # floats (its q and p, the start values, the values and one scratch);
    # beside them only the per-block moments and the pool's bookkeeping,
    # under 256 KB up to 49 blocks.  The bound does not grow with the
    # sample count: one sample-sized array is 3.2 MB at 400 000 samples.
    monkeypatch.setenv("QMAP_THREADS", "2")
    family = MapFamily("chaotic")
    bound = 2 * 5 * qmap.classical._CORRELATOR_BLOCK * 8 + 256 * 1024
    # the first multi-block call imports the thread pool's module
    classical_correlator(family, "cos2pi_q", t_max=5, samples=70_000,
                         rng_seed=3)
    for samples in (400_000, 1_600_000):
        tracemalloc.start()
        try:
            classical_correlator(family, "cos2pi_q", t_max=5,
                                 samples=samples, rng_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_correlator_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setenv("QMAP_THREADS", "4")
    before = threading.active_count()
    classical_correlator(MapFamily("chaotic"), "cos2pi_q", t_max=5,
                         samples=10_000, rng_seed=3)
    assert threading.active_count() == before


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_correlator_rejects_a_bad_thread_count(value, monkeypatch):
    monkeypatch.setenv("QMAP_THREADS", value)
    with pytest.raises(ConfigurationError, match="QMAP_THREADS"):
        classical_correlator(MapFamily("chaotic"), "cos2pi_q", t_max=5,
                             samples=10_000, rng_seed=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                min_size=1, max_size=50))
@example([-0.0, 0.0, -1e-300, -5e-324, 1e-300, 1.0, -1.0, 3.0, -3.0,
          math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0),
          math.nextafter(2.0, 0.0), -math.nextafter(0.0, 1.0)])
def test_floor_reduction_equals_mod_one(xs):
    x = np.array(xs)
    floor_form = x - np.floor(x)
    mod_form = x % 1.0
    # bit for bit, so -0.0 against +0.0 would count as a difference
    assert np.array_equal(floor_form.view(np.uint64), mod_form.view(np.uint64))


@pytest.mark.parametrize("variant", VARIANTS)
def test_lyapunov_matches_every_step_renormalization(variant):
    rng = np.random.default_rng(21)
    seeds = [PhaseSpacePoint(q, p) for q, p in rng.random((5, 2))]
    fam = MapFamily(variant)
    rep = lyapunov_exponent(fam, seeds, 10_007)
    lam, spread = _reference_lyapunov(fam, seeds, 10_007)
    assert rep.lam == pytest.approx(lam, rel=1e-12, abs=1e-15)
    # the spread is max - min of per-seed exponents near lam, so its
    # rounding error scales with lam, not with the spread itself
    assert rep.spread == pytest.approx(spread, rel=1e-12,
                                       abs=max(1e-12 * abs(lam), 1e-15))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("chunk", [40, None])
def test_chunked_lyapunov_is_bit_identical_to_the_stepwise_loop(variant, chunk,
                                                               monkeypatch):
    # 40-step chunks cut renormalization intervals of 16 steps, and 10 007
    # steps leave a partial last chunk; None keeps the default chunk
    if chunk is not None:
        monkeypatch.setattr(qmap.classical, "_LYAPUNOV_CHUNK", chunk)
    rng = np.random.default_rng(22)
    seeds = [PhaseSpacePoint(q, p) for q, p in rng.random((7, 2))]
    fam = MapFamily(variant)
    rep = lyapunov_exponent(fam, seeds, 10_007)
    assert (rep.lam, rep.spread) == _stepwise_lyapunov(fam, seeds, 10_007)


def test_lyapunov_overflow_still_detected(monkeypatch):
    # a curvature far outside |V''| <= 1 + K overflows the tangent vector
    # between renormalizations; the check at the next one must catch it
    monkeypatch.setattr(qmap.classical, "potential_curvature",
                        lambda family, q, *_, **__: np.full_like(q, 1e200))
    seeds = [PhaseSpacePoint(0.1 * k, 0.2 * k) for k in range(1, 6)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="over/underflow"):
        lyapunov_exponent(MapFamily("chaotic"), seeds, 10_000)
