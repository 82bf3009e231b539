"""Eigenlevel motion under the quantization parameter r, and its h-scaling.

A sweep diagonalizes the Floquet operator on an r grid and connects
eigenpairs between neighboring grid points by eigenvector overlap, so each
level keeps its identity through crossings and avoided crossings.  Phases
are unwrapped along each trajectory; displacements are then plain
differences even when a level drifts through the 0 / 2 pi seam.

One rule tracks every step: each level continues in the column of its
largest overlap, and every such overlap must exceed 1/2.  A step that
fails it is split, at its middle r when it spans one interval of the
grid (up to MAX_REFINEMENTS levels deep), at its middle lattice point
when it spans several (below); refined points steady the tracking but
only requested grid points enter the output.  Sorted-index pairing is
the same loop with identity matching in place of tracking, kept behind a
flag for comparison: it mislabels levels wherever they cross.

The grid r0 + k delta_r is a lattice the sweep may step over.  `sweep`
requests every lattice point, so each step spans one interval.
`scaling` reads only the two ends of its window and requests only those
(ends_only): it tries the whole window as one step and bisects on the
lattice wherever a step of more than one interval is not certified.  At
worst it walks every lattice point, each diagonalized at most once.  A
multi-interval step is accepted only when its levels are tracked and a
gap certificate holds: with the Hellmann-Feynman level velocities
<n|cos 2 pi x|n> at both ends (level dynamics: Pechukas, PRL 51, 943
(1983)), no two cyclic neighbours may meet when their gap is
extrapolated linearly from either end, and the tracked levels must keep
their cyclic order.  A certified step diagonalizes the same r as the
lattice walk at its end and pairs the levels the same way, so it ends on
the same phases bit for bit.  Checked: the end phases equal the lattice
walk's exactly for all three variants at N = 64..512 on r = 0..0.5 and
0..3, and in 1584 cases at 22 even N = 4..128, six delta_r = 0.05..0.5
and four windows in r = 0..3; none raises TrackingError, and 22 bisect
a single interval.  Only the bisection of single intervals counts in
refined_steps.

Every spectrum of a sweep comes from one lattice walker
(_lattice_walker).  A full-grid sweep asks it for every lattice point in
order, each one once.  With the background thread of
qmap._threads.head_start (two workers and numpy's BLAS pool at one
thread; qmap.cli states the thread rule), the walker starts the next
point's first-pass eigh there before it diagonalizes the current one
(spectral._start_first_pass).  That eigh is one LAPACK call, which
releases the GIL for its whole length, so it runs beside everything
else, which stays on the calling thread: the forming of the next part,
the rest of the diagonalization and the tracking.  ends_only sweeps and
refinement midpoints start nothing, and every point is diagonalized by
the same arithmetic, so the bits do not depend on where the eigh ran.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, StepTooLargeError, TrackingError
from .model import MapFamily, PlanckScale
from ._threads import head_start
from .quantize import build_floquet, quantize_observable
from .spectral import (SpectralData, _start_first_pass, column_blocks,
                       cyclic_gaps, diagonalize, eigenbasis_diagonal,
                       mean_spacing, wrap_phase)

MAX_REFINEMENTS = 3
MODEL_NAMES = ("power_law", "constant", "log_model")
# a scaling fit is in first-order response while every N's mean_sq is at
# least this share of its one-diagonalization estimate
FIRST_ORDER_FLOOR = 0.9
# intervals of the log model's scan of its branch
LOG_MODEL_SCAN = 1024
# added to the distance within which _count_crossings tests a pair
_CROSSING_SLACK = 1e-9
# the most steps an r grid may take.  A sweep diagonalizes each lattice
# point it visits, about 40 ms at N = 512, so 10^5 steps already take an
# hour there; a longer grid is a mistyped window, and its lattice alone
# may not fit in memory
MAX_GRID_STEPS = 100_000


def _overlaps(prev, next) -> np.ndarray:
    """|<v|w>|^2 between every column v of prev and w of next: the
    eigenvectors of two spectra, or two bare matrices of columns.

    Where the half drift C^(1/2) does not depend on r (position-site
    variants), V = C^(1/2) R on both sides with one unitary C^(1/2), so
    V_a* V_b = R_a^T R_b, one real product.  Elsewhere prev's eigenvectors
    are lifted whole and conjugated in place, and next's one column block
    at a time.
    """
    shapes = [getattr(side, "real_vectors", side).shape
              for side in (prev, next)]
    if shapes[0] != shapes[1]:
        raise DomainError("track_levels: vector blocks must have equal shapes")
    if not isinstance(prev, SpectralData):
        return np.abs(prev.conj().T @ next) ** 2
    if (prev.family.perturbation_site == "position"
            == next.family.perturbation_site):
        O = prev.real_vectors.T @ next.real_vectors
        return np.square(O, out=O)
    left = prev.eigenvectors()
    np.conjugate(left, out=left)
    O = np.empty((prev.N, prev.N))
    for block in column_blocks(prev.N):
        O[:, block] = np.abs(left.T @ next.eigenvectors(block)) ** 2
    return O


def track_levels(prev, next):
    """Match eigenvector columns across a parameter step.

    prev and next are SpectralData (or bare matrices of orthonormal column
    vectors) with equal N.  Returns (perm, overlaps): level n of prev
    continues in column perm[n] of next, with squared overlap overlaps[n],
    the largest |<v|w>|^2 of its row.  Every such maximum must exceed 1/2:
    a column of orthonormal overlaps sums to at most 1, so it holds at
    most one entry above 1/2, perm is then a permutation, and it is the
    optimal assignment, since any other pairing has a smaller entry in
    every row it changes.  A maximum at or below 1/2 means the step
    outran the eigenbasis: StepTooLargeError tells the caller to split it.
    """
    O = _overlaps(prev, next)
    perm = O.argmax(axis=1)
    overlaps = O[np.arange(O.shape[0]), perm]
    if not overlaps.min() > 0.5:
        n_bad = int(np.argmin(overlaps))
        raise StepTooLargeError(
            f"track_levels: overlap {float(overlaps[n_bad]):.3f} at level "
            f"{n_bad} not above 1/2; step too large for unambiguous tracking")
    return perm, overlaps


def _pair_by_rank(prev: SpectralData, next: SpectralData):
    """Sorted-index pairing: level n continues in column n, at any overlap.

    The overlaps |<v_n|w_n>|^2 take the eigenvectors a column block at a
    time."""
    overlaps = np.empty(prev.N)
    for block in column_blocks(prev.N):
        products = prev.eigenvectors(block).conj() * next.eigenvectors(block)
        overlaps[block] = np.abs(np.sum(products, axis=0)) ** 2
    return np.arange(prev.N), overlaps


@dataclass(frozen=True, eq=False)
class LevelTrajectories:
    """Unwrapped eigenphase flow phi_n(r) on the requested r grid.

    crossings is computed from the phases on each read, uncached, so
    scaling, which does not read it, does not compute it.
    start_velocities holds each trajectory's level velocity at r_grid[0]
    (spacings per unit r) when the sweep computed them (ends_only), else
    None.
    """

    family: MapFamily
    scale: PlanckScale
    r_grid: np.ndarray
    phases: np.ndarray
    min_overlap: float
    refined_steps: int
    start_velocities: np.ndarray | None = None

    def __post_init__(self):
        self.r_grid.setflags(write=False)
        self.phases.setflags(write=False)
        if self.start_velocities is not None:
            self.start_velocities.setflags(write=False)

    @property
    def N(self) -> int:
        return self.scale.N

    @property
    def crossings(self) -> int:
        return _count_crossings(self.phases)

    def displacements(self, g0: int = 0, g1: int = -1) -> np.ndarray:
        """Per-level phase motion phi_n(r_grid[g1]) - phi_n(r_grid[g0])."""
        return self.phases[:, g1] - self.phases[:, g0]


def _lattice_walker(family: MapFamily, scale: PlanckScale,
                    lattice: np.ndarray, start):
    """spectrum(r, k), the spectrum at r, lattice point k (None off the
    lattice), diagonalized here when it is asked for.  With start
    (qmap._threads.head_start's), asking for lattice point k first starts
    the first-pass eigh of k, unless it was started, and of k + 1
    (spectral._start_first_pass)."""
    ahead = {}  # lattice index -> (operator, head start), started points

    def operator(r):
        return build_floquet(dataclasses.replace(family, r=r), scale)

    def spectrum(r, k):
        if start is None or k is None:
            return diagonalize(operator(r))
        for j in range(k, min(k + 2, lattice.size)):
            if j not in ahead:
                op = operator(lattice[j])
                ahead[j] = op, _start_first_pass(op, start)
        return diagonalize(*ahead.pop(k))

    return spectrum


def level_velocities(data: SpectralData) -> np.ndarray:
    """Hellmann-Feynman velocities d phi_n / dr of a spectrum's levels.

    r enters U only through the phase exp(-i r (2 pi / N) cos 2 pi x) at
    the family's perturbation site, so level n moves at <n|cos 2 pi x|n>
    mean spacings per unit r: the <n|A|n> of that site's observable
    (spectral.eigenbasis_diagonal), O(N^2 log N) from the real basis.
    """
    label = ("cos2pi_p" if data.family.perturbation_site == "momentum"
             else "cos2pi_q")
    return eigenbasis_diagonal(data, quantize_observable(label, data.scale))


def _gaps_stay_open(phases_a, velocities_a, phases_b, velocities_b,
                    delta_r: float) -> bool:
    """Gap certificate of a tracked step of delta_r between ends a and b.

    The arrays hold each tracked level at both ends.  At each end the
    phases are sorted around the circle; the gap between every pair of
    cyclic neighbours, moved linearly by the difference of their
    velocities towards the other end, must stay open.  Levels whose gaps
    cannot close keep their cyclic order, so the tracked end phases must
    be in the start's order too: a swap means tracking followed a
    diabatic state through an avoided crossing the linear model missed.
    """
    span = delta_r * mean_spacing(phases_a.size)
    orders = []
    for phases, velocities, direction in ((phases_a, velocities_a, 1.0),
                                          (phases_b, velocities_b, -1.0)):
        wrapped = np.mod(phases, 2.0 * np.pi)
        order = np.argsort(wrapped)
        gaps = cyclic_gaps(wrapped[order])
        closing = np.roll(velocities[order], -1) - velocities[order]
        if not np.all(gaps + direction * span * closing > 0.0):
            return False
        orders.append(order)
    # equal up to a rotation: a level may pass the 0 / 2 pi cut
    shift = int(np.flatnonzero(orders[1] == orders[0][0])[0])
    return bool(np.array_equal(np.roll(orders[1], -shift), orders[0]))


def _unwrap_step(prev_unwrapped: np.ndarray, raw: np.ndarray) -> np.ndarray:
    turns = np.round((prev_unwrapped - raw) / (2.0 * np.pi))
    return raw + 2.0 * np.pi * turns


def _close_pairs(phases: np.ndarray, reach: float):
    """(i, j), i < j, of every pair of levels whose phases lie within reach
    of each other around the circle, for reach below pi / 2.

    The phases are sorted around the circle, and each level is paired with
    the levels that follow it within reach, across the 0 / 2 pi seam too.
    Two levels cannot follow each other both ways within reach, so no
    pair is listed twice.
    """
    L = phases.size
    wrapped = np.mod(phases, 2.0 * np.pi)
    order = np.argsort(wrapped, kind="stable")
    ring = wrapped[order]
    positions = np.arange(L)
    stop = np.minimum(
        np.searchsorted(np.concatenate((ring, ring + 2.0 * np.pi)),
                        ring + reach, side="right"),
        positions + L)
    counts = stop - positions - 1
    first = np.repeat(positions, counts)
    # the k-th follower of position p sits at p + 1 + k
    step = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    a, b = order[first], order[(first + 1 + step) % L]
    return np.minimum(a, b), np.maximum(a, b)


def _count_crossings(phases: np.ndarray) -> int:
    """Pairwise tracked index exchanges along the sweep.

    Levels i and j exchange where the wrapped difference of their phases
    changes sign through zero between adjacent grid points; sign flips
    through +-pi are seam artifacts, excluded by requiring the two
    magnitudes to sum below pi.

    Each step tests only the pairs within reach = 2 m + _CROSSING_SLACK of
    each other at its earlier point (_close_pairs), m the largest move of
    one level in the step; where reach is pi / 2 or more (or not finite)
    it tests all pairs.  The count is that of all pairs: the difference x
    of a pair moves by at most 2 m to x', and when its wrapped values a
    and b have opposite signs with |a| + |b| < pi, a - b and x - x' differ
    by whole turns and by less than pi + pi / 2, so not at all; then
    |a| <= |a| + |b| = |x - x'| <= 2 m.  The slack covers the rounding of
    the wrapped phases the window sorts, far below 1e-9 at any phase a
    sweep reaches.
    """
    L, G = phases.shape
    count = 0
    for g in range(1, G):
        before, after = phases[:, g - 1], phases[:, g]
        reach = 2.0 * float(np.max(np.abs(after - before))) + _CROSSING_SLACK
        # written so that a NaN reach tests all pairs
        i, j = (_close_pairs(before, reach) if reach < 0.5 * np.pi
                else np.triu_indices(L, k=1))
        d_prev = wrap_phase(before[i] - before[j])
        d = wrap_phase(after[i] - after[j])
        flips = (np.sign(d_prev) * np.sign(d) < 0)
        through_zero = (np.abs(d_prev) + np.abs(d)) < np.pi
        count += int(np.count_nonzero(flips & through_zero))
    return count


def _build_grid(r_grid, r0: float, r1: float, delta_r: float) -> np.ndarray:
    if r_grid is not None:
        grid = np.asarray(r_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("sweep: r_grid must be a non-empty 1-d sequence")
        if grid.size - 1 > MAX_GRID_STEPS:
            raise DomainError(f"sweep: r_grid takes {grid.size - 1} steps, "
                              f"more than {MAX_GRID_STEPS}")
        # written so that a NaN fails
        if not (np.all(np.abs(grid) < np.inf) and np.all(np.diff(grid) > 0.0)):
            raise DomainError("sweep: r_grid must be finite and strictly "
                              "ascending")
        return grid.copy()
    if not 0.0 < delta_r < np.inf:
        raise DomainError(f"sweep: delta_r must be positive and finite, got "
                          f"{delta_r}")
    if not -np.inf < r0 < r1 < np.inf:
        raise DomainError(f"sweep: r0 and r1 must be finite, r1 above r0, "
                          f"got {r0} and {r1}")
    # inf where r1 - r0 overflows
    steps = (r1 - r0) / delta_r
    if steps >= MAX_GRID_STEPS + 0.5:
        raise DomainError(f"sweep: (r1 - r0) / delta_r is {steps:.6g} grid "
                          f"steps, more than {MAX_GRID_STEPS}")
    n_steps = int(round(steps))
    if not np.isclose(r0 + n_steps * delta_r, r1, atol=1e-12):
        raise DomainError("sweep: (r1 - r0) must be an integer multiple of delta_r")
    grid = r0 + delta_r * np.arange(n_steps + 1)
    grid[-1] = r1
    return grid


def sweep_quantization(family: MapFamily, scale: PlanckScale, r_grid=None,
                       r0: float = 0.0, r1: float = 3.0,
                       delta_r: float = 0.05,
                       sorted_pairing: bool = False,
                       ends_only: bool = False) -> LevelTrajectories:
    """Follow every eigenphase along an ascending r grid.

    Pass an explicit r_grid, or let one be built from r0/r1/delta_r.  On a
    step-too-large tracking failure the offending interval is bisected, up
    to MAX_REFINEMENTS levels deep, before giving up with TrackingError.
    sorted_pairing runs the same loop with identity matching (level n
    continues as the n-th phase in sorted order), which never refines.

    ends_only returns only the first and last grid points (with the level
    velocities at the first) and treats the grid as a lattice to step
    over: a step of several intervals is taken where tracking succeeds and
    the gap certificate holds, and split at its middle lattice point where
    either fails.
    """
    lattice = _build_grid(r_grid, r0, r1, delta_r)
    last = lattice.size - 1
    requested = [0, last] if ends_only and last > 0 else list(range(last + 1))
    match = _pair_by_rank if sorted_pairing else track_levels
    with head_start() as start:
        spectrum = _lattice_walker(family, scale, lattice,
                                   None if ends_only else start)
        data = spectrum(lattice[0], 0)
        # level n of the sweep sits in column column_of[n] of the current
        # spectrum, whose columns stay in phase order
        column_of = np.arange(scale.N)
        unwrapped = data.phases.copy()
        phases = np.empty((scale.N, len(requested)))
        phases[:, 0] = unwrapped
        # velocities of the current columns, computed when a step needs
        # them
        velocities = level_velocities(data) if ends_only else None
        start_velocities = velocities

        min_seen = 1.0
        refined = 0
        k_from = 0
        for column in range(1, len(requested)):
            # pending (r_to, lattice index or None, depth, spectrum,
            # velocities) targets, nearest last; a failed step pushes its
            # target back with what was computed there, then the midpoint:
            # the middle lattice point of a multi-interval step, the middle
            # r of a single one
            r_from = lattice[k_from]
            k_end = requested[column]
            pending = [(lattice[k_end], k_end, 0, None, None)]
            while pending:
                r_to, k_to, depth, data_to, velocities_to = pending.pop()
                if data_to is None:
                    data_to = spectrum(r_to, k_to)
                coarse = k_to is not None and k_to - k_from > 1
                try:
                    step, overlaps = match(data, data_to)
                    accepted = True
                except StepTooLargeError:
                    accepted = False
                if coarse and accepted:
                    if velocities is None:
                        velocities = level_velocities(data)
                    if velocities_to is None:
                        velocities_to = level_velocities(data_to)
                    perm = step[column_of]
                    accepted = _gaps_stay_open(
                        unwrapped, velocities[column_of],
                        data_to.phases[perm], velocities_to[perm],
                        r_to - r_from)
                if coarse and not accepted:
                    k_mid = (k_from + k_to) // 2
                    pending += [(r_to, k_to, 0, data_to, velocities_to),
                                (lattice[k_mid], k_mid, 0, None, None)]
                    continue
                if not accepted:
                    if depth >= MAX_REFINEMENTS:
                        raise TrackingError(
                            f"sweep: tracking failed on [{r_from:.6g}, "
                            f"{r_to:.6g}] after {MAX_REFINEMENTS} bisections"
                        ) from None
                    refined += 1
                    pending += [(r_to, k_to, depth + 1, data_to,
                                 velocities_to),
                                (0.5 * (r_from + r_to), None, depth + 1,
                                 None, None)]
                    continue
                min_seen = min(min_seen, float(overlaps.min()))
                column_of = step[column_of]
                unwrapped = _unwrap_step(unwrapped,
                                         data_to.phases[column_of])
                data, velocities = data_to, velocities_to
                r_from = r_to
                if k_to is not None:
                    k_from = k_to
            phases[:, column] = unwrapped

    return LevelTrajectories(
        family=family,
        scale=scale,
        r_grid=lattice[requested],
        phases=phases,
        min_overlap=min_seen,
        refined_steps=refined,
        start_velocities=start_velocities,
    )


@dataclass(frozen=True)
class ShiftStatistics:
    """Level displacement between two grid values of r, in spacing units."""

    N: int
    h: float
    r0: float
    r1: float
    subtract_mean: bool
    mean_sq_spacing_units: float
    max_abs_spacing_units: float


def _grid_index(grid: np.ndarray, r: float, name: str) -> int:
    hits = np.flatnonzero(np.isclose(grid, r, rtol=0.0, atol=1e-9))
    if hits.size == 0:
        raise DomainError(f"shift_statistics: {name}={r:g} is not on the r grid")
    return int(hits[0])


def shift_statistics(traj: LevelTrajectories, r0: float | None = None,
                     r1: float | None = None,
                     subtract_mean: bool = True) -> ShiftStatistics:
    """Mean squared tracked level shift between r0 and r1, in spacing units.

    subtract_mean removes the spectral-average shift first; a traced
    perturbation moves every level by the same secular amount, which is
    not a physical splitting.
    """
    grid = traj.r_grid
    g0 = 0 if r0 is None else _grid_index(grid, r0, "r0")
    g1 = grid.size - 1 if r1 is None else _grid_index(grid, r1, "r1")
    delta = traj.displacements(g0, g1) / mean_spacing(traj.N)
    if subtract_mean:
        delta = delta - np.mean(delta)
    return ShiftStatistics(
        N=traj.N,
        h=traj.scale.h,
        r0=float(grid[g0]),
        r1=float(grid[g1]),
        subtract_mean=subtract_mean,
        mean_sq_spacing_units=float(np.mean(delta ** 2)),
        max_abs_spacing_units=float(np.max(np.abs(delta))),
    )


@dataclass(frozen=True, eq=False)
class ModelFit:
    """One candidate model of mean_sq versus h, scored in log space."""

    name: str
    params: dict
    rss_log: float
    aic: float
    predicted: np.ndarray

    def __post_init__(self):
        self.predicted.setflags(write=False)


def _aicc(n: int, rss: float, k: int) -> float:
    # small-sample corrected AIC; +inf when the correction is undefined
    # (n <= k + 1), which bars models the data cannot support
    if n - k - 1 <= 0:
        return float("inf")
    return n * np.log(max(rss, 1e-300) / n) + 2 * k + (2 * k * (k + 1)) / (n - k - 1)


def _scored(name: str, params: dict, log_y: np.ndarray,
            pred_log: np.ndarray, k: int) -> ModelFit:
    """A k-parameter fit with its log-space residual and AICc."""
    rss = float(np.sum((log_y - pred_log) ** 2))
    return ModelFit(name=name, params=params, rss_log=rss,
                    aic=_aicc(log_y.size, rss, k), predicted=np.exp(pred_log))


def _fit_power_law(log_h: np.ndarray, log_y: np.ndarray) -> ModelFit:
    design = np.column_stack([np.ones_like(log_h), log_h])
    coef, _, rank, _ = np.linalg.lstsq(design, log_y, rcond=None)
    if rank < 2:
        raise FitError("scaling: power-law design matrix is singular")
    params = {"prefactor": float(np.exp(coef[0])), "exponent": float(coef[1])}
    return _scored("power_law", params, log_y,
                   design @ coef, 2)


def _fit_constant(log_y: np.ndarray) -> ModelFit:
    level = float(np.mean(log_y))
    return _scored("constant", {"value": float(np.exp(level))}, log_y,
                   np.full(log_y.size, level), 1)


def _log_model_profile(s, x: np.ndarray, log_y: np.ndarray):
    """q = log y + 2 log(1 + s x), d = q - mean(q), and g'/2 and g''/2 of
    g = sum d^2, for a scalar s or an array of them (a row each)."""
    sx = np.multiply.outer(s, x)
    q = log_y + 2.0 * np.log1p(sx)
    d = q - q.mean(axis=-1, keepdims=True)
    u = 2.0 * x / (1.0 + sx)  # d q / d s
    curvature = np.sum((u - u.mean(axis=-1, keepdims=True)) ** 2
                       - 0.5 * d * u ** 2, axis=-1)
    return q, d, np.sum(d * u, axis=-1), curvature


def _fit_log_model(log_N: np.ndarray, log_y: np.ndarray) -> ModelFit:
    """Fit y = 1 / (alpha + beta log N)^2 in log space on its physical branch.

    With x = log N - mean(log N), alpha + beta log N = a (1 + s x), a > 0.
    For each s the best log a is -mean(q) / 2, which leaves the residuals d
    and cost g(s) of _log_model_profile (variable projection: Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  s ranges over the open
    interval where every 1 + s x > 0, so the pole N0 = exp(-alpha / beta)
    lies outside the ladder; s = 0 is the constant limit, and g grows
    without bound at both ends.  The least g of a fixed scan and its two
    neighbours bracket the minimum; Newton's method on g', bisecting where
    a step leaves the bracket, runs until its step would change no base.
    """
    mean_log_N = float(np.mean(log_N))
    x = log_N - mean_log_N
    if not x.max() > x.min():
        raise FitError("scaling: log-model design matrix is singular")
    points = np.linspace(-1.0 / x.max(), -1.0 / x.min(), LOG_MODEL_SCAN + 1)
    d = _log_model_profile(points[1:-1], x, log_y)[1]
    k = int(np.argmin(np.sum(d ** 2, axis=1)))
    lo, s, hi = points[k:k + 3]
    while True:
        q, d, slope, curvature = _log_model_profile(s, x, log_y)
        if slope < 0.0:
            lo = s
        else:
            hi = s
        step = s - slope / curvature if curvature > 0.0 else np.nan
        if np.array_equal(1.0 + step * x, 1.0 + s * x):
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        s = step

    a = np.exp(-0.5 * np.mean(q))
    params = {"alpha": float(a * (1.0 - s * mean_log_N)), "beta": float(a * s)}
    return _scored("log_model", params, log_y, log_y - d, 2)


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Mean-square shifts across an N ladder with all candidate model fits.

    ``model`` names the winner by small-sample corrected AIC; residuals
    for every candidate stay available in ``models``.  d = 2 throughout
    (kicked maps behave as two-dimensional autonomous systems).
    first_order_estimates holds each N's (r1 - r0)^2 var(v) from the level
    velocities at r0, in the order of the ShiftStatistics in per_N.
    """

    family: MapFamily
    per_N: tuple
    models: dict
    model: str
    first_order_estimates: tuple
    d = 2

    @property
    def N_values(self) -> np.ndarray:
        return np.array([s.N for s in self.per_N], dtype=float)

    @property
    def h_values(self) -> np.ndarray:
        return 1.0 / self.N_values

    @property
    def mean_sq(self) -> np.ndarray:
        return np.array([s.mean_sq_spacing_units for s in self.per_N])

    @property
    def first_order_ratios(self) -> np.ndarray:
        """mean_sq over its first-order estimate, per N."""
        return self.mean_sq / np.array(self.first_order_estimates)

    @property
    def first_order_response(self) -> bool:
        """Whether every first-order ratio reaches FIRST_ORDER_FLOOR."""
        return bool(self.first_order_ratios.min() >= FIRST_ORDER_FLOOR)


def fit_shift_scaling(N_values, mean_sq) -> tuple:
    """Fit the three candidate models and pick a winner.

    Returns (models, winner_name).  Selection is by AIC with the
    small-sample correction: raw residuals alone can never prefer the
    constant model, which is nested inside the power law.
    """
    N_values = np.asarray(N_values, dtype=float)
    y = np.asarray(mean_sq, dtype=float)
    if N_values.size != y.size:
        raise DomainError("scaling: N_values and mean_sq lengths differ")
    if N_values.size < 3:
        raise DomainError("scaling: need at least 3 ladder points to fit")
    if not np.all((N_values > 0.0) & (N_values < np.inf)):  # a NaN fails too
        raise DomainError("scaling: every N must be positive and finite")
    if not np.all((y > 0.0) & (y < np.inf)):  # a NaN fails too
        raise FitError("scaling: mean-square shifts must be positive and "
                       "finite to fit")

    log_N = np.log(N_values)
    log_y = np.log(y)
    models = {
        "power_law": _fit_power_law(-log_N, log_y),
        "constant": _fit_constant(log_y),
        "log_model": _fit_log_model(log_N, log_y),
    }
    winner = min(models.values(), key=lambda f: (f.aic, f.name)).name
    return models, winner


def _first_order_estimate(traj: LevelTrajectories, r0: float, r1: float,
                          subtract_mean: bool) -> float:
    """(r1 - r0)^2 times the shift statistic of the velocities at r0.

    Levels moving at constant velocity v_n shift by (r1 - r0) v_n, so this
    is the mean-square shift of first-order response: (r1 - r0)^2 var(v)
    with the mean subtracted, v as an ends_only sweep from r0 keeps them.
    """
    v = traj.start_velocities
    if subtract_mean:
        v = v - np.mean(v)
    return float((r1 - r0) ** 2 * np.mean(v ** 2))


def scaling_study(family: MapFamily, N_list, r0: float = 0.0, r1: float = 3.0,
                  delta_r: float = 0.05,
                  subtract_mean: bool = True) -> ScalingFit:
    """Sweep each N in the ladder and fit how mean-square shifts scale with h.

    Each N is swept ends_only over [r0, r1], which also yields the level
    velocities at r0 and so the first-order estimate of its mean_sq.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 4:
        raise DomainError(
            f"scaling: need at least 4 ladder points, got {len(N_list)}")
    stats = []
    estimates = []
    for N in N_list:
        traj = sweep_quantization(family, PlanckScale(N), r0=r0, r1=r1,
                                  delta_r=delta_r, ends_only=True)
        stats.append(shift_statistics(traj, r0=r0, r1=r1,
                                      subtract_mean=subtract_mean))
        estimates.append(_first_order_estimate(traj, r0, r1, subtract_mean))

    y = [s.mean_sq_spacing_units for s in stats]
    models, winner = fit_shift_scaling(N_list, y)
    return ScalingFit(
        family=family,
        per_N=tuple(stats),
        models=models,
        model=winner,
        first_order_estimates=tuple(estimates),
    )
