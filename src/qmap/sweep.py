"""Eigenlevel motion under the quantization parameter r, and its h-scaling.

A sweep diagonalizes the Floquet operator on an r grid and connects
eigenpairs between neighboring grid points by eigenvector overlap, so each
level keeps its identity through crossings and avoided crossings.  Phases
are unwrapped along each trajectory; displacements are then plain
differences even when a level drifts through the 0 / 2 pi seam.

Steps whose best overlaps fall below a hard floor are bisected, up to
MAX_REFINEMENTS levels deep; refined points steady the tracking but only
requested grid points enter the output.  Sorted-index pairing is the same
loop with identity matching in place of tracking, kept behind a flag for
comparison: it mislabels levels wherever they cross.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, linear_sum_assignment

from .errors import DomainError, FitError, StepTooLargeError, TrackingError
from .model import MapFamily, PlanckScale
from .quantize import build_floquet
from .spectral import diagonalize, mean_spacing, wrap_phase

TRACK_FAIL_BELOW = 0.25
MAX_REFINEMENTS = 3
MODEL_NAMES = ("power_law", "constant", "log_model")


def track_levels(prev, next, fail_below: float = TRACK_FAIL_BELOW):
    """Match eigenvector columns across a parameter step.

    prev and next are SpectralData (or bare matrices of orthonormal column
    vectors) with equal N.  Returns (perm, overlaps): level n of prev
    continues in column perm[n] of next, with squared overlap overlaps[n].
    Each level takes the column of its largest |<v|w>|^2 when every such
    maximum exceeds 1/2; otherwise the exact optimal assignment is used.
    The two agree whenever the maxima exceed 1/2: a column of orthonormal
    overlaps sums to at most 1, so it holds at most one entry above 1/2,
    and any other pairing has a smaller entry in every row it changes.
    Overlaps below fail_below even then mean the step outran the
    eigenbasis: StepTooLargeError tells the caller to refine the grid.
    """
    prev_vectors = getattr(prev, "vectors", prev)
    next_vectors = getattr(next, "vectors", next)
    if prev_vectors.shape != next_vectors.shape:
        raise DomainError("track_levels: vector blocks must have equal shapes")
    N = prev_vectors.shape[1]
    O = np.abs(prev_vectors.conj().T @ next_vectors) ** 2

    rows = np.arange(N)
    perm = O.argmax(axis=1)
    overlaps = O[rows, perm]
    if not overlaps.min() > 0.5:
        perm = linear_sum_assignment(-O)[1]
        overlaps = O[rows, perm]

    worst = float(overlaps.min())
    if worst < fail_below:
        n_bad = int(np.argmin(overlaps))
        raise StepTooLargeError(
            f"track_levels: overlap {worst:.3f} below {fail_below} at level "
            f"{n_bad}; parameter step too large for unambiguous tracking"
        )
    return perm, overlaps


def _pair_by_rank(prev_vectors: np.ndarray, next_vectors: np.ndarray):
    """Sorted-index pairing: level n continues in column n, at any overlap."""
    overlaps = np.abs(np.sum(prev_vectors.conj() * next_vectors, axis=0)) ** 2
    return np.arange(prev_vectors.shape[1]), overlaps


@dataclass(frozen=True, eq=False)
class LevelTrajectories:
    """Unwrapped eigenphase flow phi_n(r) on the requested r grid.

    permutations[g] maps the phase-sorted rank of each trajectory at grid
    point g to its rank at g+1 (ranks use the raw [0, 2 pi) cut).
    crossings and permutations are computed from the phases on each read,
    uncached, so scaling, which reads neither, computes neither.
    """

    family: MapFamily
    scale: PlanckScale
    r_grid: np.ndarray
    phases: np.ndarray
    min_overlap: float
    refined_steps: int
    sorted_pairing: bool = False

    def __post_init__(self):
        self.r_grid.setflags(write=False)
        self.phases.setflags(write=False)

    @property
    def N(self) -> int:
        return self.scale.N

    @property
    def crossings(self) -> int:
        return _count_crossings(self.phases)

    @property
    def permutations(self) -> tuple:
        return _rank_permutations(self.phases)

    def displacements(self, g0: int = 0, g1: int = -1) -> np.ndarray:
        """Per-level phase motion phi_n(r_grid[g1]) - phi_n(r_grid[g0])."""
        return self.phases[:, g1] - self.phases[:, g0]


def _spectrum_at(family: MapFamily, scale: PlanckScale, r: float):
    data = diagonalize(build_floquet(dataclasses.replace(family, r=r), scale))
    return data.phases, data.vectors


def _unwrap_step(prev_unwrapped: np.ndarray, raw: np.ndarray) -> np.ndarray:
    turns = np.round((prev_unwrapped - raw) / (2.0 * np.pi))
    return raw + 2.0 * np.pi * turns


def _count_crossings(phases: np.ndarray) -> int:
    """Pairwise tracked index exchanges along the sweep.

    Levels i and j exchange where the wrapped difference of their phases
    changes sign through zero between adjacent grid points; sign flips
    through +-pi are seam artifacts, excluded by requiring the two
    magnitudes to sum below pi.
    """
    L, G = phases.shape
    i_idx, j_idx = np.triu_indices(L, k=1)
    count = 0
    d_prev = None
    for g in range(G):
        d = wrap_phase(phases[i_idx, g] - phases[j_idx, g])
        if d_prev is not None:
            flips = (np.sign(d_prev) * np.sign(d) < 0)
            through_zero = (np.abs(d_prev) + np.abs(d)) < np.pi
            count += int(np.count_nonzero(flips & through_zero))
        d_prev = d
    return count


def _rank_permutations(phases: np.ndarray) -> tuple:
    raw = np.mod(phases, 2.0 * np.pi)
    G = raw.shape[1]
    ranks = np.argsort(np.argsort(raw, axis=0), axis=0)
    perms = []
    for g in range(G - 1):
        order_g = np.argsort(ranks[:, g])
        perms.append(ranks[order_g, g + 1].copy())
    return tuple(perms)


def _build_grid(r_grid, r0: float, r1: float, delta_r: float) -> np.ndarray:
    if r_grid is not None:
        grid = np.asarray(r_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("sweep: r_grid must be a non-empty 1-d sequence")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise DomainError("sweep: r_grid must be strictly ascending")
        return grid.copy()
    if delta_r <= 0.0:
        raise DomainError(f"sweep: delta_r must be positive, got {delta_r}")
    if r1 <= r0:
        raise DomainError("sweep: r1 must exceed r0")
    n_steps = int(round((r1 - r0) / delta_r))
    if not np.isclose(r0 + n_steps * delta_r, r1, atol=1e-12):
        raise DomainError("sweep: (r1 - r0) must be an integer multiple of delta_r")
    grid = r0 + delta_r * np.arange(n_steps + 1)
    grid[-1] = r1
    return grid


def sweep_quantization(family: MapFamily, scale: PlanckScale, r_grid=None,
                       r0: float = 0.0, r1: float = 3.0,
                       delta_r: float = 0.05,
                       sorted_pairing: bool = False) -> LevelTrajectories:
    """Follow every eigenphase along an ascending r grid.

    Pass an explicit r_grid, or let one be built from r0/r1/delta_r.  On a
    step-too-large tracking failure the offending interval is bisected, up
    to MAX_REFINEMENTS levels deep, before giving up with TrackingError.
    sorted_pairing runs the same loop with identity matching (level n
    continues as the n-th phase in sorted order), which never refines.
    """
    grid = _build_grid(r_grid, r0, r1, delta_r)
    match = _pair_by_rank if sorted_pairing else track_levels
    raw, vectors = _spectrum_at(family, scale, grid[0])
    unwrapped = raw.copy()
    phases = np.empty((scale.N, grid.size))
    phases[:, 0] = unwrapped

    min_seen = 1.0
    refined = 0
    for g in range(1, grid.size):
        # pending (r_to, depth, spectrum at r_to or None) targets, nearest
        # last; a failure pushes its target back, spectrum kept, then r_mid
        r_from = grid[g - 1]
        pending = [(grid[g], 0, None)]
        while pending:
            r_to, depth, spectrum = pending.pop()
            if spectrum is None:
                spectrum = _spectrum_at(family, scale, r_to)
            raw_next, vec_next = spectrum
            try:
                perm, overlaps = match(vectors, vec_next)
            except StepTooLargeError:
                if depth >= MAX_REFINEMENTS:
                    raise TrackingError(
                        f"sweep: tracking failed on [{r_from:.6g}, {r_to:.6g}] "
                        f"after {MAX_REFINEMENTS} bisections"
                    ) from None
                refined += 1
                pending += [(r_to, depth + 1, spectrum),
                            (0.5 * (r_from + r_to), depth + 1, None)]
                continue
            min_seen = min(min_seen, float(overlaps.min()))
            unwrapped = _unwrap_step(unwrapped, raw_next[perm])
            vectors = vec_next[:, perm]
            # free the unpermuted basis before the next diagonalization
            del raw_next, vec_next, spectrum
            r_from = r_to
        phases[:, g] = unwrapped

    return LevelTrajectories(
        family=family,
        scale=scale,
        r_grid=grid,
        phases=phases,
        min_overlap=min_seen,
        refined_steps=refined,
        sorted_pairing=sorted_pairing,
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
    mean_shift_spacing_units: float


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
    mean_shift = float(np.mean(delta))
    if subtract_mean:
        delta = delta - mean_shift
    return ShiftStatistics(
        N=traj.N,
        h=traj.scale.h,
        r0=float(grid[g0]),
        r1=float(grid[g1]),
        subtract_mean=subtract_mean,
        mean_sq_spacing_units=float(np.mean(delta ** 2)),
        max_abs_spacing_units=float(np.max(np.abs(delta))),
        mean_shift_spacing_units=mean_shift,
    )


@dataclass(frozen=True, eq=False)
class ModelFit:
    """One candidate model of mean-square shift versus h, scored in log space."""

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
    return _scored("power_law", params, log_y, design @ coef, 2)


def _fit_constant(log_y: np.ndarray) -> ModelFit:
    level = float(np.mean(log_y))
    return _scored("constant", {"value": float(np.exp(level))}, log_y,
                   np.full(log_y.size, level), 1)


def _fit_log_model(log_N: np.ndarray, y: np.ndarray,
                   log_y: np.ndarray) -> ModelFit:
    # y = 1 / (alpha + beta log N)^2; a prefactor would be redundant (it
    # rescales alpha and beta).  Linearize through z = 1/sqrt(y), then
    # polish the log-space residuals directly.
    z = 1.0 / np.sqrt(y)
    design = np.column_stack([np.ones_like(log_N), log_N])
    x0, _, rank, _ = np.linalg.lstsq(design, z, rcond=None)
    if rank < 2:
        raise FitError("scaling: log-model design matrix is singular")

    def residuals(p):
        base = p[0] + p[1] * log_N
        if np.any(np.abs(base) < 1e-12):
            return np.full(log_N.size, 1e6)
        return log_y - (-2.0 * np.log(np.abs(base)))

    sol = least_squares(residuals, x0=x0, method="lm")
    base = sol.x[0] + sol.x[1] * log_N
    if np.any(np.abs(base) < 1e-12):
        raise FitError("scaling: log model degenerate (alpha + beta log N ~ 0)")
    params = {"alpha": float(sol.x[0]), "beta": float(sol.x[1])}
    return _scored("log_model", params, log_y,
                   -2.0 * np.log(np.abs(base)), 2)


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Mean-square shifts across an N ladder with all candidate model fits.

    ``model`` names the winner by small-sample corrected AIC; residuals
    for every candidate stay available in ``models``.  d = 2 throughout
    (kicked maps behave as two-dimensional autonomous systems).
    """

    family: MapFamily
    points: tuple
    per_N: tuple
    models: dict
    model: str
    d: int = 2

    @property
    def N_values(self) -> np.ndarray:
        return np.array([N for N, _ in self.points], dtype=float)

    @property
    def h_values(self) -> np.ndarray:
        return 1.0 / self.N_values

    @property
    def mean_sq(self) -> np.ndarray:
        return np.array([y for _, y in self.points])

    @property
    def exponent(self) -> float:
        return self.models["power_law"].params["exponent"]

    @property
    def residual_sum(self) -> float:
        return self.models[self.model].rss_log


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
    if np.any(y <= 0.0):
        raise FitError("scaling: mean-square shifts must be positive to fit")

    log_h = -np.log(N_values)
    log_N = np.log(N_values)
    log_y = np.log(y)

    models = {
        "power_law": _fit_power_law(log_h, log_y),
        "constant": _fit_constant(log_y),
        "log_model": _fit_log_model(log_N, y, log_y),
    }
    winner = min(models.values(), key=lambda f: (f.aic, f.name)).name
    return models, winner


def scaling_study(family: MapFamily, N_list, r0: float = 0.0, r1: float = 3.0,
                  delta_r: float = 0.05, subtract_mean: bool = True,
                  trajectories: dict | None = None) -> ScalingFit:
    """Sweep each N in the ladder and fit how mean-square shifts scale with h.

    trajectories, when given, maps N to a precomputed LevelTrajectories
    over [r0, r1] for the same family, letting callers reuse heavy sweeps.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 4:
        raise DomainError(
            f"scaling: need at least 4 ladder points, got {len(N_list)}")
    stats = []
    for N in N_list:
        traj = None if trajectories is None else trajectories.get(N)
        if traj is None:
            traj = sweep_quantization(family, PlanckScale(N), r0=r0, r1=r1,
                                      delta_r=delta_r)
        stats.append(shift_statistics(traj, r0=r0, r1=r1,
                                      subtract_mean=subtract_mean))

    y = [s.mean_sq_spacing_units for s in stats]
    models, winner = fit_shift_scaling(N_list, y)
    return ScalingFit(
        family=family,
        points=tuple((int(N), float(v)) for N, v in zip(N_list, y)),
        per_N=tuple(stats),
        models=models,
        model=winner,
    )
