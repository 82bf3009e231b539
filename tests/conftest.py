"""Shared fixtures for the test suite.

The production-size sweeps and spectra dominate the runtime, so everything
heavy is session-scoped and computed at most once; the acceptance gate and
the unit tests draw from the same objects.
"""

import ast
import pathlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import schur

import qmap
from qmap import (
    MapFamily,
    PhaseSpacePoint,
    PlanckScale,
    build_floquet,
    classical_correlator,
    diagonalize,
    fit_shift_scaling,
    lyapunov_exponent,
    quantize_observable,
    shift_statistics,
    sweep_quantization,
)
from qmap.quantize import _circulant_from_momentum_diagonal
from qmap.spectral import _certify, wrap_phase

LADDER = (64, 128, 256, 512)

# The shift-scaling laws are first-order statements: each level moves at the
# constant velocity <n|A|n>, so they are read on an r window where every
# ladder N still responds ballistically.  At N = 64 the mean-square shift
# saturates well before r = 3.
SHIFT_WINDOW = (0.0, 0.5)
BALLISTIC_REFERENCE_R = 0.1
BALLISTIC_FLOOR = 0.9

_RESULT_LINES = []


def record_result(label: str, passed: bool, detail: str) -> None:
    """Register one verdict line for the end-of-run summary block."""
    line = f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}"
    _RESULT_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _RESULT_LINES:
        terminalreporter.section("acceptance results")
        for line in _RESULT_LINES:
            terminalreporter.write_line(line)


def linear_response_guard(ladder: dict, r1: float) -> tuple:
    """Check that every ladder N is still in first-order response at r1.

    The ballistic ratio of one N is mean_sq(0 -> r1) / r1**2 divided by the
    same quantity at the reference r = 0.1; it stays at 1 while level shifts
    grow linearly in r.  Returns (every ratio >= BALLISTIC_FLOOR, a detail
    string quoting the per-N ratios and both thresholds).
    """
    def rate(traj, r):
        stats = shift_statistics(traj, r0=0.0, r1=r)
        return stats.mean_sq_spacing_units / r ** 2

    ratios = {N: rate(traj, r1) / rate(traj, BALLISTIC_REFERENCE_R)
              for N, traj in ladder.items()}
    ok = min(ratios.values()) >= BALLISTIC_FLOOR
    per_N = ", ".join(f"N={N}: {x:.3f}" for N, x in ratios.items())
    return ok, (f"ballistic ratio at r1 = {r1:g} over r = "
                f"{BALLISTIC_REFERENCE_R:g} ({per_N}; "
                f"each >= {BALLISTIC_FLOOR})")


@dataclass(frozen=True, eq=False)
class WindowFit:
    """Shift-scaling fit of a ladder of full-grid sweeps on one r window."""

    N_values: tuple
    mean_sq: np.ndarray
    models: dict
    model: str

    @property
    def exponent(self) -> float:
        return self.models["power_law"].params["exponent"]


def fit_window(ladder: dict, r0: float = SHIFT_WINDOW[0],
               r1: float = SHIFT_WINDOW[1]) -> WindowFit:
    """Fit the mean-square shifts of {N: trajectories} between r0 and r1.

    The fixtures sweep every grid point of r = 0..3, so one ladder serves
    every window; scaling_study would sweep each window again.
    """
    mean_sq = np.array([shift_statistics(traj, r0=r0, r1=r1)
                        .mean_sq_spacing_units for traj in ladder.values()])
    models, winner = fit_shift_scaling(list(ladder), mean_sq)
    return WindowFit(tuple(ladder), mean_sq, models, winner)


def _imports_below(node, package, function=None):
    """(enclosing function, line) of every import of package below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _imports_below(child, package, child.name)
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""] + [f"{child.module}.{alias.name}"
                                             for alias in child.names]
        else:
            names = []
        if any(name == package or name.startswith(f"{package}.")
               for name in names):
            found.append((function, child.lineno))
        found += _imports_below(child, package, function)
    return found


def package_imports(package: str) -> list:
    """(file, enclosing function, line) of every import of package, or of
    one of its submodules, in the qmap sources."""
    found = []
    for path in sorted(pathlib.Path(qmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, function, line)
                  for function, line in _imports_below(tree, package)]
    return found


def random_unitary(rng, N: int) -> np.ndarray:
    """Haar-random N x N unitary: QR of a complex Gaussian, phases fixed."""
    Z = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    Q, R = np.linalg.qr(Z)
    return Q * (R.diagonal() / np.abs(R.diagonal()))[None, :]


def dense(op) -> np.ndarray:
    """The Floquet operator U = F^-1 D_T F D_V of op as a dense
    position-basis matrix, formed anew on every call: the reference its
    factored readers are checked against."""
    U = _circulant_from_momentum_diagonal(op.drift_phases)
    U *= op.kick_phases[None, :]
    return U


def schur_reference(U):
    """(phases, vectors, worst residual) of a dense unitary U from its
    complex Schur decomposition, sorted by phase: the reference the real
    route is checked against.  U is normal, so its Schur vectors are
    eigenvectors; _certify reads their phases and residuals against U."""
    U = np.asarray(U, dtype=complex)
    _, vectors = schur(U, output="complex")
    phases, residuals = _certify(SimpleNamespace(apply=U.__matmul__), vectors)
    order = np.argsort(phases, kind="stable")
    return phases[order], vectors[:, order], float(residuals.max())


def all_pairs_crossings(phases: np.ndarray) -> int:
    """Tracked index exchanges of an (L, G) array of phases, every pair of
    levels tested at every step: qmap.sweep._count_crossings as it was
    before it tested only the pairs within reach, kept on purpose as the
    cross-check of that window."""
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


def dense_observable(obs) -> np.ndarray:
    """The observable as a dense complex position-basis matrix, the
    reference its structured readers are checked against: diag(a) at the
    position site, the circulant F^-1 diag(a) F at the momentum site."""
    if obs.site == "momentum":
        return _circulant_from_momentum_diagonal(obs.diagonal.astype(complex))
    return np.diag(obs.diagonal).astype(complex)


def _ladder_sweeps(variant: str) -> dict:
    fam = MapFamily(variant)
    return {N: sweep_quantization(fam, PlanckScale(N)) for N in LADDER}


@pytest.fixture(scope="session")
def chaotic_ladder():
    """r = 0..3 sweeps of the chaotic variant over the full N ladder."""
    return _ladder_sweeps("chaotic")


@pytest.fixture(scope="session")
def regular_ladder():
    return _ladder_sweeps("regular")


@pytest.fixture(scope="session")
def slow_ladder():
    return _ladder_sweeps("slow_ergodic")


@pytest.fixture(scope="session")
def chaotic_512():
    """(FloquetOperator, SpectralData) for the chaotic variant, r = 0, N = 512."""
    op = build_floquet(MapFamily("chaotic"), PlanckScale(512))
    return op, diagonalize(op)


@pytest.fixture(scope="session")
def cos_q_512():
    return quantize_observable("cos2pi_q", PlanckScale(512))


@pytest.fixture(scope="session")
def chaotic_spectra(chaotic_512):
    """Spectral data of the chaotic variant at r = 0 for every ladder N."""
    out = {512: chaotic_512[1]}
    for N in (64, 128, 256):
        out[N] = diagonalize(build_floquet(MapFamily("chaotic"), PlanckScale(N)))
    return out


@pytest.fixture(scope="session")
def chaotic_classical():
    """Monte Carlo C(t) for cos 2 pi q under the chaotic map, 1e6 samples."""
    return classical_correlator(MapFamily("chaotic"), "cos2pi_q",
                                t_max=25, samples=1_000_000, rng_seed=20260818)


@pytest.fixture(scope="session")
def chaotic_lyapunov():
    rng = np.random.default_rng(424242)
    seeds = [PhaseSpacePoint(q, p) for q, p in rng.random((10, 2))]
    return lyapunov_exponent(MapFamily("chaotic"), seeds, 1_000_000)
