"""End-to-end acceptance gate, run at production size.

Each test measures one headline property of the pipeline and prints a
single [PASS]/[FAIL] line with the measured numbers; the assertion uses
exactly the thresholds quoted in the printed line.  The collected lines
are replayed in an "acceptance results" section at the end of the run.
"""

import numpy as np

from conftest import (LADDER, SHIFT_WINDOW, dense, fit_window,
                      linear_response_guard, record_result)
from qmap import (
    MapFamily,
    PlanckScale,
    build_floquet,
    diagonal_elements_report,
    diagonalize,
    mean_spacing,
    quantize_observable,
    quantum_F_curve,
    quantum_classical_compare,
    quantum_correlator,
)
from qmap.cli import run_command
from qmap.quantize import _unitarity_defect

LINEAR_BAND = (0.65, 1.35)


def _in_linear_band(study) -> bool:
    return LINEAR_BAND[0] <= study.exponent <= LINEAR_BAND[1]


def _relative_standard_errors(ladder, r1) -> dict:
    """Sampling error of each mean_sq, std(per-level squared shift)/sqrt(N),
    relative to mean_sq itself."""
    out = {}
    for N, traj in ladder.items():
        g1 = int(np.flatnonzero(np.isclose(traj.r_grid, r1))[0])
        delta = traj.displacements(0, g1) / mean_spacing(N)
        sq = (delta - delta.mean()) ** 2
        out[N] = float(np.std(sq) / np.sqrt(N) / np.mean(sq))
    return out


def _slow_law(study) -> tuple:
    """(verdict, log/power residual ratio, monotone) of the slow-ergodic law:
    mean_sq strictly decreasing in N, slower than the linear band, and the
    inverse-square-log model fitting no worse than the power law."""
    ratio = study.models["log_model"].rss_log / study.models["power_law"].rss_log
    monotone = bool(np.all(np.diff(study.mean_sq) < 0.0))
    ok = monotone and study.exponent < LINEAR_BAND[0] and ratio <= 1.0
    return ok, ratio, monotone


def test_unitarity_and_eigenresidual_certificates():
    # the library keeps U as its diagonal factors and certifies those;
    # the dense U is formed here so that max |U*U - 1| keeps its meaning
    worst_defect = 0.0
    worst_factor = 0.0
    worst_residual = 0.0
    for variant in ("chaotic", "regular", "slow_ergodic"):
        for r in (0.0, 3.0):
            for N in (64, 512):
                op = build_floquet(MapFamily(variant, r=r), PlanckScale(N))
                worst_defect = max(worst_defect, _unitarity_defect(dense(op)))
                worst_factor = max(worst_factor, op.construction_certificate)
                data = diagonalize(op)
                worst_residual = max(worst_residual, data.max_residual)
    ok = worst_defect < 1e-12 and worst_factor < 1e-12 \
        and worst_residual < 1e-10
    record_result(
        "unitarity and eigenresidual certificates", ok,
        f"max |U*U - 1| = {worst_defect:.2e} (< 1e-12), "
        f"max ||d| - 1| over D_V and D_T = {worst_factor:.2e} (< 1e-12), "
        f"max eigenpair residual = {worst_residual:.2e} (< 1e-10) "
        f"over all variants, r in {{0, 3}}, N in {{64, 512}}")
    assert ok


def test_chaotic_levels_move_less_than_one_spacing(chaotic_ladder):
    traj = chaotic_ladder[512]
    worst = float(np.max(np.abs(traj.displacements())) / mean_spacing(512))
    ok = worst < 1.0
    record_result(
        "chaotic level rigidity (N=512, r 0 to 3)", ok,
        f"max |level displacement| = {worst:.4f} mean spacings (< 1)")
    assert ok


def test_regular_levels_cross(regular_ladder):
    count = regular_ladder[512].crossings
    ok = count >= 1
    record_result(
        "regular level crossings (N=512, r 0 to 3)", ok,
        f"tracked index exchanges = {count} (>= 1)")
    assert ok


def test_chaotic_shift_scaling_is_linear_in_h(chaotic_ladder, slow_ladder,
                                              regular_ladder):
    r0, r1 = SHIFT_WINDOW
    study = fit_window(chaotic_ladder)
    s = study.exponent
    guard_ok, guard = linear_response_guard(chaotic_ladder, r1)
    # the band must single out the chaotic family on the same window
    slow = fit_window(slow_ladder)
    regular = fit_window(regular_ladder)
    rejects_others = not (_in_linear_band(slow) or _in_linear_band(regular))
    # and the guard must catch the saturated full window
    full_guard_ok, full_guard = linear_response_guard(chaotic_ladder, 3.0)
    s_full = fit_window(chaotic_ladder, r1=3.0).exponent
    ok = guard_ok and _in_linear_band(study) and rejects_others \
        and not full_guard_ok
    points = ", ".join(f"N={N}: {y:.5f}"
                       for N, y in zip(study.N_values, study.mean_sq))
    detail = (
        f"window r {r0:g} to {r1:g}: power-law exponent s = {s:.3f} vs "
        f"required 1.0 +/- 0.35 (mean_sq by N: {points}); {guard}; "
        f"band excludes slow_ergodic s = {slow.exponent:.3f} and regular "
        f"s = {regular.exponent:.3f}: {rejects_others}; guard rejects "
        f"r 0 to 3: {not full_guard_ok} ({full_guard}); "
        f"info: r 0 to 3 exponent s = {s_full:.3f}")
    record_result("chaotic mean-square shift scaling", ok, detail)
    assert ok, (
        "the chaotic mean-square shift must scale linearly in h on a window "
        "in first-order response, the band must exclude the slow_ergodic and "
        "regular ladders, and the guard must reject the saturated r 0 to 3 "
        f"window: {detail}")


def test_regular_shift_plateau(regular_ladder):
    study = fit_window(regular_ladder, r1=3.0)
    s = study.exponent
    ok = abs(s) < 0.35 and study.model == "constant"
    record_result(
        "regular mean-square shift plateau", ok,
        f"|power-law exponent| = {abs(s):.3f} (< 0.35), "
        f"selected model = {study.model} (want constant)")
    assert ok


def test_slow_ergodic_logarithmic_shift_law(slow_ladder, chaotic_ladder,
                                            regular_ladder):
    r0, r1 = SHIFT_WINDOW
    study = fit_window(slow_ladder)
    law_ok, ratio, monotone = _slow_law(study)
    guard_ok, guard = linear_response_guard(slow_ladder, r1)
    # the criterion must single out the slow_ergodic family on the same window
    chaotic = fit_window(chaotic_ladder)
    regular = fit_window(regular_ladder)
    regular_ok, _, regular_monotone = _slow_law(regular)
    rejects_others = not (_slow_law(chaotic)[0] or regular_ok)
    ok = guard_ok and law_ok and rejects_others
    errors = ", ".join(f"N={N}: {e:.1%}" for N, e in
                       _relative_standard_errors(slow_ladder, r1).items())
    detail = (
        f"window r {r0:g} to {r1:g}: mean_sq monotone decreasing in N = "
        f"{monotone}, power-law exponent s = {study.exponent:.3f} "
        f"(< {LINEAR_BAND[0]}), log-model / power-law residual ratio = "
        f"{ratio:.3f} (<= 1); {guard}; criterion excludes chaotic "
        f"s = {chaotic.exponent:.3f} and regular (monotone = "
        f"{regular_monotone}): {rejects_others}; "
        f"info: standard error of mean_sq by N: {errors}")
    record_result("slow-ergodic logarithmic shift law", ok, detail)
    assert ok, (
        "the slow-ergodic mean-square shift must fall monotonically in N, "
        "more slowly than the linear band, with the inverse-square-log model "
        "fitting no worse than a power law, on a window in first-order "
        "response, and the criterion must exclude the chaotic and regular "
        f"ladders: {detail}")


def test_diagonal_variance_shrinks_with_dimension(chaotic_spectra):
    variances = []
    for N in LADDER:
        obs = quantize_observable("cos2pi_q", PlanckScale(N))
        rep = diagonal_elements_report(chaotic_spectra[N], obs)
        variances.append(rep.variance)
    slope = float(np.polyfit(np.log(LADDER), np.log(variances), 1)[0])
    v512 = variances[-1]
    ok = -1.4 <= slope <= -0.6 and v512 < 1e-2
    record_result(
        "eigenstate variance scaling for cos 2 pi q", ok,
        f"slope of log variance against log N = {slope:.3f} "
        f"(required -1 +/- 0.4), variance at N=512 = {v512:.3e} (< 1e-2)")
    assert ok


def test_time_average_inequality_chain(chaotic_512, cos_q_512):
    _, data = chaotic_512
    T_grid = np.geomspace(0.1, 100 * 512 / (2 * np.pi), 20)
    rep = quantum_F_curve(data, cos_q_512, T_grid)
    F = np.array([F for _, F in rep.F_curve])
    # the chain and monotonicity are exact statements about the computed
    # numbers, so they are compared without tolerance
    chain_ok = bool(np.all(rep.F_infinity <= F))
    monotone_ok = bool(np.all(np.diff(F) <= 0.0))
    tail = float(F[-1] - rep.F_infinity)
    ok = chain_ok and monotone_ok and 0.0 <= tail < 1e-6
    record_result(
        "time-averaged correlator inequality chain", ok,
        f"F_inf <= F(T) at all 20 grid points = {chain_ok}, "
        f"F non-increasing = {monotone_ok}, "
        f"F(T_large) - F_inf = {tail:.2e} (< 1e-6)")
    assert ok


def test_quantum_classical_correspondence(chaotic_512, cos_q_512,
                                          chaotic_classical):
    op, _ = chaotic_512
    deviation = quantum_classical_compare(quantum_correlator(op, cos_q_512, 5),
                                          chaotic_classical)
    ok = deviation < 0.05
    record_result(
        "quantum-classical correspondence (N=512, t <= 5)", ok,
        f"max |f(t) - C_cl(t)| = {deviation:.4f} (< 0.05), 1e6 samples")
    assert ok


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    runs = {
        "classical": ["classical", "--variant", "chaotic",
                      "--t-max", "10", "--samples", "20000"],
        "spectrum": ["spectrum", "--variant", "chaotic", "--N", "64",
                     "--r", "1.5"],
        "sweep": ["sweep", "--variant", "regular", "--N", "64",
                  "--r0", "0", "--r1", "1", "--delta-r", "0.25"],
        "scaling": ["scaling", "--variant", "chaotic", "--N", "8,12,16,20",
                    "--delta-r", "0.5"],
        "ergodicity": ["ergodicity", "--variant", "chaotic", "--N", "64",
                       "--t-max", "5", "--samples", "20000"],
    }
    all_same = True
    details = []
    for name, argv in runs.items():
        out = tmp_path / name
        snapshots = []
        for _ in range(2):
            code = run_command(argv + ["--out", str(out), "--emit-plot"])
            assert code == 0, f"{name} run failed"
            snapshots.append({p.name: p.read_bytes()
                              for p in out.iterdir() if p.is_file()})
        same = snapshots[0] == snapshots[1]
        all_same = all_same and same
        details.append(
            f"{name}: {len(snapshots[1])} files "
            f"{'identical' if same else 'DIFFER'}")
    record_result("byte-identical reruns of every command", all_same,
                  "; ".join(details))
    assert all_same
