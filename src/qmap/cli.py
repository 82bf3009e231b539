"""qmap command line interface.

Subcommands: classical, spectrum, sweep, scaling, ergodicity.  Parameters
come from defaults, an optional JSON config (--config, which also carries
the command so `qmap --config run.json` alone works), and flags, with
flags winning.  Exit codes: 0 success, 1 numerical or environment failure
(tracking loss, degenerate fits, unwritable outputs), 2 bad usage or
configuration.

QMAP_THREADS caps the BLAS thread pools (0 means automatic); it is
applied to the standard environment knobs before numpy is first imported,
which is why `import qmap` loads no numerical module and the numerical
modules are imported inside functions here.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _load_all

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_env() -> None:
    raw = os.environ.get("QMAP_THREADS")
    if raw is None:
        return
    from .errors import ConfigurationError
    try:
        n = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"QMAP_THREADS must be a non-negative integer, got {raw!r}") from None
    if n < 0:
        raise ConfigurationError(
            f"QMAP_THREADS must be a non-negative integer, got {raw!r}")
    if n == 0:
        return
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _int_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmap",
        description="Quantized kicked torus maps: spectra, level motion, "
                    "ergodicity diagnostics.",
    )
    parser.add_argument("--config", help="JSON run file; its \"command\" key "
                                         "selects the run when no subcommand "
                                         "is given")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        # SUPPRESS keeps an absent subparser flag from clobbering the
        # top-level --config value
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file of run parameters")
        p.add_argument("--variant",
                       choices=("chaotic", "regular", "slow_ergodic"))
        p.add_argument("--observable",
                       choices=("cos2pi_q", "cos2pi_p", "identity"))
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--emit-plot", dest="emit_plot", action="store_const",
                       const=True, help="also write a gnuplot script")

    def r_window(p):
        p.add_argument("--r0", "--r-min", dest="r0", type=float,
                       help="sweep start (alias --r-min)")
        p.add_argument("--r1", "--r-max", dest="r1", type=float,
                       help="sweep end (alias --r-max)")
        p.add_argument("--delta-r", dest="delta_r", type=float)
        p.add_argument("--sorted-pairing", dest="sorted_pairing",
                       action="store_const", const=True,
                       help="pair levels by sorted phase order instead of "
                            "eigenvector overlap")
        p.add_argument("--subtract-mean", dest="subtract_mean",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="remove the spectral-average shift before "
                            "squaring (default on)")

    p = sub.add_parser("classical", help="Lyapunov exponent and Monte Carlo "
                                         "autocorrelation of the classical map")
    common(p)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--lyapunov-steps", dest="lyapunov_steps", type=int)
    p.add_argument("--lyapunov-seeds", dest="lyapunov_seeds", type=int)

    p = sub.add_parser("spectrum", help="eigenphases of one Floquet operator")
    common(p)
    p.add_argument("--N", type=_int_list, help="Hilbert space dimension")
    p.add_argument("--r", type=float)

    p = sub.add_parser("sweep", help="track all eigenphases across an r sweep")
    common(p)
    p.add_argument("--N", type=_int_list, help="Hilbert space dimension")
    r_window(p)

    p = sub.add_parser("scaling", help="mean-square level shifts across an "
                                       "N ladder, with model fits")
    common(p)
    p.add_argument("--N", type=_int_list,
                   help="comma-separated ladder, e.g. 64,128,256,512")
    r_window(p)

    p = sub.add_parser("ergodicity", help="diagonal-element statistics, F(T) "
                                          "curves and correlator comparison")
    common(p)
    p.add_argument("--N", type=_int_list,
                   help="one dimension or a comma-separated ladder")
    p.add_argument("--r", type=float)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--samples", type=int)

    return parser


_SINGLE_N_COMMANDS = ("spectrum", "sweep")


def _runspec_from_args(args):
    from .config import load_config, make_runspec
    from .errors import ConfigurationError

    config_path = getattr(args, "config", None)
    file_spec = load_config(config_path) if config_path else None

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}

    N_values = overrides.pop("N", None)
    if N_values is not None:
        command = args.command or (file_spec.command if file_spec else None)
        if command in _SINGLE_N_COMMANDS and len(N_values) != 1:
            raise ConfigurationError(
                f"{command} takes a single --N, got {len(N_values)} values")
        overrides["N"] = N_values[0]
        overrides["N_list"] = N_values

    if file_spec is not None:
        if args.command and args.command != file_spec.command:
            raise ConfigurationError(
                f"subcommand {args.command!r} conflicts with command "
                f"{file_spec.command!r} in {config_path}")
        base = file_spec.as_dict()
    elif args.command:
        base = {"command": args.command}
    else:
        raise ConfigurationError(
            "no command: give a subcommand or --config with a \"command\" key")
    return make_runspec(base, _source="command line", **overrides)


def _family(spec, with_r: bool = False):
    from .model import MapFamily
    return MapFamily(spec.variant, r=spec.r if with_r else 0.0)


def run_classical(spec) -> dict:
    import numpy as np

    from .classical import classical_correlator, lyapunov_exponent
    from .model import PhaseSpacePoint

    family = _family(spec)
    rng = np.random.default_rng(spec.seed)
    points = [PhaseSpacePoint(float(rng.random()), float(rng.random()))
              for _ in range(spec.lyapunov_seeds)]
    report = lyapunov_exponent(family, points, spec.lyapunov_steps)
    curve = classical_correlator(family, spec.observable, spec.t_max,
                                 spec.samples, spec.seed)

    print(f"lyapunov exponent: {report.lam:.6f} (spread {report.spread:.6f}, "
          f"{report.seed_count} seeds x {report.steps} steps)")
    if report.lam > 0.05:
        for N in spec.N_list:
            print(f"ehrenfest time at N={N}: {report.ehrenfest_time(N):.3f}")
    else:
        print("ehrenfest time: not meaningful (exponent consistent with zero)")
    print(f"C(0) = {curve.C[0]:.6f}, C({curve.t_max}) = {curve.C[-1]:.6f}")
    return {"curve": curve, "lyapunov": report}


def run_spectrum(spec) -> dict:
    from .model import PlanckScale
    from .quantize import build_floquet
    from .spectral import diagonalize

    data = diagonalize(build_floquet(_family(spec, with_r=True),
                                     PlanckScale(spec.N)))
    print(f"diagonalized {spec.variant} N={spec.N} at r={spec.r:g}: "
          f"max residual {data.max_residual:.3e}, "
          f"mean spacing {data.mean_spacing:.6f}")
    return {"data": data}


def run_sweep(spec) -> dict:
    from .model import PlanckScale
    from .sweep import shift_statistics, sweep_quantization

    traj = sweep_quantization(_family(spec), PlanckScale(spec.N),
                              r_grid=spec.r_grid, r0=spec.r0, r1=spec.r1,
                              delta_r=spec.delta_r,
                              sorted_pairing=spec.sorted_pairing)
    grid = traj.r_grid
    print(f"swept {spec.variant} N={spec.N} over r in "
          f"[{grid[0]:g}, {grid[-1]:g}] "
          f"({grid.size} grid points, {traj.refined_steps} refined steps, "
          f"worst overlap {traj.min_overlap:.3f})")
    print(f"crossings: {traj.crossings}")
    if grid.size > 1:
        stats = shift_statistics(traj, subtract_mean=spec.subtract_mean)
        print(f"mean square shift: {stats.mean_sq_spacing_units:.6g} "
              f"spacing^2, max |shift|: {stats.max_abs_spacing_units:.6g} "
              f"spacings")
    return {"trajectories": traj}


def run_scaling(spec) -> dict:
    from .sweep import scaling_study

    study = scaling_study(_family(spec), spec.N_list, r0=spec.r0, r1=spec.r1,
                          delta_r=spec.delta_r,
                          subtract_mean=spec.subtract_mean)
    for s in study.per_N:
        print(f"N={s.N}: mean square shift {s.mean_sq_spacing_units:.6g} "
              f"spacing^2")
    for name, fit in study.models.items():
        print(f"model {name}: rss_log={fit.rss_log:.6g}, aic={fit.aic:.4f}, "
              f"params={fit.params}")
    print(f"selected model: {study.model}")
    return {"study": study}


def _default_T_grid(N: int):
    import numpy as np

    # 20 log-spaced probes out to the Heisenberg saturation window
    T_large = 100.0 * N / (2.0 * np.pi)
    return np.geomspace(0.1, T_large, 20)


def run_ergodicity(spec) -> dict:
    import dataclasses

    import numpy as np

    from .classical import classical_correlator
    from .ergodicity import (diagonal_elements_report,
                             quantum_classical_compare,
                             quantum_correlator_eigenbasis, quantum_F_curve)
    from .model import PlanckScale
    from .quantize import build_floquet, quantize_observable
    from .spectral import diagonalize

    family = _family(spec, with_r=True)
    reports = []
    last = None
    for N in spec.N_list:
        scale = PlanckScale(N)
        op = build_floquet(family, scale)
        data = diagonalize(op)
        obs = quantize_observable(spec.observable, scale)
        rep = diagonal_elements_report(data, obs)
        T_grid = spec.T_grid if spec.T_grid is not None else _default_T_grid(N)
        curve = quantum_F_curve(data, obs, np.asarray(T_grid, dtype=float))
        reports.append(dataclasses.replace(rep, F_curve=curve.F_curve))
        last = (op, data, obs)

    op, data, obs = last
    classical = classical_correlator(family, spec.observable, spec.t_max,
                                     spec.samples, spec.seed)
    f_quantum = quantum_correlator_eigenbasis(data, obs, spec.t_max)
    deviation = quantum_classical_compare(op, obs, classical, spec.t_max)

    for rep in reports:
        print(f"N={rep.N}: variance {rep.variance:.6g}, "
              f"F_infinity {rep.F_infinity:.6g}")
    print(f"quantum vs classical correlator (N={data.N}, t <= {spec.t_max}): "
          f"max |diff| = {deviation:.6g}")
    return {
        "reports": reports,
        "correlation_times": np.arange(spec.t_max + 1, dtype=float),
        "C_classical": classical.C[:spec.t_max + 1],
        "f_quantum": f_quantum,
        "classical_deviation": deviation,
    }


_RUNNERS = {
    "classical": run_classical,
    "spectrum": run_spectrum,
    "sweep": run_sweep,
    "scaling": run_scaling,
    "ergodicity": run_ergodicity,
}


def run_command(argv) -> int:
    """Parse argv, run the selected command, write artifacts; exit code."""
    from .errors import ConfigurationError, DomainError, NumericalError
    try:
        _apply_thread_env()
        # with the thread cap in place, load the whole library before any
        # command runs: every command then starts with numpy and scipy
        # loaded, which the environment record of bench/traced.py reads at
        # the first layer call
        _load_all()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        spec = _runspec_from_args(args)
        results = _RUNNERS[spec.command](spec)
        from .outputs import write_outputs
        for path in write_outputs(results, spec):
            print(f"wrote {path}")
    except (ConfigurationError, DomainError) as exc:
        print(f"qmap: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qmap: numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qmap: i/o failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
