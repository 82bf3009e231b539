"""qmap command line interface.

Subcommands: classical, spectrum, sweep, scaling, ergodicity.  Parameters
come from defaults, an optional JSON config (--config, which also carries
the command so `qmap --config run.json` alone works), and flags, with
flags winning.  A subcommand has a flag (_FLAGS) for each field it reads
(config.READS) and no other; --N sets N and N_list.  Exit codes: 0
success, 1 numerical or environment failure (tracking loss, degenerate
fits, unwritable outputs), 2 bad usage or configuration.

`qmap ergodicity` takes the classical C(t) from the classical.csv in its
output directory when `qmap classical` wrote it there with the same
variant, observable, samples, t_max and seed (and this qmap version);
running `classical` first into the same --out thus saves `ergodicity` its
Monte Carlo run.  Any other classical.csv is ignored and C(t) is computed
afresh; both ways give the same bits, so every artifact is the same.

Every dense product and every LAPACK call runs on one pool, numpy's
OpenBLAS (see qmap.quantize and qmap.spectral).  Two things size that
pool.  QMAP_THREADS caps it (0 means automatic): `import qmap` copies it
into the standard environment knobs before numpy loads, and run_command
lowers the pool to it at run time too, for a caller that loaded numpy
first.  And `sweep` at any N, and every other run whose largest
dimension (N, or the largest N of N_list) is at most
ONE_BLAS_THREAD_MAX_N = 256, runs on one BLAS thread.  A sweep
diagonalizes every lattice point, and with two workers it runs each next
point's eigh of Re U_s, one LAPACK call, on a background thread while
this one forms the part after it and finishes and tracks the current
point (qmap.sweep), so the two threads take both cores and a second BLAS
thread would only compete with them.  For one matrix at a time a second
thread gains nothing up to N = 256 and pays above it (README,
"Determinism and threads").  run_command lowers the pool when the spec
is resolved and puts back the count it found when it returns, so
in-process callers keep theirs; it never raises the count.  Every sweep,
and every other run below the cut, is byte-identical across
QMAP_THREADS values.  Between calls the pool's threads sleep
after a short spin, which `import qmap` sets
(qmap._threads.SPIN_EXPONENT).  QMAP_THREADS also caps the worker
threads of the Monte Carlo correlator (qmap.classical) and of the
conjugation-route correlator (qmap.ergodicity), whose results are
bit-identical at every count.

The layer modules are called through their module attributes, so a
function replaced there (a test's spy, a benchmark's span) is the one
that runs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import classical, ergodicity, outputs, quantize, spectral, sweep
from ._threads import blas_threads, requested_threads, set_blas_threads
from .config import READ_BY_ALL, READS, make_runspec, read_config
from .errors import ConfigurationError, DomainError, NumericalError
from .model import VARIANTS, MapFamily, PhaseSpacePoint, PlanckScale

# runs whose largest dimension is at most this take one BLAS thread, and
# sweeps at every N: up to N = 256 a second OpenBLAS thread speeds up no
# end-to-end run, and a sweep keeps both cores busy with its own two
# threads (run_command)
ONE_BLAS_THREAD_MAX_N = 256


def _largest_dimension(spec) -> int:
    """N for the commands that read N, else the largest N of N_list."""
    return spec.N if "N" in READS[spec.command] else max(spec.N_list)


def _int_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# RunSpec field -> (option strings, argparse keywords); a command gets the
# flags of the fields it reads (config.READS).  r_grid and T_grid are set
# from config files only.
_STORE_TRUE = {"action": "store_const", "const": True}
_FLAGS = {
    "variant": (("--variant",), {}),
    "out_dir": (("--out",), {"help": "output directory"}),
    "emit_plot": (("--emit-plot",),
                  {**_STORE_TRUE, "help": "also write a gnuplot script"}),
    "r": (("--r",), {"type": float}),
    "observable": (("--observable",), {}),
    "seed": (("--seed",), {"type": int}),
    "N": (("--N",), {"type": _int_list, "help": "Hilbert space dimension"}),
    "N_list": (("--N",), {"type": _int_list, "metavar": "N",
                          "help": "one dimension or a comma-separated "
                                  "ladder, e.g. 64,128,256,512"}),
    "r0": (("--r0", "--r-min"), {"type": float,
                                 "help": "sweep start (alias --r-min)"}),
    "r1": (("--r1", "--r-max"), {"type": float,
                                 "help": "sweep end (alias --r-max)"}),
    "delta_r": (("--delta-r",), {"type": float}),
    "t_max": (("--t-max",), {"type": int}),
    "samples": (("--samples",), {"type": int}),
    "lyapunov_steps": (("--lyapunov-steps",), {"type": int}),
    "lyapunov_seeds": (("--lyapunov-seeds",), {"type": int}),
    "subtract_mean": (("--subtract-mean",), {
        "action": argparse.BooleanOptionalAction, "default": None,
        "help": "remove the spectral-average shift before squaring "
                "(default on)"}),
    "sorted_pairing": (("--sorted-pairing",), {
        **_STORE_TRUE, "help": "pair levels by sorted phase order instead "
                               "of eigenvector overlap"}),
}


def build_parser() -> argparse.ArgumentParser:
    choices = {"variant": VARIANTS, "observable": classical.OBSERVABLES}
    parser = argparse.ArgumentParser(
        prog="qmap",
        description="Quantized kicked torus maps: spectra, level motion, "
                    "ergodicity diagnostics.",
    )
    parser.add_argument("--config", help="JSON run file; its \"command\" key "
                                         "selects the run when no subcommand "
                                         "is given")
    sub = parser.add_subparsers(dest="command")
    for command, names in READS.items():
        # a runner's first docstring line is its command's help
        p = sub.add_parser(command,
                           help=_RUNNERS[command].__doc__.partition("\n")[0])
        # SUPPRESS keeps an absent subparser flag from clobbering the
        # top-level --config value
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file of run parameters")
        for name in READ_BY_ALL + names:
            if name in _FLAGS:
                options, kwargs = _FLAGS[name]
                if name in choices:
                    kwargs = {**kwargs, "choices": choices[name]}
                p.add_argument(*options, dest=name, **kwargs)
    return parser


def _runspec_from_args(args):
    config_path = getattr(args, "config", None)
    raw = read_config(config_path) if config_path else {}

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}

    # --N sets both sizes, so the one a command does not read agrees with
    # the one it reads
    if "N" in overrides:
        if len(overrides["N"]) != 1:
            raise ConfigurationError(f"{args.command} takes a single --N, "
                                     f"got {len(overrides['N'])} values")
        overrides["N_list"] = overrides["N"]
        overrides["N"] = overrides["N"][0]
    elif "N_list" in overrides:
        overrides["N"] = overrides["N_list"][0]

    if args.command and "command" in raw and args.command != raw["command"]:
        raise ConfigurationError(
            f"subcommand {args.command!r} conflicts with command "
            f"{raw['command']!r} in {config_path}")
    if not args.command and "command" not in raw:
        raise ConfigurationError(
            "no command: give a subcommand or --config with a \"command\" key")
    # one validation after the merge: a flag may mend a bad file value
    sources = [f"config {config_path}"] if config_path else []
    if args.command or overrides:
        sources.append("command line")
    return make_runspec(raw, _source=" and ".join(sources),
                        command=args.command, **overrides)


def run_classical(spec) -> dict:
    """Lyapunov exponent and Monte Carlo autocorrelation of the classical map"""
    family = MapFamily(spec.variant, r=spec.r)
    rng = np.random.default_rng(spec.seed)
    points = [PhaseSpacePoint(float(rng.random()), float(rng.random()))
              for _ in range(spec.lyapunov_seeds)]
    report = classical.lyapunov_exponent(family, points, spec.lyapunov_steps)
    curve = classical.classical_correlator(family, spec.observable,
                                           spec.t_max, spec.samples, spec.seed)

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
    """eigenphases of one Floquet operator"""
    data = spectral.diagonalize(quantize.build_floquet(
        MapFamily(spec.variant, r=spec.r), PlanckScale(spec.N)))
    print(f"diagonalized {spec.variant} N={spec.N} at r={spec.r:g}: "
          f"max residual {data.max_residual:.3e}, "
          f"mean spacing {data.mean_spacing:.6f}")
    return {"data": data}


def run_sweep(spec) -> dict:
    """track all eigenphases across an r sweep"""
    traj = sweep.sweep_quantization(MapFamily(spec.variant, r=spec.r),
                                    PlanckScale(spec.N),
                                    r_grid=spec.r_grid, r0=spec.r0,
                                    r1=spec.r1, delta_r=spec.delta_r,
                                    sorted_pairing=spec.sorted_pairing)
    grid = traj.r_grid
    print(f"swept {spec.variant} N={spec.N} over r in "
          f"[{grid[0]:g}, {grid[-1]:g}] "
          f"({grid.size} grid points, {traj.refined_steps} refined steps, "
          f"worst overlap {traj.min_overlap:.3f})")
    print(f"crossings: {traj.crossings}")
    if grid.size > 1:
        stats = sweep.shift_statistics(traj,
                                       subtract_mean=spec.subtract_mean)
        print(f"mean square shift: {stats.mean_sq_spacing_units:.6g} "
              f"spacing^2, max |shift|: {stats.max_abs_spacing_units:.6g} "
              f"spacings")
    return {"trajectories": traj}


def run_scaling(spec) -> dict:
    """mean-square level shifts across an N ladder, with model fits"""
    study = sweep.scaling_study(MapFamily(spec.variant, r=spec.r),
                                spec.N_list, r0=spec.r0, r1=spec.r1,
                                delta_r=spec.delta_r,
                                subtract_mean=spec.subtract_mean)
    for s, ratio in zip(study.per_N, study.first_order_ratios):
        print(f"N={s.N}: mean square shift {s.mean_sq_spacing_units:.6g} "
              f"spacing^2, first-order ratio {ratio:.3f}")
    for name, fit in study.models.items():
        print(f"model {name}: rss_log={fit.rss_log:.6g}, aic={fit.aic:.4f}, "
              f"params={fit.params}")
    print(f"selected model: {study.model}")
    return {"study": study}


def _default_T_grid(N: int):
    # 20 log-spaced probes out to the Heisenberg saturation window
    T_large = 100.0 * N / (2.0 * np.pi)
    return np.geomspace(0.1, T_large, 20)


def run_ergodicity(spec) -> dict:
    """diagonal-element statistics, F(T) curves and correlator comparison

    C(t) is read from the classical.csv in the output directory when
    `qmap classical` wrote it for the same variant, observable, samples,
    t_max and seed (qmap.outputs.read_classical_curve); else the Monte
    Carlo correlator runs here.  Both give the same bits.  The quantum
    correlator is computed by both routes: the eigenbasis one is written,
    the conjugation one is compared with C(t), and their largest gap is
    printed.
    """
    family = MapFamily(spec.variant, r=spec.r)
    reports = []
    curves = []
    for N in spec.N_list:
        scale = PlanckScale(N)
        op = quantize.build_floquet(family, scale)
        data = spectral.diagonalize(op)
        obs = quantize.quantize_observable(spec.observable, scale)
        reports.append(ergodicity.diagonal_elements_report(data, obs))
        T_grid = spec.T_grid if spec.T_grid is not None else _default_T_grid(N)
        curves.append(ergodicity.quantum_F_curve(
            data, obs, np.asarray(T_grid, dtype=float)))

    # the correlators compare at the largest N of the ladder, the last one
    curve = outputs.read_classical_curve(spec)
    if curve is None:
        curve = classical.classical_correlator(family, spec.observable,
                                               spec.t_max, spec.samples,
                                               spec.seed)
    else:
        print(f"classical C(t) read from "
              f"{os.path.join(spec.out_dir, outputs.CLASSICAL_CSV)} (same "
              f"variant, observable, samples, t_max and seed)")
    f_quantum = ergodicity.quantum_correlator_eigenbasis(data, obs, spec.t_max)
    f_conjugated = ergodicity.quantum_correlator(op, obs, spec.t_max)
    deviation = ergodicity.quantum_classical_compare(f_conjugated, curve)
    route_gap = float(np.max(np.abs(f_conjugated - f_quantum)))

    for rep in reports:
        print(f"N={rep.N}: variance {rep.variance:.6g}, "
              f"F_infinity {rep.F_infinity:.6g}")
    print(f"quantum vs classical correlator (N={data.N}, t <= {spec.t_max}): "
          f"max |diff| = {deviation:.6g}")
    print(f"conjugation vs eigenbasis route (N={data.N}, t <= {spec.t_max}): "
          f"max |f_conj - f_eig| = {route_gap:.3g}")
    return {
        "reports": reports,
        "curves": curves,
        "correlation_times": np.arange(spec.t_max + 1, dtype=float),
        "C_classical": curve.C[:spec.t_max + 1],
        "f_quantum": f_quantum,
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
    try:
        requested = requested_threads()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        spec = _runspec_from_args(args)
        # the environment caps the pool only where qmap loaded numpy, so
        # the cap is applied to the running pool as well
        cap = (1 if spec.command == "sweep"
               or _largest_dimension(spec) <= ONE_BLAS_THREAD_MAX_N
               else requested)
        found = blas_threads()
        lowered = cap > 0 and found is not None and found > cap
        if lowered:
            set_blas_threads(cap)
        try:
            results = _RUNNERS[spec.command](spec)
            for path in outputs.write_outputs(results, spec):
                print(f"wrote {path}")
        finally:
            if lowered:
                set_blas_threads(found)
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
    code = run_command(sys.argv[1:] if argv is None else argv)
    # what is left lives until exit; frozen, the collector does not walk
    # numpy's and scipy's module objects again at interpreter shutdown
    # (0.14 s of a scaling run's exit on a 2-core host, 0.02 s frozen)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
