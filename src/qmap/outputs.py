"""Artifact writers: CSV tables, fit JSON, gnuplot scripts.

Every file is written with LF newlines, sorted run-parameter headers and
floats at 17 significant digits, so identical runs produce byte-identical
artifacts.  CSV files open with `# key=value` comment lines echoing the
run parameters; f_curve.csv stacks one block per N, separated by double
blank lines for gnuplot's index convention.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._version import __version__
from .config import RunSpec


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def runspec_header(spec: RunSpec) -> list:
    lines = [f"# qmap {__version__}"]
    flat = []
    for key, value in spec.as_dict().items():
        if isinstance(value, dict):
            flat.extend((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat.append((key, value))
    for key, value in sorted(flat):
        if isinstance(value, (list, tuple)):
            value = ",".join(format_value(v) for v in value)
        else:
            value = format_value(value) if value is not None else "none"
        lines.append(f"# {key}={value}")
    return lines


def write_csv(path: str, spec: RunSpec, columns, blocks) -> None:
    """blocks: (label, rows) pairs; a None label writes the rows bare.

    Labelled blocks open with a `# label` line and are separated by two
    blank lines.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in runspec_header(spec):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for i, (label, rows) in enumerate(blocks):
            if i:
                fh.write("\n\n")
            if label is not None:
                fh.write(f"# {label}\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")


def write_fit_json(path: str, spec: RunSpec, study) -> None:
    payload = {
        "qmap_version": __version__,
        "runspec": spec.as_dict(),
        "data": {
            "N": [int(n) for n in study.N_values],
            "h": [float(h) for h in study.h_values],
            "mean_sq_shift_spacing_units": [float(y) for y in study.mean_sq],
        },
        "models": {
            name: {
                "params": {k: float(v) for k, v in fit.params.items()},
                "rss_log": float(fit.rss_log),
                "aic": float(fit.aic),
                "predicted": [float(p) for p in fit.predicted],
            }
            for name, fit in study.models.items()
        },
        "model": study.model,
        "d": study.d,
    }
    if study.first_order_estimates is not None:
        payload["data"]["first_order_estimate"] = [
            float(e) for e in study.first_order_estimates]
        payload["data"]["first_order_ratio"] = [
            float(x) for x in study.first_order_ratios]
        payload["first_order_response"] = study.first_order_response
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_GP_SECTIONS = {
    "spectrum": [
        ("spectrum.png", [
            'set xlabel "r"',
            'set ylabel "eigenphase"',
            "plot 'spectrum.csv' using 1:3 with dots notitle",
        ]),
    ],
    "scaling": [
        ("shifts.png", [
            "set logscale xy",
            'set xlabel "h = 1/N"',
            'set ylabel "mean square shift (spacing units)"',
            "plot 'shifts.csv' using 2:3 with linespoints title 'measured'",
        ]),
    ],
    "ergodicity": [
        ("variance.png", [
            "set logscale xy",
            'set xlabel "N"',
            'set ylabel "variance"',
            "plot 'ergodicity.csv' using 1:2 with linespoints title 'variance',"
            " 'ergodicity.csv' using 1:3 with linespoints title 'F_infinity'",
        ]),
        ("f_curve.png", [
            "unset logscale",
            "set logscale x",
            'set xlabel "T"',
            'set ylabel "F(T)"',
            "plot for [i=0:*] 'f_curve.csv' index i using 1:2 with lines"
            " title sprintf('block %d', i)",
        ]),
        ("correlator.png", [
            "unset logscale",
            'set xlabel "t"',
            'set ylabel "autocorrelation"',
            "plot 'correlator.csv' using 1:2 with linespoints title 'classical',"
            " 'correlator.csv' using 1:3 with linespoints title 'quantum'",
        ]),
    ],
    "classical": [
        ("classical.png", [
            'set xlabel "t"',
            'set ylabel "C(t)"',
            "plot 'classical.csv' using 1:2:3 with yerrorlines title 'C(t)'",
        ]),
    ],
}
_GP_SECTIONS["sweep"] = _GP_SECTIONS["spectrum"]


def write_plot_script(path: str, command: str) -> None:
    """Emit a gnuplot script rendering this command's artifacts to PNGs."""
    lines = [
        f"# gnuplot script generated by qmap {__version__}",
        "set datafile separator comma",
        "set terminal pngcairo size 900,600",
        "set grid",
        "set key left top",
    ]
    for png, section in _GP_SECTIONS.get(command, []):
        lines.append("")
        lines.append(f"set output '{png}'")
        lines.extend(section)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(results: dict, spec: RunSpec) -> list:
    """Write every artifact for one finished run; returns the paths written.

    results carries the computed objects keyed by role; which keys are
    read depends on spec.command.  The gnuplot script is only produced
    when the run asked for it.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    written: list = []

    def target(name: str) -> str:
        path = os.path.join(spec.out_dir, name)
        written.append(path)
        return path

    cmd = spec.command
    if cmd == "classical":
        curve = results["curve"]
        write_csv(target("classical.csv"), spec, ("t", "C", "stderr"),
                  [(None, zip(curve.times, curve.C, curve.stderr))])
    elif cmd == "spectrum":
        phases = results["data"].phases
        write_csv(target("spectrum.csv"), spec, ("r", "level", "eigenphase"),
                  [(None, [(spec.r, level, phi)
                           for level, phi in enumerate(phases)])])
    elif cmd == "sweep":
        traj = results["trajectories"]
        write_csv(target("spectrum.csv"), spec, ("r", "level", "eigenphase"),
                  [(None, [(r, level, traj.phases[level, g])
                           for g, r in enumerate(traj.r_grid)
                           for level in range(traj.phases.shape[0])])])
    elif cmd == "scaling":
        study = results["study"]
        write_csv(target("shifts.csv"), spec,
                  ("N", "h", "mean_sq_shift_spacing_units"),
                  [(None, [(s.N, s.h, s.mean_sq_spacing_units)
                           for s in study.per_N])])
        write_fit_json(target("fit.json"), spec, study)
    elif cmd == "ergodicity":
        write_csv(target("ergodicity.csv"), spec,
                  ("N", "variance", "F_infinity"),
                  [(None, [(rep.N, rep.variance, rep.F_infinity)
                           for rep in results["reports"]])])
        write_csv(target("f_curve.csv"), spec, ("T", "F"),
                  [(f"N={curve.N}", curve.F_curve)
                   for curve in results["curves"]])
        write_csv(target("correlator.csv"), spec,
                  ("t", "C_classical", "f_quantum"),
                  [(None, zip(results["correlation_times"],
                              results["C_classical"], results["f_quantum"]))])
    else:
        raise ValueError(f"write_outputs: unknown command {cmd!r}")

    if spec.emit_plot:
        write_plot_script(target("plots.gp"), cmd)
    return written
