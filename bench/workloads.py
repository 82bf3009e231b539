"""Benchmark workloads: the qmap CLI operations, and the check of their outputs.

Each workload is one user operation, made of one or more `qmap` CLI
processes.  After every operation the artifacts and the printed summary are
read back and compared with reference values recorded from the same
operation (`reference.json`, written by `record_reference.py`), and every
artifact header must echo the workload's inputs, so a run that did less
work (fewer r points, samples or steps) fails the check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Default relative tolerance: loose enough for reordered floating-point
# sums, far tighter than any change of physics.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# The correspondence workload is the only one with randomness.  Its Monte
# Carlo values can only be checked exactly against a recorded run, so the
# benchmark seed selects one of these program seeds, each recorded.
PROGRAM_SEEDS = (1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008)

LADDER = [64, 128, 256, 512]


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    # qmap argument lists of the operation's processes, run in order
    steps: tuple
    # artifact header keys every written CSV must echo, with their values
    header: dict
    # layer spans the traced run must see at least once
    layers: tuple
    # dimensions the traced run must see diagonalized
    diag_sizes: tuple
    # printed summary values: name -> (regex, (rel_tol, abs_tol))
    printed: dict = field(default_factory=dict)
    seeded: bool = False


def _scaling_chaotic(seed: int) -> Workload:
    return Workload(
        name="scaling-chaotic",
        steps=(("scaling", "--variant", "chaotic", "--N", "64,128,256,512",
                "--r0", "0", "--r1", "0.5", "--delta-r", "0.05"),),
        header={"command": "scaling", "family.variant": "chaotic",
                "N_list": LADDER, "r0": 0.0, "r1": 0.5, "delta_r": 0.05,
                "r_grid": None},
        layers=("spectral.diagonalize", "quantize.build_floquet",
                "sweep.track_levels", "sweep.sweep_quantization",
                "sweep.scaling_study", "outputs.write_outputs"),
        diag_sizes=tuple(LADDER),
    )


def _sweep_regular(seed: int) -> Workload:
    return Workload(
        name="sweep-regular",
        steps=(("sweep", "--variant", "regular", "--N", "256"),),
        header={"command": "sweep", "family.variant": "regular", "N": 256,
                "r0": 0.0, "r1": 3.0, "delta_r": 0.05, "r_grid": None},
        layers=("spectral.diagonalize", "quantize.build_floquet",
                "sweep.track_levels", "sweep.sweep_quantization",
                "outputs.write_outputs"),
        diag_sizes=(256,),
        printed={
            "crossings": (r"^crossings: (\d+)$", (0.0, 0.0)),
            "mean_sq_shift": (r"^mean square shift: (\S+) spacing", (1e-5, 0.0)),
        },
    )


def _correspondence(seed: int) -> Workload:
    s = str(program_seed(seed))
    return Workload(
        name="correspondence",
        steps=(("classical", "--seed", s, "--t-max", "100"),
               ("ergodicity", "--seed", s, "--t-max", "100")),
        header={"family.variant": "chaotic", "observable": "cos2pi_q",
                "N_list": LADDER, "samples": 1_000_000,
                "lyapunov_steps": 100_000, "lyapunov_seeds": 20,
                "t_max": 100, "seed": int(s), "T_grid": None},
        layers=("spectral.diagonalize", "quantize.build_floquet",
                "quantize.quantize_observable",
                "ergodicity.quantum_correlator",
                "ergodicity.quantum_correlator_eigenbasis",
                "ergodicity.quantum_F_curve",
                "ergodicity.diagonal_elements_report",
                "classical.classical_correlator",
                "classical.lyapunov_exponent", "outputs.write_outputs"),
        diag_sizes=tuple(LADDER),
        printed={
            # printed with 6 decimals / 6 significant digits
            "lyapunov": (r"^lyapunov exponent: (\S+) ", (0.0, 1.5e-6)),
            "deviation": (r"max \|diff\| = (\S+)$", (1.5e-5, 0.0)),
        },
        seeded=True,
    )


WORKLOADS = {
    "scaling-chaotic": _scaling_chaotic,
    "sweep-regular": _sweep_regular,
    "correspondence": _correspondence,
}


def workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


class CheckFailed(Exception):
    """An operation's outputs disagree with its inputs or its reference."""


def read_artifact(path: str):
    """(header dict, column names, rows of floats) of one qmap CSV artifact.

    Blocked files (f_curve.csv) are flattened; their block labels are
    comment lines and are skipped.
    """
    header: dict = {}
    columns = None
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    key, sep, value = line[2:].partition("=")
                    if sep:
                        header[key] = value
                elif not line:
                    continue
                elif columns is None:
                    columns = next(csv.reader([line]))
                else:
                    rows.append([float(v) for v in line.split(",")])
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: unreadable: {exc}") from exc
    if columns is None:
        raise CheckFailed(f"{os.path.basename(path)}: no column line")
    return header, columns, rows


def _header_value(text: str, expected):
    if expected is None:
        return None if text == "none" else text
    if isinstance(expected, list):
        return [int(v) for v in text.split(",")]
    if isinstance(expected, str):
        return text
    if isinstance(expected, int):
        return int(text)
    return float(text)


def check_header(name: str, header: dict, expected: dict) -> None:
    for key, want in expected.items():
        if key not in header:
            raise CheckFailed(f"{name}: header lacks {key}")
        try:
            got = _header_value(header[key], want)
        except ValueError:
            got = header[key]
        if got != want:
            raise CheckFailed(f"{name}: header {key}={header[key]}, "
                              f"workload input is {want}")


def _column(name: str, columns, rows, column: str) -> list:
    if column not in columns:
        raise CheckFailed(f"{name}: no column {column}")
    i = columns.index(column)
    return [row[i] for row in rows]


def extract(wl: Workload, out_dir: str, stdout: str) -> dict:
    """Values of one finished operation that the reference pins down.

    Also checks what follows from the inputs alone: artifact headers and
    the shape of the written tables.
    """
    values: dict = {}
    for key, (pattern, _) in wl.printed.items():
        match = re.search(pattern, stdout, re.MULTILINE)
        if match is None:
            raise CheckFailed(f"summary line for {key} missing from output")
        values[key] = float(match.group(1))

    def artifact(filename):
        header, columns, rows = read_artifact(os.path.join(out_dir, filename))
        check_header(filename, header, wl.header)
        return columns, rows

    if wl.name == "scaling-chaotic":
        columns, rows = artifact("shifts.csv")
        if _column("shifts.csv", columns, rows, "N") != LADDER:
            raise CheckFailed("shifts.csv: N column is not the ladder")
        try:
            with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
                fit = json.load(fh)
            values["mean_sq"] = fit["data"]["mean_sq_shift_spacing_units"]
            values["exponent"] = fit["models"]["power_law"]["params"]["exponent"]
            values["model"] = fit["model"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"fit.json: unreadable: {exc!r}") from exc
        if values["mean_sq"] != _column("shifts.csv", columns, rows,
                                        "mean_sq_shift_spacing_units"):
            raise CheckFailed("fit.json and shifts.csv disagree")
    elif wl.name == "sweep-regular":
        columns, rows = artifact("spectrum.csv")
        N, r0, dr = wl.header["N"], wl.header["r0"], wl.header["delta_r"]
        grid_size = round((wl.header["r1"] - r0) / dr) + 1
        if len(rows) != N * grid_size:
            raise CheckFailed(f"spectrum.csv: {len(rows)} rows, expected "
                              f"{N * grid_size}")
        r = _column("spectrum.csv", columns, rows, "r")
        level = _column("spectrum.csv", columns, rows, "level")
        for i in range(0, len(rows), N):
            g = i // N
            if (not math.isclose(r[i], r0 + dr * g, abs_tol=1e-12)
                    or r[i + N - 1] != r[i]
                    or level[i:i + N] != list(range(N))):
                raise CheckFailed(f"spectrum.csv: grid point {g} malformed")
        values["phases"] = _column("spectrum.csv", columns, rows, "eigenphase")
    elif wl.name == "correspondence":
        columns, rows = artifact("classical.csv")
        values["C"] = _column("classical.csv", columns, rows, "C")
        columns, rows = artifact("ergodicity.csv")
        if _column("ergodicity.csv", columns, rows, "N") != LADDER:
            raise CheckFailed("ergodicity.csv: N column is not the ladder")
        values["variance"] = _column("ergodicity.csv", columns, rows, "variance")
        values["F_infinity"] = _column("ergodicity.csv", columns, rows,
                                       "F_infinity")
        columns, rows = artifact("f_curve.csv")
        values["F_curve"] = _column("f_curve.csv", columns, rows, "F")
        columns, rows = artifact("correlator.csv")
        if _column("correlator.csv", columns, rows, "C_classical") != values["C"]:
            raise CheckFailed("correlator.csv C_classical differs from "
                              "classical.csv C at the same seed")
        values["f_quantum"] = _column("correlator.csv", columns, rows,
                                      "f_quantum")
    return values


def _close(a, b, tol) -> bool:
    rel, abs_ = tol
    if isinstance(b, str) or isinstance(a, str):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def compare(wl: Workload, values: dict, reference: dict) -> None:
    """Raise CheckFailed unless every value matches its reference."""
    if set(values) != set(reference):
        raise CheckFailed(f"values {sorted(values)} != reference "
                          f"{sorted(reference)}")
    for key, want in reference.items():
        got = values[key]
        tol = wl.printed[key][1] if key in wl.printed else (REL_TOL, ABS_TOL)
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                raise CheckFailed(f"{key}: length differs from reference")
            for i, (g, w) in enumerate(zip(got, want)):
                if not _close(g, w, tol):
                    raise CheckFailed(f"{key}[{i}] = {g!r}, reference {w!r}")
        elif not _close(got, want, tol):
            raise CheckFailed(f"{key} = {got!r}, reference {want!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, wl: Workload, seed: int) -> dict:
    entry = reference[wl.name]
    return entry[str(program_seed(seed))] if wl.seeded else entry


def check(wl: Workload, seed: int, out_dir: str, stdout: str,
          reference: dict) -> None:
    compare(wl, extract(wl, out_dir, stdout),
            reference_for(reference, wl, seed))
