"""Run specifications: defaults, config-file loading, validation.

A RunSpec fixes every knob of a run up front.  Config files are JSON with
the command inside the file and the map family nested under "family";
values given on the command line override file values.  Validation is
aggregated: one failure report lists every bad field by path instead of
stopping at the first.  READS names the fields each command reads; any
other field must keep its default, since every artifact echoes it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

from .classical import OBSERVABLES
from .errors import ConfigurationError
from .model import VARIANTS
from .sweep import MAX_GRID_STEPS

# every command reads these; READS names the other fields each one reads
READ_BY_ALL = ("command", "variant", "out_dir", "emit_plot")
READS = {
    "classical": ("observable", "seed", "N_list", "t_max", "samples",
                  "lyapunov_steps", "lyapunov_seeds"),
    "spectrum": ("r", "N"),
    "sweep": ("N", "r0", "r1", "delta_r", "r_grid", "sorted_pairing",
              "subtract_mean"),
    "scaling": ("N_list", "r0", "r1", "delta_r", "subtract_mean"),
    "ergodicity": ("r", "observable", "seed", "N_list", "T_grid", "t_max",
                   "samples"),
}
COMMANDS = tuple(READS)
# these read N; the others read N_list
SINGLE_N_COMMANDS = tuple(c for c, names in READS.items() if "N" in names)

_FAMILY_KEYS = ("variant", "r")
_LIST_FIELDS = ("N_list", "r_grid", "T_grid")


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved parameters for one CLI run."""

    command: str
    variant: str = "chaotic"
    r: float = 0.0
    observable: str = "cos2pi_q"
    N: int = 512
    N_list: tuple = (64, 128, 256, 512)
    r0: float = 0.0
    r1: float = 3.0
    delta_r: float = 0.05
    r_grid: tuple | None = None
    T_grid: tuple | None = None
    t_max: int = 200
    samples: int = 1_000_000
    seed: int = 12345
    lyapunov_steps: int = 100_000
    lyapunov_seeds: int = 20
    subtract_mean: bool = True
    sorted_pairing: bool = False
    emit_plot: bool = False
    out_dir: str = "out"

    def as_dict(self) -> dict:
        """JSON-ready mapping with the family nested, for embedding in outputs."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["family"] = {"variant": out.pop("variant"), "r": out.pop("r")}
        for key in _LIST_FIELDS:
            if out[key] is not None:
                out[key] = list(out[key])
        return out


_FIELD_NAMES = tuple(f.name for f in fields(RunSpec))


def _check_even_N(problems: list, path: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append((path, f"expected an integer, got {value!r}"))
        return
    if value < 2:
        problems.append((path, f"N must be at least 2, got {value}"))
    elif value % 2 != 0:
        problems.append((
            path,
            f"N={value} is odd; the quadratic drift only closes on the torus "
            "for even N",
        ))


def _validate(spec: RunSpec) -> list:
    problems: list = []

    def number(path, value, lo=None, integer=False):
        ok_type = isinstance(value, int) and not isinstance(value, bool) \
            if integer else isinstance(value, (int, float)) and not isinstance(value, bool)
        # a NaN fails, and so does an int too large for a float
        if not ok_type or (not integer and not -sys.float_info.max <= value
                           <= sys.float_info.max):
            kind = "an integer" if integer else "a finite number"
            problems.append((path, f"expected {kind}, got {value!r}"))
            return False
        if lo is not None and value < lo:
            problems.append((path, f"must be >= {lo}, got {value}"))
            return False
        return True

    def flag(path, value):
        if not isinstance(value, bool):
            problems.append((path, f"expected true/false, got {value!r}"))

    # the fields the command reads; any other value, of any type, reads none
    reads = READS[spec.command] if spec.command in COMMANDS else ()
    if spec.command not in COMMANDS:
        problems.append(("command",
                         f"unknown command {spec.command!r}; choose one of "
                         f"{', '.join(COMMANDS)}"))
    if spec.variant not in VARIANTS:
        problems.append(("family.variant",
                         f"unknown variant {spec.variant!r}; choose one of "
                         f"{', '.join(VARIANTS)}"))
    number("family.r", spec.r)
    if spec.observable not in OBSERVABLES:
        problems.append(("observable",
                         f"unknown observable {spec.observable!r}; choose one "
                         f"of {', '.join(OBSERVABLES)}"))

    _check_even_N(problems, "N", spec.N)

    if not isinstance(spec.N_list, (list, tuple)):
        problems.append(("N_list", f"expected a list, got {spec.N_list!r}"))
    else:
        for i, N in enumerate(spec.N_list):
            _check_even_N(problems, f"N_list[{i}]", N)
        values = [N for N in spec.N_list
                  if isinstance(N, int) and not isinstance(N, bool)]
        if len(values) == len(spec.N_list) and values != sorted(set(values)):
            problems.append(("N_list", "values must be strictly ascending"))
        if spec.command == "scaling" and len(spec.N_list) < 4:
            problems.append(("N_list",
                             "a scaling ladder needs at least 4 values of N"))
        elif not spec.N_list:
            problems.append(("N_list", "needs at least one value of N"))

        # the size a command does not read must be its default or agree
        # with the one it reads; otherwise it would be silently ignored
        if spec.command in SINGLE_N_COMMANDS:
            if tuple(spec.N_list) not in (RunSpec.N_list, (spec.N,)):
                problems.append(("N_list",
                                 f"{spec.command} reads only N={spec.N}; it "
                                 f"would ignore N_list={list(spec.N_list)}"))
        elif spec.command in COMMANDS and spec.N_list \
                and spec.N not in (RunSpec.N, spec.N_list[0]):
            problems.append(("N", f"{spec.command} reads only N_list; it "
                                  f"would ignore N={spec.N}"))

    ok0 = number("r0", spec.r0)
    ok1 = number("r1", spec.r1)
    if ok0 and ok1 and "r1" in reads \
            and spec.r_grid is None and spec.r1 <= spec.r0:
        problems.append(("r1", f"must exceed r0={spec.r0}, got {spec.r1}"))
    ok_delta = number("delta_r", spec.delta_r, lo=1e-12)
    if ok0 and ok1 and ok_delta and "delta_r" in reads \
            and spec.r_grid is None and spec.r1 > spec.r0:
        # checked before any grid is made (sweep._build_grid checks again)
        steps = (spec.r1 - spec.r0) / spec.delta_r
        if steps >= MAX_GRID_STEPS + 0.5:
            problems.append(("delta_r", f"(r1 - r0) / delta_r is {steps:.6g} "
                                        f"grid steps, more than "
                                        f"{MAX_GRID_STEPS}"))
    # an explicit grid replaces the window, which would be echoed unread
    if spec.r_grid is not None and "r_grid" in reads:
        for name in ("r0", "r1", "delta_r"):
            if getattr(spec, name) != getattr(RunSpec, name):
                problems.append((name, "r_grid replaces the r0/r1/delta_r "
                                       f"window; {spec.command!r} would "
                                       "ignore it"))

    for name, grid, lo in (("r_grid", spec.r_grid, None),
                           ("T_grid", spec.T_grid, 0.0)):
        if grid is None:
            continue
        if not isinstance(grid, (list, tuple)) or len(grid) == 0:
            problems.append((name, "expected a non-empty list of numbers"))
        elif name == "r_grid" and len(grid) - 1 > MAX_GRID_STEPS:
            problems.append((name, f"takes {len(grid) - 1} steps, more than "
                                   f"{MAX_GRID_STEPS}"))
        else:
            last = None
            for i, x in enumerate(grid):
                if number(f"{name}[{i}]", x, lo=lo):
                    if last is not None and x <= last:
                        problems.append((f"{name}[{i}]",
                                         "values must be strictly ascending"))
                    last = x

    number("t_max", spec.t_max, lo=1, integer=True)
    number("samples", spec.samples, lo=10_000, integer=True)
    number("seed", spec.seed, lo=0, integer=True)
    number("lyapunov_steps", spec.lyapunov_steps, lo=10_000, integer=True)
    number("lyapunov_seeds", spec.lyapunov_seeds, lo=5, integer=True)
    flag("subtract_mean", spec.subtract_mean)
    flag("sorted_pairing", spec.sorted_pairing)
    flag("emit_plot", spec.emit_plot)
    if not isinstance(spec.out_dir, str) or not spec.out_dir:
        problems.append(("out_dir", "expected a non-empty path"))

    # a field the command does not read must keep its default; N and
    # N_list were checked above, since --N sets both
    for name in _FIELD_NAMES:
        if not reads or name in READ_BY_ALL or name in reads \
                or name in ("N", "N_list") \
                or getattr(spec, name) == getattr(RunSpec, name):
            continue
        readers = ", ".join(c for c, names in READS.items() if name in names)
        path = "family.r" if name == "r" else name
        problems.append((path, f"only {readers} read it; "
                               f"{spec.command!r} would ignore it"))

    return problems


def _raise_problems(source: str, problems: list) -> None:
    if problems:
        lines = [f"  - {path}: {msg}" for path, msg in problems]
        raise ConfigurationError(f"invalid {source}:\n" + "\n".join(lines))


def _flatten(raw: dict) -> tuple:
    """Nested-family mapping -> (flat RunSpec kwargs, problem list)."""
    problems: list = []
    flat: dict = {}
    for key, value in raw.items():
        if key == "family":
            if not isinstance(value, dict):
                problems.append(("family", f"expected an object, got {value!r}"))
                continue
            for fkey, fvalue in value.items():
                if fkey not in _FAMILY_KEYS:
                    problems.append((f"family.{fkey}", "unknown key"))
                else:
                    flat[fkey] = fvalue
        elif key in ("variant", "r"):
            problems.append((key, "belongs inside the \"family\" object"))
        elif key in _FIELD_NAMES:
            flat[key] = value
        else:
            problems.append((key, "unknown key"))
    for key in _LIST_FIELDS:
        if isinstance(flat.get(key), list):
            flat[key] = tuple(flat[key])
    return flat, problems


def make_runspec(config: dict | None = None, _source: str = "configuration",
                 **overrides) -> RunSpec:
    """Build and validate a RunSpec from file values plus explicit overrides.

    Every defect found, in structure or in values, is reported in a single
    ConfigurationError listing the offending fields by path.
    """
    flat, problems = ({}, []) if config is None else _flatten(config)
    for key, value in overrides.items():
        if value is not None:
            flat[key] = value
    if "command" not in flat:
        problems.append(("command", "missing (give a subcommand or put "
                                    "\"command\" in the config file)"))
        _raise_problems(_source, problems)
    spec = RunSpec(**flat)
    problems.extend(_validate(spec))
    _raise_problems(_source, problems)
    return spec


def read_config(path: str) -> dict:
    """The JSON object of a config file, not yet validated, so that flags
    can override its values before make_runspec checks them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    return raw

