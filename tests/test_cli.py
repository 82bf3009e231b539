"""End-to-end command line runs against a temporary output directory."""

import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qmap
import qmap.classical
import qmap.sweep
from conftest import package_imports
from qmap._threads import _THREAD_VARS, SPIN_EXPONENT
from qmap import VARIANTS, ConfigurationError, RunSpec, make_runspec
from qmap.cli import run_command
from qmap.config import COMMANDS, READS
from qmap.sweep import MAX_GRID_STEPS, MODEL_NAMES


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def child_env(**extra):
    """Environment for a child interpreter: this qmap, no thread settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in _THREAD_VARS
           and k not in ("QMAP_THREADS", "OPENBLAS_THREAD_TIMEOUT")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qmap.__file__))
    env.update(extra)
    return env


def data_rows(lines):
    # drop `# key=value` comments and the column header line
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return body[0], body[1:]


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    out = capsys.readouterr().out
    assert "usage:" in out
    for name in ("classical", "spectrum", "sweep", "scaling", "ergodicity"):
        assert name in out


def test_no_arguments_is_a_usage_error(capsys):
    assert run_command([]) == 2
    assert "no command" in capsys.readouterr().err


def test_spectrum_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_command(["spectrum", "--N", "64", "--r", "1.5",
                        "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = read_lines(out / "spectrum.csv")
    assert lines[0].startswith("# qmap ")
    assert any(ln.startswith("# family.variant=chaotic") for ln in lines)
    header, rows = data_rows(lines)
    assert header == "r,level,eigenphase"
    assert len(rows) == 64
    r_values = {row.split(",")[0] for row in rows}
    assert r_values == {"1.5"}
    phases = [float(row.split(",")[2]) for row in rows]
    assert phases == sorted(phases)


def test_bad_parameters_exit_two(tmp_path, capsys):
    assert run_command(["spectrum", "--N", "63",
                        "--out", str(tmp_path)]) == 2
    assert "odd" in capsys.readouterr().err
    assert run_command(["spectrum", "--r", "abc"]) == 2
    capsys.readouterr()
    assert run_command(["sweep", "--N", "64,128",
                        "--out", str(tmp_path)]) == 2
    assert "single --N" in capsys.readouterr().err


def test_empty_N_list_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"command": "ergodicity", "N_list": [],
                               "samples": 10_000,
                               "out_dir": str(tmp_path / "run")}))
    assert run_command(["--config", str(cfg)]) == 2
    assert "N_list: needs at least one value" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config,needle", [
    ({"command": "sweep", "N_list": [32], "r1": 0.1}, "ignore N_list=[32]"),
    ({"command": "scaling", "N": 16, "r1": 0.1}, "ignore N=16"),
])
def test_ignored_size_config_exits_two(tmp_path, capsys, config, needle):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path / "run")}))
    assert run_command(["--config", str(cfg)]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,needle", [
    (["scaling", "--N", "8,16,32,64", "--r1", "0.1", "--delta-r", "0.05",
      "--sorted-pairing"], "--sorted-pairing"),
    (["sweep", "--N", "16", "--r1", "0.1", "--seed", "7"], "--seed 7"),
    (["sweep", "--N", "16", "--r1", "0.1", "--observable", "cos2pi_p"],
     "--observable cos2pi_p"),
])
def test_flags_a_command_would_ignore_exit_two(tmp_path, capsys, argv,
                                               needle):
    out = tmp_path / "run"
    assert run_command(argv + ["--out", str(out)]) == 2
    assert f"unrecognized arguments: {needle}" in capsys.readouterr().err
    assert not out.exists()


def test_family_r_on_a_sweep_exits_two(tmp_path, capsys):
    # a sweep deforms r itself, from r0; a family r would be ignored
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "sweep", "N": 16, "r1": 0.1,
        "family": {"variant": "chaotic", "r": 1.5},
        "out_dir": str(tmp_path / "run"),
    }))
    assert run_command(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "family.r: only spectrum, ergodicity read it; 'sweep' would " \
           "ignore it" in err
    assert not (tmp_path / "run").exists()


def test_classical_N_sets_the_ehrenfest_lines(tmp_path, capsys):
    code = run_command(["classical", "--N", "64,128", "--t-max", "5",
                        "--samples", "20000", "--lyapunov-steps", "10000",
                        "--lyapunov-seeds", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("ehrenfest time")]
    assert [ln.split(":")[0] for ln in lines] == [
        "ehrenfest time at N=64", "ehrenfest time at N=128"]


def test_config_file_supplies_the_command(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "spectrum",
        "family": {"variant": "regular", "r": 0.5},
        "N": 64,
        "out_dir": str(out),
    }))
    assert run_command(["--config", str(cfg)]) == 0
    lines = read_lines(out / "spectrum.csv")
    assert any(ln.startswith("# family.variant=regular") for ln in lines)

    capsys.readouterr()
    assert run_command(["sweep", "--config", str(cfg)]) == 2
    assert "conflicts" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_command(["--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unreadable_config_files_exit_two(tmp_path, capsys):
    for name, text, message in (
            ("missing.json", None, "cannot read config {path}: "),
            ("bad.json", "{not json", "config {path} is not valid JSON: "),
            ("array.json", "[1, 2]", "config {path} must be a JSON object\n")):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert run_command(["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "qmap: error: " + message.format(path=path))


def test_flags_override_config_values(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "spectrum", "N": 64,
                               "family": {"variant": "chaotic", "r": 0.0},
                               "out_dir": str(out)}))
    assert run_command(["spectrum", "--config", str(cfg),
                        "--r", "2.0"]) == 0
    lines = read_lines(out / "spectrum.csv")
    assert any(ln == "# family.r=2" for ln in lines)


def test_flags_mend_a_config_file_before_validation(tmp_path, capsys):
    # three sizes alone are too few for a scaling ladder; the flag's four
    # replace them before anything is validated
    out = tmp_path / "run"
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({"command": "scaling", "N_list": [8, 16, 32],
                               "r1": 0.1, "delta_r": 0.05}))
    assert run_command(["--config", str(cfg), "scaling", "--N", "8,16,32,64",
                        "--out", str(out)]) == 0
    assert "# N_list=8,16,32,64" in read_lines(out / "shifts.csv")
    payload = json.loads((out / "fit.json").read_text())
    assert payload["runspec"]["N_list"] == [8, 16, 32, 64]
    capsys.readouterr()

    # a bad file field that no flag overrides still fails, naming the
    # field and both sources
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "scaling", "N_list": [8, 16, 32],
                               "r1": "far", "delta_r": 0.05}))
    other = tmp_path / "other"
    assert run_command(["--config", str(bad), "scaling", "--N", "8,16,32,64",
                        "--out", str(other)]) == 2
    err = capsys.readouterr().err
    assert f"invalid config {bad} and command line" in err
    assert "r1: expected a finite number, got 'far'" in err
    assert "N_list" not in err
    assert not other.exists()


def test_unwritable_output_directory_exits_one(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("in the way")
    code = run_command(["spectrum", "--N", "16", "--out", str(blocked)])
    assert code == 1
    assert "i/o failure" in capsys.readouterr().err


def test_window_beside_an_r_grid_exits_two(tmp_path, capsys):
    # the grid replaces the window; a window beside it would be echoed unread
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "sweep", "N": 16, "r_grid": [0.0, 0.7, 1.1],
        "r0": 5.0, "r1": 1.0, "out_dir": str(tmp_path / "run"),
    }))
    assert run_command(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "r0: r_grid replaces the r0/r1/delta_r window" in err
    assert "r1: r_grid replaces the r0/r1/delta_r window" in err
    assert not (tmp_path / "run").exists()


def test_a_grid_of_too_many_steps_exits_two(tmp_path, capsys, monkeypatch):
    # 10^18 steps: refused as the spec is validated, one problem line and
    # no traceback, before any grid or operator is made
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(qmap.sweep, "sweep_quantization", never)
    out = tmp_path / "run"
    assert run_command(["sweep", "--N", "8", "--r1", "1e9", "--delta-r",
                        "1e-9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("  - ")] == [
        f"  - delta_r: (r1 - r0) / delta_r is 1e+18 grid steps, more than "
        f"{MAX_GRID_STEPS}"]
    assert not out.exists()


# a cheap valid spec for each command: no size above 16, every count at
# its minimum, at most 16 grid steps
_CHEAP_SPECS = {
    "spectrum": ({"N": 8, "family": {"r": 0.5}}, {"N": 16}),
    "sweep": ({"N": 8, "r1": 0.5, "delta_r": 0.25},
              {"N": 16, "r0": -0.5, "r1": 0.5, "delta_r": 0.5,
               "sorted_pairing": True},
              {"N": 4, "r_grid": [0.0, 0.1, 0.3]}),
    "scaling": ({"N_list": [2, 4, 8, 16], "r1": 0.5, "delta_r": 0.25},
                {"N_list": [4, 8, 12, 16], "r1": 1.0, "delta_r": 0.5,
                 "subtract_mean": False}),
    "classical": ({"N_list": [8], "t_max": 3, "samples": 10_000,
                   "lyapunov_steps": 10_000, "lyapunov_seeds": 5},),
    "ergodicity": ({"N_list": [8, 16], "t_max": 3, "samples": 10_000,
                    "T_grid": [0.0, 1.0, 10.0]},
                   {"N_list": [16], "family": {"r": 0.5}, "t_max": 2,
                    "samples": 10_000}),
}
# no float holds it
_HUGE_INT = 10 ** 400
_HOSTILE_VALUES = (
    math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, _HUGE_INT,
    -_HUGE_INT, -1, 0, 1.5, 3, True, None, "x", "8", "sweep", [],
    [16, 8, 4, 2], [8, 8], [math.nan], [0.5, 0.0], [1e300], ["a"], [[1]],
    {"variant": "bogus"}, {"r": math.nan}, {"a": 1})
# validation bounds these only from below, so a huge value would run
_UNBOUNDED_COUNTS = ("N", "t_max", "samples", "lyapunov_steps",
                     "lyapunov_seeds")


@st.composite
def hostile_configs(draw):
    """A cheap spec of a command, with up to two fields or unknown keys
    set to hostile values; the output directory is left to the caller."""
    command = draw(st.sampled_from(COMMANDS))
    config = json.loads(json.dumps(draw(st.sampled_from(
        _CHEAP_SPECS[command]))))
    config["command"] = command
    config.setdefault("family", {})["variant"] = draw(st.sampled_from(
        VARIANTS))
    keys = ("family.r", "family.bogus", "command", "family", "variant",
            "bogus", *(name for name in RunSpec.__dataclass_fields__
                       if name not in ("command", "variant", "r", "out_dir")))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2,
                             unique=True)):
        pool = [v for v in _HOSTILE_VALUES if key not in _UNBOUNDED_COUNTS
                or not (isinstance(v, int) and v > 16)]
        owner, _, name = key.rpartition(".")
        target = config[owner] if owner else config
        if isinstance(target, dict):
            target[name] = draw(st.sampled_from(pool))
    return config


def _assert_cheap(spec):
    reads = READS[spec.command]
    assert max([spec.N] if "N" in reads else spec.N_list) <= 16
    for name, most in (("samples", 10_000), ("lyapunov_steps", 10_000),
                       ("lyapunov_seeds", 5), ("t_max", 3)):
        assert name not in reads or getattr(spec, name) <= most
    if "delta_r" in reads:
        assert (len(spec.r_grid) - 1 if spec.r_grid is not None
                else (spec.r1 - spec.r0) / spec.delta_r) <= 16


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=hostile_configs())
def test_no_hostile_spec_reaches_a_traceback(tmp_path_factory, capsys,
                                             config):
    # run in process: exit 0, 1 or 2, and any error a message, never a
    # traceback.  A spec that validates is run only once it is known to
    # be cheap, so a huge grid must be refused by validation
    out = tmp_path_factory.mktemp("hostile")
    config["out_dir"] = str(out / "run")
    try:
        spec = make_runspec(config)
    except ConfigurationError:
        pass
    else:
        _assert_cheap(spec)
    cfg = out / "run.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert run_command(["--config", str(cfg)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_scaling_run_writes_fits(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_command(["scaling", "--N", "8,12,16,20", "--r0", "0",
                        "--r1", "1", "--delta-r", "0.5", "--out", str(out)])
    assert code == 0

    header, rows = data_rows(read_lines(out / "shifts.csv"))
    assert header == "N,h,mean_sq_shift_spacing_units"
    assert len(rows) == 4
    assert [int(r.split(",")[0]) for r in rows] == [8, 12, 16, 20]

    payload = json.loads((out / "fit.json").read_text())
    assert set(payload["models"]) == set(MODEL_NAMES)
    assert payload["model"] in MODEL_NAMES
    assert "qmap_version" in payload
    assert payload["runspec"]["command"] == "scaling"
    assert len(payload["data"]["N"]) == 4
    for fit in payload["models"].values():
        assert set(fit) == {"params", "rss_log", "aic", "predicted"}
        assert len(fit["predicted"]) == 4

    # each N's first-order estimate, its ratio, and the window's verdict
    data = payload["data"]
    ratios = [y / e for y, e in zip(data["mean_sq_shift_spacing_units"],
                                    data["first_order_estimate"])]
    assert data["first_order_ratio"] == ratios
    assert payload["first_order_response"] == (min(ratios) >= 0.9)
    printed = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("N=")]
    assert [ln.rsplit(" ", 1)[1] for ln in printed] == \
        [f"{x:.3f}" for x in ratios]


def test_ergodicity_run_writes_all_tables(tmp_path):
    out = tmp_path / "run"
    code = run_command(["ergodicity", "--N", "16,32", "--t-max", "5",
                        "--samples", "20000", "--out", str(out)])
    assert code == 0

    header, rows = data_rows(read_lines(out / "ergodicity.csv"))
    assert header == "N,variance,F_infinity"
    assert len(rows) == 2

    f_lines = read_lines(out / "f_curve.csv")
    header, _ = data_rows(f_lines)
    assert header == "T,F"
    blocks = f_lines[f_lines.index("T,F"):]
    assert sum(ln == "# N=16" for ln in blocks) == 1
    assert sum(ln == "# N=32" for ln in blocks) == 1

    header, rows = data_rows(read_lines(out / "correlator.csv"))
    assert header == "t,C_classical,f_quantum"
    assert len(rows) == 6
    assert [float(r.split(",")[0]) for r in rows] == [0, 1, 2, 3, 4, 5]


def test_classical_run_writes_correlator(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_command(["classical", "--t-max", "10", "--samples", "20000",
                        "--lyapunov-steps", "10000", "--lyapunov-seeds", "5",
                        "--out", str(out)])
    assert code == 0
    assert "lyapunov exponent" in capsys.readouterr().out
    header, rows = data_rows(read_lines(out / "classical.csv"))
    assert header == "t,C,stderr"
    assert len(rows) == 11


def test_emit_plot_writes_gnuplot_script(tmp_path):
    out = tmp_path / "run"
    code = run_command(["spectrum", "--N", "16", "--out", str(out),
                        "--emit-plot"])
    assert code == 0
    script = (out / "plots.gp").read_text()
    assert "set output 'spectrum.png'" in script
    # data files are referenced relative to the output directory
    assert "'spectrum.csv'" in script
    assert str(out) not in script


def test_thread_env_knob(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QMAP_THREADS", "abc")
    assert run_command(["--help"]) == 2
    assert "QMAP_THREADS" in capsys.readouterr().err

    monkeypatch.setenv("QMAP_THREADS", "-1")
    assert run_command(["--help"]) == 2
    capsys.readouterr()

    for threads in ("0", "2"):
        monkeypatch.setenv("QMAP_THREADS", threads)
        assert run_command(["--help"]) == 0
        capsys.readouterr()


def test_a_bad_qmap_threads_is_a_usage_error_at_the_command_line():
    # import qmap leaves an invalid value alone; the command reports it
    done = subprocess.run([sys.executable, "-m", "qmap.cli", "--help"],
                          env=child_env(QMAP_THREADS="abc"),
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "QMAP_THREADS must be a non-negative integer" in done.stderr
    assert "Traceback" not in done.stderr


def test_import_qmap_sets_the_blas_spin_unless_the_caller_did():
    # OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it; qmap
    # sets it whatever QMAP_THREADS says, and keeps a caller's own value
    probe = "import os, qmap; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    cases = [({}, str(SPIN_EXPONENT)),
             ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
             ({"QMAP_THREADS": "abc"}, str(SPIN_EXPONENT)),
             ({"QMAP_THREADS": "1"}, str(SPIN_EXPONENT))]
    for extra, want in cases:
        done = subprocess.run([sys.executable, "-c", probe],
                              env=child_env(**extra), capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == want, extra
    done = subprocess.run([sys.executable, "-m", "qmap.cli", "--help"],
                          env=child_env(QMAP_THREADS="abc"),
                          capture_output=True, text=True)
    assert done.returncode == 2


def _top_level_imports(nodes) -> list:
    """Module names the given statements import, relative ones with their
    leading dots."""
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_the_thread_cap_is_copied_before_anything_loads_numpy():
    # the BLAS pools read their environment knobs once, as numpy loads;
    # before the copy, __init__ imports only modules that load no numpy
    src = pathlib.Path(qmap.__file__).parent
    body = ast.parse((src / "__init__.py").read_text(encoding="utf-8")).body
    copy = next(i for i, node in enumerate(body)
                if isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "cap_thread_env")
    early = {"._threads", "._version", ".errors"}
    assert set(_top_level_imports(body[:copy])) <= early
    assert "scipy" in _top_level_imports(body[copy:])
    for name in early:
        tree = ast.parse((src / f"{name[1:]}.py").read_text(encoding="utf-8"))
        for imported in _top_level_imports(tree.body):
            assert imported in early or not (
                imported.startswith(".")
                or imported.partition(".")[0] in ("numpy", "scipy")), \
                (name, imported)


def test_loading_the_library_leaves_scipy_optimize_unloaded(tmp_path):
    # nothing in the library imports scipy.optimize or scipy.linalg.  The
    # regular N = 32 sweep at delta_r = 0.5 has single-interval steps whose
    # best overlaps are 0.47-0.49, so tracking splits them.
    probe = ("import sys, qmap\n"
             "print('scipy.linalg' in sys.modules, "
             "'scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False False"
    runs = {variant: (["scaling", "--variant", variant,
                       "--N", "16,32,64,128"], "fit.json")
            for variant in ("chaotic", "regular")}
    runs["sweep"] = (["sweep", "--variant", "regular", "--N", "32",
                      "--delta-r", "0.5"], "spectrum.csv")
    for name, (argv, written) in runs.items():
        out = tmp_path / name
        argv = [*argv, "--out", str(out)]
        probe = ("import sys, qmap.cli\n"
                 f"code = qmap.cli.run_command({argv!r})\n"
                 "print(code, 'scipy.optimize' in sys.modules, "
                 "'scipy.linalg' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 False False", name
        assert (out / written).exists(), name


def test_commands_leave_scipy_linalg_unloaded(tmp_path):
    # every product and LAPACK call runs on numpy's OpenBLAS, so no command
    # loads scipy.linalg, or scipy's own OpenBLAS
    commands = [
        ["classical", "--samples", "10000", "--t-max", "5",
         "--lyapunov-steps", "10000"],
        ["spectrum", "--N", "64"],
        ["sweep", "--variant", "regular", "--N", "64", "--r1", "1"],
        ["ergodicity", "--N", "16,32", "--t-max", "5", "--samples", "10000"],
    ]
    probe = ("import sys, qmap.cli\n"
             f"for argv in {commands!r}:\n"
             "    code = qmap.cli.run_command([*argv, '--out', "
             f"r'{tmp_path}'])\n"
             "    print('loaded:', argv[0], code, "
             "'scipy.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, check=True)
    flags = [ln for ln in done.stdout.splitlines()
             if ln.startswith("loaded:")]
    assert flags == [f"loaded: {argv[0]} 0 False" for argv in commands]


# the pool size as bench/traced.py reads it, from each OpenBLAS library
# mapped in the process (None for one without the getter)
POOL_PROBE = """import ctypes
def pool():
    with open('/proc/self/maps') as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if 'openblas' in line.lower()})
    counts = []
    for path in paths:
        getter = getattr(ctypes.CDLL(path),
                         'scipy_openblas_get_num_threads64_', None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        counts.append(None if getter is None else getter())
    return counts
"""


def test_importing_qmap_caps_the_pool_and_loads_the_library():
    # import qmap copies QMAP_THREADS into the environment before numpy
    # loads, then loads the library, the top-level scipy package with it
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library in")
    probe = POOL_PROBE + ("import sys, qmap\n"
                          "print(pool(), 'scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=child_env(QMAP_THREADS="1"),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[1] True"


def test_qmap_threads_caps_a_pool_numpy_started_first(tmp_path):
    # numpy loaded before qmap read the environment, so its pool started
    # uncapped; the run lowers it to QMAP_THREADS and puts it back
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library in")
    probe = POOL_PROBE + (
        "import numpy\n"
        "started = pool()\n"
        "import qmap.cli, qmap.spectral\n"
        "inner = qmap.spectral.diagonalize\n"
        "seen = []\n"
        "def spy(*args, **kwargs):\n"
        "    seen.append(pool())\n"
        "    return inner(*args, **kwargs)\n"
        "qmap.spectral.diagonalize = spy\n"
        "code = qmap.cli.run_command(['spectrum', '--N', '512', '--out', "
        f"r'{tmp_path}'])\n"
        "import json\n"
        "print(json.dumps([code, started, seen, pool()]))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=child_env(QMAP_THREADS="1"),
                          capture_output=True, text=True, check=True)
    code, started, seen, after = json.loads(done.stdout.splitlines()[-1])
    if len(started) != 1 or started[0] is None or started[0] < 2:
        pytest.skip("a pool of one thread cannot show the cap")
    assert code == 0
    assert seen == [[1]]
    assert after == started


def test_qmap_threads_caps_the_pool_that_does_the_work():
    # numpy's OpenBLAS runs every product and LAPACK call
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library in")
    probe = POOL_PROBE + ("import qmap.cli\n"
                          "qmap.cli.run_command(['--help'])\n"
                          "print(pool())")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=child_env(QMAP_THREADS="1"),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[1]"


def test_nothing_imports_scipy_optimize():
    assert package_imports("scipy.optimize") == []


def test_nothing_imports_scipy_linalg():
    # every product and LAPACK call runs on numpy's OpenBLAS; scipy.linalg,
    # .blas and .lapack with it, would load scipy's own OpenBLAS beside it
    assert package_imports("scipy.linalg") == []


def test_classical_curve_is_identical_across_thread_counts(tmp_path):
    # the Monte Carlo correlator's blocks and their merge order do not
    # depend on the thread count, so, unlike the BLAS results below, it is
    # bit-identical at every count; 70 000 samples are three blocks, the
    # last one ragged (4464 samples), so two workers really run them
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "qmap.cli", "classical", "--samples",
             "70000", "--t-max", "20", "--lyapunov-steps", "10000",
             "--out", str(out)],
            env=child_env(QMAP_THREADS=threads), capture_output=True,
            text=True, check=True)
        texts.append([ln for ln in read_lines(out / "classical.csv")
                      if not ln.startswith("# out_dir=")])
    assert len(texts[0]) > 21
    assert texts[0] == texts[1]


def test_results_agree_across_thread_counts(tmp_path):
    # a sweep takes one BLAS thread at every N whatever QMAP_THREADS says,
    # with each next point's eigh on a background thread or inline, so the
    # artifacts are byte-identical across thread counts, above the
    # ONE_BLAS_THREAD_MAX_N cut of the other commands too
    for N, r1, points in ((128, "1", 21), (512, "0.2", 5)):
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"N{N}-threads{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "qmap.cli", "sweep", "--variant",
                 "regular", "--N", str(N), "--r1", r1, "--out", str(out)],
                env=child_env(QMAP_THREADS=threads), capture_output=True,
                text=True, check=True)
            crossings = [ln for ln in done.stdout.splitlines()
                         if ln.startswith("crossings:")]
            lines = [ln for ln in read_lines(out / "spectrum.csv")
                     if not ln.startswith("# out_dir=")]
            runs[threads] = (crossings, lines)

        (cross1, lines1), (cross2, lines2) = runs.values()
        assert len(cross1) == 1
        header, rows = data_rows(lines1)
        assert header == "r,level,eigenphase" and len(rows) == points * N
        assert (cross1, lines1) == (cross2, lines2)


def test_the_head_start_costs_little_memory(tmp_path):
    # the process peak (ru_maxrss, which sees eigh's LAPACK buffers that
    # tracemalloc cannot) of a sweep with its background eigh, against
    # the same sweep with QMAP_THREADS=1, which starts no thread; one
    # 8 N^2-byte part is 0.5 MiB at N = 256, and the head start read
    # 2.5-3.0 MiB more (its part, eigh's copy, work space and basis
    # beside this thread's certificates)
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is read in KiB as on Linux")
    N = 256
    peaks = {}
    for threads in ("2", "1"):
        child = subprocess.Popen(
            [sys.executable, "-m", "qmap.cli", "sweep", "--variant",
             "regular", "--N", str(N), "--r1", "0.5",
             "--out", str(tmp_path / threads)],
            env=child_env(QMAP_THREADS=threads), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        peaks[threads] = usage.ru_maxrss * 1024  # KiB on Linux
    assert peaks["2"] - peaks["1"] < 8 * 8 * N ** 2


def test_scaling_agrees_across_thread_counts(tmp_path):
    # a ladder up to N = 128 runs on one BLAS thread whatever QMAP_THREADS
    # says, so the fit and the shifts are byte-identical across counts;
    # only the output directory, in each file's run parameters, differs
    def without_out_dir(path):
        return [ln for ln in read_lines(path)
                if not ln.startswith("# out_dir=")
                and not ln.lstrip().startswith('"out_dir": ')]

    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "qmap.cli", "scaling", "--variant",
             "chaotic", "--N", "16,32,64,128", "--r1", "0.5",
             "--out", str(out)],
            env=child_env(QMAP_THREADS=threads), capture_output=True,
            text=True, check=True)
        runs.append({name: without_out_dir(out / name)
                     for name in ("shifts.csv", "fit.json")})
    header, rows = data_rows(runs[0]["shifts.csv"])
    assert len(rows) == 4
    assert runs[0] == runs[1]


def test_runs_up_to_n256_take_one_blas_thread(tmp_path):
    # read inside the run: a sweep at N = 64 runs on one thread, a
    # spectrum at N = 512 on the pool OpenBLAS started with, and each run
    # leaves the pool as it found it
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library in")
    probe = POOL_PROBE + (
        "import qmap, qmap.cli\n"
        "import qmap.spectral, qmap.sweep\n"
        "seen = {}\n"
        "def spy(module, name):\n"
        "    inner = getattr(module, name)\n"
        "    def wrapper(*args, **kwargs):\n"
        "        seen.setdefault(name, pool())\n"
        "        return inner(*args, **kwargs)\n"
        "    setattr(module, name, wrapper)\n"
        "spy(qmap.sweep, 'sweep_quantization')\n"
        "spy(qmap.spectral, 'diagonalize')\n"
        "started = pool()\n"
        "codes = [qmap.cli.run_command([*argv, '--out', "
        f"r'{tmp_path}'])\n"
        "         for argv in (['sweep', '--N', '64', '--r1', '0.2'],\n"
        "                      ['spectrum', '--N', '512'])]\n"
        "import json\n"
        "print(json.dumps([codes, started, seen['sweep_quantization'], "
        "seen['diagonalize'], pool()]))")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, check=True)
    codes, started, sweep, spectrum, after = \
        json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert len(started) == 1
    assert sweep == [1]
    assert spectrum == after == started


def test_run_command_puts_back_the_pool_it_found(tmp_path, monkeypatch,
                                                 capsys):
    # in-process callers keep their pool: after a run on one thread, after
    # a configuration error before the run, and after one raised inside it
    from qmap._threads import blas_threads
    from qmap.errors import ConfigurationError

    found = blas_threads()
    if found is None or found < 2:
        pytest.skip("a pool of one thread cannot show the rule")
    inner = qmap.sweep.sweep_quantization
    inside = []

    def spy(*args, **kwargs):
        inside.append(blas_threads())
        return inner(*args, **kwargs)

    monkeypatch.setattr(qmap.sweep, "sweep_quantization", spy)
    sweep = ["sweep", "--N", "16", "--r1", "0.2", "--out", str(tmp_path)]
    assert run_command(sweep) == 0
    assert inside == [1] and blas_threads() == found
    assert run_command([*sweep, "--delta-r", "0"]) == 2
    assert blas_threads() == found

    def refuse(*args, **kwargs):
        inside.append(blas_threads())
        raise ConfigurationError("refused inside the run")

    monkeypatch.setattr(qmap.sweep, "sweep_quantization", refuse)
    assert run_command(sweep) == 2
    assert inside == [1, 1] and blas_threads() == found
    assert "refused inside the run" in capsys.readouterr().err


# `qmap ergodicity` after `qmap classical` into the same --out reads C(t)
# back instead of running the Monte Carlo correlator again
ERGODICITY = ["ergodicity", "--N", "16,32", "--t-max", "5",
              "--samples", "20000"]


def test_ergodicity_agrees_across_thread_counts(tmp_path):
    # the Monte Carlo C(t) is bit-identical at every thread count, and a
    # ladder up to N = 256 runs its BLAS and LAPACK calls on one thread
    # whatever QMAP_THREADS says: every artifact is byte-identical
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "qmap.cli", *ERGODICITY,
                        "--out", str(out)],
                       env=child_env(QMAP_THREADS=threads),
                       capture_output=True, text=True, check=True)
        runs.append(ergodicity_artifacts(out))
    for name, lines in runs[0].items():
        assert len(lines) > 5, name
    assert runs[0] == runs[1]


def test_conjugation_route_agrees_across_thread_counts(tmp_path):
    # at N = 160 the conjugation route evolves three column blocks, on one
    # worker or on two; the artifacts and both correlator lines it feeds
    # must not move a byte
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "qmap.cli", "ergodicity", "--N", "32,160",
             "--t-max", "8", "--samples", "20000", "--out", str(out)],
            env=child_env(QMAP_THREADS=threads), capture_output=True,
            text=True, check=True)
        correlators = [ln for ln in done.stdout.splitlines()
                       if "max |" in ln]
        runs.append((correlators, ergodicity_artifacts(out)))
    assert len(runs[0][0]) == 2
    assert "max |f_conj - f_eig| = " in runs[0][0][1]
    assert runs[0] == runs[1]


CLASSICAL = ["classical", "--t-max", "5", "--samples", "20000",
             "--lyapunov-steps", "10000", "--lyapunov-seeds", "5"]
REUSED = "classical C(t) read from "


def ergodicity_artifacts(out):
    """Lines of every ergodicity artifact, without the `# out_dir=` line."""
    return {name: [ln for ln in read_lines(out / name)
                   if not ln.startswith("# out_dir=")]
            for name in ("ergodicity.csv", "f_curve.csv", "correlator.csv")}


@pytest.fixture(scope="module")
def fresh_ergodicity(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    assert run_command([*ERGODICITY, "--out", str(out)]) == 0
    return ergodicity_artifacts(out)


@pytest.fixture(scope="module")
def classical_csv(tmp_path_factory):
    """The classical.csv text of CLASSICAL, whose inputs ERGODICITY shares."""
    out = tmp_path_factory.mktemp("classical")
    assert run_command([*CLASSICAL, "--out", str(out)]) == 0
    return (out / "classical.csv").read_text(encoding="utf-8")


@pytest.fixture
def correlator_calls(monkeypatch):
    """Arguments of every classical_correlator call the commands make."""
    calls = []
    correlator = qmap.classical.classical_correlator

    def counted(*args):
        calls.append(args)
        return correlator(*args)

    monkeypatch.setattr(qmap.classical, "classical_correlator", counted)
    return calls


def _forbid_the_correlator(monkeypatch):
    def forbidden(*args):
        raise AssertionError("classical_correlator ran although "
                             "classical.csv matched")

    monkeypatch.setattr(qmap.classical, "classical_correlator", forbidden)


def test_ergodicity_reuses_a_matching_classical_run(tmp_path, monkeypatch,
                                                     capsys, fresh_ergodicity):
    out = tmp_path / "run"
    assert run_command([*CLASSICAL, "--out", str(out)]) == 0
    classical_lines = read_lines(out / "classical.csv")
    _forbid_the_correlator(monkeypatch)
    capsys.readouterr()
    assert run_command([*ERGODICITY, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()

    assert ergodicity_artifacts(out) == fresh_ergodicity
    assert read_lines(out / "classical.csv") == classical_lines
    # correlator.csv carries the very C(t) of classical.csv
    _, rows = data_rows(classical_lines)
    _, correlator_rows = data_rows(read_lines(out / "correlator.csv"))
    assert [r.split(",")[1] for r in correlator_rows] \
        == [r.split(",")[1] for r in rows]

    assert [ln for ln in stdout if ln.startswith(REUSED)] \
        == [f"{REUSED}{out / 'classical.csv'} (same variant, observable, "
            "samples, t_max and seed)"]
    # the benchmark reads these two summaries; the new lines match neither
    assert len([ln for ln in stdout if re.search(r"max \|diff\| = ", ln)]) == 1
    assert not [ln for ln in stdout if re.search(r"^lyapunov exponent:", ln)]
    routes = [ln for ln in stdout if "max |f_conj - f_eig| = " in ln]
    assert len(routes) == 1
    assert float(routes[0].rpartition(" = ")[2]) < 1e-12


def test_reuse_holds_across_thread_counts(tmp_path, monkeypatch, capsys,
                                          fresh_ergodicity):
    # one worker writes classical.csv, the default count would compute the
    # same bits, so reading the file back changes nothing
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "qmap.cli", *CLASSICAL,
                    "--out", str(out)], env=child_env(QMAP_THREADS="1"),
                   capture_output=True, text=True, check=True)
    monkeypatch.delenv("QMAP_THREADS", raising=False)
    _forbid_the_correlator(monkeypatch)
    capsys.readouterr()
    assert run_command([*ERGODICITY, "--out", str(out)]) == 0
    assert REUSED in capsys.readouterr().out
    assert ergodicity_artifacts(out) == fresh_ergodicity


def test_family_r_does_not_block_the_reuse(tmp_path, monkeypatch, capsys,
                                           classical_csv):
    # the classical map is the h -> 0 limit and never reads r
    out = tmp_path / "run"
    out.mkdir()
    (out / "classical.csv").write_text(classical_csv, encoding="utf-8")
    _forbid_the_correlator(monkeypatch)
    capsys.readouterr()
    assert run_command([*ERGODICITY, "--r", "1.5", "--out", str(out)]) == 0
    assert REUSED in capsys.readouterr().out


@pytest.mark.parametrize("change", [
    ("--seed", "7"), ("--samples", "20008"), ("--t-max", "6"),
    ("--observable", "cos2pi_p"), ("--variant", "regular")])
def test_other_correlator_inputs_compute_afresh(tmp_path, capsys, change,
                                                fresh_ergodicity,
                                                correlator_calls):
    out = tmp_path / "run"
    assert run_command([*CLASSICAL, *change, "--out", str(out)]) == 0
    written = read_lines(out / "classical.csv")
    capsys.readouterr()
    assert run_command([*ERGODICITY, "--out", str(out)]) == 0
    assert REUSED not in capsys.readouterr().out
    assert len(correlator_calls) == 2
    assert ergodicity_artifacts(out) == fresh_ergodicity
    assert read_lines(out / "classical.csv") == written


def _drop_last_row(text):
    return text[:text.rstrip("\n").rfind("\n") + 1]


CORRUPTIONS = {
    "version": lambda text: text.replace(f"# qmap {qmap.__version__}\n",
                                         "# qmap 0.0.0\n", 1),
    "command": lambda text: text.replace("# command=classical\n",
                                         "# command=ergodicity\n", 1),
    "columns": lambda text: text.replace("\nt,C,stderr\n",
                                         "\nt,C,sigma\n", 1),
    "truncated": _drop_last_row,
    "lags": lambda text: text.replace("\n3,", "\n4,", 1),
    "non-numeric": lambda text: re.sub(r"\n3,[^,\n]+,", "\n3,abc,", text),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_file_qmap_did_not_write_is_ignored(tmp_path, capsys, corruption,
                                              classical_csv, fresh_ergodicity,
                                              correlator_calls):
    text = CORRUPTIONS[corruption](classical_csv)
    assert text != classical_csv
    out = tmp_path / "run"
    out.mkdir()
    (out / "classical.csv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_command([*ERGODICITY, "--out", str(out)]) == 0
    assert REUSED not in capsys.readouterr().out
    assert len(correlator_calls) == 1
    assert ergodicity_artifacts(out) == fresh_ergodicity
    assert (out / "classical.csv").read_text(encoding="utf-8") == text
