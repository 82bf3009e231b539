"""End-to-end command line runs against a temporary output directory."""

import json
import os
import subprocess
import sys

import pytest

import qmap
from qmap.cli import _THREAD_VARS, run_command
from qmap.sweep import MODEL_NAMES


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def child_env(**extra):
    """Environment for a child interpreter: this qmap, no thread settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in _THREAD_VARS and k != "QMAP_THREADS"}
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

    monkeypatch.setenv("QMAP_THREADS", "0")
    assert run_command(["--help"]) == 0
    capsys.readouterr()

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(var, "unset-me")
    monkeypatch.setenv("QMAP_THREADS", "2")
    assert run_command(["--help"]) == 0
    capsys.readouterr()
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_importing_the_cli_leaves_numpy_unloaded():
    # QMAP_THREADS is applied to the environment inside run_command; it
    # only reaches the BLAS pools if numpy has not been imported yet.
    # run_command then loads the library, scipy included, for any command.
    probe = ("import sys, qmap, qmap.cli\n"
             "before = 'numpy' in sys.modules\n"
             "qmap.cli.run_command(['--help'])\n"
             "print(before, 'numpy' in sys.modules, 'scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=child_env(QMAP_THREADS="1"),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False True True"


def test_results_agree_across_thread_counts(tmp_path):
    # reruns are byte-identical at one thread count; across counts the BLAS
    # reduction order differs, so values agree to roundoff only
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "qmap.cli", "sweep", "--variant",
             "regular", "--N", "128", "--r1", "1", "--out", str(out)],
            env=child_env(QMAP_THREADS=threads), capture_output=True,
            text=True, check=True)
        crossings = [ln for ln in done.stdout.splitlines()
                     if ln.startswith("crossings:")]
        header, rows = data_rows(read_lines(out / "spectrum.csv"))
        runs[threads] = (crossings, header, [r.split(",") for r in rows])

    (cross1, header1, rows1), (cross2, header2, rows2) = runs.values()
    assert cross1 == cross2 and len(cross1) == 1
    assert header1 == header2 == "r,level,eigenphase"
    assert len(rows1) == len(rows2) == 21 * 128
    worst = 0.0
    for (r1, n1, a), (r2, n2, b) in zip(rows1, rows2):
        assert (r1, n1) == (r2, n2)
        a, b = float(a), float(b)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    assert worst <= 1e-12
