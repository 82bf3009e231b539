"""The benchmark's own tests: output check, tracer, coverage guards, contract.

    python3 -m pytest bench/test_bench.py

The tests that run full workloads take about five minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, note]


def test_self_time_and_coverage_from_child_spans():
    spans = [
        _span("sweep.scaling_study", 1.0, 5.5),
        _span("sweep.sweep_quantization", 1.0, 5.0, 0, note=[4, 1]),
        _span("spectral.diagonalize", 1.0, 2.0, 1, 64),
        _span("spectral.decompose_unitary", 1.2, 1.9, 2),
        _span("spectral.diagonalize", 2.0, 3.5, 1, 64),
        _span("sweep.track_levels", 3.5, 4.0, 1),
        _span("sweep.fit_shift_scaling", 5.0, 5.4, 0),
        _span("outputs.write_outputs", 5.5, 6.0, note=100),
    ]
    proc = {"spans": spans, "spawn": 0.0, "exit": 6.5}
    values = layers.layer_metrics([proc], 0.25, 0.0)
    assert values["sweep.sweep_quantization.self_s"] == pytest.approx(1.0)
    # the fit is no named layer, so its time stays with its caller
    assert values["sweep.scaling_study.self_s"] == pytest.approx(0.5)
    assert values["spectral.diagonalize.calls"] == 2
    assert values["spectral.diagonalize.s"] == pytest.approx(2.5)
    assert values["spectral.diagonalize.ms_per_call.N64"] == pytest.approx(1250)
    assert values["sweep.diag_per_grid_point"] == pytest.approx(0.5)
    assert values["sweep.refined_steps"] == 1
    assert values["outputs.bytes"] == 100
    assert values["trace.coverage"] == pytest.approx(5.0 / 5.5)
    assert set(values) == layers.PER_LAYER_NAMES


def test_guards_name_missing_layers_sizes_and_low_coverage():
    spans = [_span("spectral.diagonalize", 1.0, 2.0, note=64)]
    proc = {"spans": spans, "spawn": 0.0, "exit": 3.0}
    problems = layers.guard_failures(
        [proc], ("spectral.diagonalize", "sweep.track_levels"), (64, 128))
    assert any("sweep.track_levels" in p for p in problems)
    assert any("N=128" in p for p in problems)
    assert any("cover 50.0%" in p for p in problems)
    proc["exit"] = 2.05
    assert layers.guard_failures([proc], ("spectral.diagonalize",), (64,)) == []


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}


def test_caller_thread_settings_never_reach_the_children(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("QMAP_THREADS", "3")
    session = run.Session("sweep-regular", 0, None)
    try:
        assert session.stripped == {"OMP_NUM_THREADS": "1", "QMAP_THREADS": "3"}
        assert not set(run.THREAD_VARS) & set(session.env)
    finally:
        session.close()


def test_hook_wraps_names_bound_by_from_imports(tmp_path):
    """sweep binds diagonalize at import; its calls must still be spans."""
    spans_path = tmp_path / "spans.json"
    args = ["sweep", "--variant", "regular", "--N", "64", "--r1", "0.5"]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, os.path.join(BENCH, "traced.py"),
                    "--spans", str(spans_path), "--", *args,
                    "--out", str(tmp_path / "traced")],
                   env=env, check=True, capture_output=True, timeout=120)
    subprocess.run([sys.executable, "-m", "qmap.cli", *args,
                    "--out", str(tmp_path / "plain")],
                   env=env, check=True, capture_output=True, timeout=120)
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    sweep = [i for i, s in enumerate(spans)
             if s[0] == "sweep.sweep_quantization"]
    inner = [s for s in spans if s[0] == "spectral.diagonalize"]
    assert len(sweep) == 1 and len(inner) == 11
    assert all(s[3] == sweep[0] for s in inner)

    def body(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("# out_dir=")]

    assert body(tmp_path / "traced" / "spectrum.csv") \
        == body(tmp_path / "plain" / "spectrum.csv")


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-regular",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    """Outputs of one real sweep-regular operation, checked clean."""
    session = run.Session("sweep-regular", 0, workloads.load_reference())
    try:
        op = session.operation()
        assert op["ok"]
        saved = tmp_path_factory.mktemp("sweep")
        shutil.copytree(session.out_dir, saved / "out")
    finally:
        session.close()
    return session.workload, str(saved / "out"), op["stdout"]


def _check(wl, out_dir, stdout):
    workloads.check(wl, 0, out_dir, stdout, workloads.load_reference())


def _edit(tmp_path, out_dir, old, new):
    copy = tmp_path / "edited"
    shutil.copytree(out_dir, copy)
    path = copy / "spectrum.csv"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return str(copy)


def test_output_check_rejects_a_corrupted_phase(sweep_artifacts, tmp_path):
    wl, out_dir, stdout = sweep_artifacts
    _check(wl, out_dir, stdout)
    lines = open(os.path.join(out_dir, "spectrum.csv")).read().splitlines()
    row = lines[-1]
    r, level, phase = row.split(",")
    corrupted = f"{r},{level},{float(phase) * (1 + 1e-7)!r}"
    with pytest.raises(workloads.CheckFailed, match="phases"):
        _check(wl, _edit(tmp_path, out_dir, row, corrupted), stdout)


def test_output_check_rejects_less_work(sweep_artifacts, tmp_path):
    wl, out_dir, stdout = sweep_artifacts
    with pytest.raises(workloads.CheckFailed, match="r1"):
        _check(wl, _edit(tmp_path, out_dir, "# r1=3\n", "# r1=2\n"), stdout)


def test_output_check_rejects_a_wrong_crossing_count(sweep_artifacts):
    wl, out_dir, stdout = sweep_artifacts
    assert "crossings: 143\n" in stdout
    with pytest.raises(workloads.CheckFailed, match="crossings"):
        _check(wl, out_dir, stdout.replace("crossings: 143", "crossings: 142"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_covers_every_named_layer(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=200)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= layers.MIN_COVERAGE
    wl = workloads.workload(name, 3)
    for layer in ("spectral.diagonalize", "quantize.build_floquet"):
        assert metrics[f"{layer}.calls"] >= 1
    for N in wl.diag_sizes:
        assert metrics[f"spectral.diagonalize.ms_per_call.N{N}"] > 0
    timed = [f"{layer}.s" for layer in wl.layers if f"{layer}.s" in metrics]
    assert timed and all(metrics[m] > 0 for m in timed)
