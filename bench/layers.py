"""Per-layer metrics and coverage guards from the spans of traced runs.

A traced process is a dict with its `spans` (as written by traced.py:
[name, start, end, parent index, note]), and `spawn` and `exit`, the
parent's perf_counter readings around the child's lifetime; perf_counter
is the system-wide monotonic clock, so the two sides compare directly.
"""

from __future__ import annotations

import statistics

from workloads import LADDER

# name, unit, better; the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("spectral.diagonalize.calls", "count", "lower"),
    ("spectral.diagonalize.s", "s", "lower"),
    *((f"spectral.diagonalize.ms_per_call.N{N}", "ms", "lower")
      for N in LADDER),
    ("quantize.build_floquet.calls", "count", "lower"),
    ("quantize.build_floquet.s", "s", "lower"),
    ("quantize.quantize_observable.s", "s", "lower"),
    ("sweep.track_levels.calls", "count", "lower"),
    ("sweep.track_levels.s", "s", "lower"),
    ("sweep.sweep_quantization.self_s", "s", "lower"),
    ("sweep.scaling_study.self_s", "s", "lower"),
    ("sweep.diag_per_grid_point", "ratio", "lower"),
    ("sweep.refined_steps", "count", "lower"),
    ("ergodicity.quantum_correlator.s", "s", "lower"),
    ("ergodicity.quantum_correlator_eigenbasis.s", "s", "lower"),
    ("ergodicity.quantum_F_curve.s", "s", "lower"),
    ("ergodicity.diagonal_elements_report.s", "s", "lower"),
    ("classical.classical_correlator.s", "s", "lower"),
    ("classical.classical_correlator.sample_kicks_per_s", "1/s", "higher"),
    ("classical.lyapunov_exponent.s", "s", "lower"),
    ("classical.lyapunov_exponent.seed_steps_per_s", "1/s", "higher"),
    ("outputs.write_outputs.s", "s", "lower"),
    ("outputs.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("single_thread.wall_s", "s", "lower"),
)
PER_LAYER_NAMES = {name for name, _, _ in PER_LAYER}

MIN_COVERAGE = 0.90

# functions the per-layer metrics name; a span's self time is what its
# nearest named descendants leave uncovered
NAMED = (
    "spectral.diagonalize", "quantize.build_floquet",
    "quantize.quantize_observable", "sweep.track_levels",
    "sweep.sweep_quantization", "sweep.scaling_study",
    "ergodicity.quantum_correlator", "ergodicity.quantum_correlator_eigenbasis",
    "ergodicity.quantum_F_curve", "ergodicity.diagonal_elements_report",
    "classical.classical_correlator", "classical.lyapunov_exponent",
    "outputs.write_outputs",
)


def _duration(span) -> float:
    return span[2] - span[1]


def _by_name(processes) -> dict:
    """name -> list of (span, self seconds, spans of its process)."""
    found: dict = {}
    for proc in processes:
        spans = proc["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[0] in NAMED:
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in NAMED:
                    parent = spans[parent][3]
                if parent >= 0:
                    child_time[parent] += _duration(span)
        for i, span in enumerate(spans):
            found.setdefault(span[0], []).append(
                (span, _duration(span) - child_time[i], spans))
    return found


def _inside(spans, span, name: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def coverage(processes) -> float:
    """Share of traced time after set-up that top-level layer spans cover.

    Set-up ends at a process's first layer call; the rest of its lifetime
    is the work the layer spans should account for.
    """
    covered = sum(_duration(s) for proc in processes for s in proc["spans"]
                  if s[3] < 0)
    work = sum(proc["exit"] - proc["spans"][0][1]
               for proc in processes if proc["spans"])
    return covered / work if work > 0 else 0.0


def layer_metrics(processes, overhead_s: float,
                  single_thread_wall_s: float) -> dict:
    spans = _by_name(processes)

    def calls(name):
        return len(spans.get(name, ()))

    def seconds(name):
        return sum(_duration(s) for s, _, _ in spans.get(name, ()))

    def self_seconds(name):
        return sum(own for _, own, _ in spans.get(name, ()))

    def per_second(name):
        work = sum(s[4] for s, _, _ in spans.get(name, ()))
        busy = seconds(name)
        return work / busy if busy > 0 else 0.0

    diag = spans.get("spectral.diagonalize", ())
    sweeps = [s for s, _, _ in spans.get("sweep.sweep_quantization", ())]
    grid_points = sum(s[4][0] for s in sweeps)
    swept_diag = sum(1 for s, _, proc_spans in diag
                     if _inside(proc_spans, s, "sweep.sweep_quantization"))

    out = {
        "spectral.diagonalize.calls": calls("spectral.diagonalize"),
        "quantize.build_floquet.calls": calls("quantize.build_floquet"),
        "sweep.track_levels.calls": calls("sweep.track_levels"),
        "sweep.sweep_quantization.self_s":
            self_seconds("sweep.sweep_quantization"),
        "sweep.scaling_study.self_s": self_seconds("sweep.scaling_study"),
        "sweep.diag_per_grid_point":
            swept_diag / grid_points if grid_points else 0.0,
        "sweep.refined_steps": sum(s[4][1] for s in sweeps),
        "classical.classical_correlator.sample_kicks_per_s":
            per_second("classical.classical_correlator"),
        "classical.lyapunov_exponent.seed_steps_per_s":
            per_second("classical.lyapunov_exponent"),
        "outputs.bytes": sum(s[4] for s, _, _ in
                             spans.get("outputs.write_outputs", ())),
        "trace.overhead_s": overhead_s,
        "trace.coverage": coverage(processes),
        "single_thread.wall_s": single_thread_wall_s,
    }
    for N in LADDER:
        times = [_duration(s) for s, _, _ in diag if s[4] == N]
        out[f"spectral.diagonalize.ms_per_call.N{N}"] = (
            1000.0 * statistics.median(times) if times else 0.0)
    for name in NAMED:
        if f"{name}.s" in PER_LAYER_NAMES:
            out[f"{name}.s"] = seconds(name)
    return out


def guard_failures(processes, layers, diag_sizes) -> list:
    """Why a traced run cannot be trusted; empty when it can.

    Every layer the workload names must have been called, so a renamed
    function fails here instead of reporting zeros, and the layer spans
    must cover at least MIN_COVERAGE of the traced time after set-up.
    """
    seen = _by_name(processes)
    problems = [f"layer {name} recorded no call" for name in layers
                if name not in seen]
    sizes = {s[4] for s, _, _ in seen.get("spectral.diagonalize", ())}
    problems += [f"no diagonalization at N={N}" for N in diag_sizes
                 if N not in sizes]
    share = coverage(processes)
    if share < MIN_COVERAGE:
        problems.append(f"layer spans cover {share:.1%} of traced time after "
                        f"set-up, below {MIN_COVERAGE:.0%}")
    return problems
