"""qmap benchmark: user operations through the qmap CLI, timed and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the source tree of the checkout that holds
this file (`src/qmap`, put on PYTHONPATH for every child).  Each operation
is a fresh `python -m qmap.cli ...` process (two for `correspondence`), run
closed-loop, one at a time, until S seconds have passed; every operation's
artifacts are checked against `reference.json` before it counts.  No BLAS,
OpenMP or QMAP_THREADS variable is passed to the children, so the program's
own default thread policy is what gets measured.

--trace 0 prints the end-to-end metrics: medians over the run's operations
of wall_s (spawn to exit, artifacts written), cpu_s (user + sys from
os.wait4) and peak_rss_mb (ru_maxrss), and the median of SETUP_ROUNDS
set-up probes, setup_s (interpreter start, imports and run-spec
resolution, up to the first layer call).

--trace 1 runs one untraced and one traced operation (see traced.py) and
prints the per-layer metrics of layers.py, after checking that the named
layers were called and that their spans cover the traced time.  On
sweep-regular it adds a traced operation with QMAP_THREADS=1 in the
child's environment, as a single-thread reference.

The last line of standard output is the result as JSON; the line before it
records the environment.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TRACED = os.path.join(BENCH, "traced.py")

# the caller's thread settings would replace the program's own policy
THREAD_VARS = ("QMAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_ROUNDS = 5
# every child is killed past this point, so a run ends within 180 s
RUN_BUDGET_S = 170.0


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


class Session:
    """One benchmark run: its child environment, scratch space and deadline."""

    def __init__(self, workload_name: str, seed: int, reference: dict | None):
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.seed = seed
        self.workload = workloads.workload(workload_name, seed)
        # None only while recording the reference itself
        self.reference = reference
        self.workdir = os.path.join(ROOT, ".bench_out",
                                    f"{workload_name}-{os.getpid()}")
        self.out_dir = os.path.join(self.workdir, "out")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = SRC
        self.stripped = {k: os.environ[k] for k in THREAD_VARS
                         if k in os.environ}
        self.children = 0

    def spawn(self, argv: list, env: dict | None = None) -> dict:
        """Run one child to completion; its exit code, times and output."""
        self.children += 1
        out_path = os.path.join(self.workdir, f"child{self.children}.out")
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env or self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - spawn, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(out_path + ".err", encoding="utf-8",
                      errors="replace") as fh:
                log(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                    f"{fh.read()[-2000:]}")
        return {"code": proc.returncode, "spawn": spawn, "exit": end,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout}

    def operation(self, traced: bool = False, env: dict | None = None) -> dict:
        """One user operation: every step of the workload, then the check."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        children = []
        for i, step in enumerate(self.workload.steps):
            args = [*step, "--out", self.out_dir]
            if traced:
                spans_path = os.path.join(self.workdir, f"spans{i}.json")
                argv = [sys.executable, TRACED, "--spans", spans_path, "--",
                        *args]
            else:
                argv = [sys.executable, "-m", "qmap.cli", *args]
            child = self.spawn(argv, env)
            children.append(child)
            if child["code"] != 0:
                break
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    child.update(json.load(fh))
        op = {
            "wall": children[-1]["exit"] - children[0]["spawn"],
            "cpu": sum(c["cpu"] for c in children),
            "rss_mb": max(c["rss_mb"] for c in children),
            "children": children,
            "ok": all(c["code"] == 0 for c in children)
                  and len(children) == len(self.workload.steps),
            "stdout": "".join(c["stdout"] for c in children),
        }
        if op["ok"] and self.reference is not None:
            try:
                workloads.check(self.workload, self.seed, self.out_dir,
                                op["stdout"], self.reference)
            except workloads.CheckFailed as exc:
                log(f"output check failed: {exc}")
                op["ok"] = False
        log(f"{self.workload.name}{' traced' if traced else ''}: "
            f"wall {op['wall']:.3f} s, cpu {op['cpu']:.3f} s, "
            f"rss {op['rss_mb']:.1f} MB, {'ok' if op['ok'] else 'FAILED'}")
        return op

    def setup_seconds(self) -> tuple:
        """Set-up time of one operation, once per round: the summed
        lifetimes of its processes when each stops at its first layer call.
        Also returns the environment record the first probe printed."""
        rounds = []
        environment = None
        for _ in range(SETUP_ROUNDS):
            total = 0.0
            for step in self.workload.steps:
                child = self.spawn([sys.executable, TRACED, "--setup", "--",
                                    *step, "--out", self.out_dir])
                if child["code"] != 0:
                    raise RuntimeError("set-up probe failed")
                total += child["exit"] - child["spawn"]
                if environment is None:
                    environment = json.loads(child["stdout"].splitlines()[-1])
            rounds.append(total)
        return rounds, environment

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it


def source_record() -> dict:
    """Identity and size of the benchmarked source tree."""
    digest = hashlib.sha256()
    lines = 0
    package = os.path.join(SRC, "qmap")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_qmap_lines": lines}


def timed_run(session: Session, seconds: float):
    setups, environment = session.setup_seconds()
    ops = []
    begin = time.perf_counter()
    while True:
        ops.append(session.operation())
        now = time.perf_counter()
        if now - begin >= seconds or now + ops[-1]["wall"] > session.deadline:
            break
    good = [op for op in ops if op["ok"]] or ops
    metrics = {
        "wall_s": (statistics.median(op["wall"] for op in good), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(op["cpu"] for op in good), "s"),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in good), "MB"),
    }
    report = {"samples": {"wall_s": len(good), "setup_s": len(setups)},
              "child": environment}
    return ops, metrics, [], report


def trace_run(session: Session):
    wl = session.workload
    plain = session.operation()
    traced = session.operation(traced=True)
    ops = [plain, traced]
    single_wall = 0.0
    report = {"child": traced["children"][-1].get("environment")}
    if wl.name == "sweep-regular":
        single = session.operation(traced=True,
                                   env={**session.env, "QMAP_THREADS": "1"})
        ops.append(single)
        single_wall = single["wall"]
        report["single_thread_child"] = \
            single["children"][-1].get("environment")
    processes = [c for c in traced["children"] if "spans" in c]
    problems = []
    if traced["ok"]:
        problems = layers.guard_failures(processes, wl.layers, wl.diag_sizes)
    for problem in problems:
        log(f"trace guard: {problem}")
    values = layers.layer_metrics(processes, traced["wall"] - plain["wall"],
                                  single_wall) if processes else {}
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit, _ in layers.PER_LAYER}
    return ops, metrics, problems, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmap", "cli.py")):
        log(f"no qmap source tree at {SRC}; run inside a source checkout")
        return 2

    session = Session(args.workload, args.seed, workloads.load_reference())
    if session.stripped:
        log(f"WARNING: ignoring caller thread settings {session.stripped}; "
            "the benchmark measures the program's default thread policy")
    try:
        environment = {"nproc": os.cpu_count(),
                       "affinity": len(os.sched_getaffinity(0)),
                       "ignored_thread_vars": session.stripped,
                       **source_record()}
        if args.trace:
            ops, metrics, problems, report = trace_run(session)
        else:
            ops, metrics, problems, report = timed_run(session, args.seconds)
    finally:
        session.close()

    failed = sum(1 for op in ops if not op["ok"])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"environment": {**environment, **report}},
                     sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
