"""Run the qmap CLI in this process with a span around every layer function.

    python bench/traced.py --spans FILE -- <qmap arguments>
    python bench/traced.py --setup -- <qmap arguments>

The first form runs `python -m qmap.cli <qmap arguments>` unchanged except
that the public functions of the layer modules are wrapped, and writes the
recorded spans to FILE as JSON when the process exits.  The second form
prints the environment record as JSON and exits at the first layer call,
so its lifetime is the CLI's set-up: interpreter start, imports and
run-spec resolution.  The environment record holds the package versions
and the thread count of each BLAS library as this process runs it.

Wrappers are installed by an import hook as each layer module finishes
executing, before any later module binds its names, so `from .spectral
import diagonalize` in `qmap.sweep` and the CLI's lazy imports all bind
the wrapped function.  The hook imports nothing itself, so numpy is first
imported by qmap, in the same order as under the plain CLI, and the
thread environment is read exactly as there.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import importlib.machinery
import json
import os
import runpy
import sys
import time
import types

LAYER_MODULES = ("classical", "quantize", "spectral", "sweep", "ergodicity",
                 "outputs")
# called once per written value; a span there would only measure the tracer
UNTRACED = {"outputs.format_value"}

# per-call counts kept with the span, computed from the call's result
NOTES = {
    "spectral.diagonalize": lambda result: result.N,
    "sweep.sweep_quantization":
        lambda result: [int(result.r_grid.size), int(result.refined_steps)],
    "classical.classical_correlator":
        lambda result: result.sample_count * result.t_max,
    "classical.lyapunov_exponent":
        lambda result: result.seed_count * result.steps,
    "outputs.write_outputs":
        lambda result: sum(os.path.getsize(path) for path in result),
}


class Tracer:
    """Spans as [name, start, end, parent index, note], kept in memory."""

    def __init__(self, stop_at_first_call: bool = False):
        self.spans: list = []
        self.stack: list = []
        self.stop_at_first_call = stop_at_first_call

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stop_at_first_call:
                print(json.dumps(environment()), flush=True)
                os._exit(0)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def wrap_module(self, module) -> None:
        layer = module.__name__.rpartition(".")[2]
        for attr, value in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                setattr(module, attr, self.wrap(name, value))


class LayerHook:
    """Meta-path finder that wraps each layer module right after it runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.names = {f"qmap.{m}" for m in LAYER_MODULES}

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.tracer.wrap_module(module)

        spec.loader.exec_module = exec_module
        return spec


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if ".so" in line}
    except OSError:
        return found
    for path in sorted(p for p in paths if "openblas" in p.lower()):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def environment() -> dict:
    """Versions and BLAS threads, read once qmap has loaded numpy and scipy."""
    numpy = sys.modules["numpy"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_cli(argv: list, tracer: Tracer, spans_path: str | None) -> None:
    sys.meta_path.insert(0, LayerHook(tracer))
    if spans_path is not None:
        def dump():
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans,
                           "environment": environment()}, fh)
        atexit.register(dump)
    sys.argv = ["qmap", *argv]
    runpy.run_module("qmap.cli", run_name="__main__", alter_sys=True)


def main(argv: list) -> None:
    if len(argv) < 2 or "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    options, qmap_args = argv[:split], argv[split + 1:]
    if options == ["--setup"]:
        run_cli(qmap_args, Tracer(stop_at_first_call=True), None)
    elif len(options) == 2 and options[0] == "--spans":
        run_cli(qmap_args, Tracer(), options[1])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
