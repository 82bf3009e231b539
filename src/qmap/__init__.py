"""Quantized kicked maps on the torus: spectra, level motion, ergodicity.

The library quantizes three one-kick map families (chaotic, regular, and a
slowly ergodic sawtooth variant), follows their eigenlevels under an
O(h^2) change of quantization, and measures coarse-grained ergodicity of
eigenstates through diagonal matrix elements, smoothed two-point sums and
trace autocorrelations.

The exports below are loaded on first access (PEP 562), so importing the
package does not import numpy: the command line can still cap the BLAS
thread pool (QMAP_THREADS) before numpy loads it.
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "classical": ("OBSERVABLES", "CorrelatorCurve", "LyapunovReport",
                  "classical_correlator", "lyapunov_exponent",
                  "microcanonical_average"),
    "config": ("RunSpec", "make_runspec"),
    "ergodicity": ("ErgodicityReport", "FCurveReport",
                   "diagonal_elements_report", "quantum_F_curve",
                   "quantum_classical_compare", "quantum_correlator",
                   "quantum_correlator_eigenbasis"),
    "errors": ("ConfigurationError", "DomainError", "FitError",
               "NumericalError", "QmapError", "StepTooLargeError",
               "TrackingError"),
    "model": ("VARIANTS", "MapFamily", "PhaseSpacePoint", "PlanckScale",
              "require_even_dimension"),
    "quantize": ("FloquetOperator", "ObservableMatrix", "build_floquet",
                 "free_propagator", "kick_propagator", "quantize_observable"),
    "spectral": ("SpectralData", "diagonalize", "mean_spacing"),
    "sweep": ("LevelTrajectories", "ModelFit", "ScalingFit", "ShiftStatistics",
              "fit_shift_scaling", "level_velocities", "scaling_study",
              "shift_statistics", "sweep_quantization", "track_levels"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def _load_all() -> None:
    """Import every module behind the exports, numpy with them.

    The top-level scipy package is imported too, for its version (the
    environment record of bench/traced.py reads it); it loads no BLAS.
    scipy.linalg and scipy.optimize, with scipy's own OpenBLAS, load only
    in the rare Schur and assignment fallbacks.
    """
    import scipy
    for module in _EXPORTS:
        importlib.import_module(f".{module}", __name__)


def __dir__():
    return sorted(set(globals()) | set(__all__))
