"""Quantized kicked maps on the torus: spectra, level motion, ergodicity.

The library quantizes three one-kick map families (chaotic, regular, and a
slowly ergodic sawtooth variant), follows their eigenlevels under an
O(h^2) change of quantization, and measures coarse-grained ergodicity of
eigenstates through diagonal matrix elements, smoothed two-point sums and
trace autocorrelations.

Before anything here imports numpy, QMAP_THREADS is copied into the BLAS
and OpenMP thread knobs, and OPENBLAS_THREAD_TIMEOUT is set, unless the
caller set it, so that idle OpenBLAS threads sleep after a short spin
(qmap._threads.cap_thread_env).  A process that imports qmap first runs
its BLAS pool under both.  Then the whole library loads.  The top-level
scipy package loads with it for one reason only: the environment record
of bench/traced.py reads its version.  It loads no BLAS, and no qmap
module uses scipy.
"""

from ._threads import cap_thread_env
from ._version import __version__

cap_thread_env()

import scipy
from .classical import (OBSERVABLES, CorrelatorCurve, LyapunovReport,
                        classical_correlator, lyapunov_exponent,
                        microcanonical_average)
from .config import RunSpec, make_runspec
from .ergodicity import (ErgodicityReport, FCurveReport,
                         diagonal_elements_report, quantum_F_curve,
                         quantum_classical_compare, quantum_correlator,
                         quantum_correlator_eigenbasis)
from .errors import (ConfigurationError, DomainError, FitError,
                     NumericalError, QmapError, StepTooLargeError,
                     TrackingError)
from .model import (VARIANTS, MapFamily, PhaseSpacePoint, PlanckScale,
                    require_even_dimension)
from .quantize import (FloquetOperator, Observable, build_floquet,
                       free_propagator, kick_propagator, quantize_observable)
from .spectral import SpectralData, diagonalize, mean_spacing
from .sweep import (LevelTrajectories, ModelFit, ScalingFit, ShiftStatistics,
                    fit_shift_scaling, level_velocities, scaling_study,
                    shift_statistics, sweep_quantization, track_levels)
