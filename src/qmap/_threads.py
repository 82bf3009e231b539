"""The one reader of QMAP_THREADS.

The command line reads it to cap the BLAS thread pools before numpy is
first imported, so this module imports no numpy; the Monte Carlo
correlator reads it for its worker count.
"""

from __future__ import annotations

import os

from .errors import ConfigurationError


def requested_threads() -> int:
    """QMAP_THREADS as a count; 0 (automatic) when it is unset.

    Anything but a non-negative integer is a ConfigurationError.
    """
    raw = os.environ.get("QMAP_THREADS")
    if raw is None:
        return 0
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigurationError(
            f"QMAP_THREADS must be a non-negative integer, got {raw!r}")
    return n
