"""Reference kernel that gauges the machine's speed at the moment.

On a shared machine the speed of one core drifts by 10-25% over tens of
seconds, so raw wall times taken minutes apart are not comparable.  The
benchmark times this fixed kernel next to every measurement and rescales the
measurement to ``NOMINAL_S``:

    corrected = raw * NOMINAL_S / reference_seconds()

The kernel does the kind of work an analysis does (column-wise rank
transforms and a correlation matrix of a 1000 x 41 table, with their
interpreted per-column loop) plus a random gather from a 16 MB array, which
is what slows down when other tenants load the shared cache.  Of several
candidate kernels timed side by side in the same runs, this pair tracked
the analyses best.  It does not touch missgraph, so a change to the package
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import stats

#: Median kernel time on a 2-vCPU 2.0 GHz x86-64 VM (OpenBLAS, one thread).
NOMINAL_S = 0.017
REPEATS = 3

_rng = np.random.default_rng(20191217)
_TABLE = _rng.standard_normal((1000, 41))
_LARGE = _rng.standard_normal(2_000_000)  # 16 MB: larger than L2, inside L3
_INDEX = _rng.integers(0, _LARGE.size, 500_000).astype(np.int32)


def _kernel() -> None:
    for j in range(_TABLE.shape[1]):
        stats.rankdata(_TABLE[:, j])
    np.corrcoef(_TABLE, rowvar=False)
    _LARGE[_INDEX].sum()


def reference_seconds() -> float:
    """Median time of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)

