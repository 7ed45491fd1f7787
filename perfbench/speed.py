"""Machine-speed reference kernels.

On a shared virtual machine the same code runs up to 1.8x slower for
stretches of seconds to minutes while a neighbour is busy, with no steal
time to show for it. That drift is far larger than any
regression bound. So every timed slice of a workload is followed by a
slice of a fixed reference kernel of the same kind of work, written here
and independent of classrank, and each timing is rescaled by
``nominal / measured reference time`` of its window: the reported times
are what the workload would take on a machine where the reference kernel
takes its nominal time. A change to classrank moves the workload and not
the reference; a busy neighbour moves both. The raw times are kept in the
results file.
"""

import json
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter

import numpy as np

SMOOTHING = 5  # slices in the rolling median that sets a window's factor

_rng = np.random.default_rng(20130128)
_GRID = (_rng.random((40, 40)) < 0.2).astype(np.int64)
np.fill_diagonal(_GRID, 0)
_GRID[_GRID.sum(axis=1) == 0, 0] = 1
_GRID_LIST = _GRID.tolist()
_DENSE = None


def _small(reference):
    """List-to-array validation, 20 power steps and a report dump at n=40:
    the per-call mix of a realistic class."""
    matrix = np.array(_GRID_LIST)
    ok = bool(np.isin(matrix, (0, 1)).all())
    walk = matrix / matrix.sum(axis=1)[:, None]
    x = np.full(40, 1.0 / 40)
    residual = 0.0
    for _ in range(20):
        y = 0.85 * (x @ walk) + 0.15 / 40
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
    return json.dumps({"x": [float(v) for v in x], "residual": residual, "ok": ok}, indent=2)


def _dense(reference):
    """Full passes, a copy and ten matvecs over a 2000 x 2000 matrix: the
    memory-bound mix of a large survey."""
    global _DENSE
    if _DENSE is None:
        _DENSE = (np.random.default_rng(7).random((2000, 2000)) < 0.004).astype(np.int64)
    ok = bool(np.isin(_DENSE, (0, 1)).all())
    walk = _DENSE / np.maximum(_DENSE.sum(axis=1), 1)[:, None]
    walk = np.array(walk)
    x = np.full(2000, 1.0 / 2000)
    for _ in range(10):
        x = 0.85 * (x @ walk) + 0.15 / 2000
    return json.dumps({"x": [float(v) for v in x], "ok": ok})


def _process(reference):
    """A fresh interpreter importing the libraries classrank imports."""
    subprocess.run(
        [sys.executable, "-c", "import argparse, csv, dataclasses, json, numpy"],
        env=reference.env, cwd=reference.cwd, check=True, stdout=subprocess.DEVNULL,
    )


# kind: (kernel, calls per slice, nominal seconds per call). The nominal
# times are about what each call takes on an idle 2-vCPU Xeon virtual
# machine; they are fixed constants that only set the unit of rescaled times.
KERNELS = {
    "small": (_small, 60, 3.0e-4),
    "dense": (_dense, 2, 6.0e-2),
    "process": (_process, 1, 1.2e-1),
}


class Reference:
    """Times slices of one reference kernel."""

    def __init__(self, kind, env=None, cwd=None):
        self.kind = kind
        self.env, self.cwd = env, cwd
        self.seconds = 0.0
        self.calls = 0
        self._recent = deque(maxlen=SMOOTHING)

    def slice(self):
        """Run one slice; returns the rescale factor for the window it
        closes: the nominal time over the rolling median of seconds per
        call, so one disturbed slice does not rescale a window on its own."""
        kernel, calls, nominal = KERNELS[self.kind]
        start = perf_counter()
        for _ in range(calls):
            kernel(self)
        elapsed = perf_counter() - start
        self.seconds += elapsed
        self.calls += calls
        self._recent.append(elapsed / calls)
        return nominal / statistics.median(self._recent)

    def warm(self):
        """One untallied slice that fills caches."""
        self.slice()
        self.seconds, self.calls = 0.0, 0
        self._recent.clear()
