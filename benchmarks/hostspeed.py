"""Host-speed calibration of the study benchmark.

On a shared host the same study's wall time moves by ±25 % from minute to
minute, because neighbours slow the CPU down; a run-level median cannot
remove a slow-down that lasts the whole run.  A fixed calibration kernel,
timed in the same process right after every study (and after every set-up
probe), slows down with it.  ``run.py`` divides each time by the kernel
times measured next to it and multiplies by ``REFERENCE_S``, which turns
the time into seconds at a fixed host speed.

The kernel does the three kinds of work a study spends its time on, in
roughly the study's proportions: SuperLU factorizations and solves of a
sparse 2-D stencil matrix, a numpy scatter-add like element assembly, and
an interpreted Python loop.  None of it is program code, so a change to
the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median kernel time on the host the benchmark was defined on (2 vCPUs of
# an "Intel(R) Xeon(R) Processor", Python 3.11, scipy's bundled SuperLU).
# Only ratios to it matter; it sets the scale of the reported seconds.
REFERENCE_S = 0.22

GRID = 64
FACTORIZATIONS = 15
SCATTERS = 20
SCATTER_SIZE = 20_000
SCATTER_TERMS = 100_000
LOOP_STEPS = 500_000


class HostSpeed:
    """The calibration kernel's fixed inputs, built once per process."""

    def __init__(self) -> None:
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(GRID * GRID)
        rng = np.random.default_rng(0)
        self.index = rng.integers(0, SCATTER_SIZE, SCATTER_TERMS)
        self.values = rng.standard_normal(SCATTER_TERMS)
        spla.splu(self.matrix).solve(self.rhs)  # first-call costs, untimed

    def measure(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(FACTORIZATIONS):
            spla.splu(self.matrix).solve(self.rhs)
        for _ in range(SCATTERS):
            out = np.zeros(SCATTER_SIZE)
            np.add.at(out, self.index, self.values)
        total = 0
        for i in range(LOOP_STEPS):
            total += i % 7
        return time.perf_counter() - t0
