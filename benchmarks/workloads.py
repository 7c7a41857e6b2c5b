"""Workload definitions and the reference-value gate of the study benchmark.

Every workload is one ``run_study`` configuration of the benchmark load
``f = r^-sigma``.  The seed only jitters ``sigma`` over a fixed grid in
[0.95, 0.99]: it draws the order in which a run's studies cycle through
the grid, and seed 0 starts at the paper value 0.97.  The grid is
discrete so that reference values recorded once per (workload, sigma)
gate every study.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Three exponents, so that a 50 s run holds two or more whole cycles even
# of the slowest workload.
SIGMA_GRID = (0.95, 0.97, 0.99)
PAPER_SIGMA = 0.97

# Relative tolerance on the float columns (error, eta) of the reference
# gate; the integer columns (n_total, newton_total) must match exactly.
FLOAT_RTOL = 1e-6

WORKLOADS = {
    # Case 1, uniform red refinement, p = 3: structured meshes where the
    # factorization dominates (finest level 3 969 DOFs).
    "uniform_p3": dict(p_target=3.0, x0=[-1.0, -1.0], initial_n=2,
                       strategy="uniform", max_levels=5),
    # Case 2, Dörfler-adapted graded meshes, p = 1.5: Newton stalls,
    # damping and continuation halvings.
    "adaptive_p1.5": dict(p_target=1.5, x0=[0.0, 0.0], initial_n=16,
                          strategy="adaptive", max_levels=8),
    # The linear adaptive loop (what pre_adapt_mesh runs): one Newton
    # iteration per step, so mesh, spaces, load and estimate layers show.
    "adaptive_p2": dict(p_target=2.0, x0=[0.0, 0.0], initial_n=16,
                        strategy="adaptive", max_levels=13),
}


def sigma_cycle(seed: int) -> list[float]:
    """The grid in the seed's order; a timed run repeats it whole.

    Newton counts, and so study times, change by up to 12 % across the
    grid; running every exponent equally often keeps a run's study time
    from depending on which exponents the seed drew.
    """
    order = list(SIGMA_GRID)
    random.Random(seed).shuffle(order)
    if seed == 0:
        order.remove(PAPER_SIGMA)
        order.insert(0, PAPER_SIGMA)
    return order


def study_config(workload: str, sigma: float,
                 levels: int | None = None) -> dict:
    """Raw config mapping for ``plapminres.cli.config_from_dict``."""
    raw = dict(WORKLOADS[workload], sigma=sigma)
    if levels is not None:
        raw["max_levels"] = levels
    return raw


def record_row(rec) -> list:
    """The gated columns of one ``StudyRecord``."""
    return [rec.n_total, rec.newton_total, rec.error, rec.eta]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def failed_levels(reference: dict, workload: str, sigma: float, records,
                  levels: int) -> list[str]:
    """Describe every level that failed: missing, or off the reference.

    A level is missing when the study stopped early (non-convergence or a
    ``ContinuationError``).  Returns one message per failed level.
    """
    ref_rows = reference[workload][repr(sigma)]
    problems = []
    for level in range(levels):
        if level >= len(records):
            problems.append(f"level {level}: not solved")
            continue
        got = record_row(records[level])
        want = ref_rows[level]
        ints_ok = got[:2] == want[:2]
        floats_ok = all(abs(g - w) <= FLOAT_RTOL * abs(w)
                        for g, w in zip(got[2:], want[2:]))
        if not (ints_ok and floats_ok):
            problems.append(f"level {level}: got {got}, reference {want}")
    return problems
