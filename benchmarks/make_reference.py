"""Record the reference values that gate the benchmark's outputs.

For every workload and every sigma of the seed grid this runs the full
study once and stores ``[n_total, newton_total, error, eta]`` per level in
``reference.json``.  Run it only on the commit whose results are the
reference, from the repository root:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 benchmarks/make_reference.py [workload ...]

Workloads not named keep their stored values.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import REFERENCE_FILE, SIGMA_GRID, WORKLOADS, record_row

from plapminres.cli import config_from_dict
from plapminres.driver import run_study


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    reference = (json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
                 if REFERENCE_FILE.exists() else {})
    for name in names:
        rows_by_sigma = {}
        for sigma in SIGMA_GRID:
            raw = dict(WORKLOADS[name], sigma=sigma)
            t0 = time.perf_counter()
            records = run_study(config_from_dict(raw, source=name))
            elapsed = time.perf_counter() - t0
            if len(records) != raw["max_levels"]:
                print(f"{name} sigma={sigma}: stopped after {len(records)} "
                      "levels", file=sys.stderr)
                return 1
            rows_by_sigma[repr(sigma)] = [record_row(r) for r in records]
            print(f"{name} sigma={sigma}: {elapsed:.2f} s, newton "
                  f"{[r.newton_total for r in records]}", flush=True)
        reference[name] = rows_by_sigma
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
