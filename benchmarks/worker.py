"""One fresh benchmark process: set up, run studies, print one JSON line.

Started by ``run.py`` with the BLAS thread variables already pinned.  Three
roles:

* ``probe``  -- set up, report the set-up time and one host-speed
  calibration time measured right after it;
* ``timed``  -- set up, then run the workload's study in a closed loop (one
  ``run_study`` at a time, each followed by a calibration) until the time
  budget is spent, untraced;
* ``traced`` -- set up, run the study once untraced and once under the
  span tracer, and reduce the spans to per-layer metrics.

Set-up time runs from the launcher's spawn timestamp (``--spawned-at``, a
``time.monotonic`` reading, which is system-wide) to just before the first
``run_study``: interpreter start, the imports below, ``config_from_dict``
and the initial mesh.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import workloads
from hostspeed import HostSpeed
from plapminres.cli import config_from_dict
from plapminres.driver import run_study
from plapminres.mesh import unit_square_mesh


def environment(args, sigmas: list[float], levels: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "sigmas": sigmas,
        "levels": levels,
    }


def run_checked(study, raw: dict, args,
                reference: dict) -> tuple[float, list, list[str]]:
    """One study with its artifacts in a temporary directory.

    Returns ``(seconds, records, problems)``; the checks run after the
    clock has stopped.
    """
    with tempfile.TemporaryDirectory(dir=args.work_dir) as out:
        cfg = config_from_dict(dict(raw, output_dir=out), source=args.workload)
        t0 = time.perf_counter()
        records = study(cfg)
        seconds = time.perf_counter() - t0
        problems = workloads.failed_levels(reference, args.workload,
                                           raw["sigma"], records,
                                           raw["max_levels"])
        csv_lines = (Path(out) / "records.csv").read_text().splitlines()
        if len(csv_lines) != len(records) + 1:
            problems.append("records.csv does not hold one row per level")
    return seconds, records, problems


def timed(args, reference: dict) -> dict:
    """Closed loop: one study at a time, in whole cycles over the seed's
    sigma order, until another cycle would overrun ``--seconds``.

    Each cycle solves every sigma of the grid once, so the mean study time
    of a cycle does not depend on which exponents are slow.  The host-speed
    kernel runs after every study; ``run.py`` scales each cycle's mean
    study time by the cycle's mean kernel time.
    """
    cycle = workloads.sigma_cycle(args.seed)
    samples, calibrations, problems = [], [], []
    start = time.monotonic()
    while True:
        for sigma in cycle:
            raw = workloads.study_config(args.workload, sigma, args.levels)
            seconds, _, failed = run_checked(run_study, raw, args, reference)
            samples.append(seconds)
            problems += failed
            if len(samples) == 1:
                # the peak of one study, as a user running one study sees
                # it; later studies in the process add heap fragmentation
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
                host = HostSpeed()
            calibrations.append(host.measure())
        cycles = len(samples) // len(cycle)
        if (time.monotonic() - start) * (cycles + 1) / cycles > args.seconds:
            break
    return {"samples": samples, "calibrations": calibrations,
            "cycle": len(cycle), "problems": problems,
            "sigmas": cycle * cycles, "peak_rss_mb": peak_rss_mb}


def traced(args, reference: dict) -> dict:
    """The seed's first study untraced, under the span tracer, and untraced
    again; bracketing the traced study evens out first-study warm-up."""
    from tracer import Tracer

    raw = workloads.study_config(
        args.workload, workloads.sigma_cycle(args.seed)[0], args.levels)
    before_s, _, problems = run_checked(run_study, raw, args, reference)
    tracer = Tracer().install()
    try:
        _, records, failed = run_checked(tracer.traced_run_study(), raw, args,
                                         reference)
    finally:
        tracer.uninstall()
    after_s, _, failed_after = run_checked(run_study, raw, args, reference)
    problems += failed + failed_after
    untraced_s = (before_s + after_s) / 2
    metrics = tracer.layer_metrics()
    study_s = tracer.root_duration()
    recorded = sum(r.newton_total for r in records)
    metrics.update({
        "trace.study_s": study_s,
        "driver.trace_overhead_s": study_s - untraced_s,
        "linsolve.factor_share": metrics["linsolve.factor_s"] / study_s,
        "newton.recorded_iterations": recorded,
        "newton.unrecorded_iterations": metrics["newton.iterations"] - recorded,
    })
    if metrics["newton.unrecorded_iterations"] != 0:
        problems.append("traced Newton iterations differ from the sum of "
                        "records[*].newton_total")
    if metrics["linsolve.factorizations"] < metrics["newton.iterations"]:
        problems.append("fewer factorizations than Newton iterations")
    if abs(sum(tracer.self_times().values()) - study_s) > 1e-6 * study_s:
        problems.append("layer self times do not add up to trace.study_s")
    trace_file = Path(args.work_dir) / (
        f"trace_{args.workload}_seed{args.seed}.json")
    tracer.dump(trace_file, {"metrics": metrics, "untraced_study_s": untraced_s})
    return {"samples": [before_s, study_s, after_s], "problems": problems,
            "sigmas": [raw["sigma"]] * 3, "metrics": metrics,
            "trace_file": str(trace_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("probe", "timed", "traced"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--levels", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    raw = workloads.study_config(
        args.workload, workloads.sigma_cycle(args.seed)[0], args.levels)
    unit_square_mesh(config_from_dict(raw, source=args.workload).initial_n)
    setup_s = time.monotonic() - args.spawned_at
    if args.role == "probe":
        print(json.dumps({"setup_s": setup_s,
                          "calibration_s": HostSpeed().measure()}))
        return 0

    run = timed if args.role == "timed" else traced
    result = run(args, workloads.load_reference())
    result.update(setup_s=setup_s, levels=raw["max_levels"],
                  env=environment(args, result["sigmas"], raw["max_levels"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
