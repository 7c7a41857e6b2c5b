"""Study benchmark launcher.

    python3 benchmarks/run.py --workload uniform_p3 --seed 0 --seconds 50 \\
        --trace 0

Run from the repository root.  The launcher pins the BLAS threads to one,
spawns fresh worker processes that import the program from ``src``, prints
a human-readable report and, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``study_s``,
``peak_rss_mb``) untraced, with the times scaled to a fixed host speed
(``hostspeed.py``); ``--trace 1`` runs the span tracer and reports
the per-layer metrics.  ``--levels`` shortens the study (smoke checks).
See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"

# Set-up is sampled in this many fresh processes before the timed worker.
SETUP_PROBES = 9
# Each child must finish well inside the benchmark's 180 s limit.
CHILD_TIMEOUT_S = 170.0

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_fraction", "_share")):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def spawn_worker(role: str, args, deadline: float) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(WORK_DIR)]
    if args.levels is not None:
        cmd += ["--levels", str(args.levels)]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` at the reference host speed of ``hostspeed.py``."""
    return seconds * hostspeed.REFERENCE_S / calibration_s


def cycle_times(result: dict) -> list[tuple[float, float]]:
    """(mean study time, mean calibration time) of each whole sigma cycle."""
    n = result["cycle"]
    return [(statistics.fmean(result["samples"][i:i + n]),
             statistics.fmean(result["calibrations"][i:i + n]))
            for i in range(0, len(result["samples"]), n)]


def tail_percentile(samples: list[float]):
    """Highest of p99/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    for pct in (99, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def report(args, result: dict, probes: list[dict], metrics: dict,
           failed: int, attempted: int):
    env = result["env"]
    print(f"# workload {args.workload}  seed {args.seed}  levels "
          f"{env['levels']}  closed loop, one client, sigma per study "
          f"{env['sigmas']}")
    print("# env " + json.dumps(env, sort_keys=True))
    samples = result["samples"]
    if not args.trace:
        tail = tail_percentile(samples)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no percentile above the median has ten samples "
                     "beyond it")
        print(f"study_s samples: n={len(samples)}  median "
              f"{statistics.median(samples):.4f} s  max {max(samples):.4f} s"
              f"  {tail_text}")
        print("study_s samples (s): "
              + " ".join(f"{s:.4f}" for s in samples))
        print("unscaled wall times; the metrics below are scaled to a "
              f"host-speed kernel time of {hostspeed.REFERENCE_S} s")
        print("study cycles (mean study s / mean kernel s): "
              + " ".join(f"{s:.4f}/{c:.4f}" for s, c in cycle_times(result)))
        print("setup probes (setup s / kernel s): "
              + " ".join(f"{p['setup_s']:.4f}/{p['calibration_s']:.4f}"
                         for p in probes))
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_ratio':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} levels)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        print(f"# trace written to {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--levels", type=int, default=None,
                        help="run only the first LEVELS levels")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if not (ROOT / "src" / "plapminres" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)

    try:
        probes = [] if args.trace else [
            spawn_worker("probe", args, deadline)
            for _ in range(SETUP_PROBES)]
        result = spawn_worker("traced" if args.trace else "timed", args,
                              deadline)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(result["samples"]) * result["levels"]
    failed = min(len(result["problems"]), attempted)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["metrics"].items()}
    else:
        values = {"setup_s": statistics.median(
                      scaled(p["setup_s"], p["calibration_s"]) for p in probes),
                  "study_s": statistics.median(
                      scaled(s, c) for s, c in cycle_times(result)),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    report(args, result, probes, metrics, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
