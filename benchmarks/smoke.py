"""Fast smoke check of the benchmark harness at reduced levels.

    python3 benchmarks/smoke.py

For every workload this runs ``run.py`` untraced and traced with only the
first two levels, and asserts that the run is correct, that every metric
named in ``BENCHMARK.json`` is printed with a unit, that the traced counts
reconcile with the records, and that the trace file parses.  Exits 0 on
success; takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_LEVELS = 2


def run(workload: str, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--levels", str(SMOKE_LEVELS)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, spec: dict) -> None:
    stdout, result = run(workload, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    assert result["attempted"] >= SMOKE_LEVELS
    assert set(result["metrics"]) == {m["name"] for m in wanted}, stdout
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert isinstance(entry["value"], (int, float)), (m, entry)
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"]
                   for line in stdout.splitlines()), f"{m['name']} not printed"
    assert "fail_ratio" in stdout
    if trace:
        trace_file = stdout.split("# trace written to ")[1].split("\n")[0]
        doc = json.loads(Path(trace_file).read_text(encoding="utf-8"))
        spans = doc["spans"]
        assert spans and all(s["end"] >= s["start"] for s in spans)
        assert all(-1 <= s["parent"] < i for i, s in enumerate(spans))
        metrics = result["metrics"]
        assert metrics["newton.unrecorded_iterations"]["value"] == 0
        assert (metrics["linsolve.factorizations"]["value"]
                >= metrics["newton.iterations"]["value"] > 0)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
            print(f"ok {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
