"""Toy-scale smoke of the benchmark: every workload, traced and untraced.

Run from the repository root::

    python3 perfbench/smoke.py

Each run uses ``--toy`` inputs and one second of measurement.  The
smoke fails unless every run exits 0 and its last line is a result with
exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``;
all answer checks pass; and every metric ``BENCHMARK.json`` names for
that mode is present, finite and in its unit.  Every end-to-end metric
must be non-zero, and so must every per-layer metric of a layer the
workload runs (all but its ``UNMEASURED`` set), save the few whose zero
is a real measurement at toy scale.  A renamed program histogram or
counter then fails the smoke instead of reading 0.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics whose zero is a real measurement at toy scale.  The
#: query tables' keys are fresh and the lake is sketched in other
#: processes, so the query workloads' own minima caches never hit.
MAY_BE_ZERO = {
    "ingest_cycle": {"wmh.cache_evictions"},
    "query_lsh": {"wmh.cache_evictions", "wmh.cache_hits", "wmh.cache_hit_ratio"},
    "serve_http": {
        "serve.shed", "wmh.cache_evictions", "wmh.cache_hits", "wmh.cache_hit_ratio",
    },
}


def check(workload: str, trace: int, spec: dict) -> list[str]:
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--toy",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    where = f"{workload} --trace {trace}"
    if result.returncode != 0:
        return [f"{where}: exit {result.returncode}: {result.stderr[-1000:]}"]
    line = json.loads(result.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0:
        problems.append(f"{where}: answer checks failed: {line}")
    if not line.get("attempted", 0) >= 1:
        problems.append(f"{where}: nothing attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    zero_ok = set()
    if trace:
        zero_ok = importlib.import_module(workload).UNMEASURED | MAY_BE_ZERO[workload]
    metrics = line.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got.get('unit')}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric['name']} = {value!r}")
        elif value == 0 and metric["name"] not in zero_ok:
            problems.append(f"{where}: {metric['name']} is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
