"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_cycle --seed 1 --seconds 20 --trace 0

``--workload`` is ``ingest_cycle``, ``query_lsh`` or ``serve_http``
(see ``BENCHMARK.json`` for why each exists).  Inputs are generated from
``--seed``; the program sees only those inputs.  Each run measures for
about ``--seconds``, checks every answer, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same workload with in-memory spans around every call into a
layer and reports the per-layer metrics, the ledger of per-layer self
time with its unattributed remainder, and the tracing overhead.
Earlier lines carry the run's stamp (host, versions, seed, parameter
hash, filesystem) and, for traced runs, the path of the span file.

The program is imported from ``src/`` of the checkout this file lives
in, never from an installed copy; without it the run fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest_cycle", "query_lsh", "serve_http")

#: Layers of the ledger, named after the program's modules, and
#: ``client``, the client-side encoding of a served request.
LAYERS = [
    "csvio", "streaming", "wmh", "shard", "lake",
    "lshindex", "search", "session", "serve", "client",
]


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def import_program():
    """Put ``src/`` first on the path and prove ``repro`` came from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path.insert(0, str(src))
    repro = importlib.import_module("repro")
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {src}")


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    toy: bool
    tracer: Tracer


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="toy-scale inputs (smoke checks only)"
    )
    parser.add_argument(
        "--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS
    )
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_child is None:
        parser.error("--workload is required")
    return args


def setup_child(args: argparse.Namespace) -> dict:
    """One cold set-up, run in a fresh interpreter by the parent run."""
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    workload = args.setup_child
    if workload == "ingest_cycle":
        import ingest_cycle

        return ingest_cycle.setup_child(
            args.seed,
            ingest_cycle.params(args.toy),
            directory.parent / "csv" / "base",
            directory / "lake",
        )
    import lakes

    module = importlib.import_module(workload)
    candidates = "lsh" if workload == "query_lsh" else "scan"
    return lakes.setup_child(
        args.seed, module.params(args.toy), directory / "lake", candidates
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_child:
        print(json.dumps(setup_child(args)), flush=True)
        return 0

    import common

    e2e_units, layer_units = metric_units()
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(ROOT, workdir, args.seed, args.seconds, bool(args.trace), args.toy, Tracer())
    module = importlib.import_module(args.workload)
    try:
        common.emit(
            {
                "stamp": common.stamp(
                    ROOT, workdir, args.workload, args.seed, module.params(args.toy)
                )
            }
        )
        started = time.perf_counter()
        result = module.run(ctx)
        wall_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(result["layer"])
        hits = values["wmh.cache_hits"]
        lookups = hits + values["wmh.cache_misses"]
        values["wmh.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        values.update(ctx.tracer.ledger(LAYERS))
        values["trace.overhead_ratio"] = common.median(result["traced_ms"]) / common.median(
            result["untraced_ms"]
        )
        values["trace.spans"] = len(ctx.tracer.spans)
        trace_path = work_root / "traces" / f"{args.workload}-s{args.seed}.jsonl"
        ctx.tracer.write(trace_path)
        common.emit({"trace": str(trace_path.relative_to(ROOT)), "wall_s": wall_s})
        units = layer_units
        # A layer the workload does not run reports 0; every other
        # metric must have been measured.
        for name in module.UNMEASURED:
            values.setdefault(name, 0.0)
    else:
        values = result["e2e"]
        units = e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: {args.workload} did not measure {', '.join(missing)}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }
    sane = all(value["value"] == value["value"] for value in metrics.values())
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and sane,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
