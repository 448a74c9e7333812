"""Helpers shared by the workloads: statistics, answer checks, truth,
run stamps and the result record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro import obs
from repro.datasearch.table import Table

#: Workload constants every workload shares.
SKETCH_M = 128
SKETCH_L = 1 << 20
SKETCH_SEED = 7
MIN_CONTAINMENT = 0.05  # QuerySession / ServerConfig default
TOP_K = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else math.nan


def pct(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else math.nan


def slices(values: list[float], count: int) -> list[np.ndarray]:
    """``count`` consecutive parts of a run's samples, in time order."""
    return [part for part in np.array_split(np.asarray(values), count) if part.size]


def window_pct(windows: Iterable[Iterable[float]], q: float) -> float:
    """The interquartile mean, over windows of a run, of each window's
    ``q``-th percentile.

    The shared host's speed switches between phases that last seconds.
    A percentile of all samples lands in whichever phase held most of
    them and jumps between runs when two hold about as many; the mean of
    window percentiles moves smoothly with the time spent in each, and
    the interquartile cut keeps a stall confined to one window out.
    Empty windows are skipped.
    """
    arrays = (np.asarray(list(window), dtype=float) for window in windows)
    return iq_mean(float(np.percentile(a, q)) for a in arrays if a.size)


def iq_mean(values: Iterable[float]) -> float:
    """The mean of the middle half of ``values`` (the interquartile mean).

    For timings taken a few at a time it averages more samples than a
    median does, yet ignores a stall.
    """
    ordered = np.sort(np.asarray(list(values), dtype=float))
    cut = ordered.size // 4
    return mean(ordered[cut : ordered.size - cut])


def split_pool(tables: list[Table], size: int) -> tuple[list[Table], list[Table]]:
    """``(pool, rest)``: ``size`` tables at evenly spaced ranks of row count.

    The generator draws query sizes from fixed quantiles in random
    order, so a prefix of the queries holds a different size mix for
    every seed; evenly spaced ranks hold the same mix.  Both parts keep
    the generated order.
    """
    ranked = sorted(range(len(tables)), key=lambda i: (tables[i].num_rows, tables[i].name))
    chosen = {ranked[int((j + 0.5) * len(tables) / size)] for j in range(size)}
    pool = [table for i, table in enumerate(tables) if i in chosen]
    rest = [table for i, table in enumerate(tables) if i not in chosen]
    return pool, rest


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _exact(value: float) -> Any:
    """NaN compares unequal to itself; map it to a token for equality."""
    return "nan" if value != value else value


def _key(table: str, column: str, *stats: float) -> tuple:
    return (table, column, *(_exact(float(value)) for value in stats))


def hit_key(hits: Iterable[Any]) -> list[tuple]:
    """Every statistic of a hit list, comparable bit for bit."""
    return [
        _key(h.table_name, h.column, h.join_size, h.containment, h.score, h.correlation)
        for h in hits
    ]


def served_key(hits: Iterable[dict]) -> list[tuple]:
    """:func:`hit_key` for the JSON hits ``repro.serve`` returns."""
    return [
        _key(
            h["table"], h["column"], h["join_size"], h["containment"], h["score"],
            h["correlation"],
        )
        for h in hits
    ]


# ---------------------------------------------------------------------
# exact ground truth
# ---------------------------------------------------------------------


def exact_truth(query: Table, tables: Iterable[Table]) -> dict[tuple, tuple[float, float]]:
    """``(table, column) -> (containment, correlation)`` by exact join.

    Only tables that share keys with the query need joining; every
    other lake table has an empty join by construction.
    """
    truth = {}
    for table in tables:
        joined = query.join(table)
        containment = joined.size / max(query.num_rows, 1)
        for column in table.columns:
            truth[(table.name, column)] = (
                containment,
                joined.correlation("v", column) if joined.size else math.nan,
            )
    return truth


def quality(
    answered: list[tuple[list[tuple[str, str, float]], dict[tuple, tuple[float, float]]]],
) -> tuple[float, float]:
    """``(recall_at_10, corr_abs_err)`` over answered queries.

    Each entry pairs one query's returned ``(table, column, est_corr)``
    hits with its exact truth.  The exact top-10 ranks the columns whose
    exact containment clears the serving threshold by exact
    ``|correlation|``.  A returned hit without a join counts as exact
    correlation 0.
    """
    recalls, errors = [], []
    for hits, truth in answered:
        ranked = sorted(
            (
                (abs(corr), key)
                for key, (containment, corr) in truth.items()
                if containment >= MIN_CONTAINMENT and corr == corr
            ),
            key=lambda item: (-item[0], item[1]),
        )
        best = {key for _, key in ranked[:TOP_K]}
        returned = {(table, column) for table, column, _ in hits[:TOP_K]}
        if best:
            recalls.append(len(best & returned) / len(best))
        for table, column, estimate in hits:
            if estimate != estimate:
                continue
            exact = truth.get((table, column), (0.0, 0.0))[1]
            errors.append(abs(estimate - (exact if exact == exact else 0.0)))
    return mean(recalls), mean(errors)


def hit_triples(hits: Iterable[Any]) -> list[tuple[str, str, float]]:
    return [(hit.table_name, hit.column, float(hit.correlation)) for hit in hits]


# ---------------------------------------------------------------------
# program telemetry
# ---------------------------------------------------------------------


def counter(name: str) -> float:
    return obs.get_registry().counter_value(name)


def hist_totals(names: Iterable[str]) -> dict[str, tuple[float, int]]:
    """``name -> (sum, count)`` of live registry histograms."""
    registry = obs.get_registry()
    out = {}
    for name in names:
        hist = registry.histogram(name)
        out[name] = (hist.total, hist.count) if hist is not None else (0.0, 0)
    return out


#: The ``DatasetSearch.search`` phases, as the program records them,
#: mapped to the layer that owns the work.
SEARCH_PHASES = (
    ("candidates", "lshindex.candidates"),
    ("joinability", "search.joinability"),
    ("gather", "search.gather"),
    ("estimate.sum_left", "search.estimate"),
    ("estimate.sum_squares_left", "search.estimate"),
    ("estimate.sum_right", "search.estimate"),
    ("estimate.sum_squares_right", "search.estimate"),
    ("estimate.inner_product", "search.estimate"),
    ("score", "search.score"),
)
PHASE_HISTS = [f"query.phase_ms.{phase}" for phase, _ in SEARCH_PHASES]


def phase_parts(before: dict, after: dict) -> list[tuple[str, float]]:
    """One search's phases (span name, seconds) from two hist readings."""
    return [
        (span, (after[hist][0] - before[hist][0]) / 1e3)
        for (_, span), hist in zip(SEARCH_PHASES, PHASE_HISTS)
    ]


# ---------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def filesystem_of(path: Path) -> str:
    """The mount type holding ``path`` (longest matching mount point)."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_rev(root: Path) -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_hash(root: Path) -> str:
    """sha256 over the program sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path, workdir: Path, workload: str, seed: int, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "params_hash": hashlib.sha256(
            json.dumps(params, sort_keys=True).encode()
        ).hexdigest()[:16],
        "params": params,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(root),
        "src_sha256": source_hash(root),
        "filesystem": filesystem_of(workdir),
        # The store has no fsync knob: every commit fsyncs the shard,
        # the manifest and their directory before it returns.
        "fsync_on_commit": "always",
    }


def emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def run_setup(ctx, workload: str, rep: int) -> dict:
    """One cold set-up of ``workload`` in a fresh interpreter.

    Runs ``perfbench/run.py --setup-child`` into ``setup<rep>/`` of the
    work directory and returns the JSON its last line reports.
    """
    args = [
        "--setup-child", workload, "--seed", str(ctx.seed),
        "--dir", str(ctx.workdir / f"setup{rep}"),
    ]
    result = subprocess.run(
        [sys.executable, str(ctx.root / "perfbench" / "run.py"), *args]
        + (["--toy"] if ctx.toy else []),
        cwd=ctx.root,
        env=program_env(ctx.root),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"set-up {rep} of {workload} exited {result.returncode}: "
            f"{result.stderr[-2000:]}"
        )
    return json.loads(result.stdout.strip().splitlines()[-1])


def program_env(root: Path) -> dict[str, str]:
    """The environment for processes that run program code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
