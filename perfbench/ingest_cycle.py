"""``ingest_cycle``: CSV files on disk -> ingest -> open -> first answer,
then repeated append/reopen/probe cycles with periodic compaction.

This is the only workload on the write path (``csvio``, ``streaming``,
``wmh`` sketching, ``shard`` writes, ``lake`` commit/compact/open).
Queries are a handful of probe asks per cycle over the scan route, so
query and serve changes should not move it.

The run is a sequence of *epochs*.  Each epoch starts from a copy of the
lake the set-up built and runs the same number of cycles, so every cycle
sees the same lake sizes however many cycles a fast build fits into the
run.  Every cycle's batch has fresh values (new tables and same-name
replacements), so it never replays the process-wide WMH minima cache.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro.core.wmh import WeightedMinHash, shared_minima_cache
from repro.datasearch.join_estimates import JoinSketch
from repro.store import LakeStore, QuerySession

import gen
from common import (
    SKETCH_L,
    SKETCH_M,
    SKETCH_SEED,
    children_peak_rss_mb,
    counter,
    exact_truth,
    hist_totals,
    hit_key,
    hit_triples,
    iq_mean,
    mean,
    median,
    peak_rss_mb,
    quality,
    run_setup,
)
from querying import QUERY_HISTS, Asks, ask, search_layer_metrics

#: Per-layer metrics of layers this workload does not run; they report 0.
UNMEASURED = frozenset({
    "lshindex.build_ms", "lshindex.shortlist_rows", "search.shortlist_precision",
    "client.encode_ms", "serve.rtt_ms", "search.direct_ms", "search.joinability_ms",
    "serve.overhead_ms", "serve.batch_size_mean", "serve.shed",
    "session.sketch_cache_hit_ratio", "gen.late_p99_ms", "serve.self_s", "client.self_s",
})

FULL = {
    "tables": 1000,
    "probes": 64,
    "related_per_probe": 10,
    "new_per_cycle": 40,
    "replaced_per_cycle": 20,
    "hits_per_probe": 2,
    "cycles_per_epoch": 4,
    "compact_every": 2,
    "setup_reps": 3,
}
TOY = dict(FULL, tables=60, probes=2, related_per_probe=4, new_per_cycle=6, replaced_per_cycle=4)


def params(toy: bool) -> dict:
    return TOY if toy else FULL


def base_lake(seed: int, p: dict) -> gen.Lake:
    return gen.make_lake(seed, p["probes"], p["related_per_probe"], p["tables"])


def write_inputs(seed: int, p: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for table in base_lake(seed, p).tables:
        gen.save_csv(table, directory)


def setup_child(seed: int, p: dict, csv_dir: Path, lake_dir: Path) -> dict:
    """One cold set-up in a fresh process: CSV -> lake -> open -> answer."""
    probe = base_lake(seed, p).queries[0]
    paths = sorted(csv_dir.glob("*.csv"))
    started = time.perf_counter()
    with LakeStore.create(
        lake_dir, WeightedMinHash(m=SKETCH_M, seed=SKETCH_SEED, L=SKETCH_L)
    ) as store:
        store.ingest_csv(paths)
    with LakeStore.open(lake_dir) as store:
        QuerySession(store).search(probe, "v")
    return {"setup_s": time.perf_counter() - started}


def _batch(rng, keys, live, related, queries, p, tag):
    """New tables (a quarter planted on probes) plus replacements."""
    planted = -(-p["new_per_cycle"] // 4)
    targets = [queries[i] for i in rng.permutation(len(queries))]
    names = [f"{tag}n{j}" for j in range(p["new_per_cycle"])]
    new = gen.related_tables(
        rng, keys, targets, names[:planted], gen.uniform(rng, planted, 0.05, 0.6)
    )
    for i, table in enumerate(new):
        related[targets[i % len(targets)].name].append(table.name)
    new += gen.background_tables(rng, keys, names[planted:])
    pool = sorted(live)
    picks = rng.choice(len(pool), size=p["replaced_per_cycle"], replace=False)
    replaced = gen.fresh_values(rng, [live[pool[i]] for i in sorted(picks.tolist())])
    return new + replaced, [table.name for table in replaced]


def _same_sketch(a, b) -> bool:
    def parts(sketch: JoinSketch):
        yield sketch.indicator
        for column in sorted(sketch.values):
            yield sketch.values[column]
            yield sketch.squares[column]

    if sorted(a.values) != sorted(b.values):
        return False
    return all(
        np.array_equal(x.hashes, y.hashes)
        and np.array_equal(x.values, y.values)
        and x.norm == y.norm
        for x, y in zip(parts(a), parts(b))
    )


def run(ctx) -> dict:
    p = params(ctx.toy)
    csv_dir = ctx.workdir / "csv" / "base"
    write_inputs(ctx.seed, p, csv_dir)
    # Every input file is flushed before a timed step: the store's
    # fsyncs would otherwise also write out whatever the benchmark left
    # dirty (ext4 commits all pending data with the journal).
    os.sync()
    setups = [run_setup(ctx, "ingest_cycle", rep) for rep in range(p["setup_reps"])]
    base_dir = ctx.workdir / "setup0" / "lake"

    lake = base_lake(ctx.seed, p)
    queries = lake.queries
    # The generated inputs live all run; keep them out of the program's
    # garbage collections.
    gc.freeze()
    tracer = ctx.tracer
    asks = Asks()
    ingest_s, ingest_rows, compact_s, open_ms, first_ms = [], 0, [], [], []
    cold_ms, answers, reports, cycle_ms = [], [], [], {True: [], False: []}
    compact_bytes = []
    bytes_ratio = None
    attempted = failed = 0
    hists0 = hist_totals(QUERY_HISTS)
    fsyncs0 = counter("store.fsyncs")
    written0 = counter("store.shard_bytes_written")
    searches = scan_rows = 0
    started = time.perf_counter()
    # A traced run needs an untraced epoch to measure tracing overhead.
    min_epochs = 2 if ctx.trace else 1
    epoch = 0
    while epoch < min_epochs or time.perf_counter() - started < ctx.seconds:
        live = {table.name: table for table in lake.tables}
        related = {name: list(names) for name, names in lake.related.items()}
        keys = gen.KeySpace(np.random.default_rng([ctx.seed, epoch]), f"e{epoch}k")
        lake_dir = ctx.workdir / "lake"
        shutil.rmtree(lake_dir, ignore_errors=True)
        shutil.copytree(base_dir, lake_dir)
        os.sync()
        store = LakeStore.open(lake_dir)
        try:
            for cycle in range(p["cycles_per_epoch"]):
                rng = np.random.default_rng([ctx.seed, epoch, cycle])
                batch, replaced = _batch(
                    rng, keys, live, related, queries, p, f"e{epoch}c{cycle}"
                )
                batch_dir = ctx.workdir / "csv" / f"e{epoch}c{cycle}"
                batch_dir.mkdir(parents=True)
                paths = [gen.save_csv(table, batch_dir) for table in batch]
                os.sync()
                traced = ctx.trace and epoch % 2 == 0
                tracer.enabled = traced
                compact = (cycle + 1) % p["compact_every"] == 0
                attempted += 1
                cycle_start = time.perf_counter()
                with tracer.span("op.cycle", request_id=f"e{epoch}c{cycle}"):
                    with tracer.span("lake.ingest_csv") as span:
                        t0 = time.perf_counter()
                        _, report = store.ingest_csv(paths)
                        ingest_s.append(time.perf_counter() - t0)
                    stages = report.stage_seconds
                    tracer.derive(
                        span,
                        [
                            ("csvio.parse", stages["parse"]),
                            ("streaming.vectorize", stages["vectorize"]),
                            ("wmh.sketch", stages["sketch"]),
                            ("shard.write", stages["write"]),
                        ],
                    )
                    reports.append((ingest_s[-1], report))
                    ingest_rows += report.input_rows
                    with tracer.span("lake.close"):
                        store.close()
                    t0 = time.perf_counter()
                    with tracer.span("lake.open"):
                        store = LakeStore.open(lake_dir)
                    opened = time.perf_counter()
                    session = QuerySession(store)
                    first = None
                    cycle_answers = []
                    for probe in queries:
                        hits = ask(session, probe, True, asks, tracer)
                        if first is None:
                            first = time.perf_counter()
                        cycle_answers.append(hits)
                    asks.new_window()
                    for _ in range(p["hits_per_probe"]):
                        for probe in queries:
                            ask(session, probe, False, asks, tracer)
                    searches += len(queries) * (1 + p["hits_per_probe"])
                    scan_rows += len(store) * len(queries) * (1 + p["hits_per_probe"])
                    open_ms.append((opened - t0) * 1e3)
                    first_ms.append((first - opened) * 1e3)
                    cold_ms.append((first - t0) * 1e3)
                    if compact:
                        written = counter("store.shard_bytes_written")
                        with tracer.span("lake.compact"):
                            t0 = time.perf_counter()
                            store.compact()
                            compact_s.append(time.perf_counter() - t0)
                        compact_bytes.append(counter("store.shard_bytes_written") - written)
                        with tracer.span("session.search"):
                            after = [session.search(probe, "v") for probe in queries]
                        searches += len(queries)
                        scan_rows += len(store) * len(queries)
                        asks.hits_returned += sum(len(hits) for hits in after)
                cycle_ms[traced].append((time.perf_counter() - cycle_start) * 1e3)
                tracer.enabled = False

                # Checks, outside every timed region.
                ok = True
                if compact:
                    ok &= all(
                        hit_key(a) == hit_key(b) for a, b in zip(cycle_answers, after)
                    )
                for table in batch:
                    live[table.name] = table
                for name in replaced:
                    ok &= _same_sketch(
                        store.index.get(name),
                        JoinSketch.build(live[name], store.sketcher),
                    )
                failed += not ok
                for probe, hits in zip(queries, cycle_answers):
                    truth = exact_truth(probe, [live[n] for n in related[probe.name]])
                    answers.append((hit_triples(hits), truth))
                shutil.rmtree(batch_dir)
                if epoch == 0 and cycle == p["cycles_per_epoch"] - 1:
                    live_csv = sum(gen.csv_bytes(table) for table in live.values())
                    bytes_ratio = store.stats()["file_bytes"] / live_csv
        finally:
            store.close()
        epoch += 1
    hists1 = hist_totals(QUERY_HISTS)
    recall, corr_err = quality(answers)
    wmh_cache = shared_minima_cache().stats()

    e2e = {
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": max(peak_rss_mb(), children_peak_rss_mb()),
        "ingest_rows_per_s": ingest_rows / sum(ingest_s),
        # Cycles alternate between lake shapes (just compacted or not),
        # so their timings cluster; an interquartile mean does not jump
        # between clusters the way a median does.
        "compact_s": iq_mean(compact_s),
        "cold_open_ms": iq_mean(cold_ms),
        "bytes_per_input_byte": bytes_ratio,
        "recall_at_10": recall,
        "corr_abs_err": corr_err,
        # Each cycle's misses are a window; its first miss is inside
        # cold_open_ms.
        **asks.answer_metrics(
            [
                asks.miss_ms[lo + 1 : lo + len(queries)]
                for lo in range(0, len(asks.miss_ms), len(queries))
            ]
        ),
    }
    stage_sum = {
        stage: mean(report.stage_seconds[stage] for _, report in reports)
        for stage in ("parse", "vectorize", "sketch", "write")
    }
    layer = {
        "csvio.parse_s": stage_sum["parse"],
        "streaming.vectorize_s": stage_sum["vectorize"],
        "wmh.sketch_s": stage_sum["sketch"],
        "shard.write_s": stage_sum["write"],
        "lake.commit_s": mean(
            wall - sum(report.stage_seconds.values()) for wall, report in reports
        ),
        "lake.fsyncs": (counter("store.fsyncs") - fsyncs0) / attempted,
        "lake.bytes_written": (
            counter("store.shard_bytes_written") - written0
        ) / attempted,
        "lake.compact_s": iq_mean(compact_s),
        "lake.compact_bytes_rewritten": mean(compact_bytes),
        "lake.open_ms": iq_mean(open_ms),
        "session.first_search_ms": iq_mean(first_ms),
        "session.sketch_ms": mean(asks.sketch_ms),
        "search.search_ms": mean(asks.hit_ms),
        "wmh.cache_hits": wmh_cache["hits"],
        "wmh.cache_misses": wmh_cache["misses"],
        "wmh.cache_evictions": wmh_cache["evictions"],
        **search_layer_metrics(
            hists0, hists1, searches, asks.hits_returned, scan_rows
        ),
    }
    return {
        "params": p,
        "e2e": e2e,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "traced_ms": cycle_ms[True],
        "untraced_ms": cycle_ms[False],
    }
