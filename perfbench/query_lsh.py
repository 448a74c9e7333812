"""``query_lsh``: an in-process ``QuerySession(candidates="lsh")`` over a
lake of about 4000 tables, one caller in a closed loop.

Two thirds of the query tables, a hit pool with the same size mix for
every seed, are warmed first and then asked many times each on a
query-sketch cache hit, in turn.  The pool is large because each table's
hit latency is set by its own shortlist, so the hit median is the
median of the pool tables' latencies.  The other third are each asked
once on a miss,
paced evenly over the run, and so are the compaction and cold-open
samples (:class:`lakes.StoreOps`).  Misses are dominated by ``wmh`` query
sketching, hits by the ``lshindex`` shortlist and ``search``
estimation.  There is no HTTP and no scan joinability pass, so changes
to ``serve`` or the scan route should not move it.
"""

from __future__ import annotations

import gc
import time

from repro.core.wmh import shared_minima_cache
from repro.datasearch.lshindex import LakeIndex
from repro.store import LakeStore, QuerySession

import lakes
from common import (
    MIN_CONTAINMENT,
    TOP_K,
    children_peak_rss_mb,
    exact_truth,
    hist_totals,
    hit_key,
    hit_triples,
    mean,
    median,
    peak_rss_mb,
    quality,
    run_setup,
    split_pool,
)
from querying import QUERY_HISTS, Asks, ask, search_layer_metrics

#: Per-layer metrics of layers this workload does not run; they report 0.
UNMEASURED = frozenset({
    "csvio.parse_s", "streaming.vectorize_s", "wmh.sketch_s", "shard.write_s",
    "lake.commit_s", "lake.fsyncs", "lake.bytes_written",
    "csvio.self_s", "streaming.self_s", "shard.self_s",
    "client.encode_ms", "serve.rtt_ms", "search.direct_ms", "search.joinability_ms",
    "serve.overhead_ms", "serve.batch_size_mean", "serve.shed",
    "session.sketch_cache_hit_ratio", "gen.late_p99_ms", "serve.self_s", "client.self_s",
})

FULL = {
    "tables": 4000,
    "queries": 150,
    "hit_pool": 100,
    "related_per_query": 10,
    "store_ops": 10,
    "setup_reps": 3,
}
TOY = dict(FULL, tables=80, queries=6, hit_pool=3, related_per_query=4, store_ops=2)


def params(toy: bool) -> dict:
    return TOY if toy else FULL


def run(ctx) -> dict:
    p = params(ctx.toy)
    setups = [run_setup(ctx, "query_lsh", rep) for rep in range(p["setup_reps"])]
    lake = lakes.make(ctx.seed, p)
    by_name = {table.name: table for table in lake.tables}
    queries = lake.queries
    # The generated inputs live all run; keep them out of the program's
    # garbage collections.
    gc.freeze()
    pool, fresh = split_pool(queries, p["hit_pool"])
    tracer = ctx.tracer
    asks = Asks()
    answers: dict[str, list] = {}
    attempted = failed = 0
    traced_ms, untraced_ms = [], []

    with LakeStore.open(ctx.workdir / "setup0" / "lake") as store:
        session = QuerySession(store, candidates="lsh")

        def one_ask(query, miss: bool) -> list:
            nonlocal attempted
            attempted += 1
            traced = ctx.trace and attempted % 2 == 0
            tracer.enabled = traced
            t0 = time.perf_counter()
            with tracer.span("op.ask", request_id=f"a{attempted}"):
                hits = ask(session, query, miss, asks, tracer)
            if not miss:
                (traced_ms if traced else untraced_ms).append(
                    (time.perf_counter() - t0) * 1e3
                )
            tracer.enabled = False
            return hits

        # The hit pool is warmed first, untimed.  Every hit then goes to
        # the next pool table in turn, so each carries the same weight
        # whatever the seed.  The fresh tables' misses are paced evenly
        # over the run and hits fill the time between them, so misses
        # and hits both sample the whole run.
        for query in pool:
            attempted += 1
            answers[query.name] = session.search(query, "v", top_k=TOP_K)
        expected = {query.name: hit_key(answers[query.name]) for query in pool}
        ops = lakes.StoreOps(ctx.workdir / "setup0", ctx.workdir / "ops", "lsh", tracer)
        hists0 = hist_totals(QUERY_HISTS)
        pace = ctx.seconds / max(len(fresh), 1)
        op_pace = ctx.seconds / p["store_ops"]
        started = time.perf_counter()
        asked = hit = 0
        while True:
            elapsed = time.perf_counter() - started
            if (
                asked == len(fresh)
                and ops.attempted == p["store_ops"]
                and elapsed >= ctx.seconds
            ):
                break
            if ops.attempted < p["store_ops"] and elapsed >= (ops.attempted + 0.5) * op_pace:
                tracer.enabled = ctx.trace
                ops.run(pool[ops.attempted % len(pool)], expected)
                tracer.enabled = False
            elif asked < len(fresh) and elapsed >= asked * pace:
                query = fresh[asked]
                answers[query.name] = one_ask(query, True)
                asked += 1
            else:
                query = pool[hit % len(pool)]
                hit += 1
                hits = one_ask(query, False)
                failed += hit_key(hits) != hit_key(answers[query.name])
        hists1 = hist_totals(QUERY_HISTS)

        # LSH hits must be a subset of the scan hits with identical
        # per-hit statistics (full rankings; the top-k cut can differ).
        everything = len(store)
        for query in queries:
            lsh = hit_key(session.search(query, "v", top_k=everything))
            scan = set(hit_key(session.search(query, "v", top_k=everything, candidates="scan")))
            failed += not set(lsh) <= scan
        searches = len(asks.miss_ms) + len(asks.hit_ms) + ops.attempted
        layer = search_layer_metrics(
            hists0, hists1, searches, asks.hits_returned + ops.hits_returned, 0
        )
        if ctx.trace:
            builds = []
            for _ in range(3):
                t0 = time.perf_counter()
                LakeIndex.build(
                    store.sketcher,
                    store.index.indicator_bank,
                    target_sim=MIN_CONTAINMENT,
                    target_recall=session.engine.lsh_target_recall,
                )
                builds.append((time.perf_counter() - t0) * 1e3)
            layer["lshindex.build_ms"] = median(builds)

    recall, corr_err = quality(
        [
            (
                hit_triples(answers[query.name]),
                exact_truth(query, [by_name[n] for n in lake.related[query.name]]),
            )
            for query in queries
            if query.name in answers
        ]
    )
    wmh_cache = shared_minima_cache().stats()
    e2e = lakes.setup_metrics(setups)
    ops_e2e, ops_layer = ops.metrics()
    e2e.update(ops_e2e)
    e2e.update(
        {
            "peak_rss_mb": max(peak_rss_mb(), children_peak_rss_mb()),
            "recall_at_10": recall,
            "corr_abs_err": corr_err,
            # The misses are few and paced over the whole run: one window.
            **asks.answer_metrics([asks.miss_ms]),
        }
    )
    layer.update(ops_layer)
    layer.update(
        {
            "session.sketch_ms": mean(asks.sketch_ms),
            "search.search_ms": mean(asks.hit_ms),
            "wmh.cache_hits": wmh_cache["hits"],
            "wmh.cache_misses": wmh_cache["misses"],
            "wmh.cache_evictions": wmh_cache["evictions"],
        }
    )
    return {
        "params": p,
        "e2e": e2e,
        "layer": layer,
        "attempted": attempted + ops.attempted,
        "failed": failed + ops.failed,
        "traced_ms": traced_ms,
        "untraced_ms": untraced_ms,
    }
