"""``serve_http``: ``python -m repro.serve`` in a subprocess over a lake of
about 1000 tables, default ``ServerConfig`` (scan route, micro-batching).

Each of the three set-ups leaves its server running.  A pool of 32 query
tables, with the same size mix for every seed, is first warmed on every
server (a server-side query-sketch miss, untimed).  The run is then ten
slices.  Each asks a tenth of 31 fresh tables for the first time on
every server, runs two in-process store operations (compaction and cold
open, :class:`lakes.StoreOps`), then runs phase 1, two closed-loop
clients (throughput), and phase 2, an open loop at a fixed rate of about
a third of phase-1 capacity on the reference host (latency), over the
whole pool on one server in turn.  Latency percentiles and throughput
are taken per slice and averaged over slices.  Both phases take pool tables in a turn that runs on
across slices, so every pool table carries the same weight.  Open-loop
latency runs from each request's due time, so a stall is charged to
every request it delays; a generator that sends over 5% of its requests
more than one inter-arrival period late fails the run.  The generator
never uses more than two threads and connections, the host's core
count.  This is the only workload for ``serve`` (HTTP, JSON, admission,
batching) and the one that exercises the full-lake scan joinability
pass; query sketching happens only on each table's first ask.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import select
import signal
import subprocess
import sys
import threading
import time

from repro.serve import ServeClient, ServeError, table_payload
from repro.store import LakeStore, QuerySession

import lakes
from common import (
    PHASE_HISTS,
    TOP_K,
    emit,
    exact_truth,
    hist_totals,
    hit_key,
    iq_mean,
    mean,
    median,
    pct,
    peak_rss_mb,
    phase_parts,
    program_env,
    quality,
    run_setup,
    served_key,
    split_pool,
    window_pct,
)

#: Per-layer metrics of layers this workload does not run; they report 0.
#: Its search layer is measured by in-process replays of the requests.
UNMEASURED = frozenset({
    "csvio.parse_s", "streaming.vectorize_s", "wmh.sketch_s", "shard.write_s",
    "lake.commit_s", "lake.fsyncs", "lake.bytes_written",
    "csvio.self_s", "streaming.self_s", "shard.self_s",
    "wmh.self_s", "session.sketch_ms", "lshindex.build_ms", "lshindex.candidates_ms",
    "lshindex.shortlist_rows", "search.shortlist_precision", "search.search_ms",
    "search.estimate_cross_ms", "search.rows_examined_per_hit",
})

FULL = {
    "tables": 1000,
    "queries": 64,
    "hit_pool": 32,
    "related_per_query": 10,
    "clients": 2,
    "open_loop_rate": 50.0,
    "closed_share": 0.5,
    "slices": 10,
    "store_ops_per_slice": 2,
    "setup_reps": 3,
}
TOY = dict(
    FULL, tables=60, queries=4, hit_pool=2, related_per_query=4, open_loop_rate=20.0
)
#: Seconds a server may take to print its ``serving ... at URL`` line.
START_TIMEOUT_S = 60


def params(toy: bool) -> dict:
    return TOY if toy else FULL


class Server:
    """One ``python -m repro.serve`` process, stopped on exit."""

    def __init__(self, ctx, lake_dir) -> None:
        self.log = open(ctx.workdir / "server.log", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", str(lake_dir)],
            cwd=ctx.root,
            env=program_env(ctx.root),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _served_ok(client: ServeClient, query, expected) -> tuple[bool, dict | None]:
    """One request, never retried; any error or wrong answer fails it."""
    try:
        response = client.query(query, "v", top_k=TOP_K, max_attempts=1)
    except (ServeError, OSError, ValueError):
        return False, None
    return served_key(response["hits"]) == expected, response


def _closed_loop(url, pool, expected, p, seconds, order, tracer, trace):
    """``clients`` threads, each sending its next request on a reply.

    Requests take the next pool table from ``order``, which runs on
    across slices, so every pool table is asked equally often.  Each
    traced request's ``serve.query`` span is returned with its pool
    index.
    """
    results = []  # (latency_ms, ok, traced)
    traced_spans = []  # (span, pool index)
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client_loop(worker: int) -> None:
        client = ServeClient(url, seed=worker)
        sent = 0
        while time.perf_counter() < deadline:
            with lock:
                index = next(order) % len(pool)
            # Only worker 0 records spans: the tracer is single-threaded.
            traced = trace and worker == 0 and sent % 2 == 0
            started = time.perf_counter()
            if traced:
                tracer.enabled = True
                with tracer.span("op.request", request_id=f"w{worker}r{sent}"):
                    with tracer.span("serve.query") as span:
                        ok, _ = _served_ok(client, pool[index], expected[index])
                tracer.enabled = False
            else:
                ok, _ = _served_ok(client, pool[index], expected[index])
            latency = (time.perf_counter() - started) * 1e3
            with lock:
                results.append((latency, ok, traced))
                if traced:
                    traced_spans.append((span, index))
            sent += 1

    threads = [threading.Thread(target=client_loop, args=(w,)) for w in range(p["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, traced_spans


def _open_loop(url, pool, expected, p, seconds, offset):
    """Requests due at a fixed rate, sent by ``clients`` threads in turn.

    Request ``i`` asks pool table ``offset + i`` (mod the pool), so
    successive calls with a running offset ask every table equally.
    """
    rate = p["open_loop_rate"]
    total = max(1, int(rate * seconds))
    results = []  # (latency_from_due_ms, late_ms, ok)
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender(worker: int) -> None:
        client = ServeClient(url, seed=100 + worker)
        for i in range(worker, total, p["clients"]):
            due = start + i / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            index = (offset + i) % len(pool)
            ok, _ = _served_ok(client, pool[index], expected[index])
            done = time.perf_counter()
            with lock:
                results.append(((done - due) * 1e3, (sent - due) * 1e3, ok))

    threads = [threading.Thread(target=sender, args=(w,)) for w in range(p["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _replay(session, pool) -> dict[str, list]:
    """In-process replays of each pool request, per pool index.

    Each table is encoded, searched and scanned for joinability five
    times; the medians (and mean search phases) stand in for that
    request's share of a served round trip.
    """
    out = {"encode": [], "direct": [], "joinable": [], "phases": []}
    reps = 5
    for query in pool:
        encode, direct, joinable, phases = [], [], [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            json.dumps(table_payload(query))
            t1 = time.perf_counter()
            before = hist_totals(PHASE_HISTS)
            session.search(query, "v", top_k=TOP_K)
            t2 = time.perf_counter()
            phases.append(phase_parts(before, hist_totals(PHASE_HISTS)))
            session.joinable(query, candidates="scan")
            t3 = time.perf_counter()
            encode.append(t1 - t0)
            direct.append(t2 - t1)
            joinable.append(t3 - t2)
        out["encode"].append(median(encode))
        out["direct"].append(median(direct))
        out["joinable"].append(median(joinable))
        out["phases"].append(
            [
                (name, sum(rep[j][1] for rep in phases) / reps)
                for j, (name, _) in enumerate(phases[0])
            ]
        )
    return out


def run(ctx) -> dict:
    p = params(ctx.toy)
    lake = lakes.make(ctx.seed, p)
    queries = lake.queries
    by_name = {table.name: table for table in lake.tables}
    # queries[0] is each set-up's first served answer, so it is never a
    # miss on any server; the misses and the pool come from the rest.
    pool, fresh = split_pool(queries[1:], p["hit_pool"])
    # The generated inputs live all run; keep them out of the garbage
    # collections of the client threads.
    gc.freeze()
    setups, servers = [], []
    with contextlib.ExitStack() as stack:
        for rep in range(p["setup_reps"]):
            lake_dir = ctx.workdir / f"setup{rep}" / "lake"
            built = run_setup(ctx, "serve_http", rep)
            t0 = time.perf_counter()
            server = stack.enter_context(Server(ctx, lake_dir))
            ServeClient(server.url).query(queries[0], "v", top_k=TOP_K)
            built["setup_s"] = built["build_s"] + time.perf_counter() - t0
            setups.append(built)
            servers.append(server)
        store = stack.enter_context(LakeStore.open(lake_dir))
        session = QuerySession(store)
        expected = {
            query.name: hit_key(session.search(query, "v", top_k=TOP_K))
            for query in queries
        }
        wants = [expected[query.name] for query in pool]

        tracer = ctx.tracer
        attempted = failed = 0
        miss_slices, answers = [], []

        def first_asks(tables, timed: bool) -> None:
            """Each table's first served ask on every server: a miss."""
            nonlocal attempted, failed
            miss_ms = []
            for server in servers:
                client = ServeClient(server.url)
                for query in tables:
                    t0 = time.perf_counter()
                    ok, response = _served_ok(client, query, expected[query.name])
                    if timed:
                        miss_ms.append((time.perf_counter() - t0) * 1e3)
                    attempted += 1
                    failed += not ok
                    if response is not None and server is servers[0]:
                        truth = exact_truth(
                            query, [by_name[n] for n in lake.related[query.name]]
                        )
                        returned = [
                            (h["table"], h["column"], float(h["correlation"]))
                            for h in response["hits"]
                        ]
                        answers.append((returned, truth))
            if timed:
                miss_slices.append(miss_ms)

        # The pool is warmed on every server first, untimed.  Each slice
        # then asks its share of the fresh tables for the first time on
        # every server, and runs the closed and the open loop over the
        # whole pool on one server, in turn.  Misses, phase 1 and phase 2
        # all sample the whole run, and every server serves a share.
        first_asks(pool, timed=False)
        closed_s = ctx.seconds * p["closed_share"] / p["slices"]
        open_s = ctx.seconds / p["slices"] - closed_s
        closed_slices, open_slices, traced_spans = [], [], []
        order = itertools.count()
        ops = lakes.StoreOps(lake_dir.parent, ctx.workdir / "ops", "scan", tracer)
        for slice_ in range(p["slices"]):
            lo = slice_ * len(fresh) // p["slices"]
            hi = (slice_ + 1) * len(fresh) // p["slices"]
            first_asks(fresh[lo:hi], timed=True)
            tracer.enabled = ctx.trace
            for _ in range(p["store_ops_per_slice"]):
                ops.run(pool[ops.attempted % len(pool)], expected)
            tracer.enabled = False
            url = servers[slice_ % len(servers)].url
            results, spans = _closed_loop(
                url, pool, wants, p, closed_s, order, tracer, ctx.trace
            )
            closed_slices.append(results)
            traced_spans += spans
            opened = sum(len(part) for part in open_slices)
            open_slices.append(_open_loop(url, pool, wants, p, open_s, opened))
        closed = [result for part in closed_slices for result in part]
        opened = [result for part in open_slices for result in part]
        attempted += len(closed) + len(opened) + ops.attempted
        # The open loop is valid only while the generator keeps to its
        # schedule.  If more than 5% of the requests went out over one
        # inter-arrival period late, the offered rate was not met, and
        # each of those late requests is a failure.  A single stall of
        # the host (up to about 20 requests) is not: latency runs from
        # the due time, so it is charged to the requests it delayed.
        period_ms = 1e3 / p["open_loop_rate"]
        late = [late for _, late, _ in opened]
        failures = {
            "first_asks": failed,
            "store_ops": ops.failed,
            "closed": sum(not ok for _, ok, _ in closed),
            "open": sum(not ok for _, _, ok in opened),
            "late": sum(ms > period_ms for ms in late) if pct(late, 95) > period_ms else 0,
        }
        slice_qps = [sum(ok for _, ok, _ in part) / closed_s for part in closed_slices]
        emit(
            {
                "failures": failures,
                "late_ms": {q: pct(late, q) for q in (50, 90, 95, 99, 100)},
                "slice_qps": [round(qps, 1) for qps in slice_qps],
                "slice_open_p50_ms": [
                    round(pct([ms for ms, _, _ in part], 50), 2) for part in open_slices
                ],
            }
        )
        failed = sum(failures.values())
        stats = [ServeClient(server.url).stats() for server in servers]
        server_rss = median(peak_rss_mb(server.process.pid) for server in servers)

        layer = {}
        if ctx.trace:
            # Replays of the same requests, in process, split each traced
            # round trip into client encode, search (with its phases) and
            # the serve remainder.
            replay = _replay(session, pool)
            for span, index in traced_spans:
                _, search = tracer.derive(
                    span,
                    [
                        ("client.encode", replay["encode"][index]),
                        ("session.search", replay["direct"][index]),
                    ],
                )
                tracer.derive(search, replay["phases"][index])
            rtt = mean(latency for latency, _, _ in closed)
            encode_ms = mean(replay["encode"]) * 1e3
            direct_ms = mean(replay["direct"]) * 1e3
            layer = {
                "client.encode_ms": encode_ms,
                "serve.rtt_ms": rtt,
                "search.direct_ms": direct_ms,
                "search.joinability_ms": mean(replay["joinable"]) * 1e3,
                "serve.overhead_ms": rtt - direct_ms - encode_ms,
            }

    def total(section: str, name: str, key: str | None = None) -> float:
        """A counter (or histogram field) summed over every server."""
        values = [one["telemetry"][section][name] for one in stats]
        return sum(values if key is None else (value[key] for value in values))

    sketch_hits = total("counters", "session.sketch_cache.hits")
    sketch_misses = total("counters", "session.sketch_cache.misses")
    wmh_cache = {
        key: sum(one["wmh_cache"][key] for one in stats)
        for key in ("hits", "misses", "evictions")
    }
    # Every latency percentile and the throughput are taken per slice and
    # averaged over slices (see common.window_pct).
    closed_ms = [[latency for latency, _, _ in part] for part in closed_slices]
    opened_ms = [[latency for latency, _, _ in part] for part in open_slices]
    recall, corr_err = quality(answers)
    e2e = lakes.setup_metrics(setups)
    ops_e2e, ops_layer = ops.metrics()
    e2e.update(ops_e2e)
    e2e.update(
        {
            "peak_rss_mb": server_rss,
            "query_miss_p50_ms": window_pct(miss_slices, 50),
            "query_hit_p50_ms": window_pct(closed_ms, 50),
            "query_hit_p99_ms": window_pct(closed_ms, 99),
            "recall_at_10": recall,
            "corr_abs_err": corr_err,
            "serve_qps": iq_mean(slice_qps),
            "serve_p50_ms": window_pct(opened_ms, 50),
            "serve_p95_ms": window_pct(opened_ms, 95),
        }
    )
    layer.update(ops_layer)
    layer.update(
        {
            "serve.batch_size_mean": (
                total("histograms", "serve.batch_size", "sum")
                / max(total("histograms", "serve.batch_size", "count"), 1)
            ),
            "serve.shed": sum(
                value
                for one in stats
                for name, value in one["telemetry"]["counters"].items()
                if name.startswith("serve.shed.")
            ),
            "session.sketch_cache_hit_ratio": (
                sketch_hits / (sketch_hits + sketch_misses)
                if sketch_hits + sketch_misses
                else 0.0
            ),
            "gen.late_p99_ms": pct(late, 99),
            "wmh.cache_hits": wmh_cache["hits"],
            "wmh.cache_misses": wmh_cache["misses"],
            "wmh.cache_evictions": wmh_cache["evictions"],
        }
    )
    return {
        "params": p,
        "e2e": e2e,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "traced_ms": [latency for latency, _, traced in closed if traced],
        "untraced_ms": [latency for latency, _, traced in closed if not traced],
    }
