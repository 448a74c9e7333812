"""In-process query asks, timed the same way in every workload."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.store import QuerySession

from common import (
    PHASE_HISTS,
    TOP_K,
    hist_totals,
    phase_parts,
    slices,
    window_pct,
)
from spans import Tracer

#: Program histograms whose run totals give the search-layer metrics.
QUERY_HISTS = PHASE_HISTS + ["query.shortlist_size", "query.joinable_tables"]


@dataclass
class Asks:
    """Latencies of every ask, split by query-sketch cache miss/hit."""

    miss_ms: list[float] = field(default_factory=list)
    hit_ms: list[float] = field(default_factory=list)
    sketch_ms: list[float] = field(default_factory=list)
    hits_returned: int = 0
    #: Where each window of hits starts in ``hit_ms``, if the workload
    #: marks its own windows (see :meth:`new_window`).
    window_starts: list[int] = field(default_factory=list)

    def new_window(self) -> None:
        """Start a window of hits: a burst of asks close together in time."""
        self.window_starts.append(len(self.hit_ms))

    def hit_windows(self) -> list:
        """The marked windows of hits, or else 20 consecutive parts."""
        if not self.window_starts:
            return slices(self.hit_ms, 20)
        bounds = self.window_starts + [len(self.hit_ms)]
        return [self.hit_ms[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    def answer_metrics(self, miss_windows: list[list[float]]) -> dict[str, float]:
        """The query and served-answer end-to-end metrics of the asks.

        Without HTTP the served stream is the steady-state answers, the
        cached-sketch hits; misses are reported on their own.  Every
        percentile is taken per window (:func:`common.window_pct`).
        """
        hits = self.hit_ms
        windows = self.hit_windows()
        return {
            "query_miss_p50_ms": window_pct(miss_windows, 50),
            "query_hit_p50_ms": window_pct(windows, 50),
            "query_hit_p99_ms": window_pct(windows, 99),
            "serve_qps": len(hits) / (sum(hits) / 1e3),
            "serve_p50_ms": window_pct(windows, 50),
            "serve_p95_ms": window_pct(windows, 95),
        }


def ask(
    session: QuerySession,
    table,
    miss: bool,
    asks: Asks,
    tracer: Tracer,
    column: str = "v",
) -> list:
    """One ask of ``table``: sketch it first on a miss, then search.

    The sketch is requested explicitly on a miss so that its cost is
    timed apart from the search, which then hits the session cache.
    """
    started = time.perf_counter()
    if miss:
        with tracer.span("wmh.query_sketch"):
            session.sketch(table)
        asks.sketch_ms.append((time.perf_counter() - started) * 1e3)
    before = hist_totals(PHASE_HISTS) if tracer.enabled else None
    with tracer.span("session.search") as span:
        hits = session.search(table, column, top_k=TOP_K)
    done = time.perf_counter()
    if before is not None:
        tracer.derive(span, phase_parts(before, hist_totals(PHASE_HISTS)))
    (asks.miss_ms if miss else asks.hit_ms).append((done - started) * 1e3)
    asks.hits_returned += len(hits)
    return hits


def search_layer_metrics(
    before: dict, after: dict, searches: int, hits_returned: int, scan_rows: int
) -> dict[str, float]:
    """Search/LSH per-layer metrics from run totals of program histograms.

    ``scan_rows`` is the total of indicator rows the scan-route searches
    read in their joinability pass (one per lake table per search); LSH
    searches read their shortlist instead.  A metric whose histograms
    recorded nothing is left out, so that a renamed histogram shows as
    a missing metric rather than a zero.
    """
    def delta(name: str) -> tuple[float, int]:
        return after[name][0] - before[name][0], after[name][1] - before[name][1]

    out: dict[str, float] = {}
    if searches == 0:
        return out
    estimates = [
        delta(f"query.phase_ms.{phase}")
        for phase in (
            "estimate.sum_left",
            "estimate.sum_squares_left",
            "estimate.sum_right",
            "estimate.sum_squares_right",
            "estimate.inner_product",
        )
    ]
    if all(count for _, count in estimates):
        out["search.estimate_cross_ms"] = sum(ms for ms, _ in estimates) / searches
    candidates_ms, candidates = delta("query.phase_ms.candidates")
    if candidates:
        out["lshindex.candidates_ms"] = candidates_ms / searches
    shortlist_sum, shortlisted = delta("query.shortlist_size")
    joinable_sum, joined = delta("query.joinable_tables")
    if shortlist_sum and joined:
        out["lshindex.shortlist_rows"] = shortlist_sum / shortlisted
        out["search.shortlist_precision"] = joinable_sum / shortlist_sum
    if hits_returned and (shortlisted or scan_rows):
        out["search.rows_examined_per_hit"] = (shortlist_sum + scan_rows) / hits_returned
    return out
