"""Cold set-up of the in-memory-built lakes (``query_lsh``, ``serve_http``),
and the compaction and cold-open samples taken from it during a run.

Each set-up runs in a fresh interpreter, so the WMH minima cache and
every lazily built structure start cold.  The lake is built the way a
lake grows: several ``LakeStore.append`` batches, each from the second
on followed by a compaction.  The set-up keeps a copy of the lake as it
stood before its last compaction; :class:`StoreOps` replays that
compaction, and a cold open after it, many times over a run.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

from repro.core.wmh import WeightedMinHash
from repro.store import LakeStore, QuerySession

import gen
from common import (
    SKETCH_L,
    SKETCH_M,
    SKETCH_SEED,
    TOP_K,
    counter,
    hit_key,
    iq_mean,
    median,
)
from spans import Tracer

APPEND_BATCHES = 4
#: The set-up's copy of its lake before the last compaction.
UNCOMPACTED = "uncompacted"


def make(seed: int, p: dict) -> gen.Lake:
    return gen.make_lake(seed, p["queries"], p["related_per_query"], p["tables"])


def setup_child(seed: int, p: dict, lake_dir: Path, candidates: str) -> dict:
    """Empty dir -> appends -> compactions -> open -> first answer, timed.

    The copy of the lake before its last compaction is not timed.
    """
    lake = make(seed, p)
    tables = lake.tables
    step = -(-len(tables) // APPEND_BATCHES)
    started = time.perf_counter()
    append_s = untimed = 0.0
    with LakeStore.create(
        lake_dir, WeightedMinHash(m=SKETCH_M, seed=SKETCH_SEED, L=SKETCH_L)
    ) as store:
        for lo in range(0, len(tables), step):
            t0 = time.perf_counter()
            store.append(tables[lo : lo + step])
            append_s += time.perf_counter() - t0
            if lo + step >= len(tables):
                t0 = time.perf_counter()
                shutil.copytree(lake_dir, lake_dir.parent / UNCOMPACTED)
                os.sync()
                untimed += time.perf_counter() - t0
            if lo:
                store.compact()
    built = time.perf_counter()
    with LakeStore.open(lake_dir) as store:
        QuerySession(store, candidates=candidates).search(lake.queries[0], "v")
        answered = time.perf_counter()
        file_bytes = store.stats()["file_bytes"]
    return {
        "setup_s": answered - started - untimed,
        "build_s": built - started - untimed,
        "append_s": append_s,
        "rows": sum(table.num_rows for table in tables),
        "bytes_per_input_byte": file_bytes / sum(gen.csv_bytes(t) for t in tables),
    }


def setup_metrics(setups: list[dict]) -> dict[str, float]:
    """End-to-end metrics of the set-ups; the append rate is pooled."""
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        "ingest_rows_per_s": (
            sum(s["rows"] for s in setups) / sum(s["append_s"] for s in setups)
        ),
        "bytes_per_input_byte": median(s["bytes_per_input_byte"] for s in setups),
    }


class StoreOps:
    """Compaction and cold-open samples, one operation at a time.

    Each operation copies a set-up's uncompacted lake, compacts it
    (timed), reopens it and answers one table with a fresh
    ``QuerySession`` (timed: the cold open).  The answer must equal
    ``expected[table.name]``, the answer on the set-up's lake, which
    holds the same tables; a mismatch is a failed operation.  A
    workload paces its operations over the whole run, so that the
    samples see every phase of the shared host's speed.
    """

    def __init__(self, setup_dir: Path, work: Path, candidates: str, tracer: Tracer):
        self.source = setup_dir / UNCOMPACTED
        self.work = work
        self.candidates = candidates
        self.tracer = tracer
        self.compact_s: list[float] = []
        self.compact_bytes: list[float] = []
        self.open_ms: list[float] = []
        self.first_ms: list[float] = []
        self.attempted = self.failed = self.hits_returned = 0

    def run(self, table, expected: dict[str, list]) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.source, self.work)
        # The copy is flushed first, so the compaction's fsyncs write out
        # only its own shard (see ingest_cycle).
        os.sync()
        tracer = self.tracer
        self.attempted += 1
        with tracer.span("op.maintain", request_id=f"m{self.attempted}"):
            with LakeStore.open(self.work) as store:
                written = counter("store.shard_bytes_written")
                with tracer.span("lake.compact"):
                    t0 = time.perf_counter()
                    store.compact()
                    self.compact_s.append(time.perf_counter() - t0)
                self.compact_bytes.append(counter("store.shard_bytes_written") - written)
            t0 = time.perf_counter()
            with tracer.span("lake.open"):
                store = LakeStore.open(self.work)
            try:
                opened = time.perf_counter()
                with tracer.span("session.search"):
                    hits = QuerySession(store, candidates=self.candidates).search(
                        table, "v", top_k=TOP_K
                    )
                done = time.perf_counter()
            finally:
                store.close()
        self.open_ms.append((opened - t0) * 1e3)
        self.first_ms.append((done - opened) * 1e3)
        self.hits_returned += len(hits)
        self.failed += hit_key(hits) != expected[table.name]
        shutil.rmtree(self.work)

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(end_to_end, per_layer)``: interquartile means of the samples.

        A single operation lands in one speed phase of the host; the
        interquartile mean averages many yet ignores a stall.
        """
        cold = [o + f for o, f in zip(self.open_ms, self.first_ms)]
        e2e = {"compact_s": iq_mean(self.compact_s), "cold_open_ms": iq_mean(cold)}
        layer = {
            "lake.compact_s": e2e["compact_s"],
            "lake.compact_bytes_rewritten": median(self.compact_bytes),
            "lake.open_ms": iq_mean(self.open_ms),
            "session.first_search_ms": iq_mean(self.first_ms),
        }
        return e2e, layer
