"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the ``--seed``: the same seed gives
byte-identical tables and CSV files.  The regime follows the paper's
dataset-search setting and the repo's World-Bank-calibrated sampler
(:class:`repro.data.worldbank.WorldBankConfig`):

* table row counts are heavy-tailed (Pareto, capped);
* values are a normal body with Pareto-tailed outliers at a per-column
  outlier rate drawn from the config's range;
* query<->lake key overlap (containment) is Beta-distributed and skewed
  low, so many planted tables fall below the joinability threshold.

Every per-table parameter (row count, containment, correlation,
outlier rate, outlier magnitudes) is drawn over a set of tables at once
from fixed quantiles (:func:`strata`) in random order.  The multiset of
sizes and overlaps is then the same for every seed while keys, values
and their assignment change, so throughput and latency do not swing
from seed to seed on the luck of one giant table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.worldbank import WorldBankConfig
from repro.datasearch.table import Table

WB = WorldBankConfig()


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` probabilities, the midpoint of each of ``n`` equal strata,
    in random order: the inverse-CDF draw of a fixed quantile set."""
    return (rng.permutation(n) + 0.5) / n


def pareto_rows(rng: np.random.Generator, n: int, low: int, cap: int) -> np.ndarray:
    """``n`` heavy-tailed row counts: Pareto(shape) with minimum ``low``."""
    rows = low * (1.0 - strata(rng, n)) ** (-1.0 / WB.pareto_shape)
    return np.minimum(rows.astype(np.int64), cap)


def uniform(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    return low + (high - low) * strata(rng, n)


def outlier_rates(rng: np.random.Generator, n: int) -> np.ndarray:
    return uniform(rng, n, WB.outlier_rate_low, WB.outlier_rate_high)


def heavy_values(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Normal body; ``rate`` of the entries are Pareto-tailed outliers
    (World Bank kurtosis), with stratified magnitudes and random signs."""
    values = rng.normal(size=size)
    count = int(round(rate * size))
    if count:
        where = rng.choice(size, size=count, replace=False)
        tail = (1.0 - strata(rng, count)) ** (-1.0 / WB.pareto_shape)
        values[where] = rng.choice([-1.0, 1.0], size=count) * WB.outlier_scale * tail
    return values


class KeySpace:
    """Fresh, never-repeating keys, so overlap exists only where planted."""

    def __init__(self, rng: np.random.Generator, prefix: str = "k") -> None:
        self._next = int(rng.integers(0, 1 << 40))
        self._prefix = prefix

    def fresh(self, count: int) -> list[str]:
        start = self._next
        self._next += count
        return [f"{self._prefix}{i}" for i in range(start, start + count)]


@dataclass
class Lake:
    """Generated lake tables plus the planted truth for each query."""

    tables: list[Table]
    queries: list[Table]
    #: query name -> names of lake tables that share its keys
    related: dict[str, list[str]] = field(default_factory=dict)


def related_tables(
    rng: np.random.Generator,
    keys: KeySpace,
    queries: list[Table],
    names: list[str],
    containments: np.ndarray,
) -> list[Table]:
    """Lake tables planted on ``queries`` (the i-th on query i mod n).

    Table i shares ``containments[i]`` of its query's keys.  On shared
    keys its value column is correlated with the query's (coefficient
    in (-0.95, 0.95)) through heavy-tailed noise; its other rows are
    fresh keys with heavy-tailed values.
    """
    n = len(names)
    extras = pareto_rows(rng, n, 3, 300)
    rhos = uniform(rng, n, -0.95, 0.95)
    rates = outlier_rates(rng, n)
    tables = []
    for i, name in enumerate(names):
        query = queries[i % len(queries)]
        shared = max(1, int(round(containments[i] * query.num_rows)))
        picks = rng.choice(query.num_rows, size=shared, replace=False)
        qv = query.columns["v"][picks]
        z = (qv - qv.mean()) / (qv.std() or 1.0)
        noise = heavy_values(rng, shared, rates[i])
        noise = noise / (noise.std() or 1.0)
        rho = rhos[i]
        values = np.concatenate(
            [
                rho * z + np.sqrt(1.0 - rho * rho) * noise,
                heavy_values(rng, int(extras[i]), rates[i]),
            ]
        )
        tables.append(
            Table(
                name,
                [query.keys[j] for j in picks.tolist()] + keys.fresh(int(extras[i])),
                {"v": values},
            )
        )
    return tables


def background_tables(
    rng: np.random.Generator,
    keys: KeySpace,
    names: list[str],
    rows: tuple[int, int] = (2, 1500),
) -> list[Table]:
    """Tables joinable with no query: fresh keys; 30% have two columns."""
    n = len(names)
    sizes = pareto_rows(rng, n, *rows)
    rates = outlier_rates(rng, 2 * n)
    wide = strata(rng, n) < 0.3
    tables = []
    for i, name in enumerate(names):
        size = int(sizes[i])
        columns = {"v": heavy_values(rng, size, rates[2 * i])}
        if wide[i]:
            columns["w"] = heavy_values(rng, size, rates[2 * i + 1])
        tables.append(Table(name, keys.fresh(size), columns))
    return tables


def make_lake(
    seed: int,
    num_queries: int,
    related_per_query: int,
    num_tables: int,
    query_rows: tuple[int, int] = (20, 800),
) -> Lake:
    """``num_tables`` lake tables, ``related_per_query`` planted per query."""
    rng = np.random.default_rng(seed)
    keys = KeySpace(rng)
    sizes = pareto_rows(rng, num_queries, *query_rows)
    rates = outlier_rates(rng, num_queries)
    queries = [
        Table(f"query{i}", keys.fresh(int(rows)), {"v": heavy_values(rng, int(rows), rates[i])})
        for i, rows in enumerate(sizes)
    ]
    num_related = num_queries * related_per_query
    containments = np.clip(
        _beta_ppf(strata(rng, num_related), WB.overlap_alpha, WB.overlap_beta),
        0.01,
        1.0,
    )
    related_names = [f"rel{j}" for j in range(num_related)]
    tables = related_tables(rng, keys, queries, related_names, containments)
    related: dict[str, list[str]] = {query.name: [] for query in queries}
    for j, name in enumerate(related_names):
        related[queries[j % num_queries].name].append(name)
    tables += background_tables(
        rng, keys, [f"bg{j}" for j in range(num_tables - num_related)]
    )
    order = rng.permutation(len(tables))
    return Lake([tables[i] for i in order], queries, related)


def _beta_ppf(u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Beta quantiles by inverting an accurate numeric CDF (no scipy)."""
    grid = np.linspace(0.0, 1.0, 20_001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    density = mid ** (alpha - 1.0) * (1.0 - mid) ** (beta - 1.0)
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    return np.interp(u, cdf, grid)


# ---------------------------------------------------------------------
# CSV form
# ---------------------------------------------------------------------


def write_csv(table: Table, handle) -> None:
    """The CSV form the ingest path reads: ``key`` then value columns.

    ``repr`` of a float round-trips exactly, so the parsed table equals
    the generated one bit for bit.
    """
    names = list(table.columns)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["key", *names])
    columns = [table.columns[name].tolist() for name in names]
    for i, key in enumerate(table.keys):
        writer.writerow([key, *(repr(col[i]) for col in columns)])


def save_csv(table: Table, directory: Path) -> Path:
    path = directory / f"{table.name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_csv(table, handle)
    return path


def csv_bytes(table: Table) -> int:
    """Size in bytes of ``table``'s CSV form (no file written)."""
    buffer = io.StringIO()
    write_csv(table, buffer)
    return len(buffer.getvalue().encode("utf-8"))


def fresh_values(rng: np.random.Generator, tables: list[Table]) -> list[Table]:
    """``tables`` with the same keys and new values (replacements).

    Every value is redrawn, so a planted table loses its planted
    correlation and its served statistics must change with the data.
    """
    rates = outlier_rates(rng, len(tables))
    return [
        Table(
            table.name,
            list(table.keys),
            {
                name: heavy_values(rng, values.size, rates[i])
                for name, values in table.columns.items()
            },
        )
        for i, table in enumerate(tables)
    ]
