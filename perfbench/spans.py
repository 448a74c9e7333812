"""In-memory span tracing for the traced (``--trace 1``) runs.

Spans are recorded by the benchmark's own code around its calls into
each layer's public functions; nothing inside ``src/`` is patched.  A
span's name is ``<layer>.<what>``, and its layer is the part before the
first dot.  The root span of every traced operation is named
``op.<kind>`` and carries the request id; its self time (its duration
minus the time its children cover) is the part of end-to-end wall time
that no layer accounts for.

Where a public call reports its own internal breakdown (the
``IngestReport.stage_seconds`` of an ingest, the ``query.phase_ms.*``
accounting of a search), or an in-process replay measures the parts of
a served request, :meth:`Tracer.derive` attaches that breakdown as
child spans laid end to end from the parent's start.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None


class Tracer:
    """Spans kept in memory; :meth:`write` exports them at the end."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[int | None]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def derive(
        self, parent: int | None, parts: list[tuple[str, float]]
    ) -> list[int | None]:
        """Attach measured sub-intervals (name, seconds) under ``parent``.

        Returns each part's span index (``None`` for an empty part), so
        a derived span can take derived children of its own.
        """
        if parent is None:
            return [None] * len(parts)
        owner = self.spans[parent]
        start = owner.start
        out: list[int | None] = []
        for name, seconds in parts:
            if seconds <= 0.0:
                out.append(None)
                continue
            end = min(start + seconds, owner.end)
            out.append(len(self.spans))
            self.spans.append(Span(name, start, end, parent, owner.request_id))
            start = end
        return out

    def ledger(self, layers: list[str]) -> dict[str, float]:
        """Per-layer self time and the unattributed remainder, in seconds."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        self_time = {layer: 0.0 for layer in layers}
        wall = unattributed = 0.0
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            own = duration - covered[index]
            if span.parent is None:
                wall += duration
                unattributed += own
            else:
                layer = span.name.split(".", 1)[0]
                self_time[layer] = self_time.get(layer, 0.0) + own
        out = {f"{layer}.self_s": self_time[layer] for layer in layers}
        out["ledger.wall_s"] = wall
        out["ledger.unattributed_s"] = unattributed
        out["ledger.unattributed_share"] = unattributed / wall if wall > 0 else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = asdict(span)
                record["id"] = index
                handle.write(json.dumps(record) + "\n")
