"""In-memory span recorder for the traced (per-layer) run.

A span is ``(id, name, start, end, parent, run)`` plus free-form
attributes.  Spans are appended to a list while the run executes and
written out as JSON lines only by :meth:`Tracer.flush`, so recording
costs one ``perf_counter`` pair and one list append per span.

Self time is derived afterwards: a span's duration minus the part of
its interval that its direct children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], attrs: Dict):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Record nested spans for one run (identified by ``run_id``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, attrs)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        children: Dict[int, List[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        result = {}
        for record in self.spans:
            covered = 0.0
            cursor = record.start
            for child in sorted(children.get(record.id, ()), key=lambda s: s.start):
                begin = max(child.start, cursor)
                if child.end > begin:
                    covered += child.end - begin
                    cursor = child.end
            result[record.id] = record.duration - covered
        return result

    def select(self, name: str, **attrs) -> List[Span]:
        return [
            record
            for record in self.spans
            if record.name == name
            and all(record.attrs.get(k) == v for k, v in attrs.items())
        ]

    def median_self(self, name: str, **attrs) -> float:
        """Median self time (s) of the spans called ``name`` with ``attrs``."""
        own = self.self_times()
        picked = [own[record.id] for record in self.select(name, **attrs)]
        if not picked:
            raise KeyError(f"no span {name!r} with {attrs}")
        return statistics.median(picked)

    def flush(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": record.id,
                            "name": record.name,
                            "parent": record.parent,
                            "start": record.start,
                            "end": record.end,
                            "self": own[record.id],
                            "attrs": record.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        return len(self.spans)
