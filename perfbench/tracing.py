"""Spans recorded from outside the program, around calls into its modules.

A span has a name, start, end, parent span and run id, plus free-form
attributes (the backend it belongs to, counts made at the boundary).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._children: dict[int | None, list[dict]] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._children.setdefault(record["parent"], []).append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def children(self, span_id: int) -> list[dict]:
        return self._children.get(span_id, [])

    def descendants(self, span_id: int, name: str, **attrs) -> list[dict]:
        """Spans called ``name`` below ``span_id`` whose attributes include ``attrs``."""
        found = []
        stack = [span_id]
        while stack:
            for child in self.children(stack.pop()):
                stack.append(child["id"])
                if child["name"] == name and all(child["attrs"].get(k) == v for k, v in attrs.items()):
                    found.append(child)
        return found

    def self_time(self, span: dict) -> float:
        """The span's duration minus the part of it its children cover."""
        covered = 0.0
        reach = span["start"]
        for child in sorted(self.children(span["id"]), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return duration(span) - covered

    def write(self, path: Path, extra: dict) -> None:
        by_name: dict[str, dict] = {}
        for s in self.spans:
            entry = by_name.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration(s)
            entry["self_s"] += self.self_time(s)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"run": self.run_id, **extra, "by_name": by_name, "spans": self.spans}
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs and records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {"attrs": dict(attrs)}


NULL_TRACER = NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]
